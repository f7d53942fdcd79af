//! The simulated network fabric: listeners, connections, latency, and
//! man-in-the-middle hooks.
//!
//! # The sharded store
//!
//! The fabric is built for thousand-node fleets driven from many OS
//! threads. All per-address state (listeners, latency overrides,
//! redirects, tamper hooks, fault plans) lives in a fixed array of
//! [`SHARDS`] `RwLock` shards keyed by `fnv1a(address)`. A dial takes
//! one read lock on the dialed address's shard (two under a redirect),
//! an exchange one more to find its governing fault plan, and a mutation
//! one write lock. No path ever holds two shard locks at once, so
//! lookups cannot deadlock, and dials to distinct addresses from
//! different threads only meet when their addresses share a shard.
//!
//! Fault entries are shared (`Arc<Mutex<FaultEntry>>`) out of the shard
//! maps: a fault draw clones the entry under the shard's read lock and
//! then locks only the entry, so chaos traffic never takes a shard write
//! lock per draw. Fault domains span shards and sit in one fabric-wide
//! `RwLock`; with none installed, the check is a read-lock emptiness
//! test.
//!
//! # Determinism
//!
//! Sharding does not touch the determinism contract: every fault stream
//! is keyed by its address (or `(address, route-prefix)`) and seeded as
//! `fabric_seed ^ fnv1a(key)`, so equal seeds produce byte-identical
//! decision streams regardless of thread count or dial interleaving
//! across addresses. Every mutation is applied to the shard maps before
//! it returns, so a thread observes its own writes in program order. The
//! global fault counter is a relaxed atomic: its total is a sum of
//! per-stream counts and therefore equally interleaving-independent.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::clock::SimClock;
use crate::domain::{domain_stream_key, DomainEffect, FaultDomain};
use crate::fault::{fnv1a, route_stream_key, FaultEntry, FaultKind, FaultObserver, FaultPlan};
use crate::NetError;

/// Per-connection server-side state machine.
///
/// One handler instance exists per accepted connection; `on_message`
/// receives each client message and returns the response — the synchronous
/// exchange model every protocol in this workspace builds on.
pub trait ConnectionHandler: Send {
    /// Handles one client message, producing the response.
    ///
    /// # Errors
    ///
    /// Implementations return [`NetError::Protocol`] (or
    /// [`NetError::ConnectionClosed`]) to abort the connection.
    fn on_message(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError>;
}

/// A service bound to an address; accepts connections.
pub trait Listener: Send + Sync {
    /// Creates the per-connection handler state.
    fn accept(&self) -> Box<dyn ConnectionHandler>;
}

/// Tampering hook: may rewrite a client→server message in flight.
pub type TamperFn = dyn Fn(&[u8]) -> Vec<u8> + Send + Sync;

/// Number of fabric shards: enough to keep 16 benchmark threads off each
/// other's cache lines without bloating small single-threaded worlds.
pub const SHARDS: usize = 16;

/// A fault entry shared between the shard maps and in-flight draws. The
/// mutex is a leaf lock: holders never take a shard lock.
type SharedFaultEntry = Arc<Mutex<FaultEntry>>;

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Default one-way link latency in microseconds.
    pub default_one_way_us: u64,
}

impl Default for NetConfig {
    /// 2.6 ms one way — the paper's 5.2 ms base round trip (Table 3).
    fn default() -> Self {
        NetConfig {
            default_one_way_us: 2600,
        }
    }
}

/// All per-address state of one shard.
#[derive(Default)]
struct ShardState {
    listeners: HashMap<String, Arc<dyn Listener>>,
    latency_overrides: HashMap<String, u64>,
    redirects: HashMap<String, String>,
    tamper: HashMap<String, Arc<TamperFn>>,
    /// Address-wide fault plans.
    faults: HashMap<String, SharedFaultEntry>,
    /// Per-route fault plans: address → `(path-prefix, entry)` list. The
    /// longest matching prefix wins; the address-wide plan is the
    /// fallback when no prefix matches.
    route_faults: HashMap<String, Vec<(String, SharedFaultEntry)>>,
}

impl ShardState {
    /// Appends one canonical line per address known to this shard:
    /// `(address, description, planned)`. See [`SimNet::view_fingerprint`].
    fn describe_into(&self, out: &mut Vec<(String, String, bool)>) {
        let addresses: BTreeSet<&String> = self
            .listeners
            .keys()
            .chain(self.latency_overrides.keys())
            .chain(self.redirects.keys())
            .chain(self.tamper.keys())
            .chain(self.faults.keys())
            .chain(self.route_faults.keys())
            .collect();
        for address in addresses {
            let mut line = String::new();
            let _ = write!(
                line,
                "listener:{} latency:{:?} redirect:{:?} tamper:{}",
                u8::from(self.listeners.contains_key(address)),
                self.latency_overrides.get(address),
                self.redirects.get(address).map(String::as_str),
                u8::from(self.tamper.contains_key(address)),
            );
            let fault = self.faults.get(address);
            if let Some(entry) = fault {
                let _ = write!(line, " plan:[{}]", entry.lock().plan.fingerprint());
            }
            let routes = self.route_faults.get(address);
            if let Some(routes) = routes {
                let mut routes: Vec<(String, String)> = routes
                    .iter()
                    .map(|(prefix, entry)| (prefix.clone(), entry.lock().plan.fingerprint()))
                    .collect();
                routes.sort();
                for (prefix, plan) in routes {
                    let _ = write!(line, " route:{prefix}:[{plan}]");
                }
            }
            out.push((address.clone(), line, fault.is_some() || routes.is_some()));
        }
    }
}

/// One installed [`FaultDomain`] plus its lazily created per-destination
/// decision streams (degraded domains only; partitions draw nothing).
struct DomainState {
    domain: FaultDomain,
    entries: HashMap<String, FaultEntry>,
}

/// The shared interior of a [`SimNet`] (and of every [`Connection`]).
struct Fabric {
    /// An address lives in shard `fnv1a(address) % SHARDS`.
    shards: [RwLock<ShardState>; SHARDS],
    /// Fabric-wide fault seed; per-stream RNGs derive from it.
    fault_seed: AtomicU64,
    /// Total faults injected. Relaxed: the total is a sum of per-stream
    /// counts, so no ordering is needed for it to be deterministic.
    faults_injected: AtomicU64,
    fault_observer: RwLock<Option<Arc<FaultObserver>>>,
    /// Correlated-failure domains, fabric-wide because a domain spans
    /// shards.
    domains: RwLock<Vec<DomainState>>,
}

impl Fabric {
    fn new() -> Self {
        Fabric {
            shards: std::array::from_fn(|_| RwLock::new(ShardState::default())),
            fault_seed: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            fault_observer: RwLock::new(None),
            domains: RwLock::new(Vec::new()),
        }
    }

    fn shard(&self, address: &str) -> &RwLock<ShardState> {
        &self.shards[(fnv1a(address) % SHARDS as u64) as usize]
    }

    /// Runs `f` under a read lock on `address`'s shard.
    fn read<R>(&self, address: &str, f: impl FnOnce(&ShardState) -> R) -> R {
        f(&self.shard(address).read())
    }

    /// Runs `f` under a write lock on `address`'s shard.
    fn write<R>(&self, address: &str, f: impl FnOnce(&mut ShardState) -> R) -> R {
        f(&mut self.shard(address).write())
    }

    /// Records an injected fault and returns the observer to notify (the
    /// caller invokes it after releasing any shard lock).
    fn record_fault(&self) -> Option<Arc<FaultObserver>> {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        self.fault_observer.read().clone()
    }

    /// Whether an active [`DomainEffect::Partition`] covers `src → dst`
    /// at sim time `now_us`; returns the discovery timeout to charge.
    /// Degraded domains do not fail dials (the link is up, just lossy).
    fn domain_dial_fault(&self, now_us: u64, src: Option<&str>, dst: &str) -> Option<u64> {
        let domains = self.domains.read();
        domains
            .iter()
            .find(|state| {
                matches!(state.domain.effect, DomainEffect::Partition)
                    && state.domain.is_active_at(now_us)
                    && state.domain.matches(src, dst)
            })
            .map(|state| state.domain.timeout_us)
    }

    /// Consults the first active domain covering `src → dst`: a
    /// partition always drops; a degraded domain draws one decision from
    /// its `(domain, dst)` stream. `None` when no domain matches — the
    /// per-address/per-route plans then get their say.
    fn domain_exchange_decision(
        &self,
        now_us: u64,
        src: Option<&str>,
        dst: &str,
    ) -> Option<(u64, Option<FaultKind>, u64)> {
        // Fast path: no domains installed — a read-lock emptiness check.
        if self.domains.read().is_empty() {
            return None;
        }
        let seed = self.fault_seed.load(Ordering::Relaxed);
        let mut domains = self.domains.write();
        for state in domains.iter_mut() {
            if !state.domain.is_active_at(now_us) || !state.domain.matches(src, dst) {
                continue;
            }
            match &state.domain.effect {
                DomainEffect::Partition => {
                    return Some((0, Some(FaultKind::Dropped), state.domain.timeout_us));
                }
                DomainEffect::Degraded(plan) => {
                    let plan = plan.clone();
                    let name = state.domain.name.clone();
                    let entry = state.entries.entry(dst.to_owned()).or_insert_with(|| {
                        FaultEntry::new(plan, seed, &domain_stream_key(&name, dst))
                    });
                    let (jitter, fault) = entry.exchange_decision();
                    return Some((jitter, fault, entry.plan.timeout_us));
                }
            }
        }
        None
    }
}

/// The shared network fabric.
#[derive(Clone)]
pub struct SimNet {
    clock: SimClock,
    config: NetConfig,
    fabric: Arc<Fabric>,
    /// The source address this handle dials from, set via
    /// [`SimNet::bound_to`]. Only consulted by source-scoped fault
    /// domains (asymmetric links); `None` handles never match them.
    local: Option<String>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SimNet {
    /// Creates a network fabric on `clock`.
    #[must_use]
    pub fn new(clock: SimClock, config: NetConfig) -> Self {
        SimNet {
            clock,
            config,
            fabric: Arc::new(Fabric::new()),
            local: None,
        }
    }

    /// A handle on the same fabric that dials *from* `local_address` —
    /// the source side of asymmetric fault domains
    /// ([`FaultDomain::from_sources`]). Shaping, listeners, seeds, and
    /// counters are all shared with the parent handle.
    #[must_use]
    pub fn bound_to(&self, local_address: &str) -> SimNet {
        SimNet {
            local: Some(local_address.to_owned()),
            ..self.clone()
        }
    }

    /// The source address this handle dials from, if bound.
    #[must_use]
    pub fn local_address(&self) -> Option<&str> {
        self.local.as_deref()
    }

    /// The fabric's clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The fabric's configuration.
    #[must_use]
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Binds `listener` at `address` (e.g. `"203.0.113.7:443"`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AddressInUse`] when already bound.
    pub fn bind(&self, address: &str, listener: Arc<dyn Listener>) -> Result<(), NetError> {
        self.fabric.write(address, |state| {
            if state.listeners.contains_key(address) {
                return Err(NetError::AddressInUse(address.to_owned()));
            }
            state.listeners.insert(address.to_owned(), listener);
            Ok(())
        })
    }

    /// Removes the listener at `address` (service shutdown).
    pub fn unbind(&self, address: &str) {
        self.fabric.write(address, |state| {
            state.listeners.remove(address);
        });
    }

    /// Runs `f` on this fabric. A grouping helper for bursts of
    /// mutations such as fleet provisioning: every mutation is applied
    /// to the shard maps as it is made, so there is nothing to defer and
    /// `f` sees its own writes in program order.
    pub fn batch<R>(&self, f: impl FnOnce(&SimNet) -> R) -> R {
        f(self)
    }

    /// Returns the traffic-shaping handle for `address`: the single entry
    /// point for latency overrides, tamper hooks, redirects, and fault
    /// plans. Each builder call applies immediately, so calls chain:
    ///
    /// ```
    /// # use revelio_net::clock::SimClock;
    /// # use revelio_net::net::{NetConfig, SimNet};
    /// # use revelio_net::FaultPlan;
    /// # let net = SimNet::new(SimClock::new(), NetConfig::default());
    /// net.peer("kds.amd.test:443")
    ///     .latency_us(213_650)
    ///     .fault_plan(FaultPlan::fail_first(2));
    /// ```
    #[must_use]
    pub fn peer(&self, address: &str) -> PeerShaper<'_> {
        PeerShaper {
            net: self,
            address: address.to_owned(),
        }
    }

    /// Sets the fabric-wide fault seed. Each faulted stream derives its
    /// own decision sequence from this seed and its key (address, or
    /// address + route prefix), so dial order across addresses cannot
    /// perturb another stream. Call before installing plans;
    /// already-installed plans are reseeded (and their fail-first windows
    /// reset).
    pub fn set_fault_seed(&self, seed: u64) {
        self.fabric.fault_seed.store(seed, Ordering::Relaxed);
        for shard in &self.fabric.shards {
            let state = shard.write();
            for (address, entry) in &state.faults {
                let mut entry = entry.lock();
                let plan = entry.plan.clone();
                *entry = FaultEntry::new(plan, seed, address);
            }
            for (address, routes) in &state.route_faults {
                for (prefix, entry) in routes {
                    let mut entry = entry.lock();
                    let plan = entry.plan.clone();
                    *entry = FaultEntry::new(plan, seed, &route_stream_key(address, prefix));
                }
            }
        }
        // Degraded-domain streams re-derive lazily from the new seed.
        for state in self.fabric.domains.write().iter_mut() {
            state.entries.clear();
        }
    }

    /// Installs a correlated-failure domain (replacing any domain with
    /// the same name). Domains are evaluated in installation order and
    /// sit **below** the per-address/per-route plans: an active matching
    /// [`DomainEffect::Partition`] times out dials and drops exchanges;
    /// a [`DomainEffect::Degraded`] domain draws per-exchange decisions
    /// from a `(domain, destination)`-keyed stream. See [`FaultDomain`].
    pub fn install_fault_domain(&self, domain: FaultDomain) {
        let mut domains = self.fabric.domains.write();
        let state = DomainState {
            domain,
            entries: HashMap::new(),
        };
        match domains
            .iter_mut()
            .find(|s| s.domain.name == state.domain.name)
        {
            Some(slot) => *slot = state,
            None => domains.push(state),
        }
    }

    /// Snapshot of every installed fault domain, in installation order.
    /// The reconciler reads these to learn each outage's scheduled heal
    /// (`until_us`) so it defers re-admission probes until the partition
    /// is due to lift instead of burning retries into a black hole.
    #[must_use]
    pub fn fault_domains(&self) -> Vec<FaultDomain> {
        self.fabric
            .domains
            .read()
            .iter()
            .map(|state| state.domain.clone())
            .collect()
    }

    /// Removes the fault domain named `name` (an unscheduled heal).
    pub fn clear_fault_domain(&self, name: &str) {
        self.fabric
            .domains
            .write()
            .retain(|state| state.domain.name != name);
    }

    /// Removes every installed fault domain.
    pub fn clear_fault_domains(&self) {
        self.fabric.domains.write().clear();
    }

    /// Installs an observer invoked on every injected fault (outside the
    /// fabric locks). The harness mirrors injections into telemetry.
    pub fn set_fault_observer(&self, observer: Arc<FaultObserver>) {
        *self.fabric.fault_observer.write() = Some(observer);
    }

    /// Total faults injected so far, across all addresses and routes.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.fabric.faults_injected.load(Ordering::Relaxed)
    }

    /// A canonical dump of the fabric's routing state, read straight
    /// from the shard maps: every known address sorted, with its
    /// listener/latency/redirect/tamper presence and the full parameters
    /// of every installed plan, plus a planned-count/domain footer.
    /// Independent of thread count and mutation interleaving for the
    /// same final state — the write-burst suite diffs it across thread
    /// counts.
    #[must_use]
    pub fn view_fingerprint(&self) -> String {
        let mut entries: Vec<(String, String, bool)> = Vec::new();
        for shard in &self.fabric.shards {
            shard.read().describe_into(&mut entries);
        }
        entries.sort();
        let planned = entries.iter().filter(|(_, _, planned)| *planned).count();
        let domains = self.fabric.domains.read().len();
        let mut out = String::new();
        for (address, line, _) in &entries {
            let _ = writeln!(out, "{address} | {line}");
        }
        let _ = writeln!(
            out,
            "-- entries:{} planned:{planned} domains:{domains}",
            entries.len()
        );
        out
    }

    /// Opens a connection to `address`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ConnectionRefused`] when nothing listens there —
    /// which is exactly what connecting to a Revelio VM's SSH port yields —
    /// or [`NetError::Timeout`] when the address's fault plan is inside a
    /// fail-first window or an active partition domain covers it.
    pub fn dial(&self, address: &str) -> Result<Connection, NetError> {
        // An active partition domain is the lowest network layer: the
        // dial times out before any per-address plan or listener lookup.
        if let Some(timeout_us) =
            self.fabric
                .domain_dial_fault(self.clock.now_us(), self.local.as_deref(), address)
        {
            return Err(self.dial_timeout(address, timeout_us));
        }
        // One read lock resolves everything about the dialed address;
        // the fail-first draw (when a fault plan is installed) goes
        // through the shared entry's own lock, never a shard write lock
        // (a fail-first window makes the service unreachable: the dial
        // times out before anything is delivered; only address-wide plans
        // apply — the route is not known until an exchange).
        let (fault, redirect, victim_latency, victim_tamper, victim_listener) =
            self.fabric.read(address, |state| {
                (
                    state.faults.get(address).cloned(),
                    state.redirects.get(address).cloned(),
                    state.latency_overrides.get(address).copied(),
                    state.tamper.get(address).cloned(),
                    state.listeners.get(address).cloned(),
                )
            });
        if let Some(entry) = fault {
            let timed_out = {
                let mut entry = entry.lock();
                entry.dial_fails().then_some(entry.plan.timeout_us)
            };
            if let Some(timeout_us) = timed_out {
                return Err(self.dial_timeout(address, timeout_us));
            }
        }
        // The dialed address wins for latency and tamper lookups: an
        // override installed on the victim keeps applying after a
        // redirect, falling back to the attacker's setting only when the
        // victim has none.
        let (listener, fallback_latency, fallback_tamper) = match redirect {
            Some(effective) if effective != address => self.fabric.read(&effective, |state| {
                (
                    state.listeners.get(&effective).cloned(),
                    state.latency_overrides.get(&effective).copied(),
                    state.tamper.get(&effective).cloned(),
                )
            }),
            _ => (victim_listener, None, None),
        };
        let listener = listener.ok_or_else(|| NetError::ConnectionRefused(address.to_owned()))?;
        let one_way_us = victim_latency
            .or(fallback_latency)
            .unwrap_or(self.config.default_one_way_us);
        Ok(Connection {
            clock: self.clock.clone(),
            handler: listener.accept(),
            one_way_us,
            tamper: victim_tamper.or(fallback_tamper),
            dialed: address.to_owned(),
            local: self.local.clone(),
            closed: false,
            timeout_us: FaultPlan::default().timeout_us,
            fabric: Arc::clone(&self.fabric),
        })
    }

    /// Charges a failed dial's discovery timeout, records the fault, and
    /// notifies the observer (outside every fabric lock).
    fn dial_timeout(&self, address: &str, timeout_us: u64) -> NetError {
        let observer = self.fabric.record_fault();
        self.clock.advance_us(timeout_us);
        if let Some(obs) = observer {
            obs(address, FaultKind::Timeout);
        }
        NetError::Timeout(address.to_owned())
    }
}

/// A traffic-shaping handle for one peer address, returned by
/// [`SimNet::peer`]. Every call applies immediately and returns the
/// handle, so settings chain fluently.
pub struct PeerShaper<'a> {
    net: &'a SimNet,
    address: String,
}

impl std::fmt::Debug for PeerShaper<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerShaper")
            .field("address", &self.address)
            .finish()
    }
}

impl PeerShaper<'_> {
    /// Applies `f` to this address's shard under its write lock.
    fn edit(self, f: impl FnOnce(&mut ShardState, &str)) -> Self {
        self.net
            .fabric
            .write(&self.address, |state| f(state, &self.address));
        self
    }

    fn fault_seed(&self) -> u64 {
        self.net.fabric.fault_seed.load(Ordering::Relaxed)
    }

    /// Sets the one-way latency for dials *to* this address, in
    /// microseconds — e.g. a distant AMD KDS.
    pub fn latency_us(self, one_way_us: u64) -> Self {
        self.edit(|state, address| {
            state
                .latency_overrides
                .insert(address.to_owned(), one_way_us);
        })
    }

    /// ATTACK: installs a message-tampering hook on dials to this address.
    pub fn tamper(self, tamper: Arc<TamperFn>) -> Self {
        self.edit(|state, address| {
            state.tamper.insert(address.to_owned(), tamper);
        })
    }

    /// ATTACK: silently rewires future dials of this address to
    /// `attacker` (BGP hijack / hostile middlebox). TLS endpoint checks
    /// must catch it.
    pub fn redirect_to(self, attacker: &str) -> Self {
        self.edit(|state, address| {
            state
                .redirects
                .insert(address.to_owned(), attacker.to_owned());
        })
    }

    /// Removes a redirect.
    pub fn clear_redirect(self) -> Self {
        self.edit(|state, address| {
            state.redirects.remove(address);
        })
    }

    /// Installs (or replaces) the address-wide fault plan for dials *to*
    /// this address. Plans are keyed by the **dialed** address — under a
    /// redirect the victim's plan applies, matching the latency/tamper
    /// precedence.
    pub fn fault_plan(self, plan: FaultPlan) -> Self {
        let seed = self.fault_seed();
        self.edit(|state, address| {
            let entry = Arc::new(Mutex::new(FaultEntry::new(plan, seed, address)));
            state.faults.insert(address.to_owned(), entry);
        })
    }

    /// Installs (or replaces) a fault plan for exchanges on this address
    /// whose route starts with `prefix` (e.g. `"/vcek"` on the KDS while
    /// `"/cert_chain"` stays healthy). The longest matching prefix wins;
    /// the address-wide plan is the fallback. Route plans draw from their
    /// own `(address, prefix)`-keyed stream and apply per exchange — the
    /// dial itself is only governed by the address-wide plan's fail-first
    /// window, since no route exists before the first exchange.
    pub fn fault_plan_for_route(self, prefix: &str, plan: FaultPlan) -> Self {
        let seed = self.fault_seed();
        self.edit(|state, address| {
            let entry = Arc::new(Mutex::new(FaultEntry::new(
                plan,
                seed,
                &route_stream_key(address, prefix),
            )));
            let routes = state.route_faults.entry(address.to_owned()).or_default();
            match routes.iter_mut().find(|(p, _)| p == prefix) {
                Some(slot) => slot.1 = entry,
                None => routes.push((prefix.to_owned(), entry)),
            }
        })
    }

    /// Removes every fault plan for this address — address-wide and
    /// per-route — the "faults clear" moment.
    pub fn clear_fault_plan(self) -> Self {
        self.edit(|state, address| {
            state.faults.remove(address);
            state.route_faults.remove(address);
        })
    }

    /// Clears *all* shaping for this address: latency override, tamper
    /// hook, redirect, and every fault plan.
    pub fn clear(self) -> Self {
        self.edit(|state, address| {
            state.latency_overrides.remove(address);
            state.tamper.remove(address);
            state.redirects.remove(address);
            state.faults.remove(address);
            state.route_faults.remove(address);
        })
    }
}

/// A client-side connection performing synchronous exchanges.
pub struct Connection {
    clock: SimClock,
    handler: Box<dyn ConnectionHandler>,
    one_way_us: u64,
    tamper: Option<Arc<TamperFn>>,
    dialed: String,
    /// Source address of the dialing handle (asymmetric domains).
    local: Option<String>,
    closed: bool,
    /// Timeout window charged for drops/timeouts; refreshed from the
    /// governing fault plan on each exchange.
    timeout_us: u64,
    fabric: Arc<Fabric>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("dialed", &self.dialed)
            .field("one_way_us", &self.one_way_us)
            .finish_non_exhaustive()
    }
}

impl Connection {
    /// Sends `message` and waits for the response. Advances the clock by
    /// one round trip. Equivalent to [`Connection::exchange_routed`] with
    /// an empty route: only address-wide fault plans apply.
    ///
    /// # Errors
    ///
    /// Propagates handler errors; a closed connection returns
    /// [`NetError::ConnectionClosed`].
    pub fn exchange(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError> {
        self.exchange_routed("", message)
    }

    /// Sends `message` labelled with `route` (an HTTP path, for protocols
    /// that have one) and waits for the response. The label exists purely
    /// for fault injection: a per-route plan whose prefix matches `route`
    /// governs this exchange instead of the address-wide plan.
    ///
    /// # Errors
    ///
    /// Propagates handler errors; a closed connection returns
    /// [`NetError::ConnectionClosed`].
    pub fn exchange_routed(&mut self, route: &str, message: &[u8]) -> Result<Vec<u8>, NetError> {
        if self.closed {
            return Err(NetError::ConnectionClosed);
        }
        let (jitter_us, fault) = self.fault_decision(route);
        let one_way_us = self.one_way_us.saturating_add(jitter_us);
        if let Some(err) = fault {
            self.closed = true;
            // The client spends simulated time discovering the fault: a
            // full timeout window for drops/timeouts, one (jittered)
            // one-way trip for a reset.
            let cost_us = match &err {
                NetError::ConnectionClosed => one_way_us,
                _ => self.timeout_us,
            };
            self.clock.advance_us(cost_us);
            return Err(err);
        }
        self.clock.advance_us(one_way_us);
        let delivered = match &self.tamper {
            Some(t) => t(message),
            None => message.to_vec(),
        };
        let result = self.handler.on_message(&delivered);
        self.clock.advance_us(one_way_us);
        if result.is_err() {
            self.closed = true;
        }
        result
    }

    /// Consults the governing fault plan for this exchange — an active
    /// fault domain first, then the longest matching route plan, else the
    /// address-wide plan — returning the one-way jitter and the fault to
    /// surface, if any. Faults fire **before** delivery: the handler
    /// never runs, so server-side state is untouched and a retry is
    /// always safe.
    fn fault_decision(&mut self, route: &str) -> (u64, Option<NetError>) {
        // Correlated-failure domains are consulted first — they model the
        // layer below per-address shaping. A domain that injects nothing
        // still contributes its jitter; the plans then get their say.
        let mut domain_jitter_us = 0;
        if let Some((jitter_us, fault, timeout_us)) = self.fabric.domain_exchange_decision(
            self.clock.now_us(),
            self.local.as_deref(),
            &self.dialed,
        ) {
            self.timeout_us = timeout_us;
            if let Some(kind) = fault {
                return (jitter_us, Some(self.injected(kind)));
            }
            domain_jitter_us = jitter_us;
        }
        // One read lock picks the governing entry (longest matching
        // route prefix, else the address-wide plan); the draw itself
        // goes through the shared entry's own lock.
        let governing = self.fabric.read(&self.dialed, |state| {
            if let Some(routes) = state.route_faults.get(&self.dialed) {
                let best = routes
                    .iter()
                    .filter(|(prefix, _)| route.starts_with(prefix.as_str()))
                    .max_by_key(|(prefix, _)| prefix.len());
                if let Some((_, entry)) = best {
                    return Some(Arc::clone(entry));
                }
            }
            state.faults.get(&self.dialed).cloned()
        });
        let Some(entry) = governing else {
            return (domain_jitter_us, None);
        };
        let ((jitter_us, fault), timeout_us) = {
            let mut entry = entry.lock();
            (entry.exchange_decision(), entry.plan.timeout_us)
        };
        let jitter_us = domain_jitter_us.saturating_add(jitter_us);
        self.timeout_us = timeout_us;
        match fault {
            Some(kind) => (jitter_us, Some(self.injected(kind))),
            None => (jitter_us, None),
        }
    }

    /// Records an injected fault, notifies the observer (outside every
    /// fabric lock), and returns the [`NetError`] the client observes.
    fn injected(&self, kind: FaultKind) -> NetError {
        if let Some(obs) = self.fabric.record_fault() {
            obs(&self.dialed, kind);
        }
        match kind {
            FaultKind::Dropped => NetError::Dropped(self.dialed.clone()),
            FaultKind::Timeout => NetError::Timeout(self.dialed.clone()),
            FaultKind::Reset => NetError::ConnectionClosed,
        }
    }

    /// The address this connection was dialed to (pre-redirect).
    #[must_use]
    pub fn dialed_address(&self) -> &str {
        &self.dialed
    }

    /// Closes the connection; further exchanges fail.
    pub fn close(&mut self) {
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Listener for Echo {
        fn accept(&self) -> Box<dyn ConnectionHandler> {
            struct H;
            impl ConnectionHandler for H {
                fn on_message(&mut self, m: &[u8]) -> Result<Vec<u8>, NetError> {
                    Ok(m.to_vec())
                }
            }
            Box::new(H)
        }
    }

    struct Marker(&'static [u8]);
    impl Listener for Marker {
        fn accept(&self) -> Box<dyn ConnectionHandler> {
            struct H(&'static [u8]);
            impl ConnectionHandler for H {
                fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                    Ok(self.0.to_vec())
                }
            }
            Box::new(H(self.0))
        }
    }

    fn fabric() -> (SimClock, SimNet) {
        let clock = SimClock::new();
        let net = SimNet::new(
            clock.clone(),
            NetConfig {
                default_one_way_us: 1000,
            },
        );
        (clock, net)
    }

    #[test]
    fn exchange_advances_clock_by_round_trip() {
        let (clock, net) = fabric();
        net.bind("a:1", Arc::new(Echo)).unwrap();
        let mut conn = net.dial("a:1").unwrap();
        conn.exchange(b"x").unwrap();
        assert_eq!(clock.now_us(), 2000);
        conn.exchange(b"x").unwrap();
        assert_eq!(clock.now_us(), 4000);
    }

    #[test]
    fn unbound_port_refuses() {
        let (_, net) = fabric();
        assert_eq!(
            net.dial("vm:22").unwrap_err(),
            NetError::ConnectionRefused("vm:22".into())
        );
    }

    #[test]
    fn double_bind_rejected_and_unbind_frees() {
        let (_, net) = fabric();
        net.bind("a:1", Arc::new(Echo)).unwrap();
        assert!(net.bind("a:1", Arc::new(Echo)).is_err());
        net.unbind("a:1");
        net.bind("a:1", Arc::new(Echo)).unwrap();
    }

    #[test]
    fn per_address_latency_override() {
        let (clock, net) = fabric();
        net.bind("kds:443", Arc::new(Echo)).unwrap();
        net.peer("kds:443").latency_us(100_000); // a distant service
        let mut conn = net.dial("kds:443").unwrap();
        conn.exchange(b"q").unwrap();
        assert_eq!(clock.now_us(), 200_000);
    }

    #[test]
    fn redirect_reroutes_to_attacker() {
        let (_, net) = fabric();
        net.bind("honest:443", Arc::new(Marker(b"honest"))).unwrap();
        net.bind("evil:443", Arc::new(Marker(b"evil"))).unwrap();
        net.peer("honest:443").redirect_to("evil:443");
        let mut conn = net.dial("honest:443").unwrap();
        assert_eq!(conn.exchange(b"hello").unwrap(), b"evil");
        net.peer("honest:443").clear_redirect();
        let mut conn = net.dial("honest:443").unwrap();
        assert_eq!(conn.exchange(b"hello").unwrap(), b"honest");
    }

    #[test]
    fn victim_latency_and_tamper_survive_redirect() {
        // Settings installed on the dialed (victim) address must keep
        // applying after a redirect; the attacker's address only fills
        // gaps the victim left.
        let (clock, net) = fabric();
        net.bind("honest:443", Arc::new(Marker(b"honest"))).unwrap();
        net.bind("evil:443", Arc::new(Marker(b"evil"))).unwrap();
        net.peer("honest:443")
            .latency_us(50_000)
            .tamper(Arc::new(|m: &[u8]| {
                let mut v = m.to_vec();
                v.push(b'!');
                v
            }))
            .redirect_to("evil:443");
        net.peer("evil:443").latency_us(7);
        let start = clock.now_us();
        let mut conn = net.dial("honest:443").unwrap();
        assert_eq!(conn.exchange(b"hello").unwrap(), b"evil");
        // The victim's 50 ms one-way override wins over the attacker's.
        assert_eq!(clock.now_us() - start, 100_000);
    }

    #[test]
    fn attacker_settings_apply_when_victim_has_none() {
        let (clock, net) = fabric();
        net.bind("evil:443", Arc::new(Marker(b"evil"))).unwrap();
        net.peer("evil:443").latency_us(9_000);
        net.peer("honest:443").redirect_to("evil:443");
        let start = clock.now_us();
        let mut conn = net.dial("honest:443").unwrap();
        conn.exchange(b"hello").unwrap();
        assert_eq!(clock.now_us() - start, 18_000);
    }

    #[test]
    fn tamper_rewrites_messages() {
        let (_, net) = fabric();
        net.bind("a:1", Arc::new(Echo)).unwrap();
        net.peer("a:1").tamper(Arc::new(|m: &[u8]| {
            let mut v = m.to_vec();
            if !v.is_empty() {
                v[0] ^= 0xff;
            }
            v
        }));
        let mut conn = net.dial("a:1").unwrap();
        assert_eq!(conn.exchange(&[1, 2]).unwrap(), vec![0xfe, 2]);
    }

    #[test]
    fn handler_error_closes_connection() {
        struct Fail;
        impl Listener for Fail {
            fn accept(&self) -> Box<dyn ConnectionHandler> {
                struct H;
                impl ConnectionHandler for H {
                    fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                        Err(NetError::Protocol("boom".into()))
                    }
                }
                Box::new(H)
            }
        }
        let (_, net) = fabric();
        net.bind("a:1", Arc::new(Fail)).unwrap();
        let mut conn = net.dial("a:1").unwrap();
        assert!(matches!(conn.exchange(b"x"), Err(NetError::Protocol(_))));
        assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
    }

    #[test]
    fn outage_plan_drops_every_exchange_before_delivery() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Count(Arc<AtomicU32>);
        impl Listener for Count {
            fn accept(&self) -> Box<dyn ConnectionHandler> {
                struct H(Arc<AtomicU32>);
                impl ConnectionHandler for H {
                    fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                        self.0.fetch_add(1, Ordering::SeqCst);
                        Ok(vec![])
                    }
                }
                Box::new(H(Arc::clone(&self.0)))
            }
        }
        let (clock, net) = fabric();
        let delivered = Arc::new(AtomicU32::new(0));
        net.bind("a:1", Arc::new(Count(Arc::clone(&delivered))))
            .unwrap();
        net.set_fault_seed(1);
        net.peer("a:1").fault_plan(FaultPlan::outage());
        let start = clock.now_us();
        let mut conn = net.dial("a:1").unwrap();
        assert_eq!(conn.exchange(b"x"), Err(NetError::Dropped("a:1".into())));
        // The handler never ran, and a full timeout window was spent.
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
        assert_eq!(clock.now_us() - start, 1_000_000);
        assert_eq!(net.faults_injected(), 1);
        // Clearing the plan restores delivery.
        net.peer("a:1").clear_fault_plan();
        let mut conn = net.dial("a:1").unwrap();
        assert!(conn.exchange(b"x").is_ok());
        assert_eq!(delivered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fail_first_window_times_out_dials_then_recovers() {
        let (clock, net) = fabric();
        net.bind("a:1", Arc::new(Echo)).unwrap();
        net.set_fault_seed(3);
        net.peer("a:1").fault_plan(FaultPlan {
            timeout_us: 250_000,
            ..FaultPlan::fail_first(2)
        });
        let start = clock.now_us();
        assert_eq!(
            net.dial("a:1").unwrap_err(),
            NetError::Timeout("a:1".into())
        );
        assert_eq!(
            net.dial("a:1").unwrap_err(),
            NetError::Timeout("a:1".into())
        );
        assert_eq!(clock.now_us() - start, 500_000);
        let mut conn = net.dial("a:1").unwrap();
        assert!(conn.exchange(b"x").is_ok());
        assert_eq!(net.faults_injected(), 2);
    }

    #[test]
    fn reset_fault_surfaces_connection_closed() {
        let (_, net) = fabric();
        net.bind("a:1", Arc::new(Echo)).unwrap();
        net.set_fault_seed(5);
        net.peer("a:1").fault_plan(FaultPlan {
            reset_probability: 1.0,
            ..FaultPlan::default()
        });
        let mut conn = net.dial("a:1").unwrap();
        assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
        // A faulted connection is closed; later exchanges fail fast.
        assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
        assert_eq!(net.faults_injected(), 1);
    }

    #[test]
    fn jitter_stretches_round_trips_deterministically() {
        let run = |seed: u64| {
            let (clock, net) = fabric();
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.set_fault_seed(seed);
            net.peer("a:1").fault_plan(FaultPlan {
                jitter_us: 800,
                ..FaultPlan::default()
            });
            let mut conn = net.dial("a:1").unwrap();
            for _ in 0..8 {
                conn.exchange(b"x").unwrap();
            }
            clock.now_us()
        };
        let base = {
            let (clock, net) = fabric();
            net.bind("a:1", Arc::new(Echo)).unwrap();
            let mut conn = net.dial("a:1").unwrap();
            for _ in 0..8 {
                conn.exchange(b"x").unwrap();
            }
            clock.now_us()
        };
        let a = run(21);
        assert_eq!(a, run(21), "same seed, same timings");
        assert!(a >= base && a <= base + 8 * 2 * 800);
    }

    #[test]
    fn same_seed_yields_identical_fault_streams() {
        let stream = |seed: u64| {
            let (_, net) = fabric();
            net.bind("a:1", Arc::new(Echo)).unwrap();
            net.set_fault_seed(seed);
            net.peer("a:1").fault_plan(FaultPlan {
                drop_probability: 0.3,
                timeout_probability: 0.2,
                reset_probability: 0.1,
                ..FaultPlan::default()
            });
            let mut out = Vec::new();
            for _ in 0..32 {
                let mut conn = net.dial("a:1").unwrap();
                out.push(conn.exchange(b"x").is_ok());
            }
            out
        };
        assert_eq!(stream(99), stream(99));
        assert_ne!(stream(99), stream(100));
    }

    #[test]
    fn batch_preserves_program_order_for_own_dials() {
        let (clock, net) = fabric();
        net.set_fault_seed(0xBA7C);
        let echoed = net.batch(|net| {
            // A bind is visible to a dial later in the same batch.
            net.bind("kds:443", Arc::new(Echo)).unwrap();
            let mut conn = net.dial("kds:443").unwrap();
            let echoed = conn.exchange(b"ping").unwrap();
            // A plan installed mid-batch governs the very next exchange.
            net.peer("kds:443").fault_plan(FaultPlan::outage());
            let mut conn = net.dial("kds:443").unwrap();
            assert!(matches!(conn.exchange(b"q"), Err(NetError::Dropped(_))));
            echoed
        });
        assert_eq!(echoed, b"ping");
        assert_eq!(net.faults_injected(), 1);
        assert!(clock.now_us() > 0);
    }

    #[test]
    fn view_fingerprint_lists_every_address_and_plan() {
        let (_, net) = fabric();
        net.set_fault_seed(0xF1F1);
        net.bind("kds:443", Arc::new(Echo)).unwrap();
        net.bind("vm:8080", Arc::new(Echo)).unwrap();
        net.peer("kds:443")
            .latency_us(30_000)
            .fault_plan(FaultPlan {
                drop_probability: 0.25,
                ..FaultPlan::default()
            });
        net.peer("vm:8080")
            .fault_plan_for_route("/attest", FaultPlan::fail_first(2))
            .redirect_to("kds:443");
        // A redirect on an address with no listener still counts.
        net.peer("ghost:1").redirect_to("kds:443");
        let print = net.view_fingerprint();
        assert!(print.contains("entries:3 planned:2 domains:0"), "{print}");
        assert!(print.contains("kds:443 | listener:1 latency:Some(30000)"));
        assert!(print.contains("ghost:1 | listener:0 latency:None redirect:Some(\"kds:443\")"));
        assert!(print.contains("route:/attest:["));
        // Clearing all shaping (and the listener) forgets the address.
        net.peer("ghost:1").clear();
        assert!(net.view_fingerprint().contains("entries:2 planned:2"));
    }

    #[test]
    fn route_plan_governs_matching_exchanges_only() {
        let (_, net) = fabric();
        net.bind("kds:443", Arc::new(Echo)).unwrap();
        net.set_fault_seed(11);
        net.peer("kds:443")
            .fault_plan_for_route("/vcek", FaultPlan::outage());
        let mut conn = net.dial("kds:443").unwrap();
        // The lossy route drops; its sibling is untouched.
        assert!(matches!(
            conn.exchange_routed("/vcek", b"q"),
            Err(NetError::Dropped(_))
        ));
        let mut conn = net.dial("kds:443").unwrap();
        assert!(conn.exchange_routed("/cert_chain", b"q").is_ok());
        // Unrouted exchanges never match a non-empty prefix.
        let mut conn = net.dial("kds:443").unwrap();
        assert!(conn.exchange(b"q").is_ok());
        assert_eq!(net.faults_injected(), 1);
    }

    #[test]
    fn longest_route_prefix_wins_and_address_plan_is_fallback() {
        let (_, net) = fabric();
        net.bind("api:443", Arc::new(Echo)).unwrap();
        net.set_fault_seed(12);
        // Address-wide: resets. /v1: drops. /v1/healthz: clean.
        net.peer("api:443")
            .fault_plan(FaultPlan {
                reset_probability: 1.0,
                ..FaultPlan::default()
            })
            .fault_plan_for_route("/v1", FaultPlan::outage())
            .fault_plan_for_route("/v1/healthz", FaultPlan::default());
        let mut conn = net.dial("api:443").unwrap();
        assert!(conn.exchange_routed("/v1/healthz", b"q").is_ok());
        let mut conn = net.dial("api:443").unwrap();
        assert!(matches!(
            conn.exchange_routed("/v1/users", b"q"),
            Err(NetError::Dropped(_))
        ));
        let mut conn = net.dial("api:443").unwrap();
        assert_eq!(
            conn.exchange_routed("/other", b"q"),
            Err(NetError::ConnectionClosed)
        );
    }

    #[test]
    fn route_streams_are_independent_of_sibling_traffic() {
        // Hammering one route must not perturb another route's decision
        // stream — the per-(address, prefix) seeding at work.
        let outcomes = |noise: usize| {
            let (_, net) = fabric();
            net.bind("kds:443", Arc::new(Echo)).unwrap();
            net.set_fault_seed(77);
            net.peer("kds:443")
                .fault_plan_for_route(
                    "/vcek",
                    FaultPlan {
                        drop_probability: 0.5,
                        ..FaultPlan::default()
                    },
                )
                .fault_plan_for_route(
                    "/cert_chain",
                    FaultPlan {
                        drop_probability: 0.5,
                        ..FaultPlan::default()
                    },
                );
            let mut conn = net.dial("kds:443").unwrap();
            for _ in 0..noise {
                let _ = conn.exchange_routed("/cert_chain", b"noise");
            }
            let mut out = Vec::new();
            for _ in 0..16 {
                let mut conn = net.dial("kds:443").unwrap();
                out.push(conn.exchange_routed("/vcek", b"q").is_ok());
            }
            out
        };
        assert_eq!(outcomes(0), outcomes(13));
    }

    #[test]
    fn peer_clear_removes_all_shaping() {
        let (clock, net) = fabric();
        net.bind("a:1", Arc::new(Marker(b"a"))).unwrap();
        net.bind("b:1", Arc::new(Marker(b"b"))).unwrap();
        net.set_fault_seed(1);
        net.peer("a:1")
            .latency_us(99_000)
            .tamper(Arc::new(|m: &[u8]| m.to_vec()))
            .redirect_to("b:1")
            .fault_plan(FaultPlan::fail_first(100))
            .fault_plan_for_route("/x", FaultPlan::outage());
        assert!(net.dial("a:1").is_err());
        net.peer("a:1").clear();
        let start = clock.now_us();
        let mut conn = net.dial("a:1").unwrap();
        assert_eq!(conn.exchange(b"q").unwrap(), b"a");
        assert_eq!(clock.now_us() - start, 2000);
        assert_eq!(net.faults_injected(), 1);
    }

    #[test]
    fn fault_observer_sees_every_injection() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let (_, net) = fabric();
        net.bind("a:1", Arc::new(Echo)).unwrap();
        net.set_fault_seed(1);
        net.peer("a:1").fault_plan(FaultPlan::outage());
        let seen = Arc::new(AtomicU32::new(0));
        let seen2 = Arc::clone(&seen);
        net.set_fault_observer(Arc::new(move |address, kind| {
            assert_eq!(address, "a:1");
            assert_eq!(kind, FaultKind::Dropped);
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..5 {
            let mut conn = net.dial("a:1").unwrap();
            let _ = conn.exchange(b"x");
        }
        assert_eq!(seen.load(Ordering::SeqCst), 5);
        assert_eq!(net.faults_injected(), 5);
    }

    #[test]
    fn connections_have_independent_handler_state() {
        struct Counter;
        impl Listener for Counter {
            fn accept(&self) -> Box<dyn ConnectionHandler> {
                struct H(u32);
                impl ConnectionHandler for H {
                    fn on_message(&mut self, _m: &[u8]) -> Result<Vec<u8>, NetError> {
                        self.0 += 1;
                        Ok(vec![self.0 as u8])
                    }
                }
                Box::new(H(0))
            }
        }
        let (_, net) = fabric();
        net.bind("a:1", Arc::new(Counter)).unwrap();
        let mut c1 = net.dial("a:1").unwrap();
        let mut c2 = net.dial("a:1").unwrap();
        assert_eq!(c1.exchange(b"").unwrap(), vec![1]);
        assert_eq!(c1.exchange(b"").unwrap(), vec![2]);
        assert_eq!(c2.exchange(b"").unwrap(), vec![1]);
    }

    #[test]
    fn mutations_are_visible_in_program_order() {
        // Every mutation lands in the shard maps before it returns, so a
        // bind followed by a dial on the same thread always observes it.
        let (_, net) = fabric();
        for round in 0..32 {
            let address = format!("churn-{round}:443");
            net.bind(&address, Arc::new(Echo)).unwrap();
            net.dial(&address).expect("bound just now");
            net.unbind(&address);
            assert!(net.dial(&address).is_err(), "unbind not visible");
        }
    }

    #[test]
    fn partition_domain_blocks_dials_until_it_heals() {
        use crate::domain::FaultDomain;
        let (clock, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        net.bind("10.2.0.1:443", Arc::new(Echo)).unwrap();
        net.install_fault_domain(
            FaultDomain::partition("rack-1", "10.1.")
                .healing_at_us(clock.now_us() + 5_000_000)
                .with_timeout_us(250_000),
        );
        // Inside the partition: the dial times out and charges the
        // discovery timeout to the clock.
        let start = clock.now_us();
        assert!(matches!(
            net.dial("10.1.0.1:443"),
            Err(NetError::Timeout(_))
        ));
        assert_eq!(clock.now_us() - start, 250_000);
        assert_eq!(net.faults_injected(), 1);
        // A sibling subnet is untouched.
        let mut conn = net.dial("10.2.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
        // After the scheduled heal the subnet is reachable again.
        clock.advance_us(5_000_000);
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
    }

    #[test]
    fn partition_domain_drops_inflight_exchanges() {
        use crate::domain::FaultDomain;
        let (_, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        conn.exchange(b"x").unwrap();
        // The partition arrives while the connection is open: further
        // exchanges are dropped, not delivered.
        net.install_fault_domain(FaultDomain::partition("rack-1", "10.1."));
        assert!(matches!(conn.exchange(b"x"), Err(NetError::Dropped(_))));
        assert_eq!(net.faults_injected(), 1);
        // Like every injected fault, the drop closes the connection.
        assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
        net.clear_fault_domain("rack-1");
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
    }

    #[test]
    fn asymmetric_domain_only_hits_bound_sources() {
        use crate::domain::FaultDomain;
        let (_, net) = fabric();
        net.bind("10.2.0.1:443", Arc::new(Echo)).unwrap();
        net.install_fault_domain(FaultDomain::partition("uplink", "10.2.").from_sources("10.1."));
        // An unbound handle (no source address) does not match a
        // source-scoped domain.
        let mut conn = net.dial("10.2.0.1:443").unwrap();
        assert_eq!(conn.exchange(b"x").unwrap(), b"x");
        // The reverse direction from an unaffected source also works.
        let from_safe = net.bound_to("10.3.0.9:443");
        assert!(from_safe.dial("10.2.0.1:443").is_ok());
        // Traffic *from* the 10.1. subnet is dark.
        let from_dark = net.bound_to("10.1.0.9:443");
        assert_eq!(from_dark.local_address(), Some("10.1.0.9:443"));
        assert!(matches!(
            from_dark.dial("10.2.0.1:443"),
            Err(NetError::Timeout(_))
        ));
    }

    #[test]
    fn degraded_domain_streams_are_deterministic_and_reseedable() {
        use crate::domain::{DomainEffect, FaultDomain};
        let outcomes = |seed: u64, noise: usize| {
            let (_, net) = fabric();
            net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
            net.bind("10.1.0.2:443", Arc::new(Echo)).unwrap();
            net.set_fault_seed(seed);
            net.install_fault_domain(FaultDomain::degraded(
                "lossy",
                "10.1.",
                FaultPlan {
                    drop_probability: 0.5,
                    ..FaultPlan::default()
                },
            ));
            // Hammering a sibling destination must not perturb this
            // destination's stream (per-(domain, dst) seeding).
            for _ in 0..noise {
                let mut sibling = net.dial("10.1.0.2:443").unwrap();
                let _ = sibling.exchange(b"noise");
            }
            (0..16)
                .map(|_| {
                    let mut conn = net.dial("10.1.0.1:443").unwrap();
                    conn.exchange(b"q").is_ok()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(7, 0), outcomes(7, 13));
        assert_ne!(outcomes(7, 0), outcomes(8, 0));

        // Degraded domains leave dials alone (the link is up, just
        // lossy) and reseeding mid-run restarts the streams.
        let (_, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        net.set_fault_seed(7);
        net.install_fault_domain(FaultDomain::degraded(
            "lossy",
            "10.1.",
            FaultPlan {
                drop_probability: 0.5,
                ..FaultPlan::default()
            },
        ));
        let run = |net: &SimNet| {
            (0..16)
                .map(|_| {
                    let mut conn = net.dial("10.1.0.1:443").unwrap();
                    conn.exchange(b"q").is_ok()
                })
                .collect::<Vec<_>>()
        };
        let first = run(&net);
        assert!(first.iter().any(|ok| !ok), "plan never fired");
        net.set_fault_seed(7);
        assert_eq!(first, run(&net), "reseeding must restart the streams");
        // Replacing by name swaps the effect: 10.1. is clean again.
        net.install_fault_domain(FaultDomain::partition("lossy", "10.9."));
        assert!(run(&net).iter().all(|ok| *ok));
        net.clear_fault_domains();
        assert!(matches!(
            FaultDomain::partition("x", "10.").effect,
            DomainEffect::Partition
        ));
    }

    #[test]
    fn domains_take_precedence_over_address_plans() {
        use crate::domain::FaultDomain;
        let (_, net) = fabric();
        net.bind("10.1.0.1:443", Arc::new(Echo)).unwrap();
        net.set_fault_seed(1);
        // The address plan alone would reset the connection; the
        // partition (the lower layer) wins and drops instead.
        net.peer("10.1.0.1:443").fault_plan(FaultPlan {
            reset_probability: 1.0,
            ..FaultPlan::default()
        });
        let mut conn = net.dial("10.1.0.1:443").unwrap();
        net.install_fault_domain(FaultDomain::partition("rack-1", "10.1."));
        assert!(matches!(conn.exchange(b"x"), Err(NetError::Dropped(_))));
        net.clear_fault_domain("rack-1");
        assert_eq!(conn.exchange(b"x"), Err(NetError::ConnectionClosed));
    }

    #[test]
    fn concurrent_dials_to_disjoint_addresses_succeed() {
        let (_, net) = fabric();
        for i in 0..64 {
            net.bind(&format!("n{i}:443"), Arc::new(Echo)).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..8 {
                let net = net.clone();
                s.spawn(move || {
                    for i in 0..64 {
                        let address = format!("n{}:443", (t * 8 + i) % 64);
                        let mut conn = net.dial(&address).unwrap();
                        assert_eq!(conn.exchange(b"ping").unwrap(), b"ping");
                    }
                });
            }
        });
    }
}
