//! The workloads and their clients.
//!
//! Every workload is a closed loop: each simulated browser or operator
//! waits for its reply before it sends the next request, and the
//! simulated server runs synchronously on the calling thread, so there
//! is no server queue an open loop could fill. A [`Client`] owns one
//! client's state; its `run` is the timed operation and its `check`
//! verifies the result outside the timer. The same client code runs
//! untraced and traced: with tracing off every span is a plain call.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use revelio::evidence::EvidenceBundle;
use revelio::extension::{MonitoredSession, WebExtension};
use revelio::reconcile::{FleetSpec, NodeActuator, Reconciler};
use revelio::world::{DeployedFleet, FleetUpgrader, SimWorld};
use revelio::RevelioError;
use revelio_build::image::ImageSpec;
use revelio_crypto::metrics::{thread_point_decompressions, thread_scalar_mul_ops};
use revelio_crypto::sha2::Sha256;
use revelio_http::client::{HttpsClient, HttpsSession};
use revelio_http::message::{Request, Response};
use revelio_http::WELL_KNOWN_ATTESTATION_PATH;
use revelio_tls::client::ResumptionState;
use sev_snp::measurement::Measurement;

use crate::fixture::{
    check_body, echo_of, err, world_seed, Content, Fixture, Rng, Witness, Work, DOMAIN,
    OBJECT_BYTES,
};
use crate::trace::{Span, Tracer};

/// Nodes of the fleet the request-path workloads browse.
pub const BROWSE_NODES: usize = 4;

/// Nodes deployed and rolled out per `fleet_rollout` cycle.
pub const FLEET_NODES: usize = 8;

/// Seeded payload carried by the rollout's target image, bytes.
pub const PAYLOAD_BYTES: usize = 2 * 1024 * 1024;

/// Tick budget of one rollout.
const MAX_TICKS: u64 = 200;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Returning users: cache-hit staged verify plus a small monitored GET.
    BrowseWarm,
    /// A 256 KiB monitored GET plus a 256 KiB POST.
    BulkTransfer,
    /// First visits by fresh extensions.
    ColdAttest,
    /// Reconnects with the ticket cleared and the verdict cached.
    ReconnectFull,
    /// Reconnects that resume the TLS session.
    ReconnectResumed,
    /// Reconnects after a verdict-generation bump.
    ReconnectReattest,
    /// Operator cycles: provision a fleet, roll it onto a new image.
    FleetRollout,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 7] = [
        Workload::BrowseWarm,
        Workload::BulkTransfer,
        Workload::ColdAttest,
        Workload::ReconnectFull,
        Workload::ReconnectResumed,
        Workload::ReconnectReattest,
        Workload::FleetRollout,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseWarm => "browse_warm",
            Workload::BulkTransfer => "bulk_transfer",
            Workload::ColdAttest => "cold_attest",
            Workload::ReconnectFull => "reconnect_full",
            Workload::ReconnectResumed => "reconnect_resumed",
            Workload::ReconnectReattest => "reconnect_reattest",
            Workload::FleetRollout => "fleet_rollout",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients. Two — the host's core count — where
    /// clients share the fabric and the extension; one where an
    /// operation is a sequence a single user or operator waits on.
    #[must_use]
    pub fn clients(self) -> usize {
        match self {
            Workload::BrowseWarm | Workload::BulkTransfer => 2,
            _ => 1,
        }
    }

    /// Operations in the deterministic prelude that produces the
    /// behaviour witness and the per-operation work counts.
    #[must_use]
    pub fn prelude_ops(self) -> u64 {
        match self {
            Workload::BrowseWarm | Workload::ReconnectFull | Workload::ReconnectResumed => 32,
            Workload::BulkTransfer | Workload::ColdAttest | Workload::ReconnectReattest => 8,
            Workload::FleetRollout => 1,
        }
    }

    /// Application payload moved per operation, bytes (0 where the
    /// operation is not a transfer).
    #[must_use]
    pub fn payload_bytes(self) -> u64 {
        match self {
            Workload::BulkTransfer => 2 * OBJECT_BYTES as u64,
            _ => 0,
        }
    }
}

/// One client's closed loop.
pub trait Client {
    /// What the timed operation hands to the check.
    type Out;

    /// Untimed preparation of the next operation.
    ///
    /// # Errors
    ///
    /// Why the operation cannot be attempted; it counts as failed.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The timed operation.
    fn run(&mut self, tr: &Tracer) -> Self::Out;

    /// Untimed check of the result against what was served, recording
    /// what happened into `w`.
    ///
    /// # Errors
    ///
    /// Why the operation failed.
    fn check(&mut self, out: Self::Out, w: &mut Witness) -> Result<(), String>;
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many operations.
    Ops(u64),
    /// At this instant, or after `max_ops`, whichever comes first.
    Until(Instant, u64),
}

impl Stop {
    fn done(self, ops: u64) -> bool {
        match self {
            Stop::Ops(n) => ops >= n,
            Stop::Until(at, max) => ops >= max || Instant::now() >= at,
        }
    }
}

/// What one client's loop produced.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Timed latency of every operation attempted, µs.
    pub lat_us: Vec<f64>,
    /// When each operation completed, ms since the phase's epoch.
    pub done_ms: Vec<u32>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check (or could not be prepared).
    pub failed: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
    /// The client's spans (traced phases only).
    pub spans: Vec<Span>,
}

/// Runs one client's loop on the calling thread; completion times are
/// taken relative to `epoch`.
pub fn drive_one<D: Client>(
    d: &mut D,
    stop: Stop,
    epoch: Instant,
    tr: &Tracer,
    mut witness: Option<&mut Witness>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut scratch = Witness::default();
    while !stop.done(run.attempted) {
        let op = run.attempted;
        run.attempted += 1;
        if let Err(e) = d.prepare() {
            fail(&mut run, e);
            continue;
        }
        let t0 = Instant::now();
        let measured = tr.begin_op(op, t0);
        let out = d.run(tr);
        let t1 = Instant::now();
        tr.end_op(t1);
        if measured {
            run.lat_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
            run.done_ms
                .push(u32::try_from(t1.duration_since(epoch).as_millis()).unwrap_or(u32::MAX));
        }
        let w = witness.as_deref_mut().unwrap_or(&mut scratch);
        w.num("op", op);
        if let Err(e) = d.check(out, w) {
            fail(&mut run, e);
        }
    }
    run.spans = tr.take();
    run
}

fn fail(run: &mut ClientRun, e: String) {
    run.failed += 1;
    if run.errors.len() < 4 {
        run.errors.push(e);
    }
}

/// Most operations a client traces in one phase.
const MAX_TRACED_OPS: u32 = 5_000;

/// A tracer for one client of a phase ending at `stop`: off, or on
/// with its traced operations spread over the phase.
#[must_use]
pub fn tracer(traced: bool, epoch: Instant, stop: Stop) -> Tracer {
    match stop {
        Stop::Until(at, _) if traced => {
            Tracer::on(epoch, at.saturating_duration_since(epoch) / MAX_TRACED_OPS)
        }
        Stop::Ops(_) if traced => Tracer::on(epoch, std::time::Duration::ZERO),
        _ => Tracer::off(),
    }
}

/// Runs one loop per client — inline for one, on scoped threads for
/// several — each with its own tracer.
pub fn run_clients<D: Client + Send>(
    loops: Vec<D>,
    stop: Stop,
    traced: bool,
    witness: Option<&mut Witness>,
) -> Vec<ClientRun> {
    let epoch = Instant::now();
    let mut loops = loops;
    if loops.len() == 1 {
        let mut d = loops.pop().expect("one client");
        return vec![drive_one(
            &mut d,
            stop,
            epoch,
            &tracer(traced, epoch, stop),
            witness,
        )];
    }
    assert!(
        witness.is_none(),
        "a witness needs a deterministic single-client loop"
    );
    std::thread::scope(|s| {
        let handles: Vec<_> = loops
            .into_iter()
            .map(|mut d| {
                s.spawn(move || drive_one(&mut d, stop, epoch, &tracer(traced, epoch, stop), None))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn sim_now(world: &SimWorld) -> u64 {
    world.clock.now_us()
}

fn record_response(w: &mut Witness, response: &Response, sim_us: u64) {
    w.num("status", u64::from(response.status));
    w.add("body_sha256", &Sha256::digest(&response.body));
    w.num("sim_us", sim_us);
}

// ── browse_warm ────────────────────────────────────────────────────────

/// A returning user's monitored session: the staged `verify` (a verdict
/// cache hit, then the per-connection binding check) plus one GET of
/// the small page.
pub struct WarmClient<'a> {
    fx: &'a Fixture,
    session: MonitoredSession,
}

impl<'a> WarmClient<'a> {
    /// A client with its own freshly attested session.
    ///
    /// # Errors
    ///
    /// Propagates attestation failures.
    pub fn new(fx: &'a Fixture) -> Result<Self, RevelioError> {
        Ok(WarmClient {
            fx,
            session: fx.session()?,
        })
    }
}

/// The results of one warm operation.
pub struct WarmOut {
    verdict: Result<bool, String>,
    response: Result<Response, String>,
    sim_us: u64,
}

impl Client for WarmClient<'_> {
    type Out = WarmOut;

    fn run(&mut self, tr: &Tracer) -> WarmOut {
        let ext = &self.fx.extension;
        let sim0 = sim_now(&self.fx.world);
        let session = &mut self.session;
        let verdict = tr
            .span("verifier.verify_evidence", || {
                ext.verify_evidence(DOMAIN, session.evidence())
            })
            .and_then(|v| {
                tr.span("verifier.verify_connection", || {
                    ext.verify_connection(session.evidence(), &session.pinned_key())
                })
                .map(|()| v.cached && v.signature_checks == 0)
            })
            .map_err(err("staged verify"));
        let response = tr
            .span("http.send", || session.request("/"))
            .map_err(err("monitored GET"));
        WarmOut {
            verdict,
            response,
            sim_us: sim_now(&self.fx.world) - sim0,
        }
    }

    fn check(&mut self, out: WarmOut, w: &mut Witness) -> Result<(), String> {
        if !out.verdict? {
            return Err("warm verify missed the verdict cache or checked signatures".into());
        }
        let response = out.response?;
        w.add("verdict", b"attested-cached");
        record_response(w, &response, out.sim_us);
        check_body("page", &response, &self.fx.content.page.digest)
    }
}

// ── bulk_transfer ──────────────────────────────────────────────────────

/// A monitored session moving 256 KiB objects both ways: each operation
/// downloads one object and uploads another. A download and an upload
/// cost differently, so pairing them keeps the operation's latency
/// unimodal.
pub struct BulkClient<'a> {
    fx: &'a Fixture,
    session: MonitoredSession,
    next: usize,
    get: Request,
    post: Request,
    echoes: Vec<String>,
}

impl<'a> BulkClient<'a> {
    /// A client whose first download is object `first`.
    ///
    /// # Errors
    ///
    /// Propagates attestation failures.
    pub fn new(fx: &'a Fixture, first: usize) -> Result<Self, RevelioError> {
        Ok(BulkClient {
            fx,
            session: fx.session()?,
            next: first,
            get: Request::get("/"),
            post: Request::get("/"),
            echoes: fx
                .content
                .objects
                .iter()
                .map(|o| echo_of(&o.body))
                .collect(),
        })
    }

    fn objects(&self) -> (usize, usize) {
        let n = self.fx.content.objects.len();
        (self.next % n, (self.next + 1) % n)
    }
}

/// A transfer pair's responses and sim-clock duration.
pub type Pair = (Result<(Response, Response), String>, u64);

impl Client for BulkClient<'_> {
    type Out = Pair;

    fn prepare(&mut self) -> Result<(), String> {
        self.next += 1;
        let (down, up) = self.objects();
        let objects = &self.fx.content.objects;
        self.get = Request::get(&objects[down].path);
        self.post = Request::post("/echo", objects[up].body.clone());
        Ok(())
    }

    fn run(&mut self, tr: &Tracer) -> Pair {
        let sim0 = sim_now(&self.fx.world);
        let session = &mut self.session;
        let (get, post) = (&self.get, &self.post);
        let pair = tr
            .span("http.send", || session.send(get))
            .and_then(|down| {
                tr.span("http.send", || session.send(post))
                    .map(|up| (down, up))
            })
            .map_err(err("bulk transfer"));
        (pair, sim_now(&self.fx.world) - sim0)
    }

    fn check(&mut self, (pair, sim_us): Pair, w: &mut Witness) -> Result<(), String> {
        let (down, up) = pair?;
        let (d, u) = self.objects();
        record_response(w, &down, sim_us);
        record_response(w, &up, 0);
        check_body("download", &down, &self.fx.content.objects[d].digest)?;
        if up.status != 200 || up.body != self.echoes[u].as_bytes() {
            return Err(format!(
                "upload echo mismatch (status {}, {:?})",
                up.status,
                String::from_utf8_lossy(&up.body)
            ));
        }
        Ok(())
    }
}

// ── cold_attest ────────────────────────────────────────────────────────

/// First visits: each operation is `browse("/")` on a fresh extension
/// with empty verdict and VCEK caches — DNS, the full TLS handshake,
/// the evidence fetch, the KDS fetch, the batched verify and the page.
pub struct ColdClient<'a> {
    fx: &'a Fixture,
    traced: bool,
    extension: Option<WebExtension>,
    client: Option<HttpsClient>,
    n: u64,
}

impl<'a> ColdClient<'a> {
    /// A client; `traced` selects the decomposed visit.
    #[must_use]
    pub fn new(fx: &'a Fixture, traced: bool) -> Self {
        ColdClient {
            fx,
            traced,
            extension: None,
            client: None,
            n: 0,
        }
    }
}

/// A visit's page, verified measurement and sim-clock duration.
pub type Visit = (Result<(Response, Measurement), String>, u64);

/// The traced decomposition of an attested visit (or, with `page`
/// `None`, of a full reconnect's re-attestation): the layer calls the
/// extension makes inside, each in its own span.
fn visit_traced(
    tr: &Tracer,
    client: &HttpsClient,
    ext: &WebExtension,
    page: Option<&str>,
) -> Result<(Option<Response>, Measurement), String> {
    let mut session: HttpsSession = tr
        .span("tls.open", || client.open(DOMAIN))
        .map_err(err("TLS open"))?;
    let bundle = tr
        .span("http.send", || {
            session.send(&Request::get(WELL_KNOWN_ATTESTATION_PATH))
        })
        .map_err(err("evidence fetch"))?;
    if bundle.status != 200 {
        return Err(format!("evidence fetch: HTTP status {}", bundle.status));
    }
    let evidence = tr
        .span("verifier.decode_evidence", || {
            EvidenceBundle::from_bytes(&bundle.body)
        })
        .map_err(err("evidence decode"))?;
    let verdict = tr
        .span("verifier.verify_evidence", || {
            ext.verify_evidence(DOMAIN, &evidence)
        })
        .map_err(err("verify_evidence"))?;
    tr.span("verifier.verify_connection", || {
        ext.verify_connection(&evidence, &session.peer_public_key())
    })
    .map_err(err("verify_connection"))?;
    let response = match page {
        Some(path) => Some(
            tr.span("http.send", || session.send(&Request::get(path)))
                .map_err(err("page GET"))?,
        ),
        None => None,
    };
    Ok((response, verdict.measurement))
}

impl Client for ColdClient<'_> {
    type Out = Visit;

    fn prepare(&mut self) -> Result<(), String> {
        let ext = self.fx.world.extension();
        ext.register_site(DOMAIN, [self.fx.fleet.golden_measurement]);
        self.extension = Some(ext);
        if self.traced {
            self.client = Some(self.fx.client(self.n));
        }
        self.n += 1;
        Ok(())
    }

    fn run(&mut self, tr: &Tracer) -> Visit {
        let ext = self.extension.as_ref().expect("prepared");
        let sim0 = sim_now(&self.fx.world);
        let visit = match &self.client {
            Some(client) => visit_traced(tr, client, ext, Some("/"))
                .map(|(r, m)| (r.expect("page requested"), m)),
            None => ext
                .browse(DOMAIN, "/")
                .map(|o| (o.response, o.evidence.report.report.measurement))
                .map_err(err("browse")),
        };
        (visit, sim_now(&self.fx.world) - sim0)
    }

    fn check(&mut self, (visit, sim_us): Visit, w: &mut Witness) -> Result<(), String> {
        let (response, measurement) = visit?;
        w.add("verdict", b"attested");
        w.add("measurement", measurement.as_bytes());
        record_response(w, &response, sim_us);
        if measurement != self.fx.fleet.golden_measurement {
            return Err("cold visit attested an unexpected measurement".into());
        }
        check_body("page", &response, &self.fx.content.page.digest)
    }
}

// ── reconnect_* ────────────────────────────────────────────────────────

/// Which reconnect a [`ReconnectClient`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reconnect {
    /// Ticket cleared, verdict cached: full handshake, evidence fetch,
    /// cache-hit verify.
    Full,
    /// Warm ticket: abbreviated handshake, binding check only.
    Resumed,
    /// After a generation bump (re-registering the same golden set):
    /// the ticket is void and the verdict cache misses.
    Reattest,
}

/// A long-lived monitored session reconnected over and over.
pub struct ReconnectClient<'a> {
    fx: &'a Fixture,
    kind: Reconnect,
    session: MonitoredSession,
    client: Option<(HttpsClient, ResumptionState)>,
    before: [u64; 4],
}

impl<'a> ReconnectClient<'a> {
    /// A client; `traced` selects the decomposed reconnect.
    ///
    /// # Errors
    ///
    /// Propagates attestation or handshake failures.
    pub fn new(fx: &'a Fixture, kind: Reconnect, traced: bool) -> Result<Self, String> {
        let session = fx.session().map_err(err("open monitored session"))?;
        let client = if traced {
            let client = fx.client(1);
            let ticket = client
                .open(DOMAIN)
                .map_err(err("ticket handshake"))?
                .resumption_state()
                .cloned()
                .ok_or("the server issued no session ticket")?;
            Some((client, ticket))
        } else {
            None
        };
        Ok(ReconnectClient {
            fx,
            kind,
            session,
            client,
            before: [0; 4],
        })
    }

    /// `[resumed reconnects, evidence requests, verdict misses, this
    /// thread's scalar multiplications]` — the line-rate invariants.
    fn counters(&self) -> [u64; 4] {
        let t = &self.fx.world.telemetry;
        [
            t.counter("revelio_extension_resumed_reconnects_total"),
            t.counter("revelio_node_evidence_requests_total"),
            t.counter("revelio_extension_verify_cache_misses_total"),
            thread_scalar_mul_ops(),
        ]
    }
}

impl Client for ReconnectClient<'_> {
    type Out = (Result<(), String>, u64);

    fn prepare(&mut self) -> Result<(), String> {
        let ext = &self.fx.extension;
        match self.kind {
            Reconnect::Full => {
                ext.clear_resumption_cache();
            }
            Reconnect::Resumed => {}
            Reconnect::Reattest => ext.register_site(DOMAIN, [self.fx.fleet.golden_measurement]),
        }
        self.before = self.counters();
        Ok(())
    }

    fn run(&mut self, tr: &Tracer) -> Self::Out {
        let ext = &self.fx.extension;
        let sim0 = sim_now(&self.fx.world);
        let result = match (&self.client, self.kind) {
            (None, _) => ext.reconnect(&mut self.session).map_err(err("reconnect")),
            (Some((client, _)), Reconnect::Full | Reconnect::Reattest) => {
                visit_traced(tr, client, ext, None).map(|_| ())
            }
            (Some((client, ticket)), Reconnect::Resumed) => tr
                .span("tls.open_resumed", || client.open_resumed(DOMAIN, ticket))
                .map_err(err("resumed open"))
                .and_then(|s| {
                    if !s.was_resumed() {
                        return Err("the server declined the session ticket".into());
                    }
                    let evidence = self.session.evidence();
                    tr.span("verifier.verify_connection", || {
                        ext.verify_connection(evidence, &s.peer_public_key())
                    })
                    .map_err(err("verify_connection"))
                }),
        };
        (result, sim_now(&self.fx.world) - sim0)
    }

    fn check(&mut self, (result, sim_us): Self::Out, w: &mut Witness) -> Result<(), String> {
        result?;
        let [resumed, evidence, misses, scalar] = {
            let now = self.counters();
            std::array::from_fn::<u64, 4, _>(|i| now[i] - self.before[i])
        };
        w.num("sim_us", sim_us);
        if self.client.is_none() {
            let broken = match self.kind {
                Reconnect::Full => resumed != 0 || evidence != 1 || misses != 0,
                Reconnect::Resumed => resumed != 1 || evidence != 0 || scalar != 1,
                Reconnect::Reattest => resumed != 0 || evidence == 0 || misses == 0,
            };
            if broken {
                return Err(format!(
                    "{:?} reconnect broke its invariants: resumed={resumed} evidence={evidence} \
                     verdict_misses={misses} scalar_muls={scalar}",
                    self.kind
                ));
            }
        }
        let response = self
            .session
            .request("/")
            .map_err(err("GET after reconnect"))?;
        record_response(w, &response, 0);
        check_body("page", &response, &self.fx.content.page.digest)
    }
}

// ── fleet_rollout ──────────────────────────────────────────────────────

/// What every rollout cycle deploys and rolls onto.
pub struct FleetPlan {
    /// World seed of every cycle (cycles are identical by design, so each
    /// must reproduce the first one's witness).
    pub world_seed: u64,
    /// What the nodes serve.
    pub content: Arc<Content>,
    /// The target image: the default one plus a metrics agent and a
    /// seeded payload of [`PAYLOAD_BYTES`].
    pub target_spec: ImageSpec,
    /// The target's launch measurement.
    pub target: Measurement,
}

impl FleetPlan {
    /// The plan for `seed`.
    ///
    /// # Errors
    ///
    /// Propagates image build failures.
    pub fn new(seed: u64) -> Result<Self, RevelioError> {
        let world_seed = world_seed(seed);
        let content = Content::new(seed);
        let world = SimWorld::new(world_seed);
        let mut target_spec = world.image_spec(DOMAIN, &["web-service", "metrics-agent"]);
        target_spec.rootfs.add_file(
            "/usr/lib/agent/payload.bin",
            Rng::new(seed, 3).bytes(PAYLOAD_BYTES),
            0o644,
        )?;
        let (_, target) = world.build(&target_spec)?;
        Ok(FleetPlan {
            world_seed,
            content,
            target_spec,
            target,
        })
    }
}

/// The rollout actuator with each node upgrade in its own span.
struct TracedUpgrader<'t> {
    inner: FleetUpgrader,
    tr: &'t Tracer,
}

impl NodeActuator for TracedUpgrader<'_> {
    fn upgrade(&mut self, bootstrap: &str) -> Result<(), RevelioError> {
        let inner = &mut self.inner;
        self.tr.span("node.upgrade", || inner.upgrade(bootstrap))
    }
}

/// One finished cycle, handed to the check.
pub struct Cycle {
    world: SimWorld,
    result: Result<CycleOutcome, String>,
    crypto: [u64; 2],
}

struct CycleOutcome {
    fleet: DeployedFleet,
    transcript: Vec<String>,
    transcript_digest: String,
    converged: bool,
    leader: String,
    ticks: u64,
    provision_ms: f64,
    rollout_ms: f64,
    sim_us: u64,
}

/// The operator: each operation creates a fresh seeded world, provisions
/// an [`FLEET_NODES`]-node fleet with `deploy_fleet`, then runs a
/// canary-first rolling upgrade until it converges.
pub struct FleetClient<'a> {
    plan: &'a FleetPlan,
    work: Work,
    first_witness: Option<String>,
    /// Provisioning wall time per cycle, ms.
    pub provision_ms: Vec<f64>,
    /// Rollout wall time per cycle, ms.
    pub rollout_ms: Vec<f64>,
}

impl<'a> FleetClient<'a> {
    /// A client; `first_witness` is the prelude cycle's witness, which
    /// every later cycle must reproduce.
    #[must_use]
    pub fn new(plan: &'a FleetPlan, first_witness: Option<String>) -> Self {
        FleetClient {
            plan,
            work: Work::default(),
            first_witness,
            provision_ms: Vec::new(),
            rollout_ms: Vec::new(),
        }
    }

    /// Work done by the cycles run so far, each counted on its own world.
    #[must_use]
    pub fn work(&self) -> Work {
        self.work
    }

    /// The first cycle's witness, once one has run.
    #[must_use]
    pub fn first_witness(&self) -> Option<&str> {
        self.first_witness.as_deref()
    }

    fn cycle(plan: &FleetPlan, world: &mut SimWorld, tr: &Tracer) -> Result<CycleOutcome, String> {
        let t0 = Instant::now();
        let sim0 = world.clock.now_us();
        let fleet = tr
            .span("world.deploy_fleet", || {
                world.deploy_fleet(DOMAIN, FLEET_NODES, plan.content.router())
            })
            .map_err(err("deploy_fleet"))?;
        let t1 = Instant::now();
        let upgrader =
            world.fleet_upgrader(&fleet, plan.content.router(), plan.target_spec.clone());
        let mut spec = FleetSpec::new(DOMAIN, plan.target);
        spec.tick_interval_ms = 60_000;
        let bootstraps = fleet
            .nodes
            .iter()
            .map(|n| n.bootstrap_address().to_owned())
            .collect();
        let public: BTreeMap<String, String> = fleet
            .nodes
            .iter()
            .map(|n| {
                (
                    n.bootstrap_address().to_owned(),
                    n.public_address().to_owned(),
                )
            })
            .collect();
        // `SimWorld::reconciler` wired by hand, so the actuator can be
        // wrapped in spans.
        let mut rec = Reconciler::new(
            world.fleet_sp(&fleet),
            world.net.clone(),
            spec,
            TracedUpgrader {
                inner: upgrader,
                tr,
            },
            bootstraps,
            &fleet.provision,
            fleet.golden_measurement,
        )
        .with_telemetry(world.telemetry.clone())
        .with_dns(world.dns.clone(), public);
        while !rec.is_converged() && rec.ticks() < MAX_TICKS {
            tr.span("reconcile.tick", || rec.tick());
        }
        let t2 = Instant::now();
        Ok(CycleOutcome {
            converged: rec.is_converged(),
            leader: fleet.provision.leader_bootstrap.clone(),
            transcript: rec.transcript().to_vec(),
            transcript_digest: rec.transcript_digest(),
            ticks: rec.ticks(),
            fleet,
            provision_ms: t1.duration_since(t0).as_secs_f64() * 1e3,
            rollout_ms: t2.duration_since(t1).as_secs_f64() * 1e3,
            sim_us: world.clock.now_us() - sim0,
        })
    }
}

/// Canary-first with the leader last: the upgrades before the canary
/// pass are canaries (at least one, never the leader), and the last wave
/// upgrade is the leader's. Re-admission catch-up upgrades are not
/// wave upgrades.
fn rollout_order_ok(transcript: &[String], leader: &str) -> Result<(), String> {
    let pass = transcript
        .iter()
        .position(|l| l.contains("canary-pass"))
        .ok_or("the rollout never passed its canaries")?;
    let upgrades: Vec<(usize, &String)> = transcript
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("] upgrade ") && !l.contains("stale image"))
        .collect();
    let canaries: Vec<&String> = upgrades
        .iter()
        .filter(|(i, _)| *i < pass)
        .map(|(_, l)| *l)
        .collect();
    if canaries.is_empty() || canaries.len() == upgrades.len() {
        return Err(format!(
            "not canary-first: {} of {} upgrades before the canary pass",
            canaries.len(),
            upgrades.len()
        ));
    }
    if canaries.iter().any(|l| l.contains(leader)) {
        return Err("the serving leader was a canary".into());
    }
    if !upgrades.last().is_some_and(|(_, l)| l.contains(leader)) {
        return Err("the serving leader was not upgraded last".into());
    }
    Ok(())
}

impl Client for FleetClient<'_> {
    type Out = Cycle;

    fn run(&mut self, tr: &Tracer) -> Cycle {
        let crypto0 = [thread_scalar_mul_ops(), thread_point_decompressions()];
        let mut world = tr.span("world.new", || SimWorld::new(self.plan.world_seed));
        let result = Self::cycle(self.plan, &mut world, tr);
        Cycle {
            world,
            result,
            crypto: [
                thread_scalar_mul_ops() - crypto0[0],
                thread_point_decompressions() - crypto0[1],
            ],
        }
    }

    fn check(&mut self, cycle: Cycle, w: &mut Witness) -> Result<(), String> {
        // Counters of this cycle's own world, plus this thread's crypto
        // work measured around the timed part.
        let mut work = Work::read(Some(&cycle.world.telemetry));
        work.0[..2].copy_from_slice(&cycle.crypto);
        self.work = self.work.plus(work);
        let outcome = cycle.result?;
        self.provision_ms.push(outcome.provision_ms);
        self.rollout_ms.push(outcome.rollout_ms);
        if !outcome.converged {
            return Err(format!(
                "rollout did not converge in {} ticks",
                outcome.ticks
            ));
        }
        rollout_order_ok(&outcome.transcript, &outcome.leader)?;

        // A first visit after the rollout must attest the new image.
        let ext = cycle.world.extension();
        ext.register_site(DOMAIN, [self.plan.target]);
        let visit = ext
            .browse(DOMAIN, "/")
            .map_err(err("browse after rollout"))?;
        let measurement = visit.evidence.report.report.measurement;

        let mut mine = Witness::default();
        mine.add("transcript", outcome.transcript_digest.as_bytes());
        mine.num("ticks", outcome.ticks);
        mine.num("nodes", outcome.fleet.nodes.len() as u64);
        mine.add("measurement", measurement.as_bytes());
        record_response(&mut mine, &visit.response, outcome.sim_us);
        let digest = mine.hex();
        w.add("cycle", digest.as_bytes());
        if measurement != self.plan.target {
            return Err("the post-rollout visit did not attest the target image".into());
        }
        check_body("page", &visit.response, &self.plan.content.page.digest)?;
        match &self.first_witness {
            Some(first) if *first != digest => {
                Err("cycle behaviour differs from the first cycle".into())
            }
            Some(_) => Ok(()),
            None => {
                self.first_witness = Some(digest);
                Ok(())
            }
        }
    }
}
