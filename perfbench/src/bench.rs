//! One benchmark run: set-up, the deterministic prelude, a warm-up,
//! then either the untraced end-to-end measurement or the traced
//! per-layer run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::fixture::{Fixture, Witness, Work, WORK_NAMES};
use crate::kernels;
use crate::stats::{has_tail, median, quantile};
use crate::trace::{attribute, write_jsonl, Span};
use crate::workloads::{
    drive_one, run_clients, tracer, BulkClient, Client, ClientRun, ColdClient, FleetClient,
    FleetPlan, Reconnect, ReconnectClient, Stop, WarmClient, Workload, BROWSE_NODES,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Layers the traced decompositions attribute time to.
pub const TRACED_LAYERS: [&str; 6] = ["tls", "http", "verifier", "world", "reconcile", "node"];

/// A run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    fn absorb(&mut self, runs: &[ClientRun], phase: &str) {
        for r in runs {
            self.attempted += r.attempted;
            self.failed += r.failed;
            for e in &r.errors {
                self.lines.push(format!("FAILED ({phase}): {e}"));
            }
        }
    }

    fn violation(&mut self, what: String) {
        self.correct = false;
        self.lines.push(format!("FAILED: {what}"));
    }
}

/// The workload's long-lived state.
enum State {
    Fleet(Box<Fixture>),
    Rollout(Box<FleetPlan>),
}

fn setup(w: Workload, seed: u64) -> Result<State, String> {
    match w {
        Workload::FleetRollout => FleetPlan::new(seed).map(|p| State::Rollout(Box::new(p))),
        _ => Fixture::new(seed, BROWSE_NODES).map(|f| State::Fleet(Box::new(f))),
    }
    .map_err(|e| format!("set-up: {e}"))
}

/// Shortest window, ms.
const WINDOW_MS: f64 = 100.0;

/// Fewest operations a window holds, so that its median has ten samples
/// beyond it.
const WINDOW_OPS: usize = 20;

/// Operation latencies, throughput and spans of one phase.
///
/// The host is shared, and other tenants slow it in bursts from a tenth
/// of a second to minutes. Each client's phase is therefore cut into
/// windows (see [`windows`]) and the headline figures come from its
/// least disturbed window.
struct Phase {
    /// Every latency, sorted, µs.
    lat_us: Vec<f64>,
    /// The lowest window median of any client, µs.
    p50_us: f64,
    /// Per client, the highest window throughput (operations over the
    /// time spent in them); summed over clients.
    ops_per_s: f64,
    spans: Vec<Vec<Span>>,
    /// Sub-phase samples (fleet cycles: provisioning, rollout), ms.
    provision_ms: Vec<f64>,
    rollout_ms: Vec<f64>,
}

/// One client's latencies (µs) cut into windows: consecutive
/// [`WINDOW_MS`] slots of completion time, merged until each holds
/// [`WINDOW_OPS`] operations. A window with fewer than half the
/// operations of the median window is dropped, so a short one cannot
/// win; a client with fewer than [`WINDOW_OPS`] operations is one
/// window.
fn windows(lat_us: &[f64], done_ms: &[u32]) -> Vec<Vec<f64>> {
    let mut slots: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&lat, &done) in lat_us.iter().zip(done_ms) {
        slots
            .entry((f64::from(done) / WINDOW_MS) as u64)
            .or_default()
            .push(lat);
    }
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open = Vec::new();
    for slot in slots.into_values() {
        open.extend(slot);
        if open.len() >= WINDOW_OPS {
            windows.push(std::mem::take(&mut open));
        }
    }
    if windows.is_empty() {
        windows.push(open);
    }
    let mut counts: Vec<f64> = windows.iter().map(|w| w.len() as f64).collect();
    let floor = median(&mut counts) / 2.0;
    windows.retain(|w| w.len() as f64 >= floor);
    windows
}

impl Phase {
    fn of(runs: Vec<ClientRun>) -> Self {
        let mut p50_us = f64::NAN;
        let mut ops_per_s = 0.0;
        for r in runs.iter().filter(|r| !r.lat_us.is_empty()) {
            let mut best_rate = 0.0_f64;
            for mut w in windows(&r.lat_us, &r.done_ms) {
                best_rate = best_rate.max(w.len() as f64 / (w.iter().sum::<f64>() / 1e6));
                p50_us = p50_us.min(median(&mut w));
            }
            ops_per_s += best_rate;
        }
        let mut lat_us: Vec<f64> = runs.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
        lat_us.sort_by(f64::total_cmp);
        Phase {
            lat_us,
            p50_us,
            ops_per_s,
            spans: runs.into_iter().map(|r| r.spans).collect(),
            provision_ms: Vec::new(),
            rollout_ms: Vec::new(),
        }
    }
}

/// Runs `clients` and reads the counters around them on this thread:
/// exact for a single inline client, telemetry-only for several.
fn counted<D: Client + Send>(
    loops: Vec<D>,
    stop: Stop,
    traced: bool,
    witness: Option<&mut Witness>,
    fx: &Fixture,
) -> (Vec<ClientRun>, Work) {
    let before = Work::read(Some(&fx.world.telemetry));
    let runs = run_clients(loops, stop, traced, witness);
    (runs, Work::read(Some(&fx.world.telemetry)).since(before))
}

/// Runs one phase of `w`: builds the clients, loops them, collects the
/// latencies and the work the phase did.
#[allow(clippy::too_many_arguments)]
fn phase(
    w: Workload,
    state: &State,
    stop: Stop,
    traced: bool,
    witness: Option<&mut Witness>,
    out: &mut Outcome,
    label: &str,
    fleet_first: &mut Option<String>,
) -> Result<(Phase, Work), String> {
    let e = |err: &dyn std::fmt::Display| format!("{label}: {err}");
    let clients = if witness.is_some() { 1 } else { w.clients() };
    let (runs, work) = match (w, state) {
        (Workload::BrowseWarm, State::Fleet(fx)) => {
            let loops = (0..clients)
                .map(|_| WarmClient::new(fx))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|x| e(&x))?;
            counted(loops, stop, traced, witness, fx)
        }
        (Workload::BulkTransfer, State::Fleet(fx)) => {
            let loops = (0..clients)
                .map(|i| BulkClient::new(fx, i))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|x| e(&x))?;
            counted(loops, stop, traced, witness, fx)
        }
        (Workload::ColdAttest, State::Fleet(fx)) => {
            counted(vec![ColdClient::new(fx, traced)], stop, traced, witness, fx)
        }
        (
            Workload::ReconnectFull | Workload::ReconnectResumed | Workload::ReconnectReattest,
            State::Fleet(fx),
        ) => {
            let kind = match w {
                Workload::ReconnectFull => Reconnect::Full,
                Workload::ReconnectResumed => Reconnect::Resumed,
                _ => Reconnect::Reattest,
            };
            let load = ReconnectClient::new(fx, kind, traced).map_err(|x| e(&x))?;
            counted(vec![load], stop, traced, witness, fx)
        }
        (Workload::FleetRollout, State::Rollout(plan)) => {
            // Every cycle builds its own world, so the client counts the
            // work itself; it is also needed back for its cycle samples.
            let mut load = FleetClient::new(plan, fleet_first.clone());
            let epoch = Instant::now();
            let run = drive_one(
                &mut load,
                stop,
                epoch,
                &tracer(traced, epoch, stop),
                witness,
            );
            *fleet_first = load.first_witness().map(str::to_owned);
            out.absorb(std::slice::from_ref(&run), label);
            let work = load.work();
            let mut p = Phase::of(vec![run]);
            p.provision_ms = load.provision_ms;
            p.rollout_ms = load.rollout_ms;
            return Ok((p, work));
        }
        _ => unreachable!("every workload has its state"),
    };
    out.absorb(&runs, label);
    Ok((Phase::of(runs), work))
}

/// Peak resident set size, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn fmt_percentiles(lat_us: &[f64]) -> String {
    let n = lat_us.len();
    let mut s = format!("p50={:.3}us", quantile(lat_us, 0.5));
    for q in [0.9, 0.99, 0.999] {
        if has_tail(n, q) {
            s.push_str(&format!(" p{}={:.3}us", q * 100.0, quantile(lat_us, q)));
        }
    }
    s.push_str(&format!(" (n={n})"));
    s
}

/// Runs `settings`; `started` is when the process started.
#[must_use]
pub fn run(settings: Settings, started: Instant) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if let Err(e) = run_inner(settings, started, &mut out) {
        out.violation(e);
    }
    if out.failed > 0 {
        out.correct = false;
    }
    if let Some((name, _, _)) = out.metrics.iter().find(|m| !m.1.is_finite()) {
        let what = format!("{name} could not be measured");
        out.violation(what);
    }
    out
}

fn run_inner(s: Settings, started: Instant, out: &mut Outcome) -> Result<(), String> {
    let w = s.workload;

    // Set-up, several times: the first includes process start and the
    // lazily built tables (the Ed25519 fixed-base table); the median is
    // what a later change to set-up moves.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for i in 0..SETUPS {
        let t0 = if i == 0 { started } else { Instant::now() };
        // The previous set-up is dropped first: one lives at a time.
        drop(state.take());
        state = Some(setup(w, s.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let state = state.expect("set up");
    out.lines.push(format!(
        "setup: {} set-ups, s = {:?} (median reported)",
        SETUPS,
        setup_s
            .iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    let setup_s = median(&mut setup_s);

    // The deterministic prelude: a fixed number of operations on one
    // client, hashed into the behaviour witness and counted.
    let mut fleet_first = None;
    let mut witness = Witness::default();
    let k = w.prelude_ops();
    let (_, work) = phase(
        w,
        &state,
        Stop::Ops(k),
        false,
        Some(&mut witness),
        out,
        "prelude",
        &mut fleet_first,
    )?;
    out.lines.push(format!("witness: {}", witness.hex()));
    out.lines
        .push(format!("work over {k} prelude ops: {}", work.render()));
    check_prelude_invariants(w, &work, k, out);
    // Memory of set-up and the fixed-size prelude only: the world's
    // telemetry keeps every span, so memory in the timed phases grows
    // with throughput and would penalise a faster program.
    let rss_mb = peak_rss_mb();

    // Warm-up: caches filled, lazy state built, nothing recorded.
    if w != Workload::FleetRollout {
        let until = Instant::now() + Duration::from_secs_f64((s.seconds * 0.05).clamp(0.05, 0.5));
        phase(
            w,
            &state,
            Stop::Until(until, u64::MAX),
            false,
            None,
            out,
            "warm-up",
            &mut fleet_first,
        )?;
    }

    let measured = if s.trace { s.seconds / 2.0 } else { s.seconds };
    let until = Instant::now() + Duration::from_secs_f64(measured);
    let (untraced, phase_work) = phase(
        w,
        &state,
        Stop::Until(until, u64::MAX),
        false,
        None,
        out,
        "measure",
        &mut fleet_first,
    )?;
    if untraced.lat_us.is_empty() {
        return Err("no operation completed in the measured phase".into());
    }
    check_phase_invariants(w, &untraced, phase_work, out);

    if !s.trace {
        report_end_to_end(w, &untraced, setup_s, rss_mb, out);
        return Ok(());
    }

    let until = Instant::now() + Duration::from_secs_f64(s.seconds / 2.0);
    let (traced, _) = phase(
        w,
        &state,
        Stop::Until(until, u64::MAX),
        true,
        None,
        out,
        "traced",
        &mut fleet_first,
    )?;
    if traced.lat_us.is_empty() {
        return Err("no operation completed in the traced phase".into());
    }
    let path =
        std::path::PathBuf::from(format!("perfbench/out/trace_{}_{}.jsonl", w.name(), s.seed));
    write_jsonl(&path, &traced.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.lines
        .push(format!("spans written to {}", path.display()));
    report_per_layer(w, s.seed, &untraced, &traced, &work, k, out)
}

/// The line-rate invariants, checked on the prelude's exact counts.
fn check_prelude_invariants(w: Workload, work: &Work, k: u64, out: &mut Outcome) {
    let c = |i: usize| work.0[i];
    let broken = match w {
        Workload::BrowseWarm => {
            (c(Work::SIGNATURE_CHECKS) != 0 || c(Work::TLS_BINDING_CHECKS) != k).then(|| {
                format!(
                    "browse_warm: {} signature checks (expected 0) and {} binding checks (expected {k})",
                    c(Work::SIGNATURE_CHECKS),
                    c(Work::TLS_BINDING_CHECKS)
                )
            })
        }
        Workload::ReconnectResumed => (c(Work::SCALAR_MULS) != k || c(Work::EVIDENCE_REQUESTS) != 0).then(|| {
            format!(
                "reconnect_resumed: {} scalar multiplications and {} evidence fetches over {k} reconnects \
                 (expected exactly one and none each)",
                c(Work::SCALAR_MULS),
                c(Work::EVIDENCE_REQUESTS)
            )
        }),
        Workload::ReconnectReattest => (c(Work::EVIDENCE_REQUESTS) < k).then(|| {
            format!(
                "reconnect_reattest: {} evidence fetches over {k} reconnects (expected at least one each)",
                c(Work::EVIDENCE_REQUESTS)
            )
        }),
        _ => None,
    };
    if let Some(b) = broken {
        out.violation(b);
    }
}

/// Invariants over a whole measured phase, across all clients.
fn check_phase_invariants(w: Workload, phase: &Phase, work: Work, out: &mut Outcome) {
    if w == Workload::BrowseWarm {
        let ops = phase.lat_us.len() as u64;
        if work.0[Work::SIGNATURE_CHECKS] != 0 || work.0[Work::TLS_BINDING_CHECKS] != ops {
            out.violation(format!(
                "browse_warm phase: {} signature checks and {} binding checks for {ops} sessions",
                work.0[Work::SIGNATURE_CHECKS],
                work.0[Work::TLS_BINDING_CHECKS]
            ));
        }
    }
}

fn ok_pct(out: &Outcome) -> f64 {
    100.0 * (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64
}

fn report_end_to_end(w: Workload, phase: &Phase, setup_s: f64, rss_mb: f64, out: &mut Outcome) {
    let n = phase.lat_us.len();
    out.lines
        .push(format!("{}: {}", w.name(), fmt_percentiles(&phase.lat_us)));
    let mut named: Vec<(&str, f64, &str)> = match w {
        Workload::BrowseWarm => vec![("sessions_per_s", phase.ops_per_s, "1/s")],
        Workload::BulkTransfer => vec![(
            "bulk_mb_per_s",
            phase.ops_per_s * w.payload_bytes() as f64 / 1e6,
            "MB/s",
        )],
        _ => Vec::new(),
    };
    if !phase.provision_ms.is_empty() {
        named.push((
            "provision_ms",
            median(&mut phase.provision_ms.clone()),
            "ms",
        ));
        named.push(("rollout_ms", median(&mut phase.rollout_ms.clone()), "ms"));
    }
    for (name, value, unit) in named {
        out.lines
            .push(format!("{name} = {value:.3} {unit} (n={n})"));
    }
    out.metric("p50_us", phase.p50_us, "us");
    out.metric("ops_per_s", phase.ops_per_s, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    let ok = ok_pct(out);
    out.metric("ok_pct", ok, "%");
}

fn report_per_layer(
    w: Workload,
    seed: u64,
    untraced: &Phase,
    traced: &Phase,
    work: &Work,
    k: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    for (name, value) in WORK_NAMES.iter().zip(work.0) {
        out.metric(&format!("{name}_per_op"), value as f64 / k as f64, "count");
    }

    let a = attribute(&traced.spans);
    let total = a.total_ns.max(1) as f64;
    for layer in TRACED_LAYERS {
        let own = a.self_ns.get(layer).copied().unwrap_or(0);
        out.metric(
            &format!("trace.{layer}_self_pct"),
            100.0 * own as f64 / total,
            "%",
        );
    }
    let unknown: Vec<&String> = a
        .self_ns
        .keys()
        .filter(|l| !TRACED_LAYERS.contains(&l.as_str()))
        .collect();
    if !unknown.is_empty() {
        return Err(format!("spans of unlisted layers: {unknown:?}"));
    }
    let ops = a.ops.max(1) as f64;
    out.metric("trace.spans_per_op", a.spans as f64 / ops, "count");
    out.metric(
        "remainder_us_per_op",
        a.remainder_ns as f64 / 1e3 / ops,
        "us",
    );
    let overhead = 100.0 * (traced.p50_us - untraced.p50_us) / untraced.p50_us;
    out.metric("trace_overhead_pct", overhead, "%");
    out.lines.push(format!(
        "{}: untraced {} | traced {}",
        w.name(),
        fmt_percentiles(&untraced.lat_us),
        fmt_percentiles(&traced.lat_us)
    ));

    for (name, value, unit) in kernels::rows(seed)? {
        out.metric(name, value, unit);
    }
    Ok(())
}
