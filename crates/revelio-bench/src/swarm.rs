//! The swarm benchmark: verifier throughput at browser-population scale.
//!
//! ROADMAP's "Verifier at line rate" scenario: a shared-cert fleet
//! serves a population of monitored sessions that all re-run the staged
//! verification on every request. The cacheable stage
//! (`WebExtension::verify_evidence`) hits the generation-stamped verdict
//! cache, so the steady state performs **zero signature verifications**
//! and no KDS traffic — only the per-connection TLS-binding stage runs
//! per session. This module measures exactly that claim:
//!
//! * **cold verify** — fresh extensions (empty verdict *and* VCEK
//!   caches) timing the full pipeline: KDS round trip plus four
//!   signature equations (batched);
//! * **hot sessions** — one shared extension driven by N OS threads,
//!   each session re-verifying its evidence (a verdict-cache hit) and
//!   performing one monitored GET;
//! * **counter proof** — the telemetry deltas across the hot phase:
//!   `revelio_extension_signature_verifications_total` must not move,
//!   while `revelio_extension_tls_binding_checks_total` must advance
//!   once per session.
//!
//! The hot phase also emits a transcript digest: the per-session
//! records (index, slot, cache bit, HTTP status, body length — no
//! timings) hashed in global session order. The digest is byte-identical
//! across thread counts; the determinism suite pins that.
//!
//! A **reconnect phase** follows the hot phase and measures
//! revocation-safe TLS session resumption: the same monitored session is
//! reconnected with the ticket cache cleared (full handshake + evidence
//! fetch + staged verify) and again with a warm ticket (abbreviated
//! handshake). Thread-local crypto counters prove the resumed path
//! performs exactly one scalar multiplication per reconnect — the
//! precomputed fixed-base fallback ephemeral in the ClientHello — and
//! zero evidence fetches; a generation bump (revocation) then forces the
//! next reconnect back through the full re-attestation path.

use std::time::Instant;

use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_crypto::metrics::thread_scalar_mul_ops;
use revelio_crypto::sha2::Sha256;
use revelio_telemetry::Telemetry;
use sev_snp::measurement::Measurement;

/// The domain the swarm fleet serves.
pub const SWARM_DOMAIN: &str = "swarm.example.org";

/// The world seed of the swarm run (pinned: the transcript digest is
/// part of the determinism suite).
pub const SWARM_SEED: u64 = 0x5_3A12;

/// How many fresh-extension cold verifications establish the baseline
/// (fewer when the run itself is small — the baseline must not dominate
/// a smoke-scale run).
const COLD_SAMPLES: usize = 32;

/// Reconnects per reconnect-phase arm (full baseline and resumed).
const RECONNECT_SAMPLES: usize = 32;

/// Swarm dimensions: `(sessions, threads, nodes)`, defaulting to the
/// paper-scale run (1M monitored sessions, 16 OS threads, 4-node
/// shared-cert fleet) and overridable via `REVELIO_SWARM_SESSIONS`,
/// `REVELIO_SWARM_THREADS`, and `REVELIO_SWARM_NODES` for CI smoke
/// scale.
#[must_use]
pub fn swarm_dimensions_from_env() -> (usize, usize, usize) {
    let dim = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(default)
    };
    (
        dim("REVELIO_SWARM_SESSIONS", 1_000_000),
        dim("REVELIO_SWARM_THREADS", 16),
        dim("REVELIO_SWARM_NODES", 4),
    )
}

/// One hot-phase session's transcript record. Deliberately excludes
/// every timing: the transcript asserts *what happened*, which is
/// deterministic, never *how fast*, which is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SessionRecord {
    /// Global session index (0..sessions).
    idx: u64,
    /// The session slot served (idx % nodes).
    slot: u64,
    /// Whether the cacheable stage was served from the verdict cache.
    cached: bool,
    /// HTTP status of the monitored GET.
    status: u16,
    /// Response body length, bytes.
    body_len: u64,
}

impl SessionRecord {
    fn write_to(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.idx.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
        out.push(u8::from(self.cached));
        out.extend_from_slice(&self.status.to_le_bytes());
        out.extend_from_slice(&self.body_len.to_le_bytes());
    }
}

/// The verdict-cache counters the swarm proves its claims with.
#[derive(Debug, Clone, Copy, Default)]
struct VerifyCounters {
    hits: u64,
    misses: u64,
    invalidations: u64,
    signature_checks: u64,
    tls_binding_checks: u64,
}

impl VerifyCounters {
    fn read(telemetry: &Telemetry) -> Self {
        VerifyCounters {
            hits: telemetry.counter("revelio_extension_verify_cache_hits_total"),
            misses: telemetry.counter("revelio_extension_verify_cache_misses_total"),
            invalidations: telemetry.counter("revelio_extension_verify_cache_invalidations_total"),
            signature_checks: telemetry.counter("revelio_extension_signature_verifications_total"),
            tls_binding_checks: telemetry.counter("revelio_extension_tls_binding_checks_total"),
        }
    }

    fn delta(self, baseline: Self) -> Self {
        VerifyCounters {
            hits: self.hits - baseline.hits,
            misses: self.misses - baseline.misses,
            invalidations: self.invalidations - baseline.invalidations,
            signature_checks: self.signature_checks - baseline.signature_checks,
            tls_binding_checks: self.tls_binding_checks - baseline.tls_binding_checks,
        }
    }
}

/// Results of one swarm run.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Monitored sessions driven through the shared extension.
    pub sessions: u64,
    /// OS threads driving them.
    pub threads: usize,
    /// Fleet size (shared-cert nodes).
    pub nodes: usize,
    /// Fresh-extension full-pipeline verifications sampled for the
    /// baseline.
    pub cold_samples: usize,
    /// Cold staged-verify wall latency, p50 / p99, µs (KDS round trip +
    /// batched signature checks + golden lookup + TLS binding).
    pub cold_verify_p50_us: f64,
    /// See `cold_verify_p50_us`.
    pub cold_verify_p99_us: f64,
    /// Hot-phase per-session wall latency (cache-hit staged verify + one
    /// monitored GET), p50 / p99, µs.
    pub session_p50_us: f64,
    /// See `session_p50_us`.
    pub session_p99_us: f64,
    /// Hot-phase sessions per wall-clock second.
    pub verify_throughput_per_sec: f64,
    /// Hot-phase wall time, seconds.
    pub hot_elapsed_secs: f64,
    /// Verdict-cache hits during the hot phase.
    pub cache_hits: u64,
    /// Verdict-cache misses during the hot phase (steady state: 0).
    pub cache_misses: u64,
    /// Hot-phase hit rate: hits / (hits + misses).
    pub cache_hit_rate: f64,
    /// Generation bumps during the hot phase (steady state: 0).
    pub cache_invalidations: u64,
    /// Signature equations checked during the hot phase — the line-rate
    /// claim is that this is **exactly zero**.
    pub signature_checks: u64,
    /// Per-connection TLS-binding checks during the hot phase — must be
    /// one per session even though every verdict came from the cache.
    pub tls_binding_checks: u64,
    /// SHA-256 over the per-session records in global session order
    /// (hex). Byte-identical across thread counts.
    pub transcript_sha256: String,
    /// Reconnects measured per reconnect-phase arm.
    pub reconnect_samples: usize,
    /// Full-reconnect wall latency (ticket cache cleared: full handshake
    /// + evidence fetch + staged verify), p50 / p99, µs.
    pub full_reconnect_p50_us: f64,
    /// See `full_reconnect_p50_us`.
    pub full_reconnect_p99_us: f64,
    /// Resumed-reconnect wall latency (warm ticket: abbreviated
    /// handshake, no asymmetric crypto, no evidence fetch), p50 / p99,
    /// µs.
    pub resumed_reconnect_p50_us: f64,
    /// See `resumed_reconnect_p50_us`.
    pub resumed_reconnect_p99_us: f64,
    /// How many warm-arm reconnects actually took the resumed path.
    pub resumed_reconnects: u64,
    /// `resumed_reconnects` / `reconnect_samples`.
    pub resumption_rate: f64,
    /// Scalar multiplications charged to the driving thread across the
    /// resumed arm. The claim is **exactly one per reconnect**: the
    /// ClientHello's fallback ephemeral (a precomputed fixed-base table
    /// lookup) — zero Diffie-Hellman ladders, zero signature equations.
    pub resumed_scalar_muls: u64,
    /// Node evidence requests during the resumed arm (claim: zero).
    pub resumed_evidence_fetches: u64,
    /// Resumed reconnects after the generation bump (claim: zero — the
    /// ticket shortcut dies with its generation stamp).
    pub post_bump_resumptions: u64,
    /// Node evidence requests on the post-bump reconnect (claim: ≥ 1 —
    /// the full path re-attests from scratch).
    pub post_bump_evidence_fetches: u64,
}

impl SwarmReport {
    /// Serializes the report for `BENCH_swarm.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sessions\":{},\"threads\":{},\"nodes\":{},",
                "\"cold_samples\":{},",
                "\"cold_verify_p50_us\":{:.2},\"cold_verify_p99_us\":{:.2},",
                "\"session_p50_us\":{:.2},\"session_p99_us\":{:.2},",
                "\"verify_throughput_per_sec\":{:.0},",
                "\"hot_elapsed_secs\":{:.3},",
                "\"cache_hits\":{},\"cache_misses\":{},",
                "\"cache_hit_rate\":{:.6},\"cache_invalidations\":{},",
                "\"signature_checks\":{},\"tls_binding_checks\":{},",
                "\"transcript_sha256\":\"{}\",",
                "\"reconnect_samples\":{},",
                "\"full_reconnect_p50_us\":{:.2},\"full_reconnect_p99_us\":{:.2},",
                "\"resumed_reconnect_p50_us\":{:.2},\"resumed_reconnect_p99_us\":{:.2},",
                "\"resumed_reconnects\":{},\"resumption_rate\":{:.6},",
                "\"resumed_scalar_muls\":{},\"resumed_evidence_fetches\":{},",
                "\"post_bump_resumptions\":{},\"post_bump_evidence_fetches\":{}}}"
            ),
            self.sessions,
            self.threads,
            self.nodes,
            self.cold_samples,
            self.cold_verify_p50_us,
            self.cold_verify_p99_us,
            self.session_p50_us,
            self.session_p99_us,
            self.verify_throughput_per_sec,
            self.hot_elapsed_secs,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate,
            self.cache_invalidations,
            self.signature_checks,
            self.tls_binding_checks,
            self.transcript_sha256,
            self.reconnect_samples,
            self.full_reconnect_p50_us,
            self.full_reconnect_p99_us,
            self.resumed_reconnect_p50_us,
            self.resumed_reconnect_p99_us,
            self.resumed_reconnects,
            self.resumption_rate,
            self.resumed_scalar_muls,
            self.resumed_evidence_fetches,
            self.post_bump_resumptions,
            self.post_bump_evidence_fetches,
        )
    }

    /// The swarm gates, empty when all hold:
    ///
    /// * a cache-hit session (staged verify **plus** a monitored GET) is
    ///   faster at p50 than a cold verify alone;
    /// * the hot phase performed zero signature verifications;
    /// * the hot-phase hit rate is ≥ 99%;
    /// * the TLS-binding check ran once per session regardless.
    #[must_use]
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.session_p50_us >= self.cold_verify_p50_us {
            failures.push(format!(
                "cache-hit session p50 ({:.2} µs) does not beat cold-verify p50 ({:.2} µs)",
                self.session_p50_us, self.cold_verify_p50_us
            ));
        }
        if self.signature_checks != 0 {
            failures.push(format!(
                "hot phase performed {} signature verifications (expected 0)",
                self.signature_checks
            ));
        }
        if self.cache_hit_rate < 0.99 {
            failures.push(format!(
                "hot-phase cache hit rate {:.4} below 0.99 ({} misses)",
                self.cache_hit_rate, self.cache_misses
            ));
        }
        if self.tls_binding_checks != self.sessions {
            failures.push(format!(
                "TLS-binding checks ({}) != sessions ({}) — the per-connection stage must run every time",
                self.tls_binding_checks, self.sessions
            ));
        }
        if self.resumed_reconnect_p50_us >= self.full_reconnect_p50_us {
            failures.push(format!(
                "resumed-reconnect p50 ({:.2} µs) does not beat full-reconnect p50 ({:.2} µs)",
                self.resumed_reconnect_p50_us, self.full_reconnect_p50_us
            ));
        }
        if self.resumption_rate < 0.99 {
            failures.push(format!(
                "resumption rate {:.4} below 0.99 ({} of {} reconnects resumed)",
                self.resumption_rate, self.resumed_reconnects, self.reconnect_samples
            ));
        }
        if self.resumed_scalar_muls != self.resumed_reconnects {
            failures.push(format!(
                "resumed arm charged {} scalar muls for {} reconnects (expected exactly one \
                 precomputed fixed-base fallback ephemeral each — zero DH / signature work)",
                self.resumed_scalar_muls, self.resumed_reconnects
            ));
        }
        if self.resumed_evidence_fetches != 0 {
            failures.push(format!(
                "resumed arm fetched evidence {} times (expected 0)",
                self.resumed_evidence_fetches
            ));
        }
        if self.post_bump_resumptions != 0 {
            failures.push(format!(
                "{} reconnects resumed after the generation bump (expected 0 — revocation must \
                 kill every outstanding ticket)",
                self.post_bump_resumptions
            ));
        }
        if self.post_bump_evidence_fetches == 0 {
            failures.push(
                "post-bump reconnect fetched no evidence (expected a full re-attestation)"
                    .to_string(),
            );
        }
        failures
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Runs the swarm.
///
/// # Panics
///
/// Panics if fleet deployment or any session fails — the swarm runs on
/// a clean fabric, so a failure is a harness bug, not a measurement.
#[must_use]
pub fn run_swarm(sessions: usize, threads: usize, nodes: usize) -> SwarmReport {
    let threads = threads.max(1);
    let mut world = SimWorld::new(SWARM_SEED);
    let fleet = world
        .deploy_fleet(SWARM_DOMAIN, nodes, demo_app())
        .expect("swarm fleet deploys on a clean fabric");
    let extension = world.extension();
    extension.register_site(SWARM_DOMAIN, vec![fleet.golden_measurement]);

    // A probe session supplies the evidence bundle the cold baseline
    // re-verifies (and pre-warms nothing beyond its own verdict entry);
    // the reconnect phase later drives it through both reconnect arms.
    let mut probe = extension
        .open_monitored(SWARM_DOMAIN)
        .expect("probe session attests");

    // Cold baseline: each sample is a fresh extension — empty verdict
    // cache, empty VCEK cache — timing one full staged verification:
    // KDS round trip, batched chain + report signature check, golden
    // lookup, TLS binding.
    let cold_samples = COLD_SAMPLES.min((sessions / 64).max(1));
    let mut cold_us: Vec<f64> = (0..cold_samples)
        .map(|_| {
            let cold = world.extension();
            cold.register_site(SWARM_DOMAIN, vec![fleet.golden_measurement]);
            let t0 = Instant::now();
            cold.verify(SWARM_DOMAIN, probe.evidence(), &probe.pinned_key())
                .expect("cold verify succeeds");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    cold_us.sort_by(|a, b| a.total_cmp(b));

    // Warm-up: every thread owns one monitored session per fleet slot
    // (sessions cannot be shared across threads — each holds a live
    // connection). The first open per distinct evidence is a verdict
    // miss; the rest hit.
    let mut pools: Vec<Vec<revelio::extension::MonitoredSession>> = (0..threads)
        .map(|_| {
            (0..nodes)
                .map(|_| {
                    extension
                        .open_monitored(SWARM_DOMAIN)
                        .expect("warm-up session attests")
                })
                .collect()
        })
        .collect();

    // Hot phase: `sessions` monitored sessions striped across the
    // threads (session i belongs to thread i % threads and fleet slot
    // i % nodes), each re-running the staged verification — a verdict
    // cache hit — plus one monitored GET.
    let baseline = VerifyCounters::read(&world.telemetry);
    let total = sessions as u64;
    let hot_start = Instant::now();
    let per_thread: Vec<(Vec<SessionRecord>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .drain(..)
            .enumerate()
            .map(|(t, mut pool)| {
                let extension = &extension;
                s.spawn(move || {
                    let mut records = Vec::with_capacity(sessions / threads + 1);
                    let mut latencies = Vec::with_capacity(sessions / threads + 1);
                    let mut idx = t as u64;
                    while idx < total {
                        let slot = (idx % nodes as u64) as usize;
                        let monitored = &mut pool[slot];
                        let t0 = Instant::now();
                        let verdict = extension
                            .verify(
                                monitored.domain(),
                                monitored.evidence(),
                                &monitored.pinned_key(),
                            )
                            .expect("hot-phase verify succeeds");
                        let response = monitored.request("/").expect("hot-phase request");
                        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        records.push(SessionRecord {
                            idx,
                            slot: slot as u64,
                            cached: verdict.cached,
                            status: response.status,
                            body_len: response.body.len() as u64,
                        });
                        idx += threads as u64;
                    }
                    (records, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("swarm thread"))
            .collect()
    });
    let hot_elapsed = hot_start.elapsed().as_secs_f64();
    let counters = VerifyCounters::read(&world.telemetry).delta(baseline);

    // ── Reconnect phase: revocation-safe session resumption ──
    //
    // Full arm: forget the stored ticket before every reconnect, so each
    // one pays the complete path — TLS handshake (DH + transcript
    // signature + chain verification), evidence fetch, staged verify.
    let reconnect_samples = RECONNECT_SAMPLES.min(sessions.max(1));
    let mut full_us: Vec<f64> = Vec::with_capacity(reconnect_samples);
    for _ in 0..reconnect_samples {
        extension.clear_resumption_cache();
        let t0 = Instant::now();
        extension
            .reconnect(&mut probe)
            .expect("full reconnect succeeds");
        full_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    full_us.sort_by(|a, b| a.total_cmp(b));

    // Resumed arm: the last full reconnect left a fresh ticket on file.
    // Crypto work is counted with *thread-local* counters: the simulated
    // server handler runs synchronously on this thread, so the deltas
    // cover both ends of every handshake and nothing else.
    let resumed_counter = "revelio_extension_resumed_reconnects_total";
    let evidence_counter = "revelio_node_evidence_requests_total";
    let resumed_before = world.telemetry.counter(resumed_counter);
    let evidence_before = world.telemetry.counter(evidence_counter);
    let scalar_before = thread_scalar_mul_ops();
    let mut resumed_us: Vec<f64> = Vec::with_capacity(reconnect_samples);
    for _ in 0..reconnect_samples {
        let t0 = Instant::now();
        extension
            .reconnect(&mut probe)
            .expect("resumed reconnect succeeds");
        resumed_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    resumed_us.sort_by(|a, b| a.total_cmp(b));
    let resumed_reconnects = world.telemetry.counter(resumed_counter) - resumed_before;
    let resumed_scalar_muls = thread_scalar_mul_ops() - scalar_before;
    let resumed_evidence_fetches = world.telemetry.counter(evidence_counter) - evidence_before;

    // Generation bump: revoking a measurement (one the fleet never ran,
    // so trust in the golden one is semantically untouched) bumps the
    // verdict generation — the outstanding ticket's stamp goes stale and
    // the next reconnect must re-attest through the full path.
    let resumed_before_bump = world.telemetry.counter(resumed_counter);
    let evidence_before_bump = world.telemetry.counter(evidence_counter);
    extension.revoke_measurement(SWARM_DOMAIN, Measurement::from_bytes([0xEE; 48]));
    extension
        .reconnect(&mut probe)
        .expect("post-bump reconnect re-attests");
    let post_bump_resumptions = world.telemetry.counter(resumed_counter) - resumed_before_bump;
    let post_bump_evidence_fetches =
        world.telemetry.counter(evidence_counter) - evidence_before_bump;

    // Merge the striped records back into global session order and hash
    // them: the digest is the determinism witness.
    let mut records: Vec<SessionRecord> = Vec::with_capacity(sessions);
    let mut latencies: Vec<f64> = Vec::with_capacity(sessions);
    for (thread_records, thread_latencies) in per_thread {
        records.extend(thread_records);
        latencies.extend(thread_latencies);
    }
    records.sort_by_key(|r| r.idx);
    let mut transcript = Vec::with_capacity(records.len() * 27);
    for record in &records {
        record.write_to(&mut transcript);
    }
    let digest = Sha256::digest(&transcript);
    latencies.sort_by(|a, b| a.total_cmp(b));

    let attempted = counters.hits + counters.misses;
    SwarmReport {
        sessions: total,
        threads,
        nodes,
        cold_samples,
        cold_verify_p50_us: percentile(&cold_us, 0.50),
        cold_verify_p99_us: percentile(&cold_us, 0.99),
        session_p50_us: percentile(&latencies, 0.50),
        session_p99_us: percentile(&latencies, 0.99),
        verify_throughput_per_sec: total as f64 / hot_elapsed.max(1e-9),
        hot_elapsed_secs: hot_elapsed,
        cache_hits: counters.hits,
        cache_misses: counters.misses,
        cache_hit_rate: if attempted == 0 {
            0.0
        } else {
            counters.hits as f64 / attempted as f64
        },
        cache_invalidations: counters.invalidations,
        signature_checks: counters.signature_checks,
        tls_binding_checks: counters.tls_binding_checks,
        transcript_sha256: hex(&digest),
        reconnect_samples,
        full_reconnect_p50_us: percentile(&full_us, 0.50),
        full_reconnect_p99_us: percentile(&full_us, 0.99),
        resumed_reconnect_p50_us: percentile(&resumed_us, 0.50),
        resumed_reconnect_p99_us: percentile(&resumed_us, 0.99),
        resumed_reconnects,
        resumption_rate: resumed_reconnects as f64 / reconnect_samples as f64,
        resumed_scalar_muls,
        resumed_evidence_fetches,
        post_bump_resumptions,
        post_bump_evidence_fetches,
    }
}
