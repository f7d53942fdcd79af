//! Deterministic telemetry for the Revelio simulation.
//!
//! Every duration in this crate comes from the shared [`SimClock`] — wall
//! time never leaks in — so two runs with the same seed produce
//! byte-identical exports. That property is what lets the bench harness
//! publish machine-independent latency breakdowns and lets the tier-1
//! suite assert reproducibility of the whole attestation pipeline.
//!
//! The crate provides:
//!
//! * a span API ([`Telemetry::span`]) for named, nested, attributed spans
//!   whose durations are read off the sim clock;
//! * counters, gauges, and fixed-bucket histograms with p50/p95/p99
//!   queries ([`Telemetry::observe`], [`Histogram::percentile`]);
//! * three exporters: a JSON-lines event log
//!   ([`Telemetry::export_json_lines`]), Prometheus-style text exposition
//!   ([`Telemetry::export_prometheus`]), and a per-span-tree latency
//!   breakdown table ([`Telemetry::breakdown`]);
//! * [`DeviceProbe`], a hook the storage layer uses to charge simulated
//!   I/O time and record per-device metrics.

#![forbid(unsafe_code)]

mod export;
pub mod flight;
mod metrics;
mod probe;
pub mod retry;
mod span;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;
use revelio_net::clock::SimClock;

pub use export::{labeled_metric, prometheus_escape_label};
pub use flight::{
    FlightDirectory, FlightDump, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY,
};
pub use metrics::Histogram;
pub use probe::DeviceProbe;
pub use retry::retry_with_telemetry;
pub(crate) use span::SpanLog;
pub use span::{SpanGuard, SpanRecord, TraceContext};
pub use trace::{export_all_traces, TraceAssembler};

// Re-exported so crates that don't otherwise depend on `revelio-net` (e.g.
// `revelio-storage`) can construct a clock-driven registry.
pub use revelio_net::clock::SimClock as TelemetryClock;

/// Interior state behind the shared handle.
#[derive(Debug, Default)]
pub(crate) struct State {
    pub(crate) spans: SpanLog,
    /// Open spans in opening order, each tagged with the thread that
    /// opened it. A thread's last entry is the parent of the next span
    /// it opens, so threads sharing one registry never adopt each
    /// other's spans.
    pub(crate) open: Vec<(ThreadId, u64)>,
    /// Last allocated trace id; 0 is reserved (never a valid trace).
    pub(crate) last_trace_id: u64,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
}

impl State {
    /// Trace id for a new span: inherit the parent's, or allocate the
    /// next one for a root. Allocation is sequential from 1, so trace ids
    /// are a pure function of root-span creation order.
    pub(crate) fn trace_of(&mut self, parent: Option<u64>) -> u64 {
        match parent {
            Some(pid) => {
                self.spans
                    .get(pid as usize)
                    .expect("parent id comes from the open-span stack")
                    .trace_id
            }
            None => {
                self.last_trace_id += 1;
                self.last_trace_id
            }
        }
    }

    /// The innermost span `thread` has open.
    pub(crate) fn open_span(&self, thread: ThreadId) -> Option<u64> {
        self.open
            .iter()
            .rev()
            .find(|(opener, _)| *opener == thread)
            .map(|&(_, id)| id)
    }

    /// Removes `thread`'s open span `id` wherever it sits (out-of-order
    /// finishes are tolerated).
    pub(crate) fn close_span(&mut self, thread: ThreadId, id: u64) {
        if let Some(pos) = self.open.iter().rposition(|&open| open == (thread, id)) {
            self.open.remove(pos);
        }
    }
}

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) clock: SimClock,
    pub(crate) state: Mutex<State>,
}

/// A cloneable handle to a telemetry registry bound to one [`SimClock`].
///
/// Clones share state: `SimWorld` creates one handle and threads clones to
/// every component it constructs, so all spans land in a single tree.
#[derive(Debug, Clone)]
pub struct Telemetry {
    pub(crate) inner: Arc<Inner>,
}

impl Telemetry {
    /// Creates an empty registry driven by `clock`.
    #[must_use]
    pub fn new(clock: SimClock) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                clock,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The clock durations are read from.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Adds `delta` to the named monotonic counter (created on first use).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut state = self.inner.state.lock();
        match state.counters.get_mut(name) {
            Some(value) => *value = value.saturating_add(delta),
            None => {
                state.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge to `value` (created on first use).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner
            .state
            .lock()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Registers a histogram with explicit bucket upper bounds (strictly
    /// increasing and finite, exclusive of the implicit `+Inf` overflow
    /// bucket). Re-registering an existing name keeps the original
    /// buckets.
    ///
    /// # Panics
    ///
    /// Panics when any bound is non-finite or the bounds are not strictly
    /// increasing — misordered bounds would silently misbucket every
    /// observation, so they are rejected loudly at registration time.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        if let Some(bad) = bounds.iter().find(|b| !b.is_finite()) {
            panic!("histogram {name:?}: non-finite bucket bound {bad} (the +Inf overflow bucket is implicit; every explicit bound must be finite)");
        }
        if let Some(pair) = bounds.windows(2).find(|w| w[0] >= w[1]) {
            panic!(
                "histogram {name:?}: bucket bounds must be strictly increasing, got {} followed by {}",
                pair[0], pair[1]
            );
        }
        let mut state = self.inner.state.lock();
        if !state.histograms.contains_key(name) {
            state
                .histograms
                .insert(name.to_string(), Histogram::new(bounds));
        }
    }

    /// Records `value` into the named histogram, auto-registering it with
    /// the default latency buckets when absent.
    ///
    /// The steady-state path allocates nothing: `name` is only turned
    /// into an owned key on the first observation. (`BTreeMap::entry`
    /// would allocate the `String` on *every* call just to look it up.)
    pub fn observe(&self, name: &str, value: f64) {
        let mut state = self.inner.state.lock();
        match state.histograms.get_mut(name) {
            Some(hist) => hist.observe(value),
            None => {
                let mut hist = Histogram::new(metrics::DEFAULT_LATENCY_BOUNDS_MS);
                hist.observe(value);
                state.histograms.insert(name.to_string(), hist);
            }
        }
    }

    /// Reads a counter (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .state
            .lock()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Reads a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.state.lock().gauges.get(name).copied()
    }

    /// Snapshot of a histogram for percentile queries.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.state.lock().histograms.get(name).cloned()
    }

    /// Durations (ms) of every *finished* span with the given name, in
    /// recording order. Used to derive timing structs from the span tree.
    #[must_use]
    pub fn span_durations_ms(&self, name: &str) -> Vec<f64> {
        let state = self.inner.state.lock();
        state
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(SpanRecord::duration_ms)
            .collect()
    }

    /// Total recorded span count (finished or open).
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.inner.state.lock().spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let t = Telemetry::new(SimClock::new());
        t.counter_add("revelio_test_ops_total", 2);
        t.counter_add("revelio_test_ops_total", 3);
        t.gauge_set("revelio_test_depth", 4.5);
        assert_eq!(t.counter("revelio_test_ops_total"), 5);
        assert_eq!(t.gauge("revelio_test_depth"), Some(4.5));
        assert_eq!(t.counter("never_touched"), 0);
        assert_eq!(t.gauge("never_touched"), None);
    }

    #[test]
    fn counter_saturates() {
        let t = Telemetry::new(SimClock::new());
        t.counter_add("c", u64::MAX - 1);
        t.counter_add("c", 5);
        assert_eq!(t.counter("c"), u64::MAX);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new(SimClock::new());
        let u = t.clone();
        t.counter_add("shared", 1);
        assert_eq!(u.counter("shared"), 1);
    }

    #[test]
    fn valid_histogram_bounds_accepted() {
        let t = Telemetry::new(SimClock::new());
        t.register_histogram("h", &[0.5, 1.0, 10.0]);
        t.observe("h", 0.7);
        assert_eq!(t.histogram("h").unwrap().count(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn misordered_histogram_bounds_rejected() {
        let t = Telemetry::new(SimClock::new());
        t.register_histogram("h", &[1.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_histogram_bounds_rejected() {
        let t = Telemetry::new(SimClock::new());
        t.register_histogram("h", &[1.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_histogram_bounds_rejected() {
        let t = Telemetry::new(SimClock::new());
        t.register_histogram("h", &[f64::NAN]);
    }
}
