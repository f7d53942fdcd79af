//! Outside-in wall-clock tracing: a span around each call the benchmark
//! makes into a layer's public functions.
//!
//! Each driving thread owns one [`Tracer`]. Spans stay in memory until
//! the run ends; [`write_jsonl`] then writes them out and [`attribute`]
//! turns them into per-layer self-times. A disabled tracer runs the
//! wrapped call and records nothing, so the untraced and traced phases
//! execute the same client code.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// The name of every operation's root span.
pub const ROOT: &str = "op";

/// One recorded span. The layer is the name's prefix before the first
/// `.` (`tls.open` belongs to `tls`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The operation this span belongs to (shared by its whole tree).
    pub op: u64,
    /// Index of this span in its tracer.
    pub id: u32,
    /// The enclosing span, `None` for an operation's root.
    pub parent: Option<u32>,
    /// `layer.call`, or [`ROOT`].
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Option<Instant>,
    /// Least gap between the starts of two traced operations, ns.
    gap_ns: u64,
    /// Earliest start of the next traced operation, ns.
    next_ns: Cell<u64>,
    /// Whether the open operation is traced.
    active: Cell<bool>,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            gap_ns: 0,
            next_ns: Cell::new(0),
            active: Cell::new(false),
            inner: RefCell::default(),
        }
    }

    /// A recording tracer; span times are relative to `epoch`. An
    /// operation is traced only if it starts at least `gap` after the
    /// previous traced one, which bounds what a long phase of short
    /// operations keeps in memory while spreading the traced ones over
    /// the whole phase.
    #[must_use]
    pub fn on(epoch: Instant, gap: Duration) -> Self {
        Tracer {
            epoch: Some(epoch),
            gap_ns: u64::try_from(gap.as_nanos()).unwrap_or(u64::MAX),
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        let epoch = self.epoch.expect("only a recording tracer timestamps");
        u64::try_from(at.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens operation `op` at `start` and says whether its latency
    /// belongs to the phase: every operation's when tracing is off, only
    /// the traced ones' when it is on.
    pub fn begin_op(&self, op: u64, start: Instant) -> bool {
        if !self.enabled() {
            return true;
        }
        let start_ns = self.ns(start);
        if start_ns < self.next_ns.get() {
            return false;
        }
        self.next_ns.set(start_ns.saturating_add(self.gap_ns));
        self.active.set(true);
        let mut inner = self.inner.borrow_mut();
        let id = u32::try_from(inner.spans.len()).expect("fewer than 2^32 spans");
        inner.op = op;
        inner.spans.push(Span {
            op,
            id,
            parent: None,
            name: ROOT,
            start_ns,
            end_ns: start_ns,
        });
        inner.stack.push(id);
        true
    }

    /// Closes the open operation at `end`.
    pub fn end_op(&self, end: Instant) {
        if !self.active.replace(false) {
            return;
        }
        let end_ns = self.ns(end);
        let mut inner = self.inner.borrow_mut();
        let id = inner.stack.pop().expect("end_op matches begin_op");
        inner.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name` (a `layer.call` name).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.active.get() {
            return f();
        }
        let id = {
            let start_ns = self.ns(Instant::now());
            let mut inner = self.inner.borrow_mut();
            let id = u32::try_from(inner.spans.len()).expect("fewer than 2^32 spans");
            let parent = inner.stack.last().copied();
            let op = inner.op;
            inner.spans.push(Span {
                op,
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
            inner.stack.push(id);
            id
        };
        let out = f();
        let end_ns = self.ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        inner.stack.pop();
        inner.spans[id as usize].end_ns = end_ns;
        out
    }

    /// The recorded spans, leaving the tracer empty.
    #[must_use]
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.borrow_mut().spans)
    }
}

/// Where the traced operations' wall time went.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Operations traced.
    pub ops: u64,
    /// Self time per layer, ns, summed over all operations.
    pub self_ns: BTreeMap<String, u64>,
    /// Root self time (no layer span covers it), ns, summed.
    pub remainder_ns: u64,
    /// Total root span time, ns.
    pub total_ns: u64,
    /// Spans recorded, roots included.
    pub spans: u64,
}

/// The layer of a span name.
#[must_use]
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus that of its direct
/// children. Children nest strictly inside their parent, so the
/// subtraction never underflows except by clock noise, which saturates.
#[must_use]
pub fn attribute(threads: &[Vec<Span>]) -> Attribution {
    let mut a = Attribution::default();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[s.id as usize]);
            a.spans += 1;
            if s.parent.is_none() {
                a.ops += 1;
                a.total_ns += dur;
                a.remainder_ns += own;
            } else {
                *a.self_ns.entry(layer(s.name).to_owned()).or_default() += own;
            }
        }
    }
    a
}

/// Writes every span as one JSON object per line: thread, operation,
/// span id, parent, name, start and end (ns since the thread's epoch).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                op: 0,
                id: 0,
                parent: None,
                name: ROOT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                op: 0,
                id: 1,
                parent: Some(0),
                name: "reconcile.tick",
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                op: 0,
                id: 2,
                parent: Some(1),
                name: "node.upgrade",
                start_ns: 20,
                end_ns: 50,
            },
            Span {
                op: 0,
                id: 3,
                parent: Some(0),
                name: "tls.open",
                start_ns: 70,
                end_ns: 90,
            },
        ];
        let a = attribute(&[spans]);
        assert_eq!(a.ops, 1);
        assert_eq!(a.remainder_ns, 20);
        assert_eq!(a.self_ns["reconcile"], 30);
        assert_eq!(a.self_ns["node"], 30);
        assert_eq!(a.self_ns["tls"], 20);
        assert_eq!(a.spans, 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(t.begin_op(0, Instant::now()));
        assert_eq!(t.span("tls.open", || 7), 7);
        t.end_op(Instant::now());
        assert!(t.take().is_empty());
    }

    #[test]
    fn operations_closer_than_the_gap_are_not_traced() {
        let epoch = Instant::now();
        let t = Tracer::on(epoch, Duration::from_secs(3600));
        assert!(t.begin_op(0, epoch));
        t.span("tls.open", || ());
        t.end_op(Instant::now());
        assert!(!t.begin_op(1, Instant::now()));
        t.span("tls.open", || ());
        t.end_op(Instant::now());
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == 0));
    }
}
