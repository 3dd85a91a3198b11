//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, start and end on a
//! monotonic clock, the span that caused it, and the operation it
//! belongs to. Spans nest through a per-thread stack, so a span opened
//! while another is open on the same thread becomes its child.
//!
//! Calls too frequent to store one span each (one transport submit per
//! block) are folded into *leaves* of the innermost open span: a name,
//! a call count and the summed time. A span's self time is its duration
//! minus its child spans and its leaves, so self time plus children
//! time equals the duration exactly ([`self_times`]).
//!
//! Nothing here is global: spans go to the [`Trace`] the guard was
//! opened on, and the per-thread stack only links parents to children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Aggregated time of many short calls inside one span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// Layer call name, e.g. `transport.submit`.
    pub name: &'static str,
    /// Number of calls.
    pub calls: u64,
    /// Summed duration of the calls.
    pub ns: u64,
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within its [`Trace`].
    pub id: u64,
    /// The span that was open on the same thread when this one began.
    pub parent: Option<u64>,
    /// Operation (permutation, sort, or job) the span belongs to.
    pub op: u64,
    /// Layer boundary name, e.g. `exec.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Folded short calls made while this span was innermost.
    pub leaves: Vec<Leaf>,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Time covered by leaves.
    pub fn leaf_ns(&self) -> u64 {
        self.leaves.iter().map(|l| l.ns).sum()
    }
}

/// A frame of the per-thread stack of open spans.
struct Open {
    id: u64,
    leaves: Vec<Leaf>,
}

thread_local! {
    static OPEN: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Adds `ns` to the leaf `name` of the innermost span open on this
/// thread. A call outside any span is not recorded.
pub fn leaf(name: &'static str, ns: u64) {
    OPEN.with(|open| {
        if let Some(top) = open.borrow_mut().last_mut() {
            match top.leaves.iter_mut().find(|l| l.name == name) {
                Some(l) => {
                    l.calls += 1;
                    l.ns += ns;
                }
                None => top.leaves.push(Leaf { name, calls: 1, ns }),
            }
        }
    });
}

/// A span collector. Spans from every thread land in one list.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard<'t> {
    trace: &'t Trace,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op` on this thread.
    pub fn span(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map(|o| o.id);
            open.push(Open {
                id,
                leaves: Vec::new(),
            });
            parent
        });
        SpanGuard {
            trace: self,
            id,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Every finished span, ordered by id (so parents precede their
    /// children).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes the spans as JSON lines, one span per line, with the self
    /// time derived from each span's children.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let leaves: Vec<String> = s
                .leaves
                .iter()
                .map(|l| {
                    format!(
                        "{{\"name\":\"{}\",\"calls\":{},\"ns\":{}}}",
                        l.name, l.calls, l.ns
                    )
                })
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"leaves\":[{}]}}",
                s.id,
                parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[&s.id],
                leaves.join(",")
            )?;
        }
        Ok(())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.trace.now_ns();
        let frame = OPEN.with(|open| open.borrow_mut().pop());
        let leaves = frame.map_or_else(Vec::new, |f| {
            debug_assert_eq!(f.id, self.id, "spans must close in reverse order");
            f.leaves
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            leaves,
        };
        if let Ok(mut spans) = self.trace.spans.lock() {
            spans.push(span);
        }
    }
}

/// Time covered by each span's direct children: child span durations
/// plus its own leaves.
pub fn children_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.leaf_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = children.get_mut(&p) {
                *c += s.duration_ns();
            }
        }
    }
    children
}

/// Self time of every span: its duration minus its children's time.
/// Children never outlast their parent on the same thread, so this
/// never underflows for a well-nested trace.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let children = children_times(spans);
    spans
        .iter()
        .map(|s| (s.id, s.duration_ns().saturating_sub(children[&s.id])))
        .collect()
}

/// Per-operation totals of one span name: summed duration, summed self
/// time, and the summed leaves of those spans.
#[derive(Clone, Debug, Default)]
pub struct NameTotals {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed durations.
    pub ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Summed leaves by name: (calls, ns).
    pub leaves: BTreeMap<&'static str, (u64, u64)>,
}

/// Groups spans by operation, then by name.
pub fn totals_by_op(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, NameTotals>> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<u64, BTreeMap<&'static str, NameTotals>> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.op).or_default().entry(s.name).or_default();
        t.count += 1;
        t.ns += s.duration_ns();
        t.self_ns += self_ns[&s.id];
        for l in &s.leaves {
            let e = t.leaves.entry(l.name).or_default();
            e.0 += l.calls;
            e.1 += l.ns;
        }
    }
    out
}
