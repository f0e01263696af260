//! In-memory span recorder for the traced run.
//!
//! A span records its layer name, start and end, the span that caused it,
//! a trace identifier shared by every span of one trial or one stream
//! epoch, and a work count (users, reports, bytes, or 1 per call). Spans
//! nest on one thread; a layer's self time is its duration minus the time
//! covered by its same-thread children. Parallel sections open no span on
//! the waiting thread, so self times summed over all layers never count a
//! core twice. Finished spans are kept in memory and written out once, at
//! exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, `<crate>.<stage>`.
    pub name: &'static str,
    /// Unique span id (from 1).
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Identifier shared by the spans of one trial or epoch.
    pub trace: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Duration minus same-thread child spans.
    pub self_ns: u64,
    /// Work count attributed to the span.
    pub count: u64,
}

struct Open {
    id: u64,
    trace: u64,
    child_ns: u64,
}

static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` inside a span named `name`; `f` returns its result and the
/// span's work count. A span opened with no enclosing span on this thread
/// is a root and takes `trace` as its trace identifier; nested spans
/// inherit the enclosing one's.
pub fn span_with<T>(trace: u64, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, trace) = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (parent, trace) = stack.last().map_or((0, trace), |top| (top.id, top.trace));
        stack.push(Open {
            id,
            trace,
            child_ns: 0,
        });
        (parent, trace)
    });
    let start_ns = now_ns();
    let (value, count) = f();
    let end_ns = now_ns();
    let duration = end_ns.saturating_sub(start_ns);
    let child_ns = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let open = stack.pop().expect("span stack is balanced");
        if let Some(top) = stack.last_mut() {
            top.child_ns += duration;
        }
        open.child_ns
    });
    FINISHED.lock().expect("span sink lock").push(Span {
        name,
        id,
        parent,
        trace,
        start_ns,
        end_ns,
        self_ns: duration.saturating_sub(child_ns),
        count,
    });
    value
}

/// [`span_with`] for a work count known up front.
pub fn span<T>(trace: u64, name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
    span_with(trace, name, || (f(), count))
}

/// A nested span (the trace identifier comes from the enclosing span).
pub fn child<T>(name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
    span(0, name, count, f)
}

/// Removes and returns every finished span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *FINISHED.lock().expect("span sink lock"))
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed work count.
    pub count: u64,
}

/// Sums self time and work per layer name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.self_s += s.self_ns as f64 * 1e-9;
        t.count += s.count;
    }
    out
}

/// Writes spans as tab-separated lines:
/// `id parent trace name start_ns end_ns self_ns count`.
///
/// # Errors
/// I/O failures.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\ttrace\tname\tstart_ns\tend_ns\tself_ns\tcount"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.self_ns, s.count
        )?;
    }
    out.flush()
}
