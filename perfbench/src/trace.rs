//! In-memory span recorder for the traced run, plus the timing wrappers
//! that put spans around calls into the program's public layers.
//!
//! A span is `(name, start, end, id, parent, request)`. Spans nest through
//! a per-thread stack of open spans; a span opened on a `pas_par` worker
//! names its parent explicitly ([`enter_under`]), since the worker's stack
//! starts empty. Finished spans go to one process-wide buffer and are only
//! read after the traced work ends ([`take`], [`write_jsonl`]).
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover (children on parallel workers may overlap, so
//! their intervals are merged before subtracting). Summed over spans that
//! run on parallel workers, self times are CPU time and can exceed the
//! wall time they took; a layer's *wall* figures therefore merge the
//! intervals of all its spans first ([`Totals::wall_self_ns`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use pas_core::PromptOptimizer;
use pas_embed::Embedder;
use serde::Serialize;

/// Parent / request id meaning "none".
pub const NONE: u32 = u32::MAX;

/// One finished span; times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
/// Off outside the traced phases: a disabled guard records nothing, so the
/// timing wrappers cost one atomic load on untraced comparison runs.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Runs `f` with recording off, restoring the previous state after.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = ENABLED.swap(false, Ordering::SeqCst);
    let out = f();
    ENABLED.store(was, Ordering::SeqCst);
    out
}

/// An open span; records itself when dropped.
pub struct Guard {
    name: &'static str,
    start_ns: u64,
    id: u32,
    parent: u32,
    request: u32,
}

impl Guard {
    /// This span's id (`NONE` when recording is off), for children opened
    /// on other threads.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Renames the span once the call's outcome is known (e.g. an exact
    /// hit versus a near-tier probe).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn enter(name: &'static str, request: u32) -> Guard {
    let parent = OPEN.with(|s| s.borrow().last().copied().unwrap_or(NONE));
    enter_under(name, parent, request)
}

/// Opens a span under an explicit parent (one opened on another thread).
pub fn enter_under(name: &'static str, parent: u32, request: u32) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { name, start_ns: 0, id: NONE, parent, request };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|s| s.borrow_mut().push(id));
    Guard { name, start_ns: now_ns(), id, parent, request }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == NONE {
            return;
        }
        let end_ns = now_ns();
        OPEN.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in LIFO order per thread");
        });
        let span = Span {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            id: self.id,
            parent: self.parent,
            request: self.request,
        };
        // A poisoned buffer only means another span writer panicked; the
        // spans already in it are complete records.
        SPANS.lock().unwrap_or_else(|p| p.into_inner()).push(span);
    }
}

/// Drains every recorded span, ordered by id.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|p| p.into_inner()));
    spans.sort_unstable_by_key(|s| s.id);
    spans
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Wall time during which at least one of the spans was open.
    pub wall_ns: u64,
    /// Wall time during which at least one of the spans was open and none
    /// of their children was.
    pub wall_self_ns: u64,
}

impl Totals {
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }

    pub fn self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3
    }

    /// Mean duration per span in µs (0 without spans).
    pub fn us_per_call(&self) -> f64 {
        ratio(self.total_us(), self.count as f64)
    }

    /// Mean self time per span in µs (0 without spans).
    pub fn self_us_per_call(&self) -> f64 {
        ratio(self.self_us(), self.count as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Count, summed and wall times per span name.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    // Per name: its spans' intervals, and their children's clipped to them.
    let mut own: HashMap<&'static str, Vec<(u64, u64)>> = HashMap::new();
    let mut nested: HashMap<&'static str, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        own.entry(s.name).or_default().push((s.start_ns, s.end_ns));
        if let Some(p) = by_id.get(&s.parent) {
            children.entry(p.id).or_default().push((s.start_ns, s.end_ns));
            nested
                .entry(p.name)
                .or_default()
                .push((s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)));
        }
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    for (name, t) in out.iter_mut() {
        let union = |v: Option<&mut Vec<(u64, u64)>>| v.map_or(0, |v| covered_ns(v, 0, u64::MAX));
        t.wall_ns = union(own.get_mut(name));
        // The children's union lies inside the spans' union.
        t.wall_self_ns = t.wall_ns - union(nested.get_mut(name));
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// One span as a JSON line; absent parent/request are `null`.
#[derive(Serialize)]
struct SpanLine {
    name: String,
    start_ns: u64,
    end_ns: u64,
    id: u32,
    parent: Option<u32>,
    request: Option<u32>,
}

/// Writes `spans` as JSON lines (`name`, `start_ns`, `end_ns`, `id`,
/// `parent`, `request`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let opt = |v: u32| (v != NONE).then_some(v);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = SpanLine {
            name: s.name.to_string(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            id: s.id,
            parent: opt(s.parent),
            request: opt(s.request),
        };
        serde_json::to_writer(&mut out, &line)?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// An [`Embedder`] that records a span named `name` around every call.
pub struct TimedEmbedder<E> {
    name: &'static str,
    inner: E,
}

impl<E> TimedEmbedder<E> {
    pub fn new(name: &'static str, inner: E) -> Self {
        TimedEmbedder { name, inner }
    }
}

impl<E: Embedder> Embedder for TimedEmbedder<E> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let _span = enter(self.name, NONE);
        self.inner.embed(text)
    }
}

/// A [`PromptOptimizer`] that records an `mp` span around every
/// `optimize` call — the `M_p` boundary as the gateway sees it.
#[derive(Clone)]
pub struct TimedOptimizer<O>(pub O);

impl<O: PromptOptimizer> PromptOptimizer for TimedOptimizer<O> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn optimize(&self, prompt: &str) -> String {
        let _span = enter("mp", NONE);
        self.0.optimize(prompt)
    }

    fn requires_human_labels(&self) -> bool {
        self.0.requires_human_labels()
    }

    fn llm_agnostic(&self) -> bool {
        self.0.llm_agnostic()
    }

    fn task_agnostic(&self) -> bool {
        self.0.task_agnostic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, id: u32, parent: u32) -> Span {
        Span { name, start_ns, end_ns, id, parent, request: NONE }
    }

    #[test]
    fn wall_figures_count_parallel_spans_once() {
        // Two workers' `w` spans overlap inside `p`; each has an `m` child.
        let spans = [
            span("p", 0, 100, 0, NONE),
            span("w", 10, 60, 1, 0),
            span("w", 20, 90, 2, 0),
            span("m", 15, 30, 3, 1),
            span("m", 25, 50, 4, 2),
        ];
        let t = totals(&spans);
        let w = t["w"];
        assert_eq!((w.total_ns, w.self_ns), (50 + 70, (50 - 15) + (70 - 25)));
        // [10,90) open, [15,50) inside an `m`.
        assert_eq!((w.wall_ns, w.wall_self_ns), (80, 80 - 35));
        assert_eq!((t["p"].self_ns, t["p"].wall_self_ns), (20, 20));
        assert_eq!(t["m"].wall_self_ns, 35);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut c = vec![(10, 30), (20, 40), (60, 70), (95, 120)];
        // [10,40) + [60,70) + [95,100) inside [0,100).
        assert_eq!(covered_ns(&mut c, 0, 100), 30 + 10 + 5);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
    }
}
