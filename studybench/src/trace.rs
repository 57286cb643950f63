//! In-memory spans of the traced study and the per-layer ledger built
//! from them.
//!
//! Each timed call is a [`Span`]: a name, a start and an end (nanoseconds
//! from the study's origin), the span that caused it, and the thread it
//! ran on. Spans stay in memory until the benchmark ends. The ledger folds
//! spans of one kind into one [`Row`] (count, sum, max, self time), so its
//! length does not grow with the vantage count, and reports the share of
//! the traced study that no layer covers.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// The span's index in its trace.
    pub id: u32,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<u32>,
    /// What was timed, named `<crate>.<call>` for layers.
    pub name: String,
    /// Start, nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace's origin.
    pub end_ns: u64,
    /// Which thread ran it (0 = the study's driving thread).
    pub thread: u32,
}

impl Span {
    /// Wall-clock duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans that frame the study rather than time a layer: the root, world
/// build as a whole, and each stage's fan-out. Their self time is the time
/// no layer covers.
pub fn is_frame(name: &str) -> bool {
    name == "study" || name == "setup" || name.starts_with("stage.")
}

/// A trace under construction: a shared origin plus the spans so far.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose origin is now.
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        ns_since(self.origin)
    }

    /// The origin, for timing calls on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span on the driving thread; close it with [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, now, now, 0)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Adds an already-measured span, returning its id.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        thread: u32,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span { id, parent, name: name.to_string(), start_ns, end_ns, thread });
        id
    }

    /// Start and end of span `id`, nanoseconds.
    pub fn bounds(&self, id: u32) -> (u64, u64) {
        let s = &self.spans[id as usize];
        (s.start_ns, s.end_ns)
    }

    /// The finished spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Nanoseconds elapsed since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A small per-thread index, stable for the thread's life, for
/// [`Span::thread`]. The first thread to ask gets 0.
pub fn thread_index() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its children cover. Children on other
/// threads may overlap each other; the covered part is their union.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (lo, hi) in iv {
                cur = match cur {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = cur {
                covered += b - a;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// All spans of one kind, folded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// The span name shared by the folded spans.
    pub name: String,
    /// How many spans.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub sum_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Folds spans into one row per name, in order of first appearance.
pub fn fold(spans: &[Span]) -> Vec<Row> {
    let selfs = self_times(spans);
    let mut order: Vec<String> = Vec::new();
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name.as_str()).or_insert_with(|| {
            order.push(s.name.clone());
            Row { name: s.name.clone(), count: 0, sum_ns: 0, max_ns: 0, self_ns: 0 }
        });
        row.count += 1;
        row.sum_ns += s.dur_ns();
        row.max_ns = row.max_ns.max(s.dur_ns());
        row.self_ns += self_ns;
    }
    order.iter().map(|n| rows[n.as_str()].clone()).collect()
}

/// Share of the root span's wall time that no layer's self time covers:
/// the summed self time of the frame spans ([`is_frame`]) over the root's
/// duration. 0 for an empty trace.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().find(|s| s.parent.is_none()) else { return 0.0 };
    if root.dur_ns() == 0 {
        return 0.0;
    }
    let uncovered: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| is_frame(&s.name))
        .map(|(_, t)| t)
        .sum();
    uncovered as f64 / root.dur_ns() as f64
}

/// The folded row for `name`, if any span had it.
pub fn row<'a>(rows: &'a [Row], name: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.name == name)
}
