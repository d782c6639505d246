//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into a library
//! layer, keeps the spans in memory and summarizes them when the run ends.
//! A span's self time is its duration minus the part of it that its child
//! spans cover, so the self times of one tree add up to its root's
//! duration. When tracing is off, `enter`/`exit` return at once and record
//! nothing, which is what the untraced end-to-end run uses.

use std::collections::BTreeMap;
use std::time::Instant;

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a span that is never exited has no duration"]
pub struct SpanId(Option<usize>);

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `hdc.loocv.run`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one root (one round or set-up).
    pub request: u64,
}

/// Records spans and per-layer counts while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    requests: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            requests: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Turns recording on or off; only call between root spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.requests += 1;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request: self.requests,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        SpanId(Some(index))
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `value` to the per-layer count `name` while enabled.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Every span recorded so far, parents before their children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Accumulated per-layer counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(span.start_ns),
                        spans[c].end_ns.min(span.end_ns),
                    )
                })
                .filter(|(s, e)| e > s)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Self times and call durations of the trees under roots of one name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    /// Number of root spans.
    pub roots: usize,
    /// Summed root durations.
    pub wall_ns: u64,
    /// Summed root self time: what no layer span covers.
    pub unattributed_ns: u64,
    /// Summed self time per layer span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Every call's full duration per layer span name.
    pub durations_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Number of layer spans.
    pub calls: usize,
}

/// Summarizes the trees whose root span is named `root`.
#[must_use]
pub fn summarize(spans: &[Span], root: &str) -> Summary {
    let self_ns = self_times(spans);
    // Parents precede children, so one forward pass resolves every root.
    let mut root_of = vec![0usize; spans.len()];
    let mut out = Summary::default();
    for (i, span) in spans.iter().enumerate() {
        root_of[i] = span.parent.map_or(i, |p| root_of[p]);
        if spans[root_of[i]].name != root {
            continue;
        }
        if span.parent.is_none() {
            out.roots += 1;
            out.wall_ns += span.end_ns - span.start_ns;
            out.unattributed_ns += self_ns[i];
        } else {
            out.calls += 1;
            *out.self_ns.entry(span.name).or_insert(0) += self_ns[i];
            out.durations_ns
                .entry(span.name)
                .or_default()
                .push(span.end_ns - span.start_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // round [0,100] ⊃ a [10,50] ⊃ b [20,30]; round ⊃ c [60,90].
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        let summary = summarize(&spans, "round");
        assert_eq!(summary.roots, 1);
        assert_eq!(summary.wall_ns, 100);
        assert_eq!(summary.unattributed_ns, 30);
        assert_eq!(summary.calls, 3);
        let layers: u64 = summary.self_ns.values().sum();
        assert_eq!(layers + summary.unattributed_ns, summary.wall_ns);
        assert_eq!(summary.durations_ns["a"], vec![40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a", 30, 70, Some(0)),
            // Clipped to the parent's interval.
            span("b", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn summaries_split_by_root_name() {
        let spans = vec![
            span("setup", 0, 10, None),
            span("x", 1, 4, Some(0)),
            span("round", 20, 40, None),
            span("x", 21, 31, Some(2)),
        ];
        assert_eq!(summarize(&spans, "setup").self_ns["x"], 3);
        assert_eq!(summarize(&spans, "round").self_ns["x"], 10);
        assert_eq!(summarize(&spans, "round").unattributed_ns, 10);
    }

    #[test]
    fn live_tracer_links_parents_and_requests() {
        let mut tracer = Tracer::new();
        let ignored = tracer.enter("round");
        tracer.exit(ignored);
        tracer.count("ignored", 1.0);
        assert!(tracer.spans().is_empty() && tracer.counts().is_empty());

        tracer.set_enabled(true);
        for _ in 0..2 {
            let root = tracer.enter("round");
            let value = tracer.leaf("layer", || 7);
            assert_eq!(value, 7);
            tracer.count("items", 2.0);
            tracer.exit(root);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[1].request, spans[3].request), (1, 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tracer.counts()["items"], 4.0);
        let summary = summarize(spans, "round");
        let layers: u64 = summary.self_ns.values().sum();
        assert_eq!(layers + summary.unattributed_ns, summary.wall_ns);
    }
}
