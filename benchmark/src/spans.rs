//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start and end on one shared clock, the span
//! that caused it and the operation it belongs to. Spans live in
//! memory while the run measures and are written out as JSON lines
//! when it ends, so recording costs two clock reads and a push.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover; children may overlap (parallel
//! callers), so the covered part is the union of their intervals.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `"capture.dgemm"` or `"client.status"`.
    pub name: &'static str,
    /// Nanoseconds since the run's clock epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's clock epoch; `≥ start_ns`.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (request or pass) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span log over one clock epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans { epoch, spans: Vec::new() }
    }

    /// An empty log on this log's clock, for another thread to fill and
    /// hand back to [`Spans::absorb`].
    pub fn fork(&self) -> Spans {
        Spans::new(self.epoch)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.since_epoch(Instant::now());
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.spans.len() - 1
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.since_epoch(Instant::now());
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Record an interval the caller already timed.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.since_epoch(start), self.since_epoch(end));
        self.spans.push(Span { name, start_ns, end_ns, parent: None, op });
    }

    /// Append another log over the same epoch (one per client thread),
    /// re-basing its parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(
            other
                .spans
                .into_iter()
                .map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// The recorded spans, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Bytes the log holds (reported so memory metrics can exclude it).
    pub fn heap_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// Total duration of the spans called `name` in each operation, in
    /// recording order (an operation's spans are recorded together).
    pub fn per_op_ns(&self, name: &str) -> Vec<u64> {
        let mut totals: Vec<(u64, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match totals.last_mut() {
                Some((op, ns)) if *op == s.op => *ns += s.ns(),
                _ => totals.push((s.op, s.ns())),
            }
        }
        totals.into_iter().map(|(_, ns)| ns).collect()
    }

    /// Nanoseconds of each span covered by the union of its children.
    fn covered_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans.iter().zip(children).map(|(s, kids)| union_within(s, kids)).collect()
    }

    /// Self time of every span: its duration minus the covered part.
    pub fn self_ns(&self) -> Vec<u64> {
        self.spans.iter().zip(self.covered_ns()).map(|(s, c)| s.ns() - c).collect()
    }

    /// Share of the time in spans called `root` that their children
    /// cover: one minus the roots' total self time over their total
    /// duration.
    pub fn coverage(&self, root: &str) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if s.name == root {
                (own, total) = (own + self_ns, total + s.ns());
            }
        }
        1.0 - own as f64 / total.max(1) as f64
    }

    /// Write the log as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `kids` clipped to `span`'s interval.
fn union_within(span: &Span, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, span.start_ns);
    for (start, end) in kids {
        let (start, end) = (start.max(reach), end.min(span.end_ns));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    fn log(spans: Vec<Span>) -> Spans {
        Spans { epoch: Instant::now(), spans }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let l = log(vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: only 40..50 is new coverage.
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // Grandchild: covers part of `c`, not of `pass` directly.
            span("c.inner", 62, 65, Some(3)),
        ]);
        assert_eq!(l.covered_ns(), vec![50, 0, 0, 3, 0]);
        assert_eq!(l.self_ns(), vec![50, 30, 20, 7, 3]);
        assert_eq!(l.coverage("pass"), 0.5);
        assert!((l.coverage("c") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let l = log(vec![span("op", 10, 20, None), span("late", 15, 40, Some(0))]);
        assert_eq!(l.self_ns(), vec![5, 25]);
    }

    #[test]
    fn absorb_rebases_parents_and_totals_group_by_op() {
        let mut a = log(vec![span("pass", 0, 10, None)]);
        let b = log(vec![span("pass", 20, 50, None), span("k", 25, 30, Some(0))]);
        a.absorb(b);
        assert_eq!(a.all()[2].parent, Some(1));
        assert_eq!(a.self_ns(), vec![10, 25, 5]);
        // Two spans of one name in op 1 add up; op 0 and op 2 stand alone.
        let mut ops = log(vec![span("v", 0, 4, None), span("v", 10, 13, None)]);
        ops.spans[1].op = 0;
        ops.spans.push(Span { op: 1, ..span("v", 20, 22, None) });
        ops.spans.push(Span { op: 1, ..span("v", 30, 35, None) });
        ops.spans.push(Span { op: 2, ..span("v", 40, 41, None) });
        assert_eq!(ops.per_op_ns("v"), vec![7, 7, 1]);
        assert_eq!(a.per_op_ns("pass"), vec![40], "both `pass` spans carry op 0");
    }

    #[test]
    fn open_close_and_time_nest() {
        let mut l = Spans::new(Instant::now());
        let root = l.open("root", None, 7);
        let v = l.time("child", Some(root), 7, || 42);
        l.close(root);
        assert_eq!(v, 42);
        let s = l.all();
        assert_eq!(s.len(), 2);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].parent, Some(0));
    }
}
