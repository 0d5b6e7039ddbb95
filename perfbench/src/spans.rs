//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into the stack's
//! public entry points (nothing inside the program is instrumented). A
//! span's layer is its name up to the first `.`, so `cluster.build` and
//! `cluster.run_osu` both belong to `cluster`. Spans stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `cluster.run_miniapp`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload cell the call belongs to.
    pub cell: u32,
    /// A reference call made only to split the traced run into layers
    /// (record-only, walk-only); its time is kept out of the traced wall.
    pub reference: bool,
}

impl Span {
    /// The layer: the span name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span opened by [`Tracer::open`], to be passed to [`Tracer::close`].
#[must_use]
pub struct Open {
    id: Option<usize>,
    start_ns: u64,
    reference: bool,
}

/// Times calls; records them as spans only when tracing is on.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
    reference_ns: u64,
}

impl Tracer {
    /// A recorder; with `enabled == false` it only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            reference_ns: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with workload cell `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Open span `name` as a child of the innermost open span. A
    /// `reference` span and its children are marked as reference calls,
    /// and the time of a top-level one is summed into
    /// [`Tracer::reference_s`]. Spans must close in reverse order.
    pub fn open(&mut self, name: &'static str, reference: bool) -> Open {
        let start_ns = self.now_ns();
        let id = self.enabled.then(|| {
            let parent = self.open.last().copied();
            let inherited = parent.is_some_and(|p| self.spans[p].reference);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                cell: self.cell,
                reference: reference || inherited,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            id,
            start_ns,
            reference,
        }
    }

    /// Close `span`; returns its host time in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let end = self.now_ns();
        if let Some(id) = span.id {
            assert_eq!(self.open.pop(), Some(id), "spans close in reverse order");
            self.spans[id].end_ns = end;
        }
        if span.reference {
            self.reference_ns += end - span.start_ns;
        }
        (end - span.start_ns) as f64 * 1e-9
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Host seconds spent in top-level reference calls.
    pub fn reference_s(&self) -> f64 {
        self.reference_ns as f64 * 1e-9
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer on the main path, in seconds: each span's
/// duration minus the part of its interval covered by its children,
/// summed by layer. Reference calls are left out.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans
        .iter()
        .zip(&mut children)
        .filter(|(s, _)| !s.reference)
    {
        let covered = covered_ns(s.start_ns, s.end_ns, kids);
        *out.entry(s.layer()).or_insert(0.0) += (s.duration_ns() - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"cell":{},"reference":{}}}{sep}"#,
            s.name, s.start_ns, s.end_ns, s.cell, s.reference
        )
        .expect("writing to a String cannot fail");
    }
    out.push(']');
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
            cell: 0,
            reference: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // bench.cell [0,100) holds cluster.build [10,30) and
        // cluster.run_osu [40,90); run_osu holds mpisim.walk [50,70).
        let spans = [
            span("bench.cell", 0, 100, None),
            span("cluster.build", 10, 30, Some(0)),
            span("cluster.run_osu", 40, 90, Some(0)),
            span("mpisim.walk", 50, 70, Some(2)),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["bench"] - 30e-9).abs() < 1e-15);
        assert!((t["cluster"] - (20e-9 + 30e-9)).abs() < 1e-15);
        assert!((t["mpisim"] - 20e-9).abs() < 1e-15);
        let total: f64 = t.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("a.root", 100, 200, None),
            span("b.x", 90, 150, Some(0)),
            span("b.y", 120, 170, Some(0)),
            span("b.z", 190, 260, Some(0)),
        ];
        // Covered within [100,200): [100,170) + [190,200) = 80.
        let t = self_time_by_layer(&spans);
        assert!((t["a"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn reference_calls_have_no_self_time() {
        let mut reference = span("bench.reference", 100, 200, None);
        reference.reference = true;
        let mut record = span("mpisim.record", 120, 180, Some(1));
        record.reference = true;
        let spans = [span("bench.cell", 0, 100, None), reference, record];
        let t = self_time_by_layer(&spans);
        assert_eq!(t.len(), 1);
        assert!((t["bench"] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_marks_reference_subtrees() {
        let mut t = Tracer::new(true);
        t.set_cell(3);
        let cell = t.open("bench.cell", false);
        let build = t.open("cluster.build", false);
        t.close(build);
        t.close(cell);
        let reference = t.open("bench.reference", true);
        let record = t.open("mpisim.record", false);
        t.close(record);
        let ref_s = t.close(reference);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(!s[0].reference && !s[1].reference);
        assert!(
            s[2].reference && s[3].reference,
            "children inherit the mark"
        );
        assert!(s.iter().all(|x| x.cell == 3 && x.start_ns <= x.end_ns));
        assert_eq!(t.reference_s(), ref_s);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let build = t.open("cluster.build", false);
        assert!(t.close(build) >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span() {
        let spans = [
            span("bench.cell", 0, 5, None),
            span("cluster.build", 1, 2, Some(0)),
        ];
        let j = to_json(&spans);
        assert!(j.contains(r#""name":"cluster.build","start_ns":1,"end_ns":2,"parent":0"#));
        assert_eq!(j.matches(r#""id":"#).count(), 2);
    }
}
