//! In-memory spans recorded by the harness around each public call.
//!
//! The library has no tracing of its own yet, so the harness records one
//! span per call into a layer (name, start, end, the span that caused it,
//! and the id of the pipeline event it belongs to). A layer's *self time*
//! is its span's duration minus the part its child spans cover. Spans
//! named `probe.*` are measurements the harness adds on the side; they are
//! never children of a pipeline span, so they cost the pipeline nothing in
//! the attribution.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `overlay.store.insert`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The pipeline operation (index into the op stream) this span serves.
    pub event: u64,
}

impl Span {
    /// `end − start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; nothing is written until the run is over.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos())
            .expect("a run is far shorter than 584 years")
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, event: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            event,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a harness bug).
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, event: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, event);
        let out = f();
        self.exit();
        out
    }

    /// Everything recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the durations of its direct
/// children (children never overlap: the harness is single-threaded).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ durations.
    pub total_ns: u64,
    /// Σ self times.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean span duration in microseconds (0 when none was recorded).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

/// Groups spans by name.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations (ms) of every span with the given name, ascending.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    crate::stats::sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect(),
    )
}

/// The span list as a JSON document (one object per span).
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"event\":{}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.event
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            event: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("store", 10, 40, Some(0)),
            span("sync", 40, 90, Some(0)),
            span("graft", 50, 70, Some(2)),
            span("probe.x", 100, 130, None),
        ];
        // op: 100 − 30 − 50; sync: 50 − 20; the grandchild is charged to
        // sync only, never twice.
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20, 30]);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["sync"].total_ns, 50);
        assert_eq!(by_name["sync"].self_ns, 30);
        let pipeline: u64 = spans[..4]
            .iter()
            .zip(self_times(&spans))
            .map(|(_, s)| s)
            .sum();
        assert_eq!(pipeline, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_spans_under_the_innermost_open_one() {
        let mut tracer = Tracer::default();
        tracer.enter("op", 7);
        let got = tracer.span("leaf", 7, || 42);
        tracer.exit();
        tracer.span("probe.side", 7, || ());
        assert_eq!(got, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None, "closed roots adopt nothing");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].event, 7);
    }

    #[test]
    fn json_dump_parses_back() {
        let spans = vec![span("op", 0, 5, None), span("leaf", 1, 2, Some(0))];
        let doc = crate::json::parse(&to_json("w", 3, &spans)).expect("valid JSON");
        let list = doc
            .get("spans")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(
            list[1].get("parent").and_then(crate::json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(list[0].get("parent"), Some(&crate::json::Value::Null));
    }
}
