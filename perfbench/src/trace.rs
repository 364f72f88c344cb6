//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into a
//! layer: name (`layer.call`), start, end, parent span and the id of the
//! query or write it belongs to. Phase timings the engine reports itself
//! (`QueryStats` filter and refine nanos) become child spans laid end to
//! end from their parent's start. A layer's self time is its spans'
//! durations minus the time their children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Id of the query or write the span belongs to.
    pub op: u64,
}

impl Span {
    /// The part before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. Nothing leaves memory until [`Tracer::to_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span; its children may be recorded inside `f` with
    /// the index passed in, which is final once `f` returns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> T {
        let start = self.now();
        let id = self.record(name, start, start, parent, op);
        let out = f(self, id);
        self.spans[id].end = self.now();
        out
    }

    /// The span at `id`.
    pub fn get(&self, id: usize) -> Span {
        self.spans[id]
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in ns.
    pub fn self_time(&self) -> BTreeMap<&'static str, u64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            *out.entry(s.layer()).or_insert(0) += s.duration().saturating_sub(covered);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.start, s.end, s.op
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record("db.execute", 0, 100, None, 0);
        t.record("core.filter", 0, 30, Some(root), 0);
        t.record("core.refine", 30, 90, Some(root), 0);
        let st = t.self_time();
        assert_eq!(st["db"], 10);
        assert_eq!(st["core"], 90);
    }
}
