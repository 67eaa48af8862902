//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (and from `ProgressObserver` phase events), kept in memory, and
//! written out as JSON when the run ends.  A span's *self time* is its
//! duration minus the part covered by its child spans.

use crate::measure::us_between;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<SpanId>,
    request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span and return its id (the parent of spans
    /// recorded later inside it).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Stretch a span recorded before its children were known.
    pub fn set_end(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end = end;
    }

    /// Self time per span name, in microseconds, summed over all spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += us_between(span.start, span.end);
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_us) {
            let own = (us_between(span.start, span.end) - children).max(0.0);
            *totals.entry(span.name).or_insert(0.0) += own;
        }
        totals
    }

    /// Total duration per span name, in microseconds.
    pub fn durations(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0.0) += us_between(span.start, span.end);
        }
        totals
    }

    /// Write every span as one JSON array (name, start/end in µs since
    /// the tracer was created, parent index, request id).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}, \"request\": {}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                us_between(self.origin, span.start),
                us_between(self.origin, span.end),
                span.request
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tracer = Tracer::new();
        let root = tracer.record("check", at(0), at(10), None, 1);
        tracer.record("search", at(1), at(4), Some(root), 1);
        tracer.record("repeated.aux", at(4), at(9), Some(root), 1);
        let own = tracer.self_times();
        assert!((own["check"] - 2_000.0).abs() < 1.0);
        assert!((own["search"] - 3_000.0).abs() < 1.0);
        assert!((tracer.durations()["check"] - 10_000.0).abs() < 1.0);
    }
}
