//! Spans recorded by the traced run around the benchmark's own calls into
//! each layer: name, start, end, parent span and a request id shared by one
//! request's spans. Every thread records into its own [`SpanLog`]; logs are
//! merged when the run ends and written out as the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `gateway.submit`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to (0 for calls outside any request).
    pub request: u64,
}

impl Span {
    /// Span length in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// A single thread's spans, in start order.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes the span `index`.
    pub fn end(&mut self, index: u32) {
        let end_ns = self.now_ns();
        self.spans[index as usize].end_ns = end_ns;
    }

    /// The span at `index`.
    pub fn span(&self, index: u32) -> &Span {
        &self.spans[index as usize]
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, request);
        let out = f();
        self.end(span);
        out
    }

    /// Appends another thread's log, re-basing its parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != ROOT {
                span.parent += offset;
            }
            span
        }));
    }

    /// Durations (µs) of every span called `name`, in start order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Total duration (µs) of the spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Per span name: (calls, total µs, self µs), where self time is a
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_us[span.parent as usize] += span.duration_us();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_us) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_us();
            entry.2 += (span.duration_us() - children).max(0.0);
        }
        out
    }

    /// Renders the trace file: the self-time table, then at most
    /// `max_spans` spans as `[name, start_ns, end_ns, parent, request]`.
    pub fn to_json(&self, header: &str, max_spans: usize) -> String {
        let mut out = format!("{{\n  \"host\": {header},\n  \"self_time\": {{");
        let table = self.self_times();
        for (i, (name, (calls, total, own))) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"calls\": {calls}, \"total_us\": {total:.3}, \"self_us\": {own:.3}}}"
            );
        }
        let _ = write!(
            out,
            "\n  }},\n  \"spans_total\": {},\n  \"spans\": [",
            self.spans.len()
        );
        for (i, s) in self.spans.iter().take(max_spans).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{sep}\n    [\"{}\", {}, {}, {parent}, {}]",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_merged_logs() {
        let epoch = Instant::now();
        let mut main = SpanLog::new(epoch);
        main.time("warmup", ROOT, 0, || {});
        let mut other = SpanLog::new(epoch);
        let parent = other.begin("request", ROOT, 7);
        other.time("gateway.submit", parent, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        other.end(parent);
        main.merge(other);

        let table = main.self_times();
        let (calls, total, own) = table["request"];
        let (_, child, child_self) = table["gateway.submit"];
        assert_eq!(calls, 1);
        assert!(child >= 2000.0);
        assert!((own - (total - child)).abs() < 1e-6);
        assert_eq!(child, child_self);
        let json = main.to_json("{}", 10);
        assert!(json.contains("[\"gateway.submit\""));
        assert!(
            json.contains(", 1, 7]"),
            "parent index re-based after merge"
        );
    }
}
