//! In-memory spans around the benchmark's own calls into each crate.
//!
//! A span is recorded from the outside: the benchmark wraps its call
//! into a crate's public function, and nothing inside the engine is
//! instrumented. Spans stay in memory until the run ends and are then
//! written out as Chrome trace-event JSON (`chrome://tracing` and
//! Perfetto open it). Times are on-CPU time of the benchmark's thread,
//! the clock of every other host time the benchmark reports.

use std::collections::BTreeMap;

use crate::clock::thread_cpu_s;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `gpu.try_run`; the layer is the crate.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// On-CPU nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// On-CPU nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The crate (layer) this span's call went into.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; a pass-through when disabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch_s: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch_s: thread_cpu_s(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        ((thread_cpu_s() - self.epoch_s) * 1e9) as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part of it that its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.dur_ns().saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete events,
    /// microsecond timestamps, one thread).
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.layer(),
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let busy = |s: f64| {
            let start = thread_cpu_s();
            while thread_cpu_s() - start < s {}
        };
        t.span("bench.pass", |t| {
            t.span("gpu.try_run", |_| busy(0.005));
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let selfs = t.self_seconds();
        assert!(selfs["gpu"] >= 0.005);
        assert!(selfs["bench"] < selfs["gpu"]);
        assert!(t.to_chrome_json().contains("\"name\":\"gpu.try_run\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("gpu.try_run", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
