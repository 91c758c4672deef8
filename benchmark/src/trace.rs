//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its *own* calls into each
//! layer's public functions (nothing inside `crates/` is instrumented). A
//! span's layer is the part of its name before the first `.`; the layer
//! `harness` is the benchmark's own work (input generation, checksums).
//!
//! Two kinds exist. *Call* spans nest by call stack on the single client
//! thread and carry self time (duration minus direct children). *Job* spans
//! run from a job's submission to its outcome; inside a batch they overlap
//! each other, so they carry no self time and only show the job's lifetime.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Call,
    Job,
}

pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a call span. With tracing off this is one branch.
    pub fn span<R>(&mut self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.span_with(name, job, |_| f())
    }

    /// [`Tracer::span`] for callees that record child spans themselves.
    pub fn span_with<R>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name,
            kind: Kind::Call,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(ix);
        let result = f(self);
        self.stack.pop();
        self.spans[ix].end_ns = self.ns(Instant::now());
        result
    }

    /// Record a span whose bounds were stamped elsewhere (the wire reader
    /// and writer, a batch's completion sink).
    pub fn record(
        &mut self,
        name: &'static str,
        kind: Kind,
        start: Instant,
        end: Instant,
        job: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            kind,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            job,
        });
    }

    /// Self time per layer in seconds: each call span's duration minus the
    /// durations of its direct children, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let (Kind::Call, Some(parent)) = (span.kind, span.parent) {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if span.kind == Kind::Call {
                let own = (span.end_ns - span.start_ns).saturating_sub(children);
                *layers.entry(layer_of(span.name)).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        layers
    }

    /// Median duration in microseconds of the call spans with this name
    /// (and this job id, if one is given); 0 when there is none.
    pub fn median_us(&self, name: &str, job: Option<u64>) -> f64 {
        let samples: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.kind == Kind::Call && s.name == name && (job.is_none() || s.job == job))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            crate::stats::median(&samples)
        }
    }

    /// Time of one pass over `jobs` job kinds spent in the named spans: the
    /// per-job medians, summed. Microseconds.
    pub fn pass_total_us(&self, names: &[&str], jobs: usize) -> f64 {
        (0..jobs as u64)
            .flat_map(|job| names.iter().map(move |name| (name, job)))
            .map(|(name, job)| self.median_us(name, Some(job)))
            .sum()
    }

    /// Write the spans as JSON-lines (`<stem>.spans.jsonl`) and as Chrome
    /// trace-event JSON (`<stem>.chrome.json`, opens in Perfetto).
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut lines = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.jsonl")),
        )?);
        let mut chrome = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.chrome.json")),
        )?);
        write!(chrome, "{{\"traceEvents\":[")?;
        for (ix, span) in self.spans.iter().enumerate() {
            let kind = match span.kind {
                Kind::Call => "call",
                Kind::Job => "job",
            };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                lines,
                "{{\"id\":{ix},\"name\":\"{}\",\"layer\":\"{}\",\"kind\":\"{kind}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"job\":{}}}",
                span.name,
                layer_of(span.name),
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                opt(span.parent.map(|p| p as u64)),
                opt(span.job),
            )?;
            if ix > 0 {
                write!(chrome, ",")?;
            }
            // Job spans overlap inside a batch: they go on a lane of their
            // own so the call stack on lane 1 stays a proper nesting.
            write!(
                chrome,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"job\":{}}}}}",
                span.name,
                layer_of(span.name),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                if span.kind == Kind::Call { 1 } else { 2 },
                opt(span.job),
            )?;
        }
        writeln!(chrome, "\n]}}")?;
        lines.flush()?;
        chrome.flush()
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        let base = tracer.epoch;
        let at = |ms: u64| base + Duration::from_millis(ms);
        // serve.outer [0, 100] ⊃ program.inner [10, 40] ⊃ json.leaf [20, 30]
        tracer.record("serve.outer", Kind::Call, at(0), at(100), Some(1));
        tracer.stack.push(0);
        tracer.record("program.inner", Kind::Call, at(10), at(40), Some(1));
        tracer.stack.push(1);
        tracer.record("json.leaf", Kind::Call, at(20), at(30), Some(1));
        // A job span never counts towards self time.
        tracer.record("serve.job", Kind::Job, at(0), at(100), Some(1));
        let layers = tracer.self_time_by_layer();
        assert!((layers["serve"] - 0.070).abs() < 1e-9);
        assert!((layers["program"] - 0.020).abs() < 1e-9);
        assert!((layers["json"] - 0.010).abs() < 1e-9);
        assert_eq!(tracer.median_us("program.inner", Some(1)), 30_000.0);
        assert_eq!(tracer.median_us("program.inner", None), 30_000.0);
        assert_eq!(tracer.median_us("program.inner", Some(2)), 0.0);
        assert_eq!(
            tracer.pass_total_us(&["program.inner", "json.leaf"], 2),
            40_000.0
        );
    }

    #[test]
    fn spans_nest_by_call_stack_and_cost_nothing_when_off() {
        let mut tracer = Tracer::new();
        assert_eq!(tracer.span("serve.off", None, || 7), 7);
        assert!(tracer.spans.is_empty());
        tracer.set_enabled(true);
        tracer.span_with("map.outer", Some(3), |t| {
            t.span("core.inner", Some(3), || ())
        });
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[0].parent, None);
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
    }
}
