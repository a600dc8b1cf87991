//! In-memory span recorder used only by traced runs.
//!
//! Spans are recorded by the benchmark around its calls into the crates'
//! public functions; nothing inside the program is instrumented. A span's
//! name is the per-layer metric it feeds (`sim.run_s.cwsp`), and its layer is
//! the name's first dot-separated component. Spans named `bench.*` belong to
//! the benchmark itself (operation roots, output checks) and count toward no
//! layer. With tracing off, [`Tracer::span`] just calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span (times in ns since the tracer's origin).
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// The recorder. `Tracer::off()` records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        r
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time (ns) of every span: its duration minus the part covered by
    /// its direct children.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Total self time (seconds) per span name, over spans that started at
    /// or after `since_ns` (`0` for all).
    pub fn self_seconds_by_name(&self, since_ns: u64) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times()) {
            if s.start >= since_ns {
                *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
            }
        }
        out
    }

    /// Total duration (seconds) of the spans named `name` that started at or
    /// after `since_ns`, children included.
    pub fn inclusive_seconds(&self, name: &str, since_ns: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start >= since_ns)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum()
    }

    /// Sum of self time (seconds) over every span that belongs to a layer,
    /// i.e. every span not named `bench.*`.
    pub fn layer_self_seconds(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| !s.name.starts_with("bench."))
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Nanoseconds since the origin: a cursor for
    /// [`Tracer::self_seconds_by_name`].
    pub fn cursor(&self) -> u64 {
        self.now()
    }

    /// The first `max_spans` spans as Chrome trace-event JSON (viewable in
    /// Perfetto); each event carries its span id and its parent's. Spans are
    /// kept in start order, so a parent is always written before its
    /// children; `otherData` says how many spans were left out.
    pub fn to_chrome_json(&self, max_spans: usize) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().take(max_spans).enumerate() {
            let layer = sp.name.split('.').next().unwrap_or(sp.name);
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                layer,
                sp.start as f64 / 1e3,
                (sp.end - sp.start) as f64 / 1e3,
                i,
                parent
            );
        }
        let _ = write!(
            s,
            "\n],\"otherData\":{{\"spans\":{},\"omitted\":{}}}}}\n",
            self.spans.len(),
            self.spans.len().saturating_sub(max_spans)
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_bench_spans() {
        let mut t = Tracer::on();
        t.span("bench.op", |t| {
            t.span("sim.run_s.cwsp", |t| {
                t.span("ir.ref_oracle_s", |_| std::hint::black_box(0));
            });
        });
        let by = t.self_seconds_by_name(0);
        assert_eq!(by.len(), 3);
        let total: f64 = by.values().sum();
        let outer = t.spans[0].end - t.spans[0].start;
        assert!((total - outer as f64 / 1e9).abs() < 1e-12);
        assert!(t.layer_self_seconds() <= total);
        assert!(t.to_chrome_json(usize::MAX).contains("\"parent\":1"));
        let first = t.to_chrome_json(1);
        assert!(!first.contains("sim.run_s.cwsp") && first.contains("\"omitted\":2"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("sim.run_s.cwsp", |_| 7), 7);
        assert!(t.self_seconds_by_name(0).is_empty());
    }
}
