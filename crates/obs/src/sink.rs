//! The low-rate instrumentation interface.
//!
//! [`ObsSink`] is what *infrequent* producers — compiler passes, recovery
//! replay, engine jobs — emit into. Every method has a no-op default and
//! [`ObsSink::enabled`] defaults to `false`, so instrumented code can guard
//! expensive payload construction (`if sink.enabled() { ... }`) and the
//! disabled path costs one predictable branch.
//!
//! The simulator's per-event hot path deliberately does **not** use this
//! trait: a `dyn` call per simulated event would be measurable. It emits a
//! typed event stream (`cwsp_sim::event`) and converts at export time.
//!
//! Provided sinks:
//! * [`NullSink`] — the disabled default.
//! * [`MemSink`] — records [`SinkEvent`]s for tests.
//! * [`ChromeSink`] — forwards spans/instants onto named tracks of a
//!   [`ChromeTrace`](crate::ChromeTrace).
//! * [`Registry`](crate::Registry) — implements the trait directly: spans
//!   become `<track>.<name>.wall_ns` counters, counts become counters.

use crate::chrome::ChromeTrace;
use crate::metrics::Registry;

/// One recorded event (as captured by [`MemSink`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SinkEvent {
    /// A completed span: `dur_ns` of work named `name` on `track`,
    /// starting at `ts_ns`.
    Span {
        /// Track (e.g. `compiler`, `recovery`).
        track: String,
        /// Span name (e.g. a pass name).
        name: String,
        /// Start timestamp, nanoseconds from an arbitrary per-run origin.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point event.
    Instant {
        /// Track the event belongs to.
        track: String,
        /// Event name.
        name: String,
        /// Timestamp, nanoseconds from the same origin as spans.
        ts_ns: u64,
    },
    /// A named quantity increment (IR deltas, replayed steps, ...).
    Count {
        /// Metric name.
        name: String,
        /// Amount added.
        delta: u64,
    },
    /// A named last-write-wins measurement.
    Gauge {
        /// Metric name.
        name: String,
        /// Measured value.
        value: f64,
    },
}

/// Receiver for low-rate instrumentation events.
pub trait ObsSink {
    /// Whether events will be kept. Producers may skip payload construction
    /// when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Record a completed span.
    fn span(&mut self, track: &str, name: &str, ts_ns: u64, dur_ns: u64) {
        let _ = (track, name, ts_ns, dur_ns);
    }

    /// Record a point event.
    fn instant(&mut self, track: &str, name: &str, ts_ns: u64) {
        let _ = (track, name, ts_ns);
    }

    /// Add to a named counter.
    fn count(&mut self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Set a named gauge.
    fn gauge(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }
}

/// The disabled sink: drops everything, reports `enabled() == false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ObsSink for NullSink {}

/// A sink that records every event, for tests and ad-hoc inspection.
#[derive(Debug, Clone, Default)]
pub struct MemSink {
    /// Recorded events in arrival order.
    pub events: Vec<SinkEvent>,
}

impl MemSink {
    /// An empty recorder.
    pub fn new() -> Self {
        MemSink::default()
    }

    /// Recorded spans with the given name, in arrival order.
    pub fn spans_named(&self, name: &str) -> Vec<&SinkEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, SinkEvent::Span { name: n, .. } if n == name))
            .collect()
    }

    /// Sum of all `Count` deltas with the given name.
    pub fn count_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                SinkEvent::Count { name: n, delta } if n == name => Some(*delta),
                _ => None,
            })
            .sum()
    }
}

impl ObsSink for MemSink {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, track: &str, name: &str, ts_ns: u64, dur_ns: u64) {
        self.events.push(SinkEvent::Span {
            track: track.to_string(),
            name: name.to_string(),
            ts_ns,
            dur_ns,
        });
    }

    fn instant(&mut self, track: &str, name: &str, ts_ns: u64) {
        self.events.push(SinkEvent::Instant {
            track: track.to_string(),
            name: name.to_string(),
            ts_ns,
        });
    }

    fn count(&mut self, name: &str, delta: u64) {
        self.events.push(SinkEvent::Count {
            name: name.to_string(),
            delta,
        });
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.events.push(SinkEvent::Gauge {
            name: name.to_string(),
            value,
        });
    }
}

/// A metrics registry accepts sink events directly: spans accumulate into
/// `<track>.<name>.wall_ns` counters (so repeated passes add up), counts
/// and gauges map to their registry namesakes. Instants become
/// `<track>.<name>` counters.
impl ObsSink for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, track: &str, name: &str, _ts_ns: u64, dur_ns: u64) {
        self.add_counter(&format!("{track}.{name}.wall_ns"), dur_ns);
    }

    fn instant(&mut self, track: &str, name: &str, _ts_ns: u64) {
        self.add_counter(&format!("{track}.{name}"), 1);
    }

    fn count(&mut self, name: &str, delta: u64) {
        self.add_counter(name, delta);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.set_gauge(name, value);
    }
}

/// Forwards sink events onto a Chrome trace, allocating one track (tid)
/// per distinct `track` name, offset above the simulator's core/MC tids.
#[derive(Debug, Clone, Default)]
pub struct ChromeSink {
    trace: ChromeTrace,
    tracks: Vec<String>,
}

/// First tid handed out by [`ChromeSink`] — clear of the simulator's core
/// (0..) and MC (1000..) tracks.
pub const SINK_TID_BASE: u64 = 2000;

impl ChromeSink {
    /// A sink over an empty trace.
    pub fn new() -> Self {
        ChromeSink::default()
    }

    /// A sink appending to an existing trace (e.g. one the simulator
    /// already exported into).
    pub fn over(trace: ChromeTrace) -> Self {
        ChromeSink {
            trace,
            tracks: Vec::new(),
        }
    }

    fn tid_for(&mut self, track: &str) -> u64 {
        match self.tracks.iter().position(|t| t == track) {
            Some(i) => SINK_TID_BASE + i as u64,
            None => {
                let tid = SINK_TID_BASE + self.tracks.len() as u64;
                self.tracks.push(track.to_string());
                self.trace.thread_name(tid, track);
                tid
            }
        }
    }

    /// Finish and return the trace.
    pub fn into_trace(self) -> ChromeTrace {
        self.trace
    }

    /// Borrow the trace (for assertions mid-run).
    pub fn trace(&self) -> &ChromeTrace {
        &self.trace
    }
}

impl ObsSink for ChromeSink {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, track: &str, name: &str, ts_ns: u64, dur_ns: u64) {
        let tid = self.tid_for(track);
        // Chrome ts/dur are microseconds.
        self.trace.complete(
            tid,
            track,
            name,
            ts_ns / 1000,
            dur_ns.div_ceil(1000),
            vec![],
        );
    }

    fn instant(&mut self, track: &str, name: &str, ts_ns: u64) {
        let tid = self.tid_for(track);
        self.trace.instant(tid, track, name, ts_ns / 1000, vec![]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.span("t", "n", 0, 5);
        s.count("c", 1);
    }

    #[test]
    fn mem_sink_records_everything() {
        let mut s = MemSink::new();
        assert!(s.enabled());
        s.span("compiler", "form_regions", 10, 500);
        s.instant("recovery", "replay", 20);
        s.count("compiler.regions_formed", 3);
        s.count("compiler.regions_formed", 2);
        s.gauge("engine.util", 0.75);
        assert_eq!(s.events.len(), 5);
        assert_eq!(s.spans_named("form_regions").len(), 1);
        assert_eq!(s.count_total("compiler.regions_formed"), 5);
    }

    #[test]
    fn registry_as_sink_accumulates_wall_time_and_counts() {
        let mut r = Registry::new();
        assert!(ObsSink::enabled(&r));
        r.span("compiler", "optimize", 0, 1200);
        r.span("compiler", "optimize", 0, 300);
        r.count("compiler.slices_emitted", 4);
        r.instant("recovery", "power_failure", 9);
        // Registry's inherent `gauge(name)` registers a handle; the sink
        // trait method needs UFCS here.
        ObsSink::gauge(&mut r, "engine.util", 0.5);
        assert_eq!(r.counter_value("compiler.optimize.wall_ns"), 1500);
        assert_eq!(r.counter_value("compiler.slices_emitted"), 4);
        assert_eq!(r.counter_value("recovery.power_failure"), 1);
        assert_eq!(r.gauge_value("engine.util"), 0.5);
    }

    #[test]
    fn chrome_sink_allocates_one_track_per_name() {
        let mut s = ChromeSink::new();
        s.span("compiler", "optimize", 0, 2000);
        s.span("compiler", "form_regions", 2000, 1000);
        s.instant("recovery", "replay", 3000);
        let t = s.into_trace();
        assert_eq!(t.complete_spans_on(SINK_TID_BASE), 2);
        assert_eq!(t.tracks(), vec![SINK_TID_BASE, SINK_TID_BASE + 1]);
    }
}
