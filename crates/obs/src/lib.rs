//! # cwsp-obs — the unified observability layer
//!
//! The paper's evaluation (§IX) is entirely about *where cycles and NVM
//! writes go*: stall breakdowns, buffer occupancies, log amplification.
//! This crate is the substrate every other crate publishes that information
//! through, with zero external dependencies (the repository builds offline):
//!
//! * [`metrics`] — a named metrics registry: counters, gauges, and labelled
//!   histograms with snapshot/delta support and JSON serialization.
//!   `SimStats`, the compiler pipeline, and the bench engine all publish
//!   into one of these.
//! * [`chrome`] — a builder for Chrome trace-event JSON
//!   (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev)-loadable),
//!   with cores and memory controllers as named tracks. The simulator's
//!   event ring exports through this.
//! * [`profile`] — the flat cycle-attribution profile model: every simulated
//!   core-cycle attributed to a (function, static region, cause) site,
//!   rendered as top-N tables and JSON reports.
//! * [`flight`] — the crash-survivable flight recorder: a binary ring
//!   journal of persist-path events written through `cwsp_store::spill`,
//!   so an injected crash (or a killed process, with `CWSP_FLIGHT_DIR`)
//!   leaves the lineage evidence readable.
//! * [`forensics`] — post-crash frontier reconstruction from a journal +
//!   machine snapshot: persisted / in-WPQ / dirty store sets, lost-store
//!   attribution, and the replay cross-check, rendered as text, JSON, and
//!   a Chrome/Perfetto track.
//! * [`sink`] — the [`sink::ObsSink`] trait: the low-rate instrumentation
//!   interface (compiler passes, recovery replay). The no-op
//!   [`sink::NullSink`] is the default everywhere, so instrumented code
//!   paths cost one `enabled()` check when observability is off.
//!
//! The simulator's per-event hot path does *not* go through a `dyn` sink —
//! it emits one typed event stream (`cwsp_sim::event`, gated by an `Option`
//! branch) into its trace ring and flight journal, and converts to this
//! crate's representations at export time. See DESIGN.md §8.

pub mod chrome;
pub mod flight;
pub mod forensics;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod tier;

pub use chrome::ChromeTrace;
pub use flight::{FlightKind, FlightRecord, FlightRecorder};
pub use forensics::{CoreFrontier, ForensicReport, MachineFrontier, StoreFate};
pub use metrics::{MetricValue, ObserveError, Registry, Snapshot};
pub use profile::{FlatProfile, ProfileRow};
pub use sink::{ChromeSink, MemSink, NullSink, ObsSink, SinkEvent};

/// Escape a string into a JSON string literal (shared by the writers here).
pub(crate) fn json_escape(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format an f64 the way the harness JSON does: shortest-exact `{:?}`,
/// `null` for non-finite values.
pub(crate) fn json_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}
