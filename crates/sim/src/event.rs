//! The persist-event stream. cWSP's crash behaviour is a sequence of
//! persist-path events — PB issue, WPQ accept (undo-logged or not), NVM media
//! commit, region open/retire, sync commit (paper §V, §VII). The machine
//! emits each once, as an [`Event`], to whichever consumers are attached:
//! the trace ring ([`crate::trace::Trace`]) and the flight journal, which
//! appends each event it keeps in the unchanged CWSPFLT1 v1 encoding. Stall
//! spans are ring-only; NVM commits, checkpoints and sync commits are
//! journal-only.

use crate::machine::RunEnd;
use crate::trace::Trace;
use cwsp_ir::types::{DynRegionId, Word};
use cwsp_ir::FuncId;
use cwsp_obs::flight::{FlightKind, FlightRecord, FlightRecorder, REGION_NONE};
use std::fmt;

/// Why a core stalled (mirrors the `stall_*` counters in
/// [`crate::stats::SimStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Persist buffer full.
    Pb,
    /// Region boundary table full (or boundary drain without MC speculation).
    Rbt,
    /// Write buffer full.
    Wb,
    /// Draining at a synchronization point.
    Sync,
    /// Load delayed by a pending WPQ entry.
    Wpq,
    /// Scheme-specific persistence stall (Capri redo buffer, ReplayCache
    /// synchronous persist).
    Scheme,
}

impl StallKind {
    /// Short label ("pb", "rbt", ...) used in text output and profiles.
    pub fn as_str(self) -> &'static str {
        match self {
            StallKind::Pb => "pb",
            StallKind::Rbt => "rbt",
            StallKind::Wb => "wb",
            StallKind::Sync => "sync",
            StallKind::Wpq => "wpq",
            StallKind::Scheme => "scheme",
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One persist-path event on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A dynamic region was opened on `core`.
    RegionOpen {
        cycle: u64,
        core: usize,
        region: DynRegionId,
    },
    /// A region fully persisted and retired from `core`'s RBT head.
    RegionRetire {
        cycle: u64,
        core: usize,
        region: DynRegionId,
    },
    /// A store of function `func` entered `core`'s persist buffer.
    StoreIssue {
        cycle: u64,
        core: usize,
        func: Option<FuncId>,
        region: DynRegionId,
        addr: Word,
    },
    /// A store from `core` was accepted into memory controller `mc`'s WPQ,
    /// the ADR domain: persistent from here on. `logged` when the accept
    /// appended an undo-log record (the region was still speculative).
    WpqAccept {
        cycle: u64,
        core: usize,
        mc: usize,
        region: DynRegionId,
        addr: Word,
        logged: bool,
    },
    /// A WPQ slot of `mc` drained to NVM media.
    NvmCommit {
        cycle: u64,
        mc: usize,
        region: DynRegionId,
        addr: Word,
    },
    /// A dirty line entered `core`'s write buffer.
    LineEvict { cycle: u64, core: usize, line: Word },
    /// A checkpoint store of function `func` executed on `core`, in its open
    /// region.
    Checkpoint {
        cycle: u64,
        core: usize,
        func: Option<FuncId>,
        region: Option<DynRegionId>,
        addr: Word,
    },
    /// An atomic or fence committed on `core` after draining: the resume
    /// point moved past it, so recovery never replays it. `region` is the
    /// RBT head's.
    SyncCommit {
        cycle: u64,
        core: usize,
        region: Option<DynRegionId>,
    },
    /// A completed stall span: `core` stalled for `cycles` consecutive
    /// cycles starting at `cycle`, while `region` (the oldest in-flight
    /// dynamic region, when one exists) was draining. Emitted when the span
    /// *ends*, stamped with its start cycle.
    Stall {
        cycle: u64,
        core: usize,
        kind: StallKind,
        region: Option<DynRegionId>,
        cycles: u64,
    },
    /// The run ended: power failed, the instruction budget ran out, or the
    /// machine completed.
    RunEnd { cycle: u64, end: RunEnd },
}

impl Event {
    /// The cycle the event occurred at (start cycle for stall spans).
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::RegionOpen { cycle, .. }
            | Event::RegionRetire { cycle, .. }
            | Event::StoreIssue { cycle, .. }
            | Event::WpqAccept { cycle, .. }
            | Event::NvmCommit { cycle, .. }
            | Event::LineEvict { cycle, .. }
            | Event::Checkpoint { cycle, .. }
            | Event::SyncCommit { cycle, .. }
            | Event::Stall { cycle, .. }
            | Event::RunEnd { cycle, .. } => cycle,
        }
    }

    /// The event's flight-journal record, or `None` for kinds the journal
    /// does not keep: stall spans, and run ends other than a power failure.
    #[inline]
    pub(crate) fn flight_record(&self) -> Option<FlightRecord> {
        let rec = |kind, core: usize, func: Option<FuncId>, addr, region: Option<DynRegionId>| {
            FlightRecord {
                core: core as u8,
                func: func.map(|f| f.0),
                addr,
                region: region.map_or(REGION_NONE, |r| r.0),
                ..FlightRecord::new(kind, self.cycle())
            }
        };
        Some(match *self {
            Event::RegionOpen { core, region, .. } => {
                rec(FlightKind::RegionOpen, core, None, 0, Some(region))
            }
            Event::RegionRetire { core, region, .. } => {
                rec(FlightKind::RegionClose, core, None, 0, Some(region))
            }
            Event::StoreIssue {
                core,
                func,
                region,
                addr,
                ..
            } => rec(FlightKind::StoreIssue, core, func, addr, Some(region)),
            Event::WpqAccept {
                core,
                mc,
                region,
                addr,
                logged,
                ..
            } => FlightRecord {
                mc: mc as u8,
                logged,
                ..rec(FlightKind::WpqEnqueue, core, None, addr, Some(region))
            },
            Event::NvmCommit {
                mc, region, addr, ..
            } => FlightRecord {
                mc: mc as u8,
                ..rec(FlightKind::NvmCommit, 0, None, addr, Some(region))
            },
            Event::LineEvict { core, line, .. } => {
                rec(FlightKind::LineEvict, core, None, line, None)
            }
            Event::Checkpoint {
                core,
                func,
                region,
                addr,
                ..
            } => rec(FlightKind::Checkpoint, core, func, addr, region),
            Event::SyncCommit { core, region, .. } => {
                rec(FlightKind::SyncCommit, core, None, 0, region)
            }
            Event::RunEnd {
                end: RunEnd::PowerFailure,
                ..
            } => rec(FlightKind::PowerFail, 0, None, 0, None),
            Event::Stall { .. } | Event::RunEnd { .. } => return None,
        })
    }
}

/// The consumers attached to one machine. The machine holds an
/// `Option<Consumers>`, so with none attached every hook is one branch.
#[derive(Default)]
pub(crate) struct Consumers {
    pub(crate) ring: Option<Trace>,
    pub(crate) journal: Option<FlightRecorder>,
}

impl Consumers {
    /// Hand `e` to each attached consumer; the journal seals its tail page
    /// when the run ends. Kept out of line so that the hooks, inlined into
    /// the issue loop, stay small.
    #[inline(never)]
    pub(crate) fn consume(&mut self, e: Event) {
        if let Some(ring) = &mut self.ring {
            ring.record(e);
        }
        if let Some(journal) = &mut self.journal {
            if let Some(r) = e.flight_record() {
                journal.record(r);
            }
            if let Event::RunEnd { .. } = e {
                journal.seal();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_keeps_persist_lineage_kinds_only() {
        let region = DynRegionId(4);
        let stall = Event::Stall {
            cycle: 1,
            core: 0,
            kind: StallKind::Pb,
            region: Some(region),
            cycles: 3,
        };
        assert_eq!(stall.flight_record(), None);
        let done = Event::RunEnd {
            cycle: 9,
            end: RunEnd::Completed,
        };
        assert_eq!(done.flight_record(), None);
        let power = Event::RunEnd {
            cycle: 9,
            end: RunEnd::PowerFailure,
        };
        assert_eq!(
            power.flight_record(),
            Some(FlightRecord::new(FlightKind::PowerFail, 9))
        );
        let accept = Event::WpqAccept {
            cycle: 5,
            core: 2,
            mc: 1,
            region,
            addr: 0x40,
            logged: true,
        };
        let r = accept.flight_record().unwrap();
        assert_eq!(r.kind, FlightKind::WpqEnqueue);
        assert_eq!((r.core, r.mc, r.logged, r.func), (2, 1, true, None));
        assert_eq!((r.cycle, r.addr, r.region), (5, 0x40, 4));
        let ckpt = Event::Checkpoint {
            cycle: 6,
            core: 0,
            func: Some(FuncId(3)),
            region: None,
            addr: 0x80,
        };
        let r = ckpt.flight_record().unwrap();
        assert_eq!(
            (r.kind, r.func, r.region),
            (FlightKind::Checkpoint, Some(3), REGION_NONE)
        );
    }
}
