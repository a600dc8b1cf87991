//! Bounded event tracing for the persist machinery.
//!
//! Debugging crash-consistency issues requires seeing the interleaving of
//! region lifecycle events, persist traffic, and stalls around the failure
//! point. [`Trace`] is a fixed-capacity ring over the machine's persist-event
//! stream ([`crate::event`]); the newest events — the ones leading up to a
//! crash — are always retained.
//!
//! Two renderings read the ring: [`Trace::post_mortem`] renders the greppable
//! text tail (with an explicit truncation banner when the ring dropped
//! events), and [`Trace::to_chrome`] converts the whole ring into Chrome
//! trace-event JSON (cores and memory controllers as named tracks,
//! region/stall lifetimes as complete spans) for `chrome://tracing` or
//! Perfetto.

use crate::event::Event;
use crate::machine::RunEnd;
use cwsp_ir::types::DynRegionId;
use cwsp_obs::chrome::{Arg, ChromeTrace};
use std::collections::VecDeque;
use std::fmt;

/// The text line(s) of an event, as the post-mortem prints them. A logged
/// WPQ accept renders as an `undo` line followed by an `arrive` line.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cycle = self.cycle();
        write!(f, "[{cycle:>8}] ")?;
        match *self {
            Event::RegionOpen { core, region, .. } => write!(f, "core{core} open   {region}"),
            Event::RegionRetire { core, region, .. } => write!(f, "core{core} retire {region}"),
            Event::StoreIssue {
                core, region, addr, ..
            } => write!(f, "core{core} issue  {region} @{addr:#x}"),
            Event::WpqAccept {
                mc,
                region,
                addr,
                logged,
                ..
            } => {
                if logged {
                    writeln!(f, "mc{mc}   undo   {region} @{addr:#x}")?;
                    write!(f, "[{cycle:>8}] ")?;
                }
                write!(f, "mc{mc}   arrive {region} @{addr:#x}")
            }
            Event::LineEvict { core, line, .. } => write!(f, "core{core} wbenq  @{line:#x}"),
            Event::Stall {
                core,
                kind,
                region,
                cycles,
                ..
            } => {
                write!(f, "core{core} stall  ({kind})")?;
                if let Some(r) = region {
                    write!(f, " {r}")?;
                }
                write!(f, " x{cycles}")
            }
            Event::RunEnd {
                end: RunEnd::PowerFailure,
                ..
            } => f.write_str("POWER FAILURE"),
            // Journal-only kinds never enter the ring.
            _ => write!(f, "{self:?}"),
        }
    }
}

/// A fixed-capacity ring of machine events (newest kept). Capacity, length
/// and drop counts are in rendered lines, so a logged WPQ accept counts two
/// and its `undo` line is evicted before its `arrive` line.
#[derive(Debug, Clone)]
pub struct Trace {
    cap: usize,
    events: VecDeque<Event>,
    lines: usize,
    dropped: u64,
}

impl Trace {
    /// A trace retaining at most `cap` lines.
    pub fn new(cap: usize) -> Self {
        Trace {
            cap: cap.max(1),
            events: VecDeque::with_capacity(cap.min(4096)),
            lines: 0,
            dropped: 0,
        }
    }

    /// Record an event the ring renders (evicting the oldest lines when
    /// full); journal-only kinds (NVM commits, checkpoints, sync commits,
    /// run ends other than a power failure) are ignored.
    pub fn record(&mut self, e: Event) {
        let n = match e {
            Event::NvmCommit { .. } | Event::Checkpoint { .. } | Event::SyncCommit { .. } => 0,
            Event::RunEnd { end, .. } => usize::from(end == RunEnd::PowerFailure),
            Event::WpqAccept { logged, .. } => 1 + usize::from(logged),
            _ => 1,
        };
        if n == 0 {
            return;
        }
        self.events.push_back(e);
        self.lines += n;
        while self.lines > self.cap {
            match self.events.front_mut() {
                Some(Event::WpqAccept { logged, .. }) if *logged => *logged = false,
                _ => {
                    self.events.pop_front();
                }
            }
            self.lines -= 1;
            self.dropped += 1;
        }
    }

    /// Events in chronological order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained lines.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity in lines.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Lines evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The last `n` lines (crash post-mortems).
    pub fn tail(&self, n: usize) -> String {
        let mut lines: Vec<String> = Vec::new();
        for e in self.events.iter().rev() {
            if lines.len() == n {
                break;
            }
            let text = e.to_string();
            lines.extend(text.rsplit('\n').take(n - lines.len()).map(str::to_owned));
        }
        lines.reverse();
        lines.join("\n")
    }

    /// The crash post-mortem: a header stating retention (and, crucially,
    /// how many events the ring silently evicted) followed by the last `n`
    /// events. Truncated traces are visibly truncated.
    pub fn post_mortem(&self, n: usize) -> String {
        let mut out = format!(
            "trace: {} events retained (ring capacity {})",
            self.len(),
            self.cap
        );
        if self.dropped > 0 {
            out.push_str(&format!(
                " — TRUNCATED, {} older events dropped",
                self.dropped
            ));
        }
        out.push('\n');
        out.push_str(&self.tail(n));
        out
    }

    /// Convert the ring into a Chrome trace: cores and MCs become named
    /// tracks, region lifetimes and stall spans become complete (`ph:"X"`)
    /// events, persist traffic becomes instants. `cores`/`mcs` size the
    /// track metadata.
    pub fn to_chrome(&self, cores: usize, mcs: usize) -> ChromeTrace {
        /// Track id for memory controller `m` (cores occupy tids from 0).
        const MC_TID: u64 = 1000;
        let mut t = ChromeTrace::new();
        t.process_name("cwsp-sim");
        for c in 0..cores {
            t.thread_name(c as u64, &format!("core {c}"));
        }
        for m in 0..mcs {
            t.thread_name(MC_TID + m as u64, &format!("mc {m}"));
        }
        let first_cycle = self.events.front().map(|e| e.cycle()).unwrap_or(0);
        let last_cycle = self.events.iter().map(|e| e.cycle()).max().unwrap_or(0);
        let at = |region: DynRegionId, addr| {
            vec![
                ("region".into(), Arg::Str(region.to_string())),
                ("addr".into(), Arg::Int(addr)),
            ]
        };
        // (core, region) -> open cycle, for pairing opens with retires.
        let mut open: Vec<(usize, DynRegionId, u64)> = Vec::new();
        for e in self.events() {
            let cycle = e.cycle();
            match *e {
                Event::RegionOpen { core, region, .. } => open.push((core, region, cycle)),
                Event::RegionRetire { core, region, .. } => {
                    // A retire without a matched open was opened before the
                    // ring's window; start it at the window edge.
                    let start = match open.iter().position(|&(c, r, _)| c == core && r == region) {
                        Some(i) => open.swap_remove(i).2,
                        None => first_cycle.min(cycle),
                    };
                    let dur = cycle.saturating_sub(start);
                    t.complete(
                        core as u64,
                        "region",
                        &region.to_string(),
                        start,
                        dur,
                        vec![],
                    );
                }
                Event::StoreIssue {
                    core, region, addr, ..
                } => t.instant(core as u64, "persist", "pb-issue", cycle, at(region, addr)),
                Event::WpqAccept {
                    mc,
                    region,
                    addr,
                    logged,
                    ..
                } => {
                    let tid = MC_TID + mc as u64;
                    if logged {
                        t.instant(tid, "log", "undo-append", cycle, at(region, addr));
                    }
                    t.instant(tid, "persist", "wpq-arrive", cycle, at(region, addr));
                }
                Event::LineEvict { core, line, .. } => {
                    let args = vec![("line".into(), Arg::Int(line))];
                    t.instant(core as u64, "wb", "wb-enqueue", cycle, args);
                }
                Event::Stall {
                    core,
                    kind,
                    region,
                    cycles,
                    ..
                } => {
                    let args = region
                        .map(|r| ("region".into(), Arg::Str(r.to_string())))
                        .into_iter()
                        .collect();
                    t.complete(
                        core as u64,
                        "stall",
                        &format!("stall:{kind}"),
                        cycle,
                        cycles,
                        args,
                    );
                }
                Event::RunEnd {
                    end: RunEnd::PowerFailure,
                    ..
                } => t.instant(0, "power", "POWER FAILURE", cycle, vec![]),
                _ => {} // journal-only kinds never enter the ring
            }
        }
        // Regions still in flight at the end of the window: truncated spans.
        for (core, region, start) in open {
            t.complete(
                core as u64,
                "region",
                &region.to_string(),
                start,
                last_cycle.saturating_sub(start),
                vec![("truncated".into(), Arg::Bool(true))],
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallKind;

    fn power(cycle: u64) -> Event {
        Event::RunEnd {
            cycle,
            end: RunEnd::PowerFailure,
        }
    }

    #[test]
    fn ring_keeps_newest() {
        let mut t = Trace::new(3);
        for c in 0..5 {
            t.record(power(c));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn display_formats_are_greppable() {
        let e = Event::WpqAccept {
            cycle: 42,
            core: 0,
            mc: 1,
            region: DynRegionId(7),
            addr: 0x1000,
            logged: false,
        };
        let s = e.to_string();
        assert!(
            s.contains("mc1") && s.contains("dyn7") && s.contains("0x1000"),
            "{s}"
        );
        let open = Event::RegionOpen {
            cycle: 1,
            core: 0,
            region: DynRegionId(0),
        };
        assert!(open.to_string().contains("open"));
        let stall = Event::Stall {
            cycle: 9,
            core: 2,
            kind: StallKind::Pb,
            region: Some(DynRegionId(3)),
            cycles: 12,
        };
        let s = stall.to_string();
        assert!(
            s.contains("core2") && s.contains("(pb)") && s.contains("dyn3") && s.contains("x12"),
            "{s}"
        );
    }

    #[test]
    fn tail_returns_last_lines() {
        let mut t = Trace::new(10);
        for c in 0..6 {
            t.record(Event::Stall {
                cycle: c,
                core: 0,
                kind: StallKind::Pb,
                region: None,
                cycles: 1,
            });
        }
        let tail = t.tail(2);
        assert_eq!(tail.lines().count(), 2);
        assert!(tail.contains("[       5]"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(4);
        assert!(t.is_empty());
        assert_eq!(t.tail(3), "");
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    fn post_mortem_reports_truncation() {
        let mut t = Trace::new(2);
        assert!(!t.post_mortem(4).contains("TRUNCATED"));
        for c in 0..5 {
            t.record(power(c));
        }
        let pm = t.post_mortem(4);
        assert!(pm.contains("2 events retained (ring capacity 2)"), "{pm}");
        assert!(pm.contains("TRUNCATED, 3 older events dropped"), "{pm}");
        assert!(pm.contains("POWER FAILURE"));
    }

    #[test]
    fn overflow_drop_counts_are_exact_across_many_wraparounds() {
        // dropped() must equal recorded - capacity exactly, no matter how
        // many times the ring wraps — the post-mortem banner quotes it.
        let cap = 7;
        let mut t = Trace::new(cap);
        let recorded = cap as u64 * 13 + 5; // several full wraps + a partial
        for c in 0..recorded {
            t.record(power(c));
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.dropped(), recorded - cap as u64);
        // The retained window is the exact newest suffix.
        let cycles: Vec<u64> = t.events().map(|e| e.cycle()).collect();
        let expect: Vec<u64> = (recorded - cap as u64..recorded).collect();
        assert_eq!(cycles, expect);
        let pm = t.post_mortem(cap);
        assert!(
            pm.contains(&format!(
                "TRUNCATED, {} older events dropped",
                recorded - cap as u64
            )),
            "{pm}"
        );
    }

    #[test]
    fn stall_region_ids_survive_ring_wraparound() {
        // Stall spans carry the draining region's id; eviction of older
        // events must not corrupt the ids of survivors, and the Chrome
        // export of the wrapped ring must still attribute them.
        let mut t = Trace::new(4);
        for i in 0..20u64 {
            t.record(Event::Stall {
                cycle: i * 10,
                core: (i % 2) as usize,
                kind: if i % 2 == 0 {
                    StallKind::Rbt
                } else {
                    StallKind::Wb
                },
                region: Some(DynRegionId(i)),
                cycles: i + 1,
            });
        }
        assert_eq!(t.dropped(), 16);
        // Survivors are stalls 16..20, each with its own region id intact.
        for (slot, e) in t.events().enumerate() {
            let i = 16 + slot as u64;
            match *e {
                Event::Stall {
                    cycle,
                    region,
                    cycles,
                    ..
                } => {
                    assert_eq!(cycle, i * 10);
                    assert_eq!(region, Some(DynRegionId(i)));
                    assert_eq!(cycles, i + 1);
                }
                ref other => panic!("expected a stall, got {other:?}"),
            }
        }
        // The wrapped ring's Chrome export keeps the attribution too.
        let ct = t.to_chrome(2, 1);
        let spans: Vec<_> = ct.events().iter().filter(|e| e.ph == 'X').collect();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().any(|e| e
            .args
            .iter()
            .any(|(k, v)| k == "region"
                && matches!(v, Arg::Str(s) if s == &DynRegionId(19).to_string()))));
        // And the post-mortem text tail still names the region.
        assert!(t.post_mortem(4).contains(&DynRegionId(19).to_string()));
    }

    #[test]
    fn chrome_export_pairs_regions_and_maps_tracks() {
        let mut t = Trace::new(64);
        t.record(Event::RegionOpen {
            cycle: 10,
            core: 0,
            region: DynRegionId(1),
        });
        t.record(Event::StoreIssue {
            cycle: 12,
            core: 0,
            func: None,
            region: DynRegionId(1),
            addr: 0x40,
        });
        t.record(Event::WpqAccept {
            cycle: 30,
            core: 0,
            mc: 1,
            region: DynRegionId(1),
            addr: 0x40,
            logged: false,
        });
        t.record(Event::Stall {
            cycle: 31,
            core: 0,
            kind: StallKind::Sync,
            region: Some(DynRegionId(1)),
            cycles: 5,
        });
        t.record(Event::RegionRetire {
            cycle: 40,
            core: 0,
            region: DynRegionId(1),
        });
        t.record(Event::RegionOpen {
            cycle: 41,
            core: 0,
            region: DynRegionId(2),
        });
        let ct = t.to_chrome(1, 2);
        // Two complete spans on the core track: the region and the stall,
        // plus the truncated still-open region.
        assert_eq!(ct.complete_spans_on(0), 3);
        let spans: Vec<_> = ct.events().iter().filter(|e| e.ph == 'X').collect();
        let region = spans.iter().find(|e| e.name == "dyn1").unwrap();
        assert_eq!((region.ts, region.dur), (10, Some(30)));
        let stall = spans.iter().find(|e| e.name == "stall:sync").unwrap();
        assert_eq!((stall.ts, stall.dur), (31, Some(5)));
        // The MC instant landed on the mc track.
        assert!(ct
            .events()
            .iter()
            .any(|e| e.ph == 'i' && e.tid == 1001 && e.name == "wpq-arrive"));
        // A retire with no matched open gets a window-edge span.
        let mut t2 = Trace::new(8);
        t2.record(Event::RegionRetire {
            cycle: 50,
            core: 0,
            region: DynRegionId(9),
        });
        let ct2 = t2.to_chrome(1, 1);
        assert_eq!(ct2.complete_spans_on(0), 1);
    }

    #[test]
    fn logged_accept_is_an_undo_line_then_an_arrive_line() {
        let accept = |cycle, logged| Event::WpqAccept {
            cycle,
            core: 0,
            mc: 0,
            region: DynRegionId(2),
            addr: 0x8,
            logged,
        };
        let mut t = Trace::new(3);
        t.record(power(1));
        t.record(accept(2, true));
        assert_eq!((t.len(), t.dropped()), (3, 0));
        let tail = t.tail(2);
        assert!(tail.starts_with("[       2] mc0   undo   dyn2"), "{tail}");
        assert!(
            tail.ends_with("[       2] mc0   arrive dyn2 @0x8"),
            "{tail}"
        );
        // Journal-only kinds never enter the ring.
        t.record(Event::SyncCommit {
            cycle: 3,
            core: 0,
            region: None,
        });
        assert_eq!(t.len(), 3);
        // Two more lines evict the power failure, then the undo line: the
        // accept survives as its arrive line alone.
        t.record(accept(4, false));
        t.record(power(5));
        assert_eq!((t.len(), t.dropped()), (3, 2));
        assert_eq!(t.events().next(), Some(&accept(2, false)));
        assert_eq!(t.tail(1), "[       5] POWER FAILURE");
        let pm = t.post_mortem(3);
        assert!(
            pm.contains("3 events retained (ring capacity 3) — TRUNCATED, 2"),
            "{pm}"
        );
        assert_eq!(pm.lines().count(), 4, "{pm}");
    }
}
