//! Post-crash forensics: turn a flight journal plus the post-crash machine
//! into evidence.
//!
//! Given the decoded journal ([`crate::flight::FlightRecord`]s) and a
//! [`MachineFrontier`] snapshot (what the simulator's persist machinery
//! held at the kill cycle), this module reconstructs the crash-instant
//! frontier:
//!
//! * **committed** — the store drained out of the WPQ to NVM media;
//! * **in-WPQ** — accepted by a memory controller (the ADR domain, so
//!   durable) but not yet drained;
//! * **in-path** / **in-PB** — issued but still in the persist buffer or on
//!   the wire at the crash: lost;
//! * **reverted** — reached the WPQ speculatively (undo-logged) and was
//!   rolled back by crash recovery: lost;
//!
//! plus the executed-but-unissued tail (`pending`, uncommitted `sync`
//! writes) and the dirty-in-cache line sets. Every lost store is attributed
//! to (function, region, cause), and the whole frontier is cross-checked
//! against what recovery *actually* replayed: resuming from the per-core
//! resume region, replay must re-execute exactly the unretired journal
//! stores in issue order, then the pending and sync tails — an exact,
//! per-address sequence match (see `tests/flight_forensics.rs`).
//!
//! Matching is one pass over the journal with two FIFO matchers: a
//! `StoreIssue` queues under (core, addr, region) until a `WpqEnqueue` with
//! that key takes the oldest, which then queues under (mc, addr, region)
//! until an `NvmCommit` with that key drains it. Each queue is a
//! `(head, tail)` chain threaded through the store index in an FxHash map,
//! so a match is one probe and allocates nothing; a record that matches no
//! queued store is ignored.

use crate::flight::{FlightKind, FlightRecord, REGION_NONE};
use cwsp_ir::fxhash::FxHashMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Per-key FIFO queues of store indices, threaded through the store index
/// as `(head, tail)` chains: `next[i]` is the store queued behind store `i`
/// under the same key. A push or a pop is one map probe and allocates
/// nothing once `next` has grown, and a key leaves the map when its queue
/// empties. `next[i]` is only read after a later push has written it, so
/// it needs no initial value.
struct FifoChains<K> {
    ends: FxHashMap<K, (u32, u32)>,
    next: Vec<u32>,
}

impl<K: Hash + Eq> FifoChains<K> {
    fn new() -> Self {
        FifoChains {
            ends: FxHashMap::default(),
            next: Vec::new(),
        }
    }

    /// Queue store `idx` behind every store already queued under `key`.
    fn push(&mut self, key: K, idx: usize) {
        if self.next.len() <= idx {
            self.next.resize(idx + 1, 0);
        }
        let idx = u32::try_from(idx).expect("fewer than 2^32 journaled stores");
        match self.ends.entry(key) {
            Entry::Occupied(mut e) => {
                let tail = &mut e.get_mut().1;
                self.next[*tail as usize] = idx;
                *tail = idx;
            }
            Entry::Vacant(e) => {
                e.insert((idx, idx));
            }
        }
    }

    /// Dequeue the oldest store queued under `key`, if any.
    fn pop(&mut self, key: K) -> Option<usize> {
        let Entry::Occupied(mut e) = self.ends.entry(key) else {
            return None;
        };
        let (head, tail) = *e.get();
        if head == tail {
            e.remove();
        } else {
            e.get_mut().0 = self.next[head as usize];
        }
        Some(head as usize)
    }
}

/// One core's share of the crash-instant persist frontier, snapshotted from
/// the machine before it is consumed into a crash image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreFrontier {
    /// Dynamic region id of the persisted resume point (the oldest region
    /// recovery will re-execute), when one was ever written.
    pub resume_region: Option<u64>,
    /// Whether the core had architecturally halted.
    pub halted: bool,
    /// Persist-buffer entries in issue order: (addr, region, sent-to-path).
    pub pb: Vec<(u64, u64, bool)>,
    /// Executed stores waiting for persist-buffer space, in order.
    pub pending: Vec<u64>,
    /// Writes of an uncommitted atomic/fence, in order.
    pub sync_pending: Vec<u64>,
    /// Line addresses parked in the write buffer (dirty, evicted, not yet
    /// drained to memory).
    pub wb_lines: Vec<u64>,
    /// Dirty L1 line addresses.
    pub dirty_l1: Vec<u64>,
}

/// The crash-instant state of the whole persist machinery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineFrontier {
    /// Cycle the power failed.
    pub crash_cycle: u64,
    /// Per-core frontiers.
    pub cores: Vec<CoreFrontier>,
    /// Per-MC WPQ contents: (addr, region) still queued for media.
    pub wpq: Vec<Vec<(u64, u64)>>,
    /// Live undo-log records at the crash (these get rolled back).
    pub live_log_records: u64,
}

/// Where a journaled store ended up at the crash instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFate {
    /// Drained out of the WPQ to NVM media.
    Committed,
    /// Accepted into a WPQ (ADR domain — durable) but not yet drained.
    InWpq,
    /// Sent from the persist buffer, in flight on the persist path.
    InPath,
    /// Still in the per-core persist buffer.
    InPb,
    /// Reached the WPQ speculatively and was undone by the crash revert.
    Reverted,
}

impl StoreFate {
    /// Stable lowercase name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            StoreFate::Committed => "committed",
            StoreFate::InWpq => "in_wpq",
            StoreFate::InPath => "in_path",
            StoreFate::InPb => "in_pb",
            StoreFate::Reverted => "reverted",
        }
    }

    /// Whether the store's effect was lost at the crash.
    pub fn is_lost(&self) -> bool {
        matches!(
            self,
            StoreFate::InPath | StoreFate::InPb | StoreFate::Reverted
        )
    }
}

/// The full lineage of one journaled store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLineage {
    /// Issuing core.
    pub core: u8,
    /// Static function attribution, when known.
    pub func: Option<u32>,
    /// Dynamic region id.
    pub region: u64,
    /// Store address.
    pub addr: u64,
    /// Cycle the store entered the persist buffer.
    pub issue_cycle: u64,
    /// Cycle the store was accepted into a WPQ, if it got that far.
    pub wpq_cycle: Option<u64>,
    /// Cycle the WPQ slot drained to media, if it got that far.
    pub commit_cycle: Option<u64>,
    /// Accepting memory controller.
    pub mc: u8,
    /// Whether the accept was speculative (undo-logged).
    pub logged: bool,
    /// Crash-instant classification.
    pub fate: StoreFate,
    /// Whether recovery re-executes this store (its region had not
    /// retired past the resume point).
    pub replayed: bool,
}

/// A (region, core) open/close span reconstructed from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpan {
    /// Dynamic region id.
    pub region: u64,
    /// Owning core.
    pub core: u8,
    /// Open cycle.
    pub open_cycle: u64,
    /// Retire cycle; `None` if still open at the crash.
    pub close_cycle: Option<u64>,
}

/// Result of comparing the predicted replay sequence of one core against
/// the addresses recovery actually wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossCheck {
    /// Core index.
    pub core: usize,
    /// Predicted replay sequence (addresses, in order).
    pub expected: Vec<u64>,
    /// How many observed writes were compared.
    pub observed: usize,
    /// Whether the observed prefix matched the prediction exactly.
    pub matched: bool,
    /// First index where prediction and observation diverged.
    pub first_divergence: Option<usize>,
}

/// Per-fate and frontier-set counts for the report headline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierCounts {
    /// Stores drained to media.
    pub committed: u64,
    /// Stores durable in a WPQ.
    pub in_wpq: u64,
    /// Stores lost on the persist path.
    pub in_path: u64,
    /// Stores lost in a persist buffer.
    pub in_pb: u64,
    /// Speculative stores rolled back at the crash.
    pub reverted: u64,
    /// Executed stores that never reached a persist buffer.
    pub pending: u64,
    /// Uncommitted sync writes.
    pub sync_pending: u64,
    /// Dirty lines parked in write buffers.
    pub wb_lines: u64,
    /// Dirty lines still in L1.
    pub dirty_l1: u64,
}

impl FrontierCounts {
    /// Total stores whose effects were lost at the crash.
    pub fn lost(&self) -> u64 {
        self.in_path + self.in_pb + self.reverted + self.pending + self.sync_pending
    }
}

/// A lost-store attribution site: (function, dynamic region, fate cause).
pub type LostSite = (Option<u32>, u64, &'static str);

/// The reconstructed forensic picture of one crash.
#[derive(Debug, Clone, Default)]
pub struct ForensicReport {
    /// Cycle the power failed (from the frontier snapshot).
    pub crash_cycle: u64,
    /// The `PowerFail` journal record's cycle, when present.
    pub power_fail_cycle: Option<u64>,
    /// Every journaled store with its reconstructed lineage, in issue order.
    pub stores: Vec<StoreLineage>,
    /// Region open/close spans.
    pub regions: Vec<RegionSpan>,
    /// The machine-side frontier snapshot.
    pub frontier: MachineFrontier,
    /// Per-core replay cross-checks (filled by [`ForensicReport::cross_check_core`]).
    pub cross_checks: Vec<CrossCheck>,
    /// Function-index → name table for attribution rendering (optional).
    pub func_names: Vec<String>,
    /// Line-evict events seen (dirty-line traffic volume).
    pub line_evicts: u64,
}

impl ForensicReport {
    /// Reconstruct the crash frontier from a decoded journal and the
    /// machine-side snapshot.
    ///
    /// The journal alone carries each store's lineage (issue → WPQ accept →
    /// media drain); the frontier disambiguates what the journal cannot
    /// see — whether an unacknowledged store was on the wire or still in
    /// its persist buffer, and the executed-but-unissued tails.
    pub fn reconstruct(records: &[FlightRecord], frontier: MachineFrontier) -> ForensicReport {
        let mut report = ForensicReport {
            crash_cycle: frontier.crash_cycle,
            ..ForensicReport::default()
        };
        // FIFO matchers: issue → accept keyed by (core, addr, region);
        // accept → drain keyed by (mc, addr, region). FIFO is exact because
        // both the persist buffer and each WPQ preserve per-key order.
        let mut await_wpq: FifoChains<(u8, u64, u64)> = FifoChains::new();
        let mut await_drain: FifoChains<(u8, u64, u64)> = FifoChains::new();
        let mut open_regions: FxHashMap<u64, usize> = FxHashMap::default();
        // Per (core, region): index into `stores` after the last committed
        // sync — stores before it are covered by the advanced resume point.
        let mut sync_floor: FxHashMap<(u8, u64), usize> = FxHashMap::default();
        for r in records {
            match r.kind {
                FlightKind::StoreIssue => {
                    let idx = report.stores.len();
                    report.stores.push(StoreLineage {
                        core: r.core,
                        func: r.func,
                        region: r.region,
                        addr: r.addr,
                        issue_cycle: r.cycle,
                        wpq_cycle: None,
                        commit_cycle: None,
                        mc: 0,
                        logged: false,
                        fate: StoreFate::InPb,
                        replayed: false,
                    });
                    await_wpq.push((r.core, r.addr, r.region), idx);
                }
                FlightKind::WpqEnqueue => {
                    if let Some(idx) = await_wpq.pop((r.core, r.addr, r.region)) {
                        let s = &mut report.stores[idx];
                        s.wpq_cycle = Some(r.cycle);
                        s.mc = r.mc;
                        s.logged = r.logged;
                        s.fate = StoreFate::InWpq;
                        await_drain.push((r.mc, r.addr, r.region), idx);
                    }
                }
                FlightKind::NvmCommit => {
                    if let Some(idx) = await_drain.pop((r.mc, r.addr, r.region)) {
                        let s = &mut report.stores[idx];
                        s.commit_cycle = Some(r.cycle);
                        s.fate = StoreFate::Committed;
                    }
                }
                FlightKind::RegionOpen => {
                    open_regions.insert(r.region, report.regions.len());
                    report.regions.push(RegionSpan {
                        region: r.region,
                        core: r.core,
                        open_cycle: r.cycle,
                        close_cycle: None,
                    });
                }
                FlightKind::RegionClose => {
                    if let Some(&i) = open_regions.get(&r.region) {
                        report.regions[i].close_cycle = Some(r.cycle);
                    }
                }
                FlightKind::SyncCommit => {
                    sync_floor.insert((r.core, r.region), report.stores.len());
                }
                FlightKind::LineEvict => report.line_evicts += 1,
                FlightKind::PowerFail => report.power_fail_cycle = Some(r.cycle),
                FlightKind::Pad | FlightKind::Header | FlightKind::Checkpoint => {}
            }
        }
        // Second pass, with the frontier in hand: distinguish in-path from
        // in-PB (the per-core unacked journal stores line up 1:1, in order,
        // with the persist-buffer entries), demote speculative accepts of
        // unretired regions to `Reverted`, and mark the replayed set.
        let mut pb_cursor: Vec<usize> = vec![0; frontier.cores.len()];
        for i in 0..report.stores.len() {
            let (core, region, logged, acked) = {
                let s = &report.stores[i];
                (s.core as usize, s.region, s.logged, s.wpq_cycle.is_some())
            };
            let cf = match frontier.cores.get(core) {
                Some(cf) => cf,
                None => continue,
            };
            let rr = cf.resume_region;
            if !acked {
                let sent = cf
                    .pb
                    .get(pb_cursor[core])
                    .map(|&(_, _, sent)| sent)
                    .unwrap_or(false);
                pb_cursor[core] += 1;
                report.stores[i].fate = if sent {
                    StoreFate::InPath
                } else {
                    StoreFate::InPb
                };
            } else if logged && rr.is_some_and(|rr| region != REGION_NONE && region > rr) {
                // Accepted while speculative and its region never became
                // non-speculative: the undo log rolled it back.
                report.stores[i].fate = StoreFate::Reverted;
            }
            report.stores[i].replayed = match rr {
                Some(rr) if region != REGION_NONE && region >= rr => {
                    // Inside the resume region, a committed sync advances
                    // the resume point past everything issued before it.
                    region > rr
                        || sync_floor
                            .get(&(core as u8, region))
                            .is_none_or(|&f| i >= f)
                }
                _ => false,
            };
        }
        report.frontier = frontier;
        report
    }

    /// Attach a function-index → name table for rendering.
    pub fn set_func_names(&mut self, names: Vec<String>) {
        self.func_names = names;
    }

    /// Render a function attribution.
    pub fn func_name(&self, f: Option<u32>) -> String {
        match f {
            Some(i) => match self.func_names.get(i as usize) {
                Some(n) => n.clone(),
                None => format!("fn#{i}"),
            },
            None => "?".to_string(),
        }
    }

    /// Headline counts across every frontier set.
    pub fn counts(&self) -> FrontierCounts {
        let mut c = FrontierCounts::default();
        for s in &self.stores {
            match s.fate {
                StoreFate::Committed => c.committed += 1,
                StoreFate::InWpq => c.in_wpq += 1,
                StoreFate::InPath => c.in_path += 1,
                StoreFate::InPb => c.in_pb += 1,
                StoreFate::Reverted => c.reverted += 1,
            }
        }
        for cf in &self.frontier.cores {
            c.pending += cf.pending.len() as u64;
            c.sync_pending += cf.sync_pending.len() as u64;
            c.wb_lines += cf.wb_lines.len() as u64;
            c.dirty_l1 += cf.dirty_l1.len() as u64;
        }
        c
    }

    /// Every lost store grouped by (function, region, cause), descending by
    /// count — the attribution table.
    pub fn lost_by_site(&self) -> Vec<(LostSite, u64)> {
        let mut sites: Vec<(LostSite, u64)> = Vec::new();
        for s in self.stores.iter().filter(|s| s.fate.is_lost()) {
            let key = (s.func, s.region, s.fate.as_str());
            match sites.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => sites.push((key, 1)),
            }
        }
        sites.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .1.cmp(&b.0 .1)));
        sites
    }

    /// The predicted replay sequence for `core`: resuming from the resume
    /// region, recovery must re-execute every unretired journal store in
    /// issue order, then the pending tail, then the uncommitted sync
    /// writes.
    pub fn predicted_replay(&self, core: usize) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .stores
            .iter()
            .filter(|s| s.core as usize == core && s.replayed)
            .map(|s| s.addr)
            .collect();
        if let Some(cf) = self.frontier.cores.get(core) {
            out.extend_from_slice(&cf.pending);
            out.extend_from_slice(&cf.sync_pending);
        }
        out
    }

    /// Cross-check the frontier against what recovery actually replayed:
    /// `observed` is the ordered (addr, value) write log of the recovery
    /// replay; its prefix must equal the predicted sequence exactly.
    /// The result is recorded on the report and returned.
    pub fn cross_check_core(&mut self, core: usize, observed: &[(u64, u64)]) -> &CrossCheck {
        let expected = self.predicted_replay(core);
        let compared = expected.len().min(observed.len());
        let mut first_divergence = None;
        for i in 0..compared {
            if observed[i].0 != expected[i] {
                first_divergence = Some(i);
                break;
            }
        }
        if first_divergence.is_none() && observed.len() < expected.len() {
            first_divergence = Some(observed.len());
        }
        let check = CrossCheck {
            core,
            matched: first_divergence.is_none(),
            observed: compared,
            first_divergence,
            expected,
        };
        self.cross_checks.retain(|c| c.core != core);
        self.cross_checks.push(check);
        self.cross_checks.last().unwrap()
    }

    /// Whether every recorded cross-check matched.
    pub fn all_matched(&self) -> bool {
        !self.cross_checks.is_empty() && self.cross_checks.iter().all(|c| c.matched)
    }

    /// Render the report as human-readable text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let c = self.counts();
        let _ = writeln!(out, "crash forensics @ cycle {}", self.crash_cycle);
        let _ = writeln!(
            out,
            "  journal: {} stores, {} regions, {} line evicts{}",
            self.stores.len(),
            self.regions.len(),
            self.line_evicts,
            match self.power_fail_cycle {
                Some(pf) => format!(", power fail @ {pf}"),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "  frontier: committed={} in_wpq={} in_path={} in_pb={} reverted={} pending={} sync={}",
            c.committed, c.in_wpq, c.in_path, c.in_pb, c.reverted, c.pending, c.sync_pending
        );
        let _ = writeln!(
            out,
            "  dirty-in-cache: {} wb lines, {} l1 lines; live undo records: {}",
            c.wb_lines, c.dirty_l1, self.frontier.live_log_records
        );
        for (i, cf) in self.frontier.cores.iter().enumerate() {
            let _ = writeln!(
                out,
                "  core {i}: resume region {} ({}), replay {} stores",
                cf.resume_region
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "-".into()),
                if cf.halted { "halted" } else { "running" },
                self.predicted_replay(i).len()
            );
        }
        let lost = self.lost_by_site();
        if !lost.is_empty() {
            let _ = writeln!(out, "  lost stores by (function, region, cause):");
            for ((f, region, cause), n) in lost.iter().take(16) {
                let _ = writeln!(
                    out,
                    "    {:<24} region {:<8} {:<10} {n}",
                    self.func_name(*f),
                    region,
                    cause
                );
            }
            if lost.len() > 16 {
                let _ = writeln!(out, "    ... {} more sites", lost.len() - 16);
            }
        }
        for ck in &self.cross_checks {
            let _ = writeln!(
                out,
                "  replay cross-check core {}: predicted {} writes, {}",
                ck.core,
                ck.expected.len(),
                if ck.matched {
                    "MATCH".to_string()
                } else {
                    format!("DIVERGED at {:?}", ck.first_divergence)
                }
            );
        }
        out
    }

    /// Render the report as a JSON object (hand-rolled; the workspace
    /// builds offline with no serde).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let c = self.counts();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"cwsp-forensics-v1\",");
        let _ = writeln!(out, "  \"crash_cycle\": {},", self.crash_cycle);
        match self.power_fail_cycle {
            Some(pf) => {
                let _ = writeln!(out, "  \"power_fail_cycle\": {pf},");
            }
            None => {
                let _ = writeln!(out, "  \"power_fail_cycle\": null,");
            }
        }
        let _ = writeln!(out, "  \"journal_stores\": {},", self.stores.len());
        let _ = writeln!(out, "  \"regions\": {},", self.regions.len());
        let _ = writeln!(out, "  \"line_evicts\": {},", self.line_evicts);
        let _ = writeln!(
            out,
            "  \"counts\": {{\"committed\": {}, \"in_wpq\": {}, \"in_path\": {}, \"in_pb\": {}, \
             \"reverted\": {}, \"pending\": {}, \"sync_pending\": {}, \"wb_lines\": {}, \
             \"dirty_l1\": {}, \"lost\": {}}},",
            c.committed,
            c.in_wpq,
            c.in_path,
            c.in_pb,
            c.reverted,
            c.pending,
            c.sync_pending,
            c.wb_lines,
            c.dirty_l1,
            c.lost()
        );
        out.push_str("  \"lost\": [");
        for (i, ((f, region, cause), n)) in self.lost_by_site().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"function\": ");
            crate::json_escape(&mut out, &self.func_name(*f));
            let _ = write!(
                out,
                ", \"region\": {region}, \"cause\": \"{cause}\", \"stores\": {n}}}"
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"cores\": [");
        for (i, cf) in self.frontier.cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"core\": {i}, \"resume_region\": {}, \"halted\": {}, \"pb\": {}, \
                 \"pending\": {}, \"sync_pending\": {}, \"wb_lines\": {}, \"dirty_l1\": {}, \
                 \"predicted_replay\": {}}}",
                cf.resume_region
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "null".into()),
                cf.halted,
                cf.pb.len(),
                cf.pending.len(),
                cf.sync_pending.len(),
                cf.wb_lines.len(),
                cf.dirty_l1.len(),
                self.predicted_replay(i).len()
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"cross_checks\": [");
        for (i, ck) in self.cross_checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"core\": {}, \"expected\": {}, \"observed\": {}, \"matched\": {}, \
                 \"first_divergence\": {}}}",
                ck.core,
                ck.expected.len(),
                ck.observed,
                ck.matched,
                ck.first_divergence
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "null".into())
            );
        }
        out.push_str("\n  ],\n");
        let _ = writeln!(
            out,
            "  \"live_log_records\": {}",
            self.frontier.live_log_records
        );
        out.push_str("}\n");
        out
    }

    /// Render the recovery timeline as a Chrome/Perfetto trace: per-core
    /// flight tracks with region spans and persist spans (issue → WPQ
    /// accept), lost-store instants, and the power-fail marker. Track ids
    /// start at [`FLIGHT_TID_BASE`], clear of the simulator trace (cores
    /// from 0, MCs at 1000) and sink tracks (2000+).
    pub fn to_chrome(&self) -> crate::ChromeTrace {
        use crate::chrome::Arg;
        let mut t = crate::ChromeTrace::new();
        t.process_name("cwsp-forensics");
        let horizon = self
            .power_fail_cycle
            .unwrap_or(self.crash_cycle)
            .max(self.crash_cycle);
        for (i, _) in self.frontier.cores.iter().enumerate() {
            t.thread_name(FLIGHT_TID_BASE + i as u64, &format!("flight core {i}"));
        }
        for span in &self.regions {
            let tid = FLIGHT_TID_BASE + span.core as u64;
            let end = span.close_cycle.unwrap_or(horizon);
            t.complete(
                tid,
                "region",
                &format!("region {}", span.region),
                span.open_cycle,
                end.saturating_sub(span.open_cycle),
                vec![("open".into(), Arg::Bool(span.close_cycle.is_none()))],
            );
        }
        // Persist spans are the journal's bread and butter but can number
        // in the millions; cap the export and say so.
        const SPAN_CAP: usize = 20_000;
        for s in self.stores.iter().take(SPAN_CAP) {
            let tid = FLIGHT_TID_BASE + s.core as u64;
            match s.wpq_cycle {
                Some(wpq) => t.complete(
                    tid,
                    "persist",
                    s.fate.as_str(),
                    s.issue_cycle,
                    wpq.saturating_sub(s.issue_cycle),
                    vec![
                        ("addr".into(), Arg::Int(s.addr)),
                        ("region".into(), Arg::Int(s.region)),
                    ],
                ),
                None => t.instant(
                    tid,
                    "lost",
                    s.fate.as_str(),
                    s.issue_cycle,
                    vec![
                        ("addr".into(), Arg::Int(s.addr)),
                        ("region".into(), Arg::Int(s.region)),
                        ("function".into(), Arg::Str(self.func_name(s.func))),
                    ],
                ),
            }
        }
        if self.stores.len() > SPAN_CAP {
            t.instant(
                FLIGHT_TID_BASE,
                "flight",
                "span cap reached",
                horizon,
                vec![(
                    "omitted".into(),
                    Arg::Int((self.stores.len() - SPAN_CAP) as u64),
                )],
            );
        }
        t.instant(
            FLIGHT_TID_BASE,
            "flight",
            "power failure",
            self.power_fail_cycle.unwrap_or(self.crash_cycle),
            vec![("lost_stores".into(), Arg::Int(self.counts().lost()))],
        );
        t
    }
}

/// First Chrome track id used by forensic flight tracks.
pub const FLIGHT_TID_BASE: u64 = 3000;

#[cfg(test)]
mod tests {
    use super::*;

    fn store(core: u8, cycle: u64, addr: u64, region: u64) -> FlightRecord {
        FlightRecord {
            kind: FlightKind::StoreIssue,
            core,
            mc: 0,
            logged: false,
            func: Some(1),
            cycle,
            addr,
            region,
        }
    }

    fn wpq(core: u8, mc: u8, cycle: u64, addr: u64, region: u64, logged: bool) -> FlightRecord {
        FlightRecord {
            kind: FlightKind::WpqEnqueue,
            core,
            mc,
            logged,
            func: None,
            cycle,
            addr,
            region,
        }
    }

    fn commit(mc: u8, cycle: u64, addr: u64, region: u64) -> FlightRecord {
        FlightRecord {
            kind: FlightKind::NvmCommit,
            core: 0,
            mc,
            logged: false,
            func: None,
            cycle,
            addr,
            region,
        }
    }

    fn frontier_one_core(resume: u64, pb: Vec<(u64, u64, bool)>) -> MachineFrontier {
        MachineFrontier {
            crash_cycle: 1000,
            cores: vec![CoreFrontier {
                resume_region: Some(resume),
                pb,
                ..CoreFrontier::default()
            }],
            wpq: vec![Vec::new()],
            live_log_records: 0,
        }
    }

    #[test]
    fn lineage_matching_classifies_fates() {
        // Store A: committed. B: in WPQ. C: sent (in path). D: still in PB.
        // E: speculative accept in an unretired region — reverted.
        let records = vec![
            store(0, 10, 0x100, 5),
            store(0, 11, 0x108, 5),
            store(0, 12, 0x110, 6),
            store(0, 13, 0x118, 6),
            store(0, 14, 0x120, 7),
            wpq(0, 0, 20, 0x100, 5, false),
            wpq(0, 0, 21, 0x108, 5, false),
            wpq(0, 1, 25, 0x120, 7, true),
            commit(0, 30, 0x100, 5),
        ];
        let f = frontier_one_core(6, vec![(0x110, 6, true), (0x118, 6, false)]);
        let rep = ForensicReport::reconstruct(&records, f);
        let fates: Vec<StoreFate> = rep.stores.iter().map(|s| s.fate).collect();
        assert_eq!(
            fates,
            vec![
                StoreFate::Committed,
                StoreFate::InWpq,
                StoreFate::InPath,
                StoreFate::InPb,
                StoreFate::Reverted,
            ]
        );
        let c = rep.counts();
        assert_eq!(
            (c.committed, c.in_wpq, c.in_path, c.in_pb, c.reverted),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(c.lost(), 3);
        // Replay: resume region 6 ⇒ regions 5 retired, 6 and 7 replayed.
        assert_eq!(rep.predicted_replay(0), vec![0x110, 0x118, 0x120]);
    }

    #[test]
    fn fifo_matching_lands_each_fate_on_the_right_store() {
        // One (core, addr, region) issued three times; the first and third
        // are accepted on MC 0, the second on MC 1; MC 0 drains once and
        // MC 1 once. Per-key FIFO pins each accept and drain to one store.
        let records = vec![
            store(0, 10, 0x40, 9),
            store(0, 11, 0x40, 9),
            store(0, 12, 0x40, 9),
            wpq(0, 0, 20, 0x40, 9, false),
            wpq(0, 1, 21, 0x40, 9, false),
            wpq(0, 0, 22, 0x40, 9, false),
            // No store of core 1 awaits an accept: ignored.
            wpq(1, 0, 23, 0x40, 9, false),
            commit(0, 30, 0x40, 9),
            commit(1, 31, 0x40, 9),
            // MC 1's queue for the key is empty, MC 2 never accepted it,
            // and nothing was accepted at 0x48: all ignored.
            commit(1, 32, 0x40, 9),
            commit(2, 33, 0x40, 9),
            commit(0, 34, 0x48, 9),
        ];
        let rep = ForensicReport::reconstruct(&records, frontier_one_core(9, Vec::new()));
        let lineage: Vec<_> = rep
            .stores
            .iter()
            .map(|s| (s.fate, s.mc, s.wpq_cycle, s.commit_cycle))
            .collect();
        assert_eq!(
            lineage,
            vec![
                (StoreFate::Committed, 0, Some(20), Some(30)),
                (StoreFate::Committed, 1, Some(21), Some(31)),
                (StoreFate::InWpq, 0, Some(22), None),
            ]
        );
    }

    #[test]
    fn committed_sync_advances_the_replay_floor() {
        let mut sync = FlightRecord::new(FlightKind::SyncCommit, 15);
        sync.core = 0;
        sync.region = 4;
        let records = vec![
            store(0, 10, 0x200, 4),
            wpq(0, 0, 12, 0x200, 4, false),
            sync,
            store(0, 20, 0x208, 4),
        ];
        let f = frontier_one_core(4, vec![(0x208, 4, false)]);
        let rep = ForensicReport::reconstruct(&records, f);
        // The store before the committed sync is durable and NOT replayed;
        // the store after it is.
        assert!(!rep.stores[0].replayed);
        assert!(rep.stores[1].replayed);
        assert_eq!(rep.predicted_replay(0), vec![0x208]);
    }

    #[test]
    fn cross_check_detects_divergence_and_match() {
        let records = vec![store(0, 1, 0x10, 2), store(0, 2, 0x18, 2)];
        let f = frontier_one_core(2, vec![(0x10, 2, false), (0x18, 2, false)]);
        let mut rep = ForensicReport::reconstruct(&records, f);
        assert!(
            rep.cross_check_core(0, &[(0x10, 1), (0x18, 2), (0x99, 3)])
                .matched
        );
        assert!(rep.all_matched());
        let ck = rep.cross_check_core(0, &[(0x10, 1), (0x20, 2)]);
        assert!(!ck.matched);
        assert_eq!(ck.first_divergence, Some(1));
        assert!(!rep.all_matched());
        // Observed running short of the prediction is also a divergence.
        let ck = rep.cross_check_core(0, &[(0x10, 1)]);
        assert_eq!(ck.first_divergence, Some(1));
    }

    #[test]
    fn renders_text_json_and_chrome() {
        let records = vec![
            {
                let mut r = FlightRecord::new(FlightKind::RegionOpen, 5);
                r.region = 3;
                r
            },
            store(0, 10, 0x300, 3),
            FlightRecord::new(FlightKind::PowerFail, 999),
        ];
        let mut f = frontier_one_core(3, vec![(0x300, 3, false)]);
        f.cores[0].pending = vec![0x308];
        let mut rep = ForensicReport::reconstruct(&records, f);
        rep.set_func_names(vec!["main".into(), "worker".into()]);
        rep.cross_check_core(0, &[(0x300, 0), (0x308, 0)]);
        let text = rep.to_text();
        assert!(text.contains("crash forensics @ cycle 1000"));
        assert!(text.contains("worker"), "func attribution rendered: {text}");
        assert!(text.contains("MATCH"));
        let json = rep.to_json();
        assert!(json.contains("\"schema\": \"cwsp-forensics-v1\""));
        assert!(json.contains("\"power_fail_cycle\": 999"));
        assert!(json.contains("\"matched\": true"));
        let chrome = rep.to_chrome();
        assert!(chrome.tracks().contains(&FLIGHT_TID_BASE));
        let cj = chrome.to_json();
        assert!(cj.contains("power failure"));
        assert!(cj.contains("region 3"));
    }
}
