//! The flight recorder: a crash-survivable binary journal of persist-path
//! events.
//!
//! Every event on a store's road to durability — issue into the persist
//! buffer, dirty-line eviction, WPQ enqueue, NVM media commit, region
//! open/close, checkpoint, sync commit — is appended as a fixed 32-byte
//! record with a cycle timestamp and (function, region, core) attribution.
//! Records buffer in one 4 KiB page and flush through `cwsp_store::spill`,
//! so an injected crash (or a `SIGKILL` mid-run, with `CWSP_FLIGHT_DIR`
//! set) leaves every flushed page readable by the forensics layer.
//!
//! Gating follows the `NullSink` discipline: the recorder lives behind an
//! `Option` in the machine, so recorder-off paths cost exactly one branch
//! per hook site (enforced by the stats-invariance tests in
//! `tests/flight_forensics.rs`).
//!
//! Record encoding (4 little-endian u64 words):
//!
//! ```text
//! w0: kind[0..8] | core[8..16] | mc[16..24] | logged[24] | (func+1)[32..64]
//! w1: cycle        w2: addr        w3: dynamic region id (MAX = none)
//! ```
//!
//! A journal starts with a `Header` record (`w1` = magic `"CWSPFLT1"`,
//! `w2` = format version); partial tail pages are padded with `Pad`
//! records (all-zero words), which readers skip.

use cwsp_store::spill::{SpillStore, PAGE_BYTES, PAGE_WORDS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Journal magic: ASCII `"CWSPFLT1"` as a big-endian word.
pub const FLIGHT_MAGIC: u64 = 0x4357_5350_464C_5431;
/// Journal format version.
pub const FLIGHT_VERSION: u64 = 1;
/// Words per record.
pub const RECORD_WORDS: usize = 4;
/// Bytes per record.
pub const RECORD_BYTES: usize = RECORD_WORDS * 8;
/// Records per flushed page.
pub const RECORDS_PER_PAGE: usize = PAGE_WORDS / RECORD_WORDS;
/// Default journal budget: 64 Ki pages = 256 MiB ≈ 8.4 M records. Past the
/// budget, records are counted as dropped instead of appended — a flight
/// recorder must never fill the disk of a long-running fleet.
pub const DEFAULT_CAP_PAGES: usize = 1 << 16;

/// Region field value meaning "no region attribution".
pub const REGION_NONE: u64 = u64::MAX;

/// What happened, on a store's road to durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// Zero padding in a partially filled tail page (skipped by readers).
    Pad = 0,
    /// First record of every journal; carries magic + version.
    Header = 1,
    /// A store entered the per-core persist buffer.
    StoreIssue = 2,
    /// A dirty cacheline was evicted into the write buffer.
    LineEvict = 3,
    /// A store was accepted into a memory controller's WPQ (the ADR
    /// domain: persistent from this point on).
    WpqEnqueue = 4,
    /// A WPQ slot drained to NVM media.
    NvmCommit = 5,
    /// A persist region opened.
    RegionOpen = 6,
    /// A persist region retired.
    RegionClose = 7,
    /// A checkpoint store was executed.
    Checkpoint = 8,
    /// An atomic/fence committed after draining (resume point advanced
    /// past it, so recovery will not replay it).
    SyncCommit = 9,
    /// The simulated power failure.
    PowerFail = 10,
}

impl FlightKind {
    /// Decode a kind byte; unknown values read as `None` so newer journals
    /// degrade gracefully under older readers.
    pub fn from_u8(b: u8) -> Option<FlightKind> {
        Some(match b {
            0 => FlightKind::Pad,
            1 => FlightKind::Header,
            2 => FlightKind::StoreIssue,
            3 => FlightKind::LineEvict,
            4 => FlightKind::WpqEnqueue,
            5 => FlightKind::NvmCommit,
            6 => FlightKind::RegionOpen,
            7 => FlightKind::RegionClose,
            8 => FlightKind::Checkpoint,
            9 => FlightKind::SyncCommit,
            10 => FlightKind::PowerFail,
            _ => return None,
        })
    }

    /// Short stable name for text/JSON rendering.
    pub fn as_str(&self) -> &'static str {
        match self {
            FlightKind::Pad => "pad",
            FlightKind::Header => "header",
            FlightKind::StoreIssue => "store_issue",
            FlightKind::LineEvict => "line_evict",
            FlightKind::WpqEnqueue => "wpq_enqueue",
            FlightKind::NvmCommit => "nvm_commit",
            FlightKind::RegionOpen => "region_open",
            FlightKind::RegionClose => "region_close",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::SyncCommit => "sync_commit",
            FlightKind::PowerFail => "power_fail",
        }
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Event kind.
    pub kind: FlightKind,
    /// Issuing core (0 for machine-wide events).
    pub core: u8,
    /// Memory controller (WPQ/commit events; 0 otherwise).
    pub mc: u8,
    /// Whether the store was undo-logged at WPQ accept (speculative).
    pub logged: bool,
    /// Static function index attribution, when known.
    pub func: Option<u32>,
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Store/line address (event-dependent).
    pub addr: u64,
    /// Dynamic region id, or [`REGION_NONE`].
    pub region: u64,
}

impl FlightRecord {
    /// A record with everything defaulted except the kind and cycle.
    pub fn new(kind: FlightKind, cycle: u64) -> FlightRecord {
        FlightRecord {
            kind,
            core: 0,
            mc: 0,
            logged: false,
            func: None,
            cycle,
            addr: 0,
            region: REGION_NONE,
        }
    }

    fn encode(&self) -> [u64; RECORD_WORDS] {
        let mut w0 = self.kind as u64;
        w0 |= (self.core as u64) << 8;
        w0 |= (self.mc as u64) << 16;
        if self.logged {
            w0 |= 1 << 24;
        }
        if let Some(f) = self.func {
            w0 |= ((f as u64) + 1) << 32;
        }
        [w0, self.cycle, self.addr, self.region]
    }

    fn decode(w: [u64; RECORD_WORDS]) -> Option<FlightRecord> {
        let kind = FlightKind::from_u8((w[0] & 0xFF) as u8)?;
        let func_plus1 = (w[0] >> 32) as u32;
        Some(FlightRecord {
            kind,
            core: ((w[0] >> 8) & 0xFF) as u8,
            mc: ((w[0] >> 16) & 0xFF) as u8,
            logged: (w[0] >> 24) & 1 == 1,
            func: func_plus1.checked_sub(1),
            cycle: w[1],
            addr: w[2],
            region: w[3],
        })
    }
}

// Process-wide flight telemetry, mirroring `cwsp_store::tier`: recorders
// report here so the harness can publish `flight.*` fields without holding
// a recorder handle.
static JOURNALS: AtomicU64 = AtomicU64::new(0);
static RECORDS: AtomicU64 = AtomicU64::new(0);
static PAGES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Immutable snapshot of process-wide flight telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Whether `CWSP_FLIGHT` enables the recorder for new machines.
    pub enabled: bool,
    /// Journals opened.
    pub journals: u64,
    /// Records appended (excluding header/padding).
    pub records: u64,
    /// Pages flushed through the spill store.
    pub pages: u64,
    /// Bytes flushed.
    pub bytes: u64,
    /// Records dropped after the page budget was exhausted.
    pub dropped: u64,
}

/// Snapshot the process-wide flight telemetry.
pub fn snapshot() -> FlightSnapshot {
    FlightSnapshot {
        enabled: enabled_by_env(),
        journals: JOURNALS.load(Ordering::Relaxed),
        records: RECORDS.load(Ordering::Relaxed),
        pages: PAGES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
    }
}

/// Publish the flight telemetry into a metrics registry under `flight.*`.
pub fn publish(reg: &mut crate::Registry) {
    let s = snapshot();
    reg.set_gauge("flight.enabled", if s.enabled { 1.0 } else { 0.0 });
    reg.add_counter("flight.journals", s.journals);
    reg.add_counter("flight.records", s.records);
    reg.add_counter("flight.pages", s.pages);
    reg.add_counter("flight.bytes", s.bytes);
    reg.add_counter("flight.dropped", s.dropped);
}

/// Whether `CWSP_FLIGHT` asks for the recorder (`1`/`on`/`true`/`yes`).
pub fn enabled_by_env() -> bool {
    matches!(
        std::env::var("CWSP_FLIGHT").as_deref(),
        Ok("1") | Ok("on") | Ok("true") | Ok("yes")
    )
}

/// The journal directory requested by `CWSP_FLIGHT_DIR`, if any. When set,
/// journals are named files that survive the process being killed; when
/// unset, they ride the unlinked spill-file discipline (readable in-process
/// after a simulated crash, gone at process exit).
pub fn journal_dir() -> Option<PathBuf> {
    match std::env::var("CWSP_FLIGHT_DIR") {
        Ok(d) if !d.is_empty() => Some(PathBuf::from(d)),
        _ => None,
    }
}

/// The flight recorder: buffers records in one page and flushes full pages
/// through the spill store.
pub struct FlightRecorder {
    store: Arc<SpillStore>,
    path: Option<PathBuf>,
    page: Box<[u64; PAGE_WORDS]>,
    /// Next free word index in `page`.
    fill: usize,
    /// Flushed page offsets, in append order.
    flushed: Vec<u64>,
    records: u64,
    dropped: u64,
    cap_pages: usize,
}

impl FlightRecorder {
    /// Open a recorder honoring `CWSP_FLIGHT_DIR` for the backing file.
    ///
    /// # Errors
    /// Propagates journal-file creation failures.
    pub fn create() -> std::io::Result<FlightRecorder> {
        FlightRecorder::build(journal_dir().as_deref())
    }

    /// Open a recorder with a named journal file under `dir` (survives the
    /// process being killed), regardless of the environment.
    ///
    /// # Errors
    /// Propagates journal-file creation failures.
    pub fn create_in(dir: &Path) -> std::io::Result<FlightRecorder> {
        FlightRecorder::build(Some(dir))
    }

    fn build(dir: Option<&Path>) -> std::io::Result<FlightRecorder> {
        let (store, path) = match dir {
            Some(dir) => {
                let (s, p) = SpillStore::create_named(dir, "cwsp-flight")?;
                (s, Some(p))
            }
            None => (SpillStore::create()?, None),
        };
        let mut rec = FlightRecorder {
            store,
            path,
            page: Box::new([0u64; PAGE_WORDS]),
            fill: 0,
            flushed: Vec::new(),
            records: 0,
            dropped: 0,
            cap_pages: DEFAULT_CAP_PAGES,
        };
        JOURNALS.fetch_add(1, Ordering::Relaxed);
        let mut hdr = FlightRecord::new(FlightKind::Header, 0);
        hdr.addr = FLIGHT_VERSION;
        hdr.region = 0;
        let mut w = hdr.encode();
        w[1] = FLIGHT_MAGIC;
        rec.push_words(w);
        Ok(rec)
    }

    /// A recorder only if `CWSP_FLIGHT` asks for one (and the journal file
    /// could be created) — the zero-cost-off gate.
    pub fn from_env() -> Option<FlightRecorder> {
        if enabled_by_env() {
            FlightRecorder::create().ok()
        } else {
            None
        }
    }

    /// Shrink the page budget (tests exercise the drop path cheaply).
    pub fn set_cap_pages(&mut self, cap: usize) {
        self.cap_pages = cap.max(1);
    }

    /// The journal file path, when `CWSP_FLIGHT_DIR` pinned one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Records appended so far (excluding header and padding).
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether no event records have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Records dropped after the page budget filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Pages flushed to the spill store so far.
    pub fn pages_flushed(&self) -> u64 {
        self.flushed.len() as u64
    }

    fn push_words(&mut self, w: [u64; RECORD_WORDS]) {
        self.page[self.fill..self.fill + RECORD_WORDS].copy_from_slice(&w);
        self.fill += RECORD_WORDS;
        if self.fill == PAGE_WORDS {
            self.flush_page();
        }
    }

    fn flush_page(&mut self) {
        let off = self.store.append_page(&self.page);
        self.flushed.push(off);
        self.page.fill(0);
        self.fill = 0;
        PAGES.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(PAGE_BYTES as u64, Ordering::Relaxed);
    }

    /// Append one event record. Past the page budget the record is counted
    /// as dropped instead (monotonic `dropped()`), so a runaway workload
    /// degrades to lost telemetry, not unbounded disk.
    pub fn record(&mut self, rec: FlightRecord) {
        if self.flushed.len() >= self.cap_pages {
            self.dropped += 1;
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.records += 1;
        RECORDS.fetch_add(1, Ordering::Relaxed);
        self.push_words(rec.encode());
    }

    /// Flush the partially filled tail page (zero-padded). Called at power
    /// failure and at normal run end; safe to call repeatedly.
    pub fn seal(&mut self) {
        if self.fill > 0 {
            self.flush_page();
        }
    }

    /// Decode every record written so far, reading flushed pages back
    /// through the spill store (the same bytes a post-crash reader sees)
    /// plus the not-yet-flushed tail.
    pub fn records(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.records as usize);
        let mut page = [0u64; PAGE_WORDS];
        for &off in &self.flushed {
            self.store.read_page(off, &mut page);
            decode_page(&page, PAGE_WORDS, &mut out);
        }
        decode_page(&self.page, self.fill, &mut out);
        out
    }
}

fn decode_page(page: &[u64; PAGE_WORDS], fill: usize, out: &mut Vec<FlightRecord>) {
    for chunk in page[..fill].chunks_exact(RECORD_WORDS) {
        let w = [chunk[0], chunk[1], chunk[2], chunk[3]];
        match FlightRecord::decode(w) {
            Some(r) if r.kind == FlightKind::Pad || r.kind == FlightKind::Header => {}
            Some(r) => out.push(r),
            None => {}
        }
    }
}

/// Read a journal file left on disk (e.g. by a killed process) in one read
/// and decode it record by record. Validates the header magic, tolerates a
/// torn tail (bytes past the last complete 32-byte record are ignored), and
/// skips padding.
///
/// # Errors
/// I/O failures, or `InvalidData` if the file is shorter than one record
/// or the header magic does not match.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<FlightRecord>> {
    let invalid = |msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let bytes = std::fs::read(path)?;
    let mut words = bytes.chunks_exact(RECORD_BYTES).map(|rec| {
        let mut w = [0u64; RECORD_WORDS];
        for (w, b) in w.iter_mut().zip(rec.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
        w
    });
    let header = words
        .next()
        .ok_or_else(|| invalid("journal shorter than one record"))?;
    if header[1] != FLIGHT_MAGIC
        || FlightKind::from_u8((header[0] & 0xFF) as u8) != Some(FlightKind::Header)
    {
        return Err(invalid("bad flight journal magic"));
    }
    Ok(words
        .filter_map(FlightRecord::decode)
        .filter(|r| r.kind != FlightKind::Pad)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: FlightKind, core: u8, cycle: u64, addr: u64, region: u64) -> FlightRecord {
        FlightRecord {
            kind,
            core,
            mc: 0,
            logged: false,
            func: Some(3),
            cycle,
            addr,
            region,
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        let r = FlightRecord {
            kind: FlightKind::WpqEnqueue,
            core: 5,
            mc: 2,
            logged: true,
            func: Some(0),
            cycle: 123_456,
            addr: 0xDEAD_BEE8,
            region: 42,
        };
        assert_eq!(FlightRecord::decode(r.encode()), Some(r));
        let none = FlightRecord::new(FlightKind::PowerFail, 9);
        assert_eq!(FlightRecord::decode(none.encode()), Some(none));
    }

    #[test]
    fn journal_round_trips_through_spill_pages() {
        let mut fr = FlightRecorder::create().unwrap();
        // Cross several page boundaries (127 event records fit in the first
        // page after the header).
        let n = 3 * RECORDS_PER_PAGE + 17;
        for i in 0..n {
            fr.record(rec(FlightKind::StoreIssue, 1, i as u64, 8 * i as u64, 7));
        }
        assert!(fr.pages_flushed() >= 3);
        let back = fr.records();
        assert_eq!(back.len(), n);
        for (i, r) in back.iter().enumerate() {
            assert_eq!(r.cycle, i as u64);
            assert_eq!(r.addr, 8 * i as u64);
            assert_eq!(r.func, Some(3));
        }
        // Sealing pads the tail; decode is unchanged.
        fr.seal();
        assert_eq!(fr.records().len(), n);
    }

    #[test]
    fn page_budget_drops_instead_of_growing() {
        let mut fr = FlightRecorder::create().unwrap();
        fr.set_cap_pages(1);
        for i in 0..3 * RECORDS_PER_PAGE {
            fr.record(rec(FlightKind::LineEvict, 0, i as u64, 0, REGION_NONE));
        }
        assert_eq!(fr.pages_flushed(), 1);
        assert!(fr.dropped() > 0);
        assert_eq!(fr.len() + fr.dropped(), 3 * RECORDS_PER_PAGE as u64);
    }

    #[test]
    fn named_journal_is_readable_after_drop() {
        let dir = std::env::temp_dir().join(format!("cwsp-flight-test-{}", std::process::id()));
        let mut fr = FlightRecorder::create_in(&dir).unwrap();
        let path = fr.path().expect("named journal").to_path_buf();
        for i in 0..RECORDS_PER_PAGE + 5 {
            fr.record(rec(FlightKind::NvmCommit, 2, i as u64, 64 * i as u64, 1));
        }
        fr.seal();
        drop(fr);
        let back = read_journal(&path).unwrap();
        assert_eq!(back.len(), RECORDS_PER_PAGE + 5);
        assert_eq!(back[5].addr, 64 * 5);
        assert_eq!(back[5].kind, FlightKind::NvmCommit);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn read_journal_rejects_garbage() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("cwsp-flight-garbage-{}", std::process::id()));
        std::fs::write(&p, vec![0xA5u8; 96]).unwrap();
        assert!(read_journal(&p).is_err());
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let before = snapshot();
        let mut fr = FlightRecorder::create().unwrap();
        for i in 0..RECORDS_PER_PAGE + 1 {
            fr.record(rec(FlightKind::StoreIssue, 0, i as u64, 0, 0));
        }
        let after = snapshot();
        assert!(after.journals > before.journals);
        assert!(after.records >= before.records + RECORDS_PER_PAGE as u64);
        assert!(after.pages > before.pages);
        let mut reg = crate::Registry::new();
        publish(&mut reg);
        assert!(reg.counter_value("flight.records") >= after.records);
    }
}
