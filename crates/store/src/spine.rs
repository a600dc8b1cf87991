//! LSM-style result spine: immutable sorted batches + a merging spine.
//!
//! Experiment results commit as **immutable sorted batch files**; a
//! **manifest** describes the live set, and merging compacts a level into
//! the next once it collects [`COMPACT_FANIN`] batches. Every version of
//! every key is retained through compaction, so the spine is a *time-travel*
//! store: a cursor can replay the state as of any committed batch sequence
//! number — the perf trajectory of the whole harness, queryable
//! incrementally. It is the engine's only disk backend.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/MANIFEST.json          human/CI-readable description of the live set
//! <dir>/b<seq>-L<level>-<pid>.batch   immutable sorted batch
//! ```
//!
//! Batch files are written whole to a temp name and renamed, so a reader
//! never observes a torn batch. The directory scan — not the manifest — is
//! the source of truth on open: concurrently-running processes append
//! batches under unique names, and compaction writes its merged output
//! *before* unlinking the inputs, so a concurrent scan sees at worst
//! duplicate versions (harmless: lookups take the max sequence).
//!
//! ## Batch format (little-endian)
//!
//! ```text
//! magic "CWSPSPN1" | level u32 | reserved u32 | count u64
//! then per entry: kind u64 | a u64 | b u64 | seq u64 | len u64 | value bytes
//! ```

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CWSPSPN1";
/// Batches per level before that level is merged into the next.
pub const COMPACT_FANIN: usize = 4;

/// A spine key: a kind tag plus a 128-bit fingerprint.
///
/// Kinds keep independent keyspaces from colliding: `0` = simulation result
/// keyed by (module fingerprint, machine fingerprint); `1` = harness figure
/// entry keyed by (name hash, 0); `2` = fleet telemetry snapshot keyed by
/// (source-label hash, 0) — every commit is a new version, so `history()`
/// yields a time-travelable metrics timeline. The fuzz farm owns three
/// more: `3` = per-shard progress keyed by (run fingerprint, shard index) —
/// with shard `u64::MAX` reserved for the run manifest; `4` = corpus entry
/// keyed by (run fingerprint, seed); `5` = coverage-bucket snapshot keyed
/// by (run fingerprint, shard index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Keyspace tag (see type docs).
    pub kind: u64,
    /// First fingerprint word.
    pub a: u64,
    /// Second fingerprint word.
    pub b: u64,
}

impl Key {
    /// A simulation-result key.
    pub fn sim(module_fp: u64, machine_fp: u64) -> Key {
        Key {
            kind: 0,
            a: module_fp,
            b: machine_fp,
        }
    }

    /// A harness figure-entry key.
    pub fn figure(name_hash: u64) -> Key {
        Key {
            kind: 1,
            a: name_hash,
            b: 0,
        }
    }

    /// A fleet telemetry-snapshot key. Snapshots are committed repeatedly
    /// under the same key; the spine's versioning keeps the full history.
    pub fn telemetry(source_hash: u64) -> Key {
        Key {
            kind: 2,
            a: source_hash,
            b: 0,
        }
    }

    /// A fuzz-farm per-shard progress record, committed atomically in the
    /// same batch as the corpus entries it covers — the resume cursor can
    /// therefore never run ahead of the corpus.
    pub fn fuzz_progress(run_fp: u64, shard: u64) -> Key {
        Key {
            kind: 3,
            a: run_fp,
            b: shard,
        }
    }

    /// The fuzz run's manifest (configuration fingerprint + parameters),
    /// written once at run start; `--resume` refuses mismatched configs.
    pub fn fuzz_manifest(run_fp: u64) -> Key {
        Key {
            kind: 3,
            a: run_fp,
            b: u64::MAX,
        }
    }

    /// One fuzz corpus entry, keyed by seed: re-processing a seed after a
    /// crash overwrites the same key, so resume is duplicate-free by
    /// construction.
    pub fn fuzz_corpus(run_fp: u64, seed: u64) -> Key {
        Key {
            kind: 4,
            a: run_fp,
            b: seed,
        }
    }

    /// A per-shard coverage-bucket snapshot (op-mix, CFG-shape,
    /// region-shape counts), committed alongside shard progress.
    pub fn fuzz_coverage(run_fp: u64, shard: u64) -> Key {
        Key {
            kind: 5,
            a: run_fp,
            b: shard,
        }
    }
}

/// One versioned entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    key: Key,
    seq: u64,
    value: Vec<u8>,
}

/// An immutable sorted batch, resident in memory with its backing file.
#[derive(Debug)]
pub struct Batch {
    /// Backing file name (within the spine directory).
    pub file: String,
    /// Compaction level (0 = freshly committed).
    pub level: u32,
    /// Smallest sequence number in the batch.
    pub min_seq: u64,
    /// Largest sequence number in the batch.
    pub max_seq: u64,
    entries: Vec<Entry>, // sorted by (key, seq)
}

impl Batch {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty (never true for committed batches).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The merging spine over a directory of immutable batches.
pub struct Spine {
    dir: PathBuf,
    batches: Vec<Batch>,
    next_seq: u64,
    compactions: u64,
}

impl Spine {
    /// Open (or create) the spine at `dir`. Scans the directory for batch
    /// files; the manifest is written, never read.
    ///
    /// # Errors
    /// Propagates directory-creation failures. Unreadable or torn batch
    /// files are skipped, not fatal.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Spine> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut batches = Vec::new();
        let mut names: Vec<String> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".batch"))
            .collect();
        names.sort(); // deterministic order regardless of readdir order
        for name in names {
            if let Ok(b) = read_batch(&dir.join(&name), &name) {
                batches.push(b);
            }
        }
        let next_seq = batches.iter().map(|b| b.max_seq).max().unwrap_or(0) + 1;
        Ok(Spine {
            dir,
            batches,
            next_seq,
            compactions: 0,
        })
    }

    /// Directory this spine lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the most recent committed batch (0 = empty).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Live batch set (for tests and the manifest).
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Total entry versions across all live batches.
    pub fn entry_count(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Number of level merges performed by this handle.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Commit `items` as one immutable level-0 batch; all entries share the
    /// returned sequence number. Duplicate keys keep the last value. An
    /// empty commit is a no-op returning [`Spine::last_seq`].
    ///
    /// # Errors
    /// Propagates batch-file write failures (the spine is unchanged).
    pub fn commit(&mut self, items: Vec<(Key, Vec<u8>)>) -> io::Result<u64> {
        if items.is_empty() {
            return Ok(self.last_seq());
        }
        let seq = self.next_seq;
        let mut entries: Vec<Entry> = items
            .into_iter()
            .map(|(key, value)| Entry { key, seq, value })
            .collect();
        entries.sort_by_key(|x| x.key);
        entries.dedup_by(|later, earlier| {
            // Vec::dedup keeps the *first* of a run; we want the last value
            // for a duplicated key, so copy it forward before dropping.
            if later.key == earlier.key {
                std::mem::swap(&mut earlier.value, &mut later.value);
                true
            } else {
                false
            }
        });
        let batch = self.write_batch(entries, 0, seq, seq)?;
        self.batches.push(batch);
        self.next_seq = seq + 1;
        self.maybe_compact();
        self.write_manifest();
        Ok(seq)
    }

    /// Latest value for `key`.
    pub fn get(&self, key: Key) -> Option<&[u8]> {
        self.get_as_of(key, u64::MAX)
    }

    /// Value of `key` as of batch `seq` (time travel): the newest version
    /// with sequence ≤ `seq`, or `None` if the key did not exist yet.
    pub fn get_as_of(&self, key: Key, seq: u64) -> Option<&[u8]> {
        let mut best: Option<(u64, &[u8])> = None;
        for b in &self.batches {
            if b.min_seq > seq {
                continue;
            }
            let lo = b.entries.partition_point(|e| e.key < key);
            for e in b.entries[lo..].iter().take_while(|e| e.key == key) {
                if e.seq <= seq && best.map(|(s, _)| e.seq >= s).unwrap_or(true) {
                    best = Some((e.seq, &e.value));
                }
            }
        }
        best.map(|(_, v)| v)
    }

    /// Every retained version of `key`, oldest first: the key's trajectory.
    pub fn history(&self, key: Key) -> Vec<(u64, &[u8])> {
        let mut out: Vec<(u64, &[u8])> = Vec::new();
        for b in &self.batches {
            let lo = b.entries.partition_point(|e| e.key < key);
            for e in b.entries[lo..].iter().take_while(|e| e.key == key) {
                out.push((e.seq, &e.value));
            }
        }
        out.sort_by_key(|(s, _)| *s);
        out
    }

    /// Cursor over all keys (newest version ≤ `as_of` each; `None` = now),
    /// in key order.
    pub fn cursor(&self, as_of: Option<u64>) -> Cursor<'_> {
        self.cursor_range(
            Key {
                kind: 0,
                a: 0,
                b: 0,
            },
            Key {
                kind: u64::MAX,
                a: u64::MAX,
                b: u64::MAX,
            },
            as_of,
        )
    }

    /// Cursor over keys in `lo..=hi` as of `as_of` (`None` = now).
    pub fn cursor_range(&self, lo: Key, hi: Key, as_of: Option<u64>) -> Cursor<'_> {
        let seq = as_of.unwrap_or(u64::MAX);
        let mut newest: BTreeMap<Key, (u64, &[u8])> = BTreeMap::new();
        for b in &self.batches {
            if b.min_seq > seq {
                continue;
            }
            let start = b.entries.partition_point(|e| e.key < lo);
            for e in b.entries[start..].iter().take_while(|e| e.key <= hi) {
                if e.seq > seq {
                    continue;
                }
                match newest.get(&e.key) {
                    Some(&(s, _)) if s >= e.seq => {}
                    _ => {
                        newest.insert(e.key, (e.seq, &e.value));
                    }
                }
            }
        }
        Cursor {
            items: newest
                .into_iter()
                .map(|(k, (s, v))| (k, s, v))
                .collect::<Vec<_>>()
                .into_iter(),
        }
    }

    /// Merge level `L` into `L+1` whenever a level holds ≥ [`COMPACT_FANIN`]
    /// batches. All versions are retained (time travel survives merges).
    fn maybe_compact(&mut self) {
        loop {
            let Some(level) = (0..=self.max_level())
                .find(|&l| self.batches.iter().filter(|b| b.level == l).count() >= COMPACT_FANIN)
            else {
                return;
            };
            let (merge, keep): (Vec<Batch>, Vec<Batch>) = std::mem::take(&mut self.batches)
                .into_iter()
                .partition(|b| b.level == level);
            self.batches = keep;
            let mut entries: Vec<Entry> = Vec::with_capacity(merge.iter().map(Batch::len).sum());
            let (mut min_seq, mut max_seq) = (u64::MAX, 0);
            for b in &merge {
                min_seq = min_seq.min(b.min_seq);
                max_seq = max_seq.max(b.max_seq);
                entries.extend(b.entries.iter().cloned());
            }
            entries.sort_by_key(|x| (x.key, x.seq));
            match self.write_batch(entries, level + 1, min_seq, max_seq) {
                Ok(merged) => {
                    // Output is durable; now the inputs can go.
                    for b in &merge {
                        let _ = fs::remove_file(self.dir.join(&b.file));
                    }
                    self.batches.push(merged);
                    self.compactions += 1;
                }
                Err(_) => {
                    // Merge failed (disk full?): keep the inputs live.
                    self.batches.extend(merge);
                    return;
                }
            }
        }
    }

    fn max_level(&self) -> u32 {
        self.batches.iter().map(|b| b.level).max().unwrap_or(0)
    }

    fn write_batch(
        &self,
        entries: Vec<Entry>,
        level: u32,
        min_seq: u64,
        max_seq: u64,
    ) -> io::Result<Batch> {
        let file = format!("b{max_seq:016}-L{level}-{}.batch", std::process::id());
        let path = self.dir.join(&file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        {
            let mut w = io::BufWriter::new(File::create(&tmp)?);
            w.write_all(MAGIC)?;
            w.write_all(&level.to_le_bytes())?;
            w.write_all(&0u32.to_le_bytes())?;
            w.write_all(&(entries.len() as u64).to_le_bytes())?;
            for e in &entries {
                for v in [e.key.kind, e.key.a, e.key.b, e.seq, e.value.len() as u64] {
                    w.write_all(&v.to_le_bytes())?;
                }
                w.write_all(&e.value)?;
            }
            w.flush()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(Batch {
            file,
            level,
            min_seq,
            max_seq,
            entries,
        })
    }

    /// Rewrite `MANIFEST.json` from the in-memory batch set (atomic rename).
    fn write_manifest(&self) {
        let mut s = String::new();
        s.push_str("{\n \"version\": 1,\n");
        s.push_str(&format!(" \"last_seq\": {},\n", self.last_seq()));
        s.push_str(" \"batches\": [\n");
        let mut sorted: Vec<&Batch> = self.batches.iter().collect();
        sorted.sort_by(|x, y| x.file.cmp(&y.file));
        for (i, b) in sorted.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"file\": \"{}\", \"level\": {}, \"entries\": {}, \"min_seq\": {}, \"max_seq\": {}}}{}\n",
                b.file,
                b.level,
                b.len(),
                b.min_seq,
                b.max_seq,
                if i + 1 < sorted.len() { "," } else { "" }
            ));
        }
        s.push_str(" ]\n}\n");
        let path = self.dir.join("MANIFEST.json");
        let tmp = self
            .dir
            .join(format!("MANIFEST.json.tmp.{}", std::process::id()));
        if fs::write(&tmp, s).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }
}

/// An in-order cursor over spine entries (see [`Spine::cursor`]).
pub struct Cursor<'a> {
    items: std::vec::IntoIter<(Key, u64, &'a [u8])>,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = (Key, u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.items.next()
    }
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_batch(path: &Path, name: &str) -> io::Result<Batch> {
    let mut r = io::BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let mut lvl = [0u8; 4];
    r.read_exact(&mut lvl)?;
    let level = u32::from_le_bytes(lvl);
    r.read_exact(&mut lvl)?; // reserved
    let count = read_u64(&mut r)?;
    if count > 1 << 32 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "absurd count"));
    }
    let mut entries = Vec::with_capacity(count as usize);
    let (mut min_seq, mut max_seq) = (u64::MAX, 0);
    for _ in 0..count {
        let kind = read_u64(&mut r)?;
        let a = read_u64(&mut r)?;
        let b = read_u64(&mut r)?;
        let seq = read_u64(&mut r)?;
        let len = read_u64(&mut r)?;
        if len > 1 << 32 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "absurd len"));
        }
        let mut value = vec![0u8; len as usize];
        r.read_exact(&mut value)?;
        min_seq = min_seq.min(seq);
        max_seq = max_seq.max(seq);
        entries.push(Entry {
            key: Key { kind, a, b },
            seq,
            value,
        });
    }
    if entries.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty batch"));
    }
    Ok(Batch {
        file: name.to_string(),
        level,
        min_seq,
        max_seq,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cwsp-spine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn k(a: u64) -> Key {
        Key::sim(a, a * 7)
    }

    #[test]
    fn fuzz_keyspaces_are_disjoint() {
        // Same fingerprint words, five different keyspaces: all distinct,
        // and a cursor_range over one kind never leaks into another.
        let keys = [
            Key::sim(9, 9),
            Key::figure(9),
            Key::telemetry(9),
            Key::fuzz_progress(9, 9),
            Key::fuzz_corpus(9, 9),
            Key::fuzz_coverage(9, 9),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Key::fuzz_manifest(9).kind, Key::fuzz_progress(9, 0).kind);
        assert_eq!(Key::fuzz_manifest(9).b, u64::MAX);

        let dir = tmpdir("fuzzkeys");
        let mut s = Spine::open(&dir).unwrap();
        s.commit(vec![
            (Key::fuzz_corpus(1, 5), b"c5".to_vec()),
            (Key::fuzz_corpus(1, 6), b"c6".to_vec()),
            (Key::fuzz_corpus(2, 5), b"other-run".to_vec()),
            (Key::fuzz_progress(1, 0), b"p".to_vec()),
            (Key::fuzz_coverage(1, 0), b"cov".to_vec()),
        ])
        .unwrap();
        let run1: Vec<Key> = s
            .cursor_range(Key::fuzz_corpus(1, 0), Key::fuzz_corpus(1, u64::MAX), None)
            .map(|(k, _, _)| k)
            .collect();
        assert_eq!(run1, vec![Key::fuzz_corpus(1, 5), Key::fuzz_corpus(1, 6)]);
    }

    #[test]
    fn commit_get_round_trip_and_reopen() {
        let dir = tmpdir("rt");
        let mut s = Spine::open(&dir).unwrap();
        let s1 = s
            .commit(vec![(k(1), b"one".to_vec()), (k(2), b"two".to_vec())])
            .unwrap();
        assert_eq!(s1, 1);
        assert_eq!(s.get(k(1)), Some(&b"one"[..]));
        assert_eq!(s.get(k(3)), None);
        // Reopen from disk: directory scan restores the batch set.
        let s2 = Spine::open(&dir).unwrap();
        assert_eq!(s2.get(k(2)), Some(&b"two"[..]));
        assert_eq!(s2.last_seq(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_version_wins_and_time_travel_sees_the_past() {
        let dir = tmpdir("tt");
        let mut s = Spine::open(&dir).unwrap();
        let s1 = s.commit(vec![(k(1), b"v1".to_vec())]).unwrap();
        let s2 = s
            .commit(vec![(k(1), b"v2".to_vec()), (k(9), b"x".to_vec())])
            .unwrap();
        assert!(s2 > s1);
        assert_eq!(s.get(k(1)), Some(&b"v2"[..]));
        assert_eq!(s.get_as_of(k(1), s1), Some(&b"v1"[..]));
        assert_eq!(s.get_as_of(k(9), s1), None, "k9 did not exist at s1");
        let hist = s.history(k(1));
        assert_eq!(
            hist.iter().map(|(s, v)| (*s, *v)).collect::<Vec<_>>(),
            vec![(s1, &b"v1"[..]), (s2, &b"v2"[..])]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_keyspace_accumulates_a_timeline() {
        let dir = tmpdir("tel");
        let mut s = Spine::open(&dir).unwrap();
        let key = Key::telemetry(0xF11E);
        // The telemetry kind is disjoint from sim/figure keyspaces even for
        // equal fingerprints.
        assert_ne!(key, Key::figure(0xF11E));
        assert_ne!(key, Key::sim(0xF11E, 0));
        let s1 = s.commit(vec![(key, b"{\"t\":1}".to_vec())]).unwrap();
        let s2 = s.commit(vec![(key, b"{\"t\":2}".to_vec())]).unwrap();
        let s3 = s.commit(vec![(key, b"{\"t\":3}".to_vec())]).unwrap();
        let hist = s.history(key);
        assert_eq!(
            hist.iter().map(|(s, v)| (*s, *v)).collect::<Vec<_>>(),
            vec![
                (s1, &b"{\"t\":1}"[..]),
                (s2, &b"{\"t\":2}"[..]),
                (s3, &b"{\"t\":3}"[..])
            ],
            "every snapshot survives as its own version"
        );
        assert_eq!(s.get_as_of(key, s2), Some(&b"{\"t\":2}"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_merges_levels_and_keeps_history() {
        let dir = tmpdir("cp");
        let mut s = Spine::open(&dir).unwrap();
        let seqs: Vec<u64> = (0..10)
            .map(|i| {
                s.commit(vec![(k(i % 3), format!("v{i}").into_bytes())])
                    .unwrap()
            })
            .collect();
        assert!(s.compactions() > 0, "10 single commits must trigger merges");
        assert!(
            s.batches().len() < 10,
            "live batches: {} (merged)",
            s.batches().len()
        );
        // All versions survive the merges.
        assert_eq!(s.history(k(0)).len(), 4); // i = 0,3,6,9
        assert_eq!(s.get_as_of(k(1), seqs[1]), Some(&b"v1"[..]));
        assert_eq!(s.get(k(1)), Some(&b"v7"[..]));
        // Reopen sees the compacted layout.
        let r = Spine::open(&dir).unwrap();
        assert_eq!(r.get(k(2)), Some(&b"v8"[..]));
        assert_eq!(r.history(k(0)).len(), 4);
        // On-disk file count matches the live set + manifest.
        let files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            files.iter().filter(|f| f.ends_with(".batch")).count(),
            s.batches().len(),
            "{files:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_scans_in_key_order_with_as_of() {
        let dir = tmpdir("cur");
        let mut s = Spine::open(&dir).unwrap();
        let s1 = s
            .commit(vec![(k(3), b"c1".to_vec()), (k(1), b"a1".to_vec())])
            .unwrap();
        s.commit(vec![(k(2), b"b2".to_vec()), (k(1), b"a2".to_vec())])
            .unwrap();
        let now: Vec<(Key, u64, Vec<u8>)> = s
            .cursor(None)
            .map(|(key, seq, v)| (key, seq, v.to_vec()))
            .collect();
        assert_eq!(now.len(), 3);
        assert!(now.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        assert_eq!(now[0].2, b"a2".to_vec(), "newest version of k1");
        let then: Vec<_> = s.cursor(Some(s1)).collect();
        assert_eq!(then.len(), 2, "k2 absent as of s1");
        assert_eq!(then[0].2, b"a1", "old version of k1");
        // Range scan restricted to one keyspace kind.
        let figs: Vec<_> = s
            .cursor_range(
                Key {
                    kind: 1,
                    a: 0,
                    b: 0,
                },
                Key {
                    kind: 1,
                    a: u64::MAX,
                    b: u64::MAX,
                },
                None,
            )
            .collect();
        assert!(figs.is_empty(), "no figure-kind keys committed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_keys_in_one_commit_keep_the_last_value() {
        let dir = tmpdir("dup");
        let mut s = Spine::open(&dir).unwrap();
        s.commit(vec![(k(1), b"first".to_vec()), (k(1), b"second".to_vec())])
            .unwrap();
        assert_eq!(s.get(k(1)), Some(&b"second"[..]));
        assert_eq!(s.entry_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_describes_the_live_set() {
        let dir = tmpdir("man");
        let mut s = Spine::open(&dir).unwrap();
        s.commit(vec![(k(1), b"x".to_vec())]).unwrap();
        let text = fs::read_to_string(dir.join("MANIFEST.json")).unwrap();
        assert!(text.contains("\"last_seq\": 1"));
        assert!(text.contains("\"batches\""));
        assert!(text.contains(".batch"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_foreign_files_are_skipped() {
        let dir = tmpdir("torn");
        let mut s = Spine::open(&dir).unwrap();
        s.commit(vec![(k(1), b"good".to_vec())]).unwrap();
        fs::write(dir.join("zz-torn.batch"), b"CWSPSPN1 garbage").unwrap();
        fs::write(dir.join("notes.txt"), b"not a batch").unwrap();
        let r = Spine::open(&dir).unwrap();
        assert_eq!(r.get(k(1)), Some(&b"good"[..]), "good batch still loads");
        assert_eq!(r.batches().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let dir = tmpdir("empty");
        let mut s = Spine::open(&dir).unwrap();
        assert_eq!(s.commit(vec![]).unwrap(), 0);
        assert_eq!(s.batches().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
