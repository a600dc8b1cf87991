//! Append-only page spill file — the cold tier behind `cwsp_ir::Memory`.
//!
//! The store hands out 4 KiB slots in an anonymous temp file. Appends are
//! lock-free (an atomic length cursor reserves a slot, then the page bytes
//! are written into it), and a slot is immutable once its offset has been
//! published by the owning memory: re-evicting a dirty page appends a fresh
//! slot instead of rewriting the old one. That append-only discipline is
//! what lets cloned memories share one store — a clone's slots are all below
//! the length it observed, and nothing ever rewrites them.
//!
//! Reads and writes are positional I/O (`pread`/`pwrite` via `FileExt` on
//! unix, a seek lock elsewhere), so the file is only as long as the bytes
//! appended. Point the file somewhere other than the system temp directory
//! with `CWSP_SPILL_DIR`.
//!
//! The file is unlinked immediately after creation on unix, so spilled data
//! can never outlive the process even on a crash.

use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Words per spilled page (4 KiB / 8 bytes) — matches `cwsp_ir::Memory`.
pub const PAGE_WORDS: usize = 512;
/// Bytes per spilled page.
pub const PAGE_BYTES: usize = PAGE_WORDS * 8;

/// The append-only spill store. One process-global instance (see
/// [`SpillStore::global`]) is shared by every tiered memory; tests can build
/// private instances.
pub struct SpillStore {
    file: File,
    /// Bytes appended so far (also the next free offset).
    len: AtomicU64,
    /// Serializes positional I/O on platforms without `pread`/`pwrite`.
    #[allow(dead_code)]
    seek_lock: Mutex<()>,
}

impl SpillStore {
    /// Create a fresh spill store backed by an unlinked temp file.
    ///
    /// # Errors
    /// Propagates file-creation failures (the caller degrades to an
    /// unbounded in-RAM memory).
    pub fn create() -> std::io::Result<Arc<SpillStore>> {
        let dir = crate::config::get()
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        std::fs::create_dir_all(&dir)?;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(format!(
            "cwsp-spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Unlink immediately: the fd keeps the data alive, and nothing can
        // leak past process exit.
        #[cfg(unix)]
        let _ = std::fs::remove_file(&path);
        Ok(SpillStore::over(file))
    }

    /// Create a spill store backed by a *named* file under `dir` that is
    /// NOT unlinked — the journal variant used by the flight recorder, where
    /// the whole point is that the bytes survive the process being killed
    /// (a killed process leaves a dense, directly readable journal).
    ///
    /// # Errors
    /// Propagates directory/file-creation failures.
    pub fn create_named(
        dir: &std::path::Path,
        stem: &str,
    ) -> std::io::Result<(Arc<SpillStore>, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(format!(
            "{stem}-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok((SpillStore::over(file), path))
    }

    fn over(file: File) -> Arc<SpillStore> {
        Arc::new(SpillStore {
            file,
            len: AtomicU64::new(0),
            seek_lock: Mutex::new(()),
        })
    }

    /// The process-global store, created on first use. `None` if the temp
    /// file could not be created (callers then stay unbounded in RAM).
    pub fn global() -> Option<Arc<SpillStore>> {
        static GLOBAL: OnceLock<Option<Arc<SpillStore>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| SpillStore::create().ok())
            .as_ref()
            .map(Arc::clone)
    }

    /// Bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Append one page, returning its immutable slot offset.
    pub fn append_page(&self, words: &[u64; PAGE_WORDS]) -> u64 {
        let off = self.len.fetch_add(PAGE_BYTES as u64, Ordering::Relaxed);
        let bytes: &[u8] =
            unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, PAGE_BYTES) };
        self.write_at(bytes, off);
        tier::record_spill_bytes(PAGE_BYTES as u64);
        off
    }

    /// Read a whole page from slot `off`.
    pub fn read_page(&self, off: u64, out: &mut [u64; PAGE_WORDS]) {
        let bytes: &mut [u8] =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, PAGE_BYTES) };
        self.read_at(bytes, off);
    }

    /// Read the single word at index `idx` of the page in slot `off` —
    /// the no-promotion load path for cold pages.
    pub fn read_word(&self, off: u64, idx: usize) -> u64 {
        debug_assert!(idx < PAGE_WORDS);
        let at = off + (idx * 8) as u64;
        let mut b = [0u8; 8];
        self.read_at(&mut b, at);
        u64::from_le_bytes(b)
    }

    #[cfg(unix)]
    fn write_at(&self, bytes: &[u8], off: u64) {
        use std::os::unix::fs::FileExt;
        self.file
            .write_all_at(bytes, off)
            .expect("spill write failed");
    }

    #[cfg(unix)]
    fn read_at(&self, bytes: &mut [u8], off: u64) {
        use std::os::unix::fs::FileExt;
        self.file
            .read_exact_at(bytes, off)
            .expect("spill read failed");
    }

    #[cfg(not(unix))]
    fn write_at(&self, bytes: &[u8], off: u64) {
        use std::io::{Seek, SeekFrom, Write};
        let _g = self.seek_lock.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off)).expect("spill seek failed");
        f.write_all(bytes).expect("spill write failed");
    }

    #[cfg(not(unix))]
    fn read_at(&self, bytes: &mut [u8], off: u64) {
        use std::io::{Read, Seek, SeekFrom};
        let _g = self.seek_lock.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off)).expect("spill seek failed");
        f.read_exact(bytes).expect("spill read failed");
    }
}

use crate::tier;

#[cfg(test)]
mod tests {
    use super::*;

    fn page(seed: u64) -> [u64; PAGE_WORDS] {
        let mut p = [0u64; PAGE_WORDS];
        for (i, w) in p.iter_mut().enumerate() {
            *w = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
        }
        p
    }

    #[test]
    fn append_then_read_round_trips() {
        let s = SpillStore::create().unwrap();
        let a = page(1);
        let b = page(2);
        let off_a = s.append_page(&a);
        let off_b = s.append_page(&b);
        assert_ne!(off_a, off_b);
        let mut back = [0u64; PAGE_WORDS];
        s.read_page(off_a, &mut back);
        assert_eq!(back, a);
        s.read_page(off_b, &mut back);
        assert_eq!(back, b);
        assert_eq!(s.read_word(off_b, 17), b[17]);
        assert_eq!(s.bytes(), 2 * PAGE_BYTES as u64);
    }

    #[test]
    fn slots_are_immutable_under_reappend() {
        let s = SpillStore::create().unwrap();
        let v1 = page(7);
        let off1 = s.append_page(&v1);
        // "Re-evicting" the same logical page appends a new slot; the old
        // one still reads back its original contents.
        let v2 = page(8);
        let off2 = s.append_page(&v2);
        let mut back = [0u64; PAGE_WORDS];
        s.read_page(off1, &mut back);
        assert_eq!(back, v1);
        s.read_page(off2, &mut back);
        assert_eq!(back, v2);
    }

    #[test]
    fn concurrent_appends_reserve_disjoint_slots() {
        let s = SpillStore::create().unwrap();
        let mut offs: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || {
                        (0..64u64)
                            .map(|i| (s.append_page(&page(t * 1000 + i)), t * 1000 + i))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .map(|(off, seed)| {
                    let mut back = [0u64; PAGE_WORDS];
                    s.read_page(off, &mut back);
                    assert_eq!(back, page(seed));
                    off
                })
                .collect()
        });
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 256, "every append got its own slot");
    }

    #[test]
    fn named_store_survives_on_disk_and_reopens() {
        let dir = std::env::temp_dir().join(format!("cwsp-named-spill-{}", std::process::id()));
        let (s, path) = SpillStore::create_named(&dir, "journal").unwrap();
        let p = page(11);
        let off = s.append_page(&p);
        drop(s);
        // The file is still there (not unlinked) and exactly one page long.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), PAGE_BYTES as u64);
        let bytes = std::fs::read(&path).unwrap();
        let back: Vec<u64> = bytes[off as usize..]
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(back, p);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
