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
//! Reads and writes go through one shared `mmap` of a fixed-size sparse
//! region when the platform provides it (plain `memcpy`, no syscalls on the
//! fault path); otherwise they fall back to positional I/O
//! (`pread`/`pwrite` via `FileExt` on unix, a seek lock elsewhere). Disable
//! the map with `CWSP_SPILL_MMAP=0`; point the file somewhere other than
//! the system temp directory with `CWSP_SPILL_DIR`.
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

/// Sparse capacity reserved for the mmap fast path (1M pages = 4 GiB of
/// address space; the file is sparse, so only written pages cost storage).
/// Appends past the capacity transparently switch to positional I/O.
const MAP_CAP: u64 = (1 << 20) * PAGE_BYTES as u64;

/// A fixed mapping of the spill file's first [`MAP_CAP`] bytes.
struct MapRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: concurrent access is confined to disjoint page slots — a slot is
// written exactly once by the thread that reserved it via `fetch_add`, and
// only read after its offset is published through the owning `Memory`
// (which is not `Sync`; cross-thread hand-off happens via `Clone`/`Send`,
// both of which synchronize).
unsafe impl Send for MapRegion {}
unsafe impl Sync for MapRegion {}

impl Drop for MapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        unsafe {
            munmap(self.ptr as *mut core::ffi::c_void, self.len);
        }
    }
}

#[cfg(unix)]
extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
}

#[cfg(unix)]
fn map_file(file: &File, len: usize) -> Option<MapRegion> {
    use std::os::unix::io::AsRawFd;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 1;
    // The file must be at least `len` long for stores through the map to be
    // defined; it is sparse, so this costs no storage.
    file.set_len(len as u64).ok()?;
    let ptr = unsafe {
        mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr as isize == -1 || ptr.is_null() {
        return None;
    }
    Some(MapRegion {
        ptr: ptr as *mut u8,
        len,
    })
}

#[cfg(not(unix))]
fn map_file(_file: &File, _len: usize) -> Option<MapRegion> {
    None
}

/// The append-only spill store. One process-global instance (see
/// [`SpillStore::global`]) is shared by every tiered memory; tests can build
/// private instances.
pub struct SpillStore {
    file: File,
    /// Bytes appended so far (also the next free offset).
    len: AtomicU64,
    /// The mmap fast path, when available.
    map: Option<MapRegion>,
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
        let dir = match std::env::var("CWSP_SPILL_DIR") {
            Ok(d) if !d.is_empty() => PathBuf::from(d),
            _ => std::env::temp_dir(),
        };
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
        let use_map = !matches!(
            std::env::var("CWSP_SPILL_MMAP").as_deref(),
            Ok("0") | Ok("off") | Ok("false") | Ok("no")
        );
        let map = if use_map {
            map_file(&file, MAP_CAP as usize)
        } else {
            None
        };
        Ok(Arc::new(SpillStore {
            file,
            len: AtomicU64::new(0),
            map,
            seek_lock: Mutex::new(()),
        }))
    }

    /// Create a spill store backed by a *named* file under `dir` that is
    /// NOT unlinked — the journal variant used by the flight recorder, where
    /// the whole point is that the bytes survive the process being killed.
    ///
    /// Named stores skip the sparse mmap fast path so the on-disk file size
    /// equals the bytes actually appended (a killed process leaves a
    /// dense, directly readable journal, not a 4 GiB sparse file).
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
        Ok((
            Arc::new(SpillStore {
                file,
                len: AtomicU64::new(0),
                map: None,
                seek_lock: Mutex::new(()),
            }),
            path,
        ))
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

    /// Whether reads/writes go through the mmap fast path.
    pub fn uses_mmap(&self) -> bool {
        self.map.is_some()
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
        if let Some(map) = &self.map {
            if off + PAGE_BYTES as u64 <= map.len as u64 {
                // SAFETY: `off..off+PAGE_BYTES` was exclusively reserved by
                // the fetch_add above and lies inside the mapping.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        bytes.as_ptr(),
                        map.ptr.add(off as usize),
                        PAGE_BYTES,
                    );
                }
                tier::record_spill_bytes(PAGE_BYTES as u64);
                return off;
            }
        }
        self.write_at(bytes, off);
        tier::record_spill_bytes(PAGE_BYTES as u64);
        off
    }

    /// Read a whole page from slot `off`.
    pub fn read_page(&self, off: u64, out: &mut [u64; PAGE_WORDS]) {
        let bytes: &mut [u8] =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, PAGE_BYTES) };
        if let Some(map) = &self.map {
            if off + PAGE_BYTES as u64 <= map.len as u64 {
                // SAFETY: the slot was fully written before its offset was
                // published (see type-level comment on MapRegion).
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        map.ptr.add(off as usize),
                        bytes.as_mut_ptr(),
                        PAGE_BYTES,
                    );
                }
                return;
            }
        }
        self.read_at(bytes, off);
    }

    /// Read the single word at index `idx` of the page in slot `off` —
    /// the no-promotion load path for cold pages.
    pub fn read_word(&self, off: u64, idx: usize) -> u64 {
        debug_assert!(idx < PAGE_WORDS);
        let at = off + (idx * 8) as u64;
        if let Some(map) = &self.map {
            if at + 8 <= map.len as u64 {
                let mut b = [0u8; 8];
                // SAFETY: within the mapping; slot published before read.
                unsafe {
                    std::ptr::copy_nonoverlapping(map.ptr.add(at as usize), b.as_mut_ptr(), 8);
                }
                return u64::from_le_bytes(b);
            }
        }
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
        assert!(!s.uses_mmap(), "named stores must stay dense on disk");
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

    #[test]
    fn fallback_io_works_without_mmap() {
        // Build a store and force the positional-I/O path by reading past
        // what the map would cover only if the map is absent; instead just
        // exercise write_at/read_at directly through a mapless store.
        let s = SpillStore::create().unwrap();
        let p = page(3);
        let off = s.append_page(&p);
        let mut back = [0u64; PAGE_WORDS];
        // read_at goes to the file; under mmap the data is visible there
        // too (MAP_SHARED), so this checks coherence of both paths.
        s.read_at(
            unsafe { std::slice::from_raw_parts_mut(back.as_mut_ptr() as *mut u8, PAGE_BYTES) },
            off,
        );
        assert_eq!(back, p);
    }
}
