//! # cwsp-store — tiered storage backends
//!
//! Two storage layers that let the reproduction outgrow host RAM (the
//! paper's evaluation runs 2.5–6 GB footprints over a CXL-tiered hierarchy,
//! §IX-C) and keep an incrementally-mergeable history of every experiment:
//!
//! * [`spill`] — an append-only page file backing the cold tier of
//!   [`cwsp_ir::Memory`]'s page table. Hot pages stay in RAM under a
//!   configurable resident budget (`CWSP_MEM_BUDGET`); evicted pages land
//!   here and fault back on demand through positional `pread`/`pwrite`.
//! * [`spine`] — an LSM-style result store: experiment results commit as
//!   immutable sorted batches with a manifest; merging compacts levels, and
//!   a cursor API supports point lookups by fingerprint plus time-travel
//!   queries (the store as of any committed batch).
//! * [`config`] — the typed run configuration: every `CWSP_*` variable,
//!   parsed once, with a typed error for a bad value. It lives in this, the
//!   lowest crate, so every layer reads the same parse.
//! * [`tier`] — process-wide counters (faults, evictions, writebacks,
//!   resident/spilled gauges) published into the observability registry by
//!   `cwsp-obs` and asserted by the `fig_beyond_ram` storage smoke test.
//!
//! The crate is dependency-free (like the rest of the workspace) and sits
//! below `cwsp-ir`, so the memory model can use it without layering cycles.

pub mod config;
pub mod spill;
pub mod spine;
pub mod tier;

pub use spill::{SpillStore, PAGE_BYTES, PAGE_WORDS};
pub use spine::{Batch, Key, Spine};
