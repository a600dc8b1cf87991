//! # cwsp-compiler — the cWSP compilation pipeline
//!
//! Implements the compiler half of *Compiler-Directed Whole-System
//! Persistence* (ISCA 2024, §IV): partitioning programs into idempotent
//! regions, checkpointing live-out registers, pruning redundant checkpoints,
//! and generating per-region recovery slices.
//!
//! Pass order (see [`pipeline::CwspCompiler`]):
//!
//! 1. **call-save** ([`callsave`]) — computes the registers live across each
//!    call site so the call spills exactly those to the (persistent) stack.
//! 2. **region formation** ([`region`]) — seeds boundaries at loop headers,
//!    join blocks, and synchronization points, then cuts every memory and
//!    register antidependence with a greedy minimum hitting set (§IV-A).
//! 3. **checkpoint insertion** ([`checkpoint`]) — a backward "needs" dataflow
//!    places one `ckpt` after each definition whose value is live across some
//!    region boundary (§IV-B).
//! 4. **checkpoint pruning + recovery slices** ([`prune`]) — constant-foldable
//!    live-ins are rematerialized by the recovery slice instead of loaded from
//!    their NVM slot, and checkpoints with no remaining slot consumers are
//!    deleted (§IV-C; a sound subset of Penny's optimal pruning — see
//!    `DESIGN.md` §3.2).
//!
//! [`verify`] provides *dynamic* checkers used heavily by the test suite: an
//! antidependence monitor (no region may load a location it later stores) and
//! a recovery-slice oracle (at every boundary, the slice must reproduce the
//! exact live-in register values).
//!
//! ## Example
//!
//! ```
//! use cwsp_ir::prelude::*;
//! use cwsp_ir::builder::build_counted_loop;
//! use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
//!
//! let mut m = Module::new("demo");
//! let g = m.add_global("acc", 1);
//! let mut b = FunctionBuilder::new("main", 0);
//! let e = b.entry();
//! let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(8), |b, bb, i| {
//!     let v = b.load(bb, MemRef::global(g, 0));
//!     let s = b.bin(bb, BinOp::Add, v.into(), i.into());
//!     b.store(bb, s.into(), MemRef::global(g, 0));
//! });
//! b.push(exit, Inst::Halt);
//! let f = m.add_function(b.build());
//! m.set_entry(f);
//!
//! let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
//! assert!(compiled.stats.boundaries_inserted > 0);
//! // The transformed program still computes the same result.
//! let out = cwsp_ir::interp::run(&compiled.module, 100_000).unwrap();
//! assert_eq!(out.memory.load(m.global_addr(g)), 28);
//! ```

pub mod alias;
pub mod autofence;
pub mod callsave;
pub mod checkpoint;
#[cfg(test)]
mod dataflow_ref;
pub mod liveness;
pub mod opt;
pub mod pipeline;
pub mod prune;
pub mod reaching;
pub mod region;
pub mod report;
pub mod slice;
pub mod split;
pub mod stats;
pub mod verify;

pub use pipeline::{CompileOptions, Compiled, CwspCompiler};
pub use slice::{RecoverySlice, RsSource, SliceTable};
