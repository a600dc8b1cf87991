//! # cwsp-ir — compiler IR and reference interpreter for cWSP
//!
//! This crate provides the register-based intermediate representation that the
//! cWSP compiler (`cwsp-compiler`) transforms and the architecture simulator
//! (`cwsp-sim`) executes. It plays the role LLVM bitcode plays in the paper
//! *Compiler-Directed Whole-System Persistence* (ISCA 2024): every piece of
//! "software" in this reproduction — user workloads, the simulated libc and
//! kernel-entry paths — is expressed in this IR, partitioned into idempotent
//! regions, and run through the persistence machinery.
//!
//! Design notes:
//!
//! * All values are 64-bit words ([`Word`]); all memory accesses are 8-byte
//!   aligned word accesses. This mirrors cWSP's 8-byte persist granularity
//!   (§V-A2 of the paper) and keeps the crash-consistency model exact.
//! * Virtual registers are function-local. Calls spill live-across-call
//!   registers and arguments to an in-memory stack frame (see [`inst::Inst::Call`])
//!   so that, as on real hardware, all cross-frame state lives in (persistent)
//!   memory and power-failure recovery only ever needs to restore the live-in
//!   registers of a single region.
//! * [`interp`] is the oracle interpreter: it executes a module with no
//!   persistence machinery and produces the ground-truth output and final
//!   memory against which crash/recovery runs are verified. It exposes a
//!   [`interp::StepEffect`] stream so the timing simulator can drive the exact
//!   same semantics cycle by cycle. Since the decode-once rework it executes
//!   from a [`decoded::DecodedModule`] — the module lowered into a flat,
//!   `Copy` micro-op array — and the original tree-walking implementation is
//!   preserved in [`reference`] as the executable specification the decoded
//!   core is differentially tested against.
//!
//! ## Example
//!
//! ```
//! use cwsp_ir::prelude::*;
//!
//! let mut m = Module::new("demo");
//! let g = m.add_global("counter", 1);
//! let mut f = FunctionBuilder::new("main", 0);
//! let entry = f.entry();
//! let v = f.vreg();
//! f.push(entry, Inst::load(v, MemRef::global(g, 0)));
//! let v2 = f.vreg();
//! f.push(entry, Inst::binary(BinOp::Add, v2, v.into(), Operand::imm(1)));
//! f.push(entry, Inst::store(v2.into(), MemRef::global(g, 0)));
//! f.push(entry, Inst::Ret { val: Some(v2.into()) });
//! let main = m.add_function(f.build());
//! m.set_entry(main);
//!
//! let outcome = cwsp_ir::interp::run(&m, 10_000)?;
//! assert_eq!(outcome.return_value, Some(1));
//! # Ok::<(), cwsp_ir::interp::InterpError>(())
//! ```

pub mod builder;
pub mod cfg;
pub mod decoded;
pub mod function;
pub mod fxhash;
pub mod inst;
pub mod interp;
pub mod layout;
pub mod memory;
pub mod module;
pub mod parse;
pub mod pretty;
pub mod reference;
pub mod types;

/// Convenience re-exports for building and running IR programs.
pub mod prelude {
    pub use crate::builder::FunctionBuilder;
    pub use crate::function::{BlockId, Function, InstIdx};
    pub use crate::inst::{AtomicOp, BinOp, Inst, MemRef, Operand};
    pub use crate::interp::{Interp, Outcome, StepEffect};
    pub use crate::memory::Memory;
    pub use crate::module::{FuncId, GlobalId, Module};
    pub use crate::types::{Reg, RegionId, Word};
}

pub use function::{BlockId, Function, InstIdx};
pub use inst::{AtomicOp, BinOp, Inst, MemRef, Operand};
pub use memory::{with_budget_override, Memory};
pub use module::{FuncId, GlobalId, Module};
pub use types::{Reg, RegionId, Word};
