//! # cwsp-sim — the cWSP architecture simulator
//!
//! An execution-driven, cycle-accounted model of the machine evaluated in
//! *Compiler-Directed Whole-System Persistence* (ISCA 2024, §IX): Skylake-like
//! cores, a multi-level sparse-tag cache hierarchy with a direct-mapped DRAM
//! cache (Intel PMEM memory mode) or CXL-attached NVM, and the cWSP persist
//! hardware — persist buffer (PB), region boundary table (RBT), FIFO persist
//! path, battery-backed write-pending queues (WPQ), and per-region hardware
//! undo logs for memory-controller speculation.
//!
//! The simulator drives the *same* interpreter the correctness oracle uses, so
//! architectural semantics are exact; a separate NVM image advances only as
//! stores drain through the persist machinery. Power can be cut at any cycle
//! ([`machine::Machine::run`] with a crash cycle +
//! [`machine::Machine::into_crash_image`]), yielding the precise post-failure
//! NVM state the recovery protocol (in `cwsp-core`) operates on.
//!
//! Baselines: [`scheme::Scheme`] selects cWSP (with per-feature ablation
//! toggles for Fig 15), Capri, ReplayCache, the ideal PSP configuration, or
//! the plain baseline machine.
//!
//! ## Example
//!
//! ```
//! use cwsp_ir::prelude::*;
//! use cwsp_sim::config::SimConfig;
//! use cwsp_sim::machine::{Machine, RunEnd};
//! use cwsp_sim::scheme::Scheme;
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", 0);
//! let e = b.entry();
//! b.store(e, Operand::imm(42), MemRef::abs(4096));
//! b.push(e, Inst::Halt);
//! let f = m.add_function(b.build());
//! m.set_entry(f);
//!
//! let cfg = SimConfig::default();
//! let mut machine = Machine::new(&m, &cfg, Scheme::Baseline);
//! let result = machine.run(1_000, None).unwrap();
//! assert_eq!(result.end, RunEnd::Completed);
//! assert!(result.stats.cycles > 0);
//! ```

pub mod cache;
pub mod config;
pub mod energy;
pub mod event;
pub mod iodevice;
pub mod machine;
pub mod mc;
pub mod persist;
pub mod profiler;
pub mod race;
pub mod scheme;
pub mod stats;
pub mod trace;
pub mod wbuf;

pub use config::{CxlDevice, MainMemory, NvmTech, SimConfig, CXL_DEVICES};
pub use machine::{CrashImage, Machine, RunEnd, RunResult};
pub use scheme::{CwspFeatures, Scheme};
pub use stats::SimStats;
