//! Per-function facts that several passes read: the reverse post-order, the
//! reachable blocks, the predecessor lists and the constant propagation.
//!
//! The structure, checkpoint and lint passes, the slot-sync analysis, the
//! body summaries and the I6 pass all walk the same CFG orders and resolve
//! addresses through the same constants. One analysis computes these facts
//! once per function, on first use, through [`ModuleFacts`]; each pass's
//! public per-function entry point computes its own [`FnFacts`] instead.

use crate::consts::ConstProp;
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::module::{FuncId, Module};
use std::cell::OnceCell;

/// The shared facts of one well-formed function. The order and the
/// reachable set come with it; the predecessor lists and the constants are
/// computed on first use.
pub(crate) struct FnFacts<'f> {
    f: &'f Function,
    /// Blocks reachable from the entry, in reverse post-order.
    pub rpo: Vec<BlockId>,
    /// `reachable[b]`: block `b` is in `rpo`.
    pub reachable: Vec<bool>,
    preds: OnceCell<Vec<Vec<BlockId>>>,
    consts: OnceCell<ConstProp>,
}

impl<'f> FnFacts<'f> {
    /// Facts of `f`. Its branch targets must be in range, as
    /// [`Function::validate`] checks.
    pub fn compute(f: &'f Function) -> Self {
        let rpo = cfg::reverse_post_order(f);
        let mut reachable = vec![false; f.blocks.len()];
        for &b in &rpo {
            reachable[b.index()] = true;
        }
        FnFacts {
            f,
            rpo,
            reachable,
            preds: OnceCell::new(),
            consts: OnceCell::new(),
        }
    }

    /// Predecessor lists, indexed by block id.
    pub fn preds(&self) -> &[Vec<BlockId>] {
        self.preds.get_or_init(|| cfg::predecessors(self.f))
    }

    /// Constant propagation over the function.
    pub fn consts(&self) -> &ConstProp {
        self.consts
            .get_or_init(|| ConstProp::compute(self.f, &self.rpo))
    }
}

/// The facts of each function of one module, computed on first use.
pub(crate) struct ModuleFacts<'m> {
    module: &'m Module,
    funcs: Vec<Lazy<'m>>,
}

/// One function's validation result and facts, each computed on first use.
#[derive(Default)]
struct Lazy<'m> {
    valid: OnceCell<Result<(), String>>,
    facts: OnceCell<FnFacts<'m>>,
}

impl<'m> ModuleFacts<'m> {
    pub fn new(module: &'m Module) -> Self {
        ModuleFacts {
            module,
            funcs: (0..module.function_count())
                .map(|_| Lazy::default())
                .collect(),
        }
    }

    /// Facts of function `fid`, or the message of its validation error.
    pub fn get(&self, fid: FuncId) -> Result<&FnFacts<'m>, &str> {
        let f = self.module.function(fid);
        self.funcs[fid.index()]
            .valid
            .get_or_init(|| f.validate())
            .as_ref()
            .map_err(String::as_str)?;
        Ok(self.unvalidated(fid))
    }

    /// Facts of function `fid` without validating it first, for the body
    /// summaries, which have always summarized malformed bodies as well.
    pub fn unvalidated(&self, fid: FuncId) -> &FnFacts<'m> {
        self.funcs[fid.index()]
            .facts
            .get_or_init(|| FnFacts::compute(self.module.function(fid)))
    }
}
