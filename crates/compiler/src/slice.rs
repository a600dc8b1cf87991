//! Recovery slices (§IV-C, §VII).
//!
//! A region's recovery slice (RS) restores the region's live-in registers
//! before re-execution. Each live-in comes from one of two sources: its NVM
//! checkpoint slot, or a compile-time rematerialized constant (the pruner's
//! constant folding; DESIGN.md §3.2).

use cwsp_ir::interp::Interp;
use cwsp_ir::layout;
use cwsp_ir::types::{Reg, RegionId, Word};
use std::collections::HashMap;

/// How one live-in register is restored at recovery.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RsSource {
    /// Load the register's NVM checkpoint slot
    /// ([`layout::ckpt_slot_addr`]).
    Slot,
    /// Rematerialize a compile-time constant (checkpoint pruned).
    Const(Word),
    /// Rematerialize by re-applying operations over immediates and *other*
    /// registers' checkpoint slots — the general Penny case (§IV-C, Fig 4's
    /// `r3 = shl(slot_r3_of_Rg0, 1)`).
    Expr(RematExpr),
}

/// A rematerialization expression evaluated by the recovery slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RematExpr {
    /// An immediate.
    Const(Word),
    /// Another register's checkpoint slot (that checkpoint is kept).
    Slot(Reg),
    /// Re-apply a binary operation.
    Bin(cwsp_ir::inst::BinOp, Box<RematExpr>, Box<RematExpr>),
}

impl RematExpr {
    /// Evaluate against a memory image for `core`.
    pub fn eval(&self, mem: &cwsp_ir::memory::Memory, core: usize) -> Word {
        match self {
            RematExpr::Const(c) => *c,
            RematExpr::Slot(r) => mem.load(layout::ckpt_slot_addr(core, *r)),
            RematExpr::Bin(op, l, r) => op.eval(l.eval(mem, core), r.eval(mem, core)),
        }
    }

    /// Number of nodes (used to cap slice size).
    pub fn size(&self) -> usize {
        match self {
            RematExpr::Const(_) | RematExpr::Slot(_) => 1,
            RematExpr::Bin(_, l, r) => 1 + l.size() + r.size(),
        }
    }

    /// The slot leaves this expression reads.
    pub fn slot_leaves(&self, out: &mut Vec<Reg>) {
        match self {
            RematExpr::Const(_) => {}
            RematExpr::Slot(r) => out.push(*r),
            RematExpr::Bin(_, l, r) => {
                l.slot_leaves(out);
                r.slot_leaves(out);
            }
        }
    }
}

/// The recovery slice of one static region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySlice {
    /// `(register, source)` for every live-in of the region.
    pub restores: Vec<(Reg, RsSource)>,
}

impl RecoverySlice {
    /// Number of live-ins restored from NVM slots (a recovery-cost metric).
    pub fn slot_loads(&self) -> usize {
        self.restores
            .iter()
            .filter(|(_, s)| matches!(s, RsSource::Slot))
            .count()
    }

    /// Apply the slice to a resumed interpreter on `core`: the runtime's
    /// "jumps to the region's recovery slice where its live-in registers are
    /// restored" step (§VII).
    pub fn apply(&self, interp: &mut Interp<'_>, mem: &cwsp_ir::memory::Memory, core: usize) {
        for (r, src) in &self.restores {
            let v = match src {
                RsSource::Slot => mem.load(layout::ckpt_slot_addr(core, *r)),
                RsSource::Const(c) => *c,
                RsSource::Expr(e) => e.eval(mem, core),
            };
            interp.set_reg(*r, v);
        }
    }
}

/// Recovery slices for every static region of a compiled module.
#[derive(Debug, Clone, Default)]
pub struct SliceTable {
    slices: HashMap<RegionId, RecoverySlice>,
}

impl SliceTable {
    /// Empty table.
    pub fn new() -> Self {
        SliceTable::default()
    }

    /// Install the slice for `region`.
    pub fn insert(&mut self, region: RegionId, slice: RecoverySlice) {
        self.slices.insert(region, slice);
    }

    /// The slice for `region`, if any (regions with no live-ins may be
    /// absent; treat as empty).
    pub fn get(&self, region: RegionId) -> Option<&RecoverySlice> {
        self.slices.get(&region)
    }

    /// Number of regions with slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Iterate `(region, slice)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&RegionId, &RecoverySlice)> {
        self.slices.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{Inst, Operand};
    use cwsp_ir::module::Module;

    #[test]
    fn apply_restores_from_slot_and_const() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r0 = b.vreg();
        let r1 = b.vreg();
        assert_eq!((r0, r1), (Reg(0), Reg(1)));
        b.push(
            e,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(0),
            },
        );
        b.push(
            e,
            Inst::Mov {
                dst: r1,
                src: Operand::imm(0),
            },
        );
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let mut mem = cwsp_ir::memory::Memory::new();
        let mut interp = Interp::new(&m, 3, &mut mem).unwrap();
        // Pretend a checkpoint persisted 99 in r0's slot on core 3.
        mem.store(layout::ckpt_slot_addr(3, Reg(0)), 99);
        let slice = RecoverySlice {
            restores: vec![(Reg(0), RsSource::Slot), (Reg(1), RsSource::Const(7))],
        };
        assert_eq!(slice.slot_loads(), 1);
        slice.apply(&mut interp, &mem, 3);
        assert_eq!(interp.reg(Reg(0)), 99);
        assert_eq!(interp.reg(Reg(1)), 7);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = SliceTable::new();
        assert!(t.is_empty());
        t.insert(
            RegionId(4),
            RecoverySlice {
                restores: vec![(Reg(2), RsSource::Slot)],
            },
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(RegionId(4)).unwrap().restores.len(), 1);
        assert!(t.get(RegionId(5)).is_none());
        assert_eq!(t.iter().count(), 1);
    }
}
