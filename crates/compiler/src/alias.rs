//! Lightweight symbolic alias analysis.
//!
//! Region formation must decide, for a load followed by a store on the same
//! path, whether the two accesses *may* touch the same word — that pair is a
//! memory antidependence and must be cut (§IV-A). The paper uses LLVM's alias
//! analysis; we use a small abstract interpretation over the path being
//! analyzed: registers carry either an exactly-known constant, a symbolic
//! base plus a known byte delta, or nothing.
//!
//! Because all accesses are 8-byte words at 8-byte alignment, two accesses
//! alias exactly when their addresses are equal — so "known distinct" is easy
//! to prove for same-base/different-delta and different-constant cases, and
//! everything else conservatively may-alias.

use cwsp_ir::fxhash::FxHashMap;
use cwsp_ir::inst::{Inst, MemRef, Operand};
use cwsp_ir::module::Module;
use cwsp_ir::types::{Reg, Word};

/// Abstract value of a register along a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractVal {
    /// Exactly-known constant.
    Const(Word),
    /// Unknown base value identified by a symbol, plus a known delta.
    /// Two occurrences of the same symbol denote the *same* runtime value.
    Base(u32, i64),
}

/// Abstract address of a memory access.
pub type AbstractAddr = AbstractVal;

/// Decide whether two abstract addresses may refer to the same word.
///
/// # Example
/// ```
/// use cwsp_compiler::alias::{may_alias, AbstractVal};
/// assert!(!may_alias(AbstractVal::Const(64), AbstractVal::Const(72)));
/// assert!(may_alias(AbstractVal::Const(64), AbstractVal::Const(64)));
/// assert!(!may_alias(AbstractVal::Base(1, 0), AbstractVal::Base(1, 8)));
/// assert!(may_alias(AbstractVal::Base(1, 0), AbstractVal::Base(2, 0)));
/// ```
pub fn may_alias(a: AbstractAddr, b: AbstractAddr) -> bool {
    match (a, b) {
        (AbstractVal::Const(x), AbstractVal::Const(y)) => x == y,
        (AbstractVal::Base(s1, d1), AbstractVal::Base(s2, d2)) => s1 != s2 || d1 == d2,
        // A constant and an unknown base: cannot disprove.
        _ => true,
    }
}

/// Tracks abstract register values along one straight-line path.
///
/// Feed instructions in path order with [`PathState::transfer`]; query access
/// addresses with [`PathState::addr_of`] *before* transferring the
/// instruction that performs the access.
#[derive(Debug, Clone)]
pub struct PathState<'m> {
    module: &'m Module,
    /// Abstract value of each register the path has read or written. A
    /// map, not a table indexed by register: the autofence pass runs this
    /// over unvalidated modules, whose register numbers are unbounded.
    vals: FxHashMap<Reg, AbstractVal>,
    next_sym: u32,
}

impl<'m> PathState<'m> {
    /// Fresh path state (all registers unknown).
    pub fn new(module: &'m Module) -> Self {
        PathState {
            module,
            vals: FxHashMap::default(),
            next_sym: 0,
        }
    }

    /// Forget the path: back to the [`PathState::new`] state, keeping the
    /// map's allocation.
    pub fn reset(&mut self) {
        self.vals.clear();
        self.next_sym = 0;
    }

    fn fresh(&mut self) -> AbstractVal {
        let s = self.next_sym;
        self.next_sym += 1;
        AbstractVal::Base(s, 0)
    }

    fn operand(&mut self, op: Operand) -> AbstractVal {
        match op {
            Operand::Imm(v) => AbstractVal::Const(self.module.resolve_addr(v)),
            Operand::Reg(r) => match self.vals.get(&r) {
                Some(v) => *v,
                None => {
                    let v = self.fresh();
                    self.vals.insert(r, v);
                    v
                }
            },
        }
    }

    /// Abstract address of `m` in the current state.
    pub fn addr_of(&mut self, m: &MemRef) -> AbstractAddr {
        match self.operand(m.base) {
            AbstractVal::Const(c) => AbstractVal::Const(c.wrapping_add(m.offset as Word)),
            AbstractVal::Base(s, d) => AbstractVal::Base(s, d.wrapping_add(m.offset)),
        }
    }

    /// Update the state across `inst`.
    pub fn transfer(&mut self, inst: &Inst) {
        use cwsp_ir::inst::BinOp;
        match inst {
            Inst::Mov { dst, src } => {
                let v = self.operand(*src);
                self.vals.insert(*dst, v);
            }
            Inst::Binary { op, dst, lhs, rhs } => {
                let l = self.operand(*lhs);
                let r = self.operand(*rhs);
                let v = match (op, l, r) {
                    (_, AbstractVal::Const(a), AbstractVal::Const(b)) => {
                        AbstractVal::Const(op.eval(a, b))
                    }
                    (BinOp::Add, AbstractVal::Base(s, d), AbstractVal::Const(c)) => {
                        AbstractVal::Base(s, d.wrapping_add(c as i64))
                    }
                    (BinOp::Add, AbstractVal::Const(c), AbstractVal::Base(s, d)) => {
                        AbstractVal::Base(s, d.wrapping_add(c as i64))
                    }
                    (BinOp::Sub, AbstractVal::Base(s, d), AbstractVal::Const(c)) => {
                        AbstractVal::Base(s, d.wrapping_sub(c as i64))
                    }
                    _ => self.fresh(),
                };
                self.vals.insert(*dst, v);
            }
            _ => {
                // Any other definition (loads, calls, atomics…) produces an
                // unknown value.
                for d in crate::liveness::defs(inst) {
                    let v = self.fresh();
                    self.vals.insert(d, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::inst::BinOp;

    fn state(m: &Module) -> PathState<'_> {
        PathState::new(m)
    }

    #[test]
    fn constant_addresses_disambiguate() {
        let m = Module::new("t");
        let mut st = state(&m);
        let a = st.addr_of(&MemRef::abs(64));
        let b = st.addr_of(&MemRef::abs(72));
        assert!(!may_alias(a, b));
        let c = st.addr_of(&MemRef::abs(64));
        assert!(may_alias(a, c));
    }

    #[test]
    fn same_base_different_offset_disambiguates() {
        let m = Module::new("t");
        let mut st = state(&m);
        // r0 unknown; [r0] vs [r0+8] vs [r0]
        let a = st.addr_of(&MemRef::reg(Reg(0), 0));
        let b = st.addr_of(&MemRef::reg(Reg(0), 8));
        let c = st.addr_of(&MemRef::reg(Reg(0), 0));
        assert!(!may_alias(a, b));
        assert!(may_alias(a, c));
    }

    #[test]
    fn add_const_tracks_delta() {
        let m = Module::new("t");
        let mut st = state(&m);
        // r1 = r0 + 8  =>  [r1] aliases [r0+8], not [r0]
        let base = st.addr_of(&MemRef::reg(Reg(0), 0));
        st.transfer(&Inst::binary(
            BinOp::Add,
            Reg(1),
            Reg(0).into(),
            Operand::imm(8),
        ));
        let derived = st.addr_of(&MemRef::reg(Reg(1), 0));
        assert!(!may_alias(base, derived));
        let plus8 = st.addr_of(&MemRef::reg(Reg(0), 8));
        assert!(may_alias(derived, plus8));
    }

    #[test]
    fn redefinition_invalidates_tracking() {
        let m = Module::new("t");
        let mut st = state(&m);
        let before = st.addr_of(&MemRef::reg(Reg(0), 0));
        // r0 = load [...] -> unknown new value
        st.transfer(&Inst::load(Reg(0), MemRef::abs(64)));
        let after = st.addr_of(&MemRef::reg(Reg(0), 0));
        assert!(
            may_alias(before, after),
            "different symbols conservatively alias"
        );
        assert_ne!(before, after);
    }

    #[test]
    fn tagged_globals_resolve_to_distinct_constants() {
        let mut m = Module::new("t");
        let g1 = m.add_global("a", 8);
        let g2 = m.add_global("b", 8);
        let mut st = state(&m);
        let a = st.addr_of(&MemRef::global(g1, 0));
        let b = st.addr_of(&MemRef::global(g2, 0));
        assert!(!may_alias(a, b), "distinct globals never alias");
        let a0 = st.addr_of(&MemRef::global(g1, 0));
        assert!(may_alias(a, a0));
    }

    #[test]
    fn const_folding_through_mov_chains() {
        let m = Module::new("t");
        let mut st = state(&m);
        st.transfer(&Inst::Mov {
            dst: Reg(0),
            src: Operand::imm(100),
        });
        st.transfer(&Inst::binary(
            BinOp::Shl,
            Reg(1),
            Reg(0).into(),
            Operand::imm(3),
        ));
        let a = st.addr_of(&MemRef::reg(Reg(1), 0));
        assert_eq!(a, AbstractVal::Const(800));
    }

    #[test]
    fn sub_const_tracks_delta() {
        let m = Module::new("t");
        let mut st = state(&m);
        let base = st.addr_of(&MemRef::reg(Reg(0), 0));
        st.transfer(&Inst::binary(
            BinOp::Sub,
            Reg(1),
            Reg(0).into(),
            Operand::imm(8),
        ));
        let d = st.addr_of(&MemRef::reg(Reg(1), 0));
        assert!(!may_alias(base, d));
        assert!(may_alias(d, st.addr_of(&MemRef::reg(Reg(0), -8))));
    }
}
