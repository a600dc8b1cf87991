//! Modules: the unit of compilation and execution.

use crate::function::Function;
use crate::layout;
use crate::types::Word;
use std::fmt;

/// Identifier of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Dense index for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// Identifier of a global data object within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// A global data object: a named, word-granular array in the global segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Global {
    /// Human-readable name.
    pub name: String,
    /// Size in 8-byte words.
    pub words: u64,
    /// Absolute base address assigned at [`Module::add_global`] time.
    pub addr: Word,
    /// Optional initial contents (`init[i]` goes to word `i`); missing words
    /// are zero.
    pub init: Vec<Word>,
}

/// A compilation/execution unit: functions plus global data.
///
/// Globals are laid out eagerly from [`layout::GLOBAL_BASE`] by a bump
/// allocator, so [`Module::global_addr`] is usable immediately after
/// [`Module::add_global`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Module {
    /// Module name (diagnostics only).
    pub name: String,
    functions: Vec<Function>,
    globals: Vec<Global>,
    next_global_addr: Word,
    entry: Option<FuncId>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
            next_global_addr: layout::GLOBAL_BASE,
            entry: None,
        }
    }

    /// Add a zero-initialized global of `words` 8-byte words; returns its id.
    pub fn add_global(&mut self, name: impl Into<String>, words: u64) -> GlobalId {
        self.add_global_init(name, words, Vec::new())
    }

    /// Add a global with initial contents (padded with zeros to `words`).
    ///
    /// # Panics
    /// Panics if `init.len() > words`.
    pub fn add_global_init(
        &mut self,
        name: impl Into<String>,
        words: u64,
        init: Vec<Word>,
    ) -> GlobalId {
        assert!(init.len() as u64 <= words, "initializer longer than global");
        let id = GlobalId(self.globals.len() as u32);
        let addr = self.next_global_addr;
        // 64-byte align each global so distinct globals never share a
        // cacheline (keeps the alias story and the cache model clean).
        self.next_global_addr += (words.max(1) * 8 + 63) & !63;
        self.globals.push(Global {
            name: name.into(),
            words,
            addr,
            init,
        });
        id
    }

    /// Absolute base address of global `g`.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn global_addr(&self, g: GlobalId) -> Word {
        self.globals[g.0 as usize].addr
    }

    /// The global table.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// Add a function; returns its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// The function with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function (used by compiler passes).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Iterate `(FuncId, &Function)` in id order.
    pub fn iter_functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Number of functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Look up a function id by name.
    pub fn find_function(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Set the entry function executed by the interpreter.
    pub fn set_entry(&mut self, f: FuncId) {
        self.entry = Some(f);
    }

    /// The entry function, if set.
    pub fn entry(&self) -> Option<FuncId> {
        self.entry
    }

    /// Resolve a possibly [`layout::GLOBAL_TAG`]-tagged address to an absolute
    /// address. Untagged addresses — and values that merely *look* tagged
    /// (e.g. small negative constants produced by wrapping arithmetic) but do
    /// not name a real global — pass through unchanged.
    #[inline]
    pub fn resolve_addr(&self, addr: Word) -> Word {
        if layout::is_tagged_global(addr) {
            let (id, off) = layout::untag_global(addr);
            if let Some(g) = self.globals.get(id as usize) {
                return g.addr + off;
            }
        }
        addr
    }

    /// Validate every function (see [`Function::validate`]) and that an entry
    /// point is set.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.entry.is_none() {
            return Err(format!("module {}: no entry function", self.name));
        }
        for (_, f) in self.iter_functions() {
            f.validate()?;
        }
        Ok(())
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Inst;

    #[test]
    fn globals_are_laid_out_disjoint_and_aligned() {
        let mut m = Module::new("t");
        let a = m.add_global("a", 3); // 24B -> padded to 64
        let b = m.add_global("b", 1);
        assert_eq!(m.global_addr(a), layout::GLOBAL_BASE);
        assert_eq!(m.global_addr(b), layout::GLOBAL_BASE + 64);
        assert_eq!(m.global_addr(b) % 64, 0);
    }

    #[test]
    fn resolve_tagged_addr() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 4);
        let tagged = layout::GLOBAL_TAG | ((g.0 as Word) << 32) | 16;
        assert_eq!(m.resolve_addr(tagged), m.global_addr(g) + 16);
        assert_eq!(m.resolve_addr(12345), 12345);
    }

    #[test]
    #[should_panic(expected = "initializer longer")]
    fn oversized_init_panics() {
        let mut m = Module::new("t");
        m.add_global_init("g", 1, vec![1, 2]);
    }

    #[test]
    fn find_and_entry() {
        let mut m = Module::new("t");
        let mut f = FunctionBuilder::new("main", 0);
        let e = f.entry();
        f.push(e, Inst::Halt);
        let id = m.add_function(f.build());
        assert_eq!(m.find_function("main"), Some(id));
        assert_eq!(m.find_function("nope"), None);
        assert!(m.validate().is_err(), "no entry yet");
        m.set_entry(id);
        assert!(m.validate().is_ok());
        assert_eq!(m.entry(), Some(id));
        assert_eq!(m.inst_count(), 1);
    }
}
