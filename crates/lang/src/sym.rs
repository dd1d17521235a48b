//! Identifiers as numbers: the per-compile symbol table.
//!
//! The lexer interns every identifier once; from then on the AST, the
//! type checker, the instantiation memo tables and the first-order IR
//! carry [`Sym`]s and compare integers. One table belongs to one
//! compile: [`crate::parser::parse`] creates it, [`crate::check::check`]
//! copies it (the instantiation pass adds the names it synthesizes), and
//! it ends its life as the string table of the [`crate::fo::FoProgram`].
//!
//! The language's own names — keywords, builtin type names, and every
//! builtin of [`crate::builtins::BUILTINS`] — come first, in a fixed
//! order, so that they have the same `Sym` in every table and the front
//! end can match on them as constants. They live in one immutable seed,
//! built once per process like the builtin table it mirrors; a compile's
//! table reads it and stores only the program's own names. Nothing else
//! is shared between compiles.

#![forbid(unsafe_code)]

use std::hash::{BuildHasher, RandomState};
use std::sync::OnceLock;

use crate::builtins::BUILTINS;

/// An interned identifier: an index into its compile's [`Names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The symbol's position in its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

macro_rules! fixed_names {
    ($($name:ident = $text:literal,)*) => {
        /// Spellings of the fixed symbols, in `Sym` order.
        const FIXED: &[&str] = &[$($text),*];
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u32)]
        enum Fixed { $($name,)* Count }
        #[allow(missing_docs)] // each is the symbol of the name it spells
        impl Sym { $(pub const $name: Sym = Sym(Fixed::$name as u32);)* }
    };
}

fixed_names! {
    PARDATA = "pardata", STRUCT = "struct", IF = "if", ELSE = "else", WHILE = "while",
    FOR = "for", RETURN = "return",
    INT = "int", UINT = "uint", UNSIGNED = "unsigned", CHAR = "char", FLOAT = "float",
    DOUBLE = "double", VOID = "void", INDEX = "Index", SIZE = "Size", BOUNDS = "Bounds",
    LIST = "list", ARRAY = "array",
    LOWER_BD = "lowerBd", UPPER_BD = "upperBd", MAIN = "main", X0 = "x0", X1 = "x1",
}

impl Sym {
    /// The symbol of `BUILTINS[0]`; the builtins follow the fixed names
    /// in table order.
    const FIRST_BUILTIN: u32 = Fixed::Count as u32;

    /// Position in [`BUILTINS`] when this names a builtin.
    pub fn builtin_index(self) -> Option<usize> {
        let i = self.0.wrapping_sub(Sym::FIRST_BUILTIN) as usize;
        (i < BUILTINS.len()).then_some(i)
    }

    /// True for `pardata`, `struct`, `if`, `else`, `while`, `for`,
    /// `return`: names that can never be types or variables.
    pub fn is_reserved(self) -> bool {
        self.0 <= Sym::RETURN.0
    }
}

/// Strings stored back to back: one buffer and the end offset of each.
#[derive(Debug, Clone, Default, PartialEq)]
struct Table {
    buf: String,
    ends: Vec<u32>,
}

impl Table {
    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    fn push(&mut self, s: &str) {
        self.buf.push_str(s);
        self.ends.push(u32::try_from(self.buf.len()).expect("names fit 4 GiB"));
    }
}

/// The language's own names with their hash index, built once per
/// process and never changed: every compile's table starts as a view of
/// it.
struct Seed {
    table: Table,
    slots: Vec<u32>,
    hasher: RandomState,
}

/// How many symbols the seed holds; a compile's own names are numbered
/// from here.
const SEED_LEN: usize = FIXED.len() + BUILTINS.len();

fn seed() -> &'static Seed {
    static SEED: OnceLock<Seed> = OnceLock::new();
    SEED.get_or_init(|| {
        let hasher = RandomState::new();
        let mut table = Table::default();
        let mut slots = vec![0; 512];
        // (distinct by construction: a keyword is no builtin)
        for name in FIXED.iter().copied().chain(BUILTINS.iter().map(|b| b.name)) {
            table.push(name);
            fill_slot(&mut slots, &hasher, name, table.ends.len() as u32);
        }
        Seed { table, slots, hasher }
    })
}

/// Put `n` (a symbol + 1) into the first free slot on `s`'s probe path.
fn fill_slot(slots: &mut [u32], hasher: &RandomState, s: &str, n: u32) {
    let mask = slots.len() - 1;
    let mut at = hasher.hash_one(s) as usize & mask;
    while slots[at] != 0 {
        at = (at + 1) & mask;
    }
    slots[at] = n;
}

/// The strings behind a compile's [`Sym`]s. The language's own names are
/// read from the shared seed; the table holds only what the program
/// added.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Names {
    own: Table,
}

impl Names {
    /// The spelling of `sym`.
    pub fn get(&self, sym: Sym) -> &str {
        match sym.index().checked_sub(SEED_LEN) {
            Some(i) => self.own.get(i),
            None => seed().table.get(sym.index()),
        }
    }

    /// Number of names, the language's own included.
    pub fn len(&self) -> usize {
        SEED_LEN + self.own.ends.len()
    }

    /// Never: the language's own names are always there.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The symbol spelled `s`, by linear search — for tests and tools;
    /// the compiler itself goes through [`Interner::intern`].
    pub fn find(&self, s: &str) -> Option<Sym> {
        (0..self.len() as u32).map(Sym).find(|&sym| self.get(sym) == s)
    }

    /// Heap bytes held (the shared seed is nobody's).
    pub fn heap_bytes(&self) -> usize {
        self.own.buf.capacity() + self.own.ends.capacity() * std::mem::size_of::<u32>()
    }
}

/// A growing [`Names`] with a hash index over it. Keys come from
/// program text, so hashing is std's keyed SipHash ([`RandomState`]);
/// the index itself is open addressing over `u32` slots (`0` empty,
/// otherwise symbol + 1), which needs no owned key per entry.
#[derive(Debug, Clone)]
pub struct Interner {
    names: Names,
    slots: Vec<u32>,
    hasher: RandomState,
}

impl std::ops::Deref for Interner {
    type Target = Names;
    fn deref(&self) -> &Names {
        &self.names
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// A table holding the language's own names and nothing else.
    pub fn new() -> Interner {
        let seed = seed();
        let own = Table { buf: String::with_capacity(512), ends: Vec::with_capacity(64) };
        Interner { names: Names { own }, slots: seed.slots.clone(), hasher: seed.hasher.clone() }
    }

    /// The symbol for `s`, new or existing.
    pub fn intern(&mut self, s: &str) -> Sym {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(s) as usize & mask;
        loop {
            match self.slots[at] {
                0 => break,
                n if self.names.get(Sym(n - 1)) == s => return Sym(n - 1),
                _ => at = (at + 1) & mask,
            }
        }
        let sym = Sym(u32::try_from(self.names.len()).expect("fewer than 2^32 identifiers"));
        self.names.own.push(s);
        self.slots[at] = sym.0 + 1;
        if self.names.len() * 2 > self.slots.len() {
            self.grow();
        }
        sym
    }

    fn grow(&mut self) {
        let mut slots = vec![0; self.slots.len() * 2];
        for n in 0..self.names.len() as u32 {
            fill_slot(&mut slots, &self.hasher, self.names.get(Sym(n)), n + 1);
        }
        self.slots = slots;
    }

    /// The strings without the index, at their exact size.
    pub fn to_names(&self) -> Names {
        // (`Clone` allocates for the length, not the capacity)
        self.names.clone()
    }
}

/// A map from symbols to `T`, dense: symbols are small consecutive
/// integers, so a lookup is an index.
#[derive(Debug, Clone)]
pub struct SymMap<T>(Vec<Option<T>>);

impl<T> Default for SymMap<T> {
    fn default() -> Self {
        SymMap(Vec::new())
    }
}

impl<T> SymMap<T> {
    /// The entry for `sym`.
    pub fn get(&self, sym: Sym) -> Option<&T> {
        self.0.get(sym.index()).and_then(Option::as_ref)
    }

    /// Set the entry for `sym`; returns the one it replaces.
    pub fn insert(&mut self, sym: Sym, value: T) -> Option<T> {
        if self.0.len() <= sym.index() {
            self.0.resize_with(sym.index() + 1, || None);
        }
        self.0[sym.index()].replace(value)
    }

    /// The entry for `sym`, made by `default` when absent.
    pub fn get_or_insert_with(&mut self, sym: Sym, default: impl FnOnce() -> T) -> &mut T {
        if self.0.len() <= sym.index() {
            self.0.resize_with(sym.index() + 1, || None);
        }
        self.0[sym.index()].get_or_insert_with(default)
    }

    /// True when `sym` has an entry.
    pub fn contains(&self, sym: Sym) -> bool {
        self.get(sym).is_some()
    }
}

/// Lexically scoped bindings of symbols to `T` — the type checker's
/// local types, the bytecode compiler's frame slots, the walker's
/// values: one stack of bindings, and where each open scope starts in
/// it. A function has a handful of locals, so lookup is a backward scan
/// (innermost scope, latest declaration first).
#[derive(Debug)]
pub struct Scopes<T> {
    vars: Vec<(Sym, T)>,
    starts: Vec<usize>,
}

impl<T> Default for Scopes<T> {
    fn default() -> Self {
        Scopes { vars: Vec::new(), starts: Vec::new() }
    }
}

impl<T> Scopes<T> {
    /// Enter a scope.
    pub fn push(&mut self) {
        self.starts.push(self.vars.len());
    }

    /// Leave a scope, dropping what it declared.
    pub fn pop(&mut self) {
        let start = self.starts.pop().expect("scope");
        self.vars.truncate(start);
    }

    /// Declare a variable in the innermost scope.
    pub fn declare(&mut self, name: Sym, value: T) {
        self.vars.push((name, value));
    }

    /// Look a variable up, innermost first.
    pub fn lookup(&self, name: Sym) -> Option<&T> {
        self.vars.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Look a variable up for assignment, innermost first.
    pub fn lookup_mut(&mut self, name: Sym) -> Option<&mut T> {
        self.vars.iter_mut().rev().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_builtin_names_have_their_constant_symbols() {
        let t = Interner::new();
        assert_eq!(t.get(Sym::PARDATA), "pardata");
        assert_eq!(t.get(Sym::ARRAY), "array");
        assert_eq!(t.get(Sym::X1), "x1");
        assert_eq!(t.len(), FIXED.len() + BUILTINS.len());
        assert_eq!(t.heap_bytes(), 512 + 64 * 4, "nothing of the seed is copied");
        for (i, b) in BUILTINS.iter().enumerate() {
            let sym = t.find(b.name).expect("seeded");
            assert_eq!(sym.builtin_index(), Some(i), "{}", b.name);
        }
        assert_eq!(Sym::MAIN.builtin_index(), None);
        assert!(Sym::RETURN.is_reserved() && !Sym::INT.is_reserved());
    }

    #[test]
    fn interning_is_idempotent_and_survives_growth() {
        let mut t = Interner::new();
        assert_eq!(t.intern("array"), Sym::ARRAY);
        let names: Vec<String> = (0..2000).map(|i| format!("v{i}")).collect();
        let syms: Vec<Sym> = names.iter().map(|n| t.intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(t.intern(n), *s);
            assert_eq!(t.get(*s), n);
        }
        assert_eq!(t.intern("main"), Sym::MAIN);
        let frozen = t.to_names();
        assert_eq!(frozen.get(syms[1999]), "v1999");
        assert_eq!(frozen.find("v7"), Some(syms[7]));
        assert_eq!(frozen.get(Sym::MAIN), "main");
        let own: usize = names.iter().map(|n| n.len() + 4).sum();
        assert_eq!(frozen.heap_bytes(), own, "exact size, the program's own names only");
    }

    #[test]
    fn tables_of_two_compiles_share_nothing_but_the_seed() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        let xa = a.intern("only_in_a");
        let xb = b.intern("only_in_b");
        assert_eq!(xa, xb, "each table numbers its own names");
        assert_eq!(a.get(xa), "only_in_a");
        assert_eq!(b.get(xb), "only_in_b");
    }

    #[test]
    fn sym_map_is_sparse_by_symbol() {
        let mut m: SymMap<u32> = SymMap::default();
        assert!(m.get(Sym::MAIN).is_none());
        assert_eq!(m.insert(Sym::MAIN, 1), None);
        assert_eq!(m.insert(Sym::MAIN, 2), Some(1));
        *m.get_or_insert_with(Sym::INT, || 0) += 5;
        assert_eq!(m.get(Sym::INT), Some(&5));
        assert!(!m.contains(Sym::ARRAY));
    }

    #[test]
    fn scopes_shadow_and_end() {
        let mut s: Scopes<u32> = Scopes::default();
        s.declare(Sym::X0, 1);
        s.push();
        s.declare(Sym::X0, 2);
        s.declare(Sym::X1, 3);
        assert_eq!(s.lookup(Sym::X0), Some(&2));
        *s.lookup_mut(Sym::X1).unwrap() = 4;
        assert_eq!(s.lookup(Sym::X1), Some(&4));
        s.pop();
        assert_eq!(s.lookup(Sym::X0), Some(&1));
        assert_eq!(s.lookup(Sym::X1), None);
    }
}
