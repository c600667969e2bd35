//! Global string interning.
//!
//! The decision fast path never touches owned strings: entity namespaces
//! and names, rule ids and operating modes are interned once — at parse,
//! construction or policy-load time — into [`Symbol`]s, 4-byte handles that
//! compare, hash and copy for free. Resolution back to `&'static str` is
//! lock-free: symbols index an append-only bucket table whose entries are
//! written exactly once.
//!
//! Interning a string that is already present takes a shared read lock on
//! the dedup map; only genuinely new strings take the write lock. The map
//! is process-global and a read lock still writes the lock's state, so
//! threads interning at the same time contend on one cache line: resolve
//! strings to symbols once, outside per-event paths. Interned strings are
//! leaked deliberately — the
//! table is global, append-only and bounded by the number of distinct
//! names the process ever sees, which for an embedded policy workload is
//! small and stable.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string handle: 4 bytes, `Copy`, O(1) equality and hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns `s`, returning its stable handle. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        interner().intern(s)
    }

    /// The handle for `s` if it has ever been interned (read-only; never
    /// grows the table).
    pub fn try_get(s: &str) -> Option<Symbol> {
        interner().try_get(s)
    }

    /// Resolves the handle to its string. Lock-free.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self.0)
    }

    /// The raw index (used to pack cache keys).
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bucket `b` holds `32 << b` entries; bucket starts are contiguous, so
/// symbol `n` lives in bucket `ilog2((n + 32) / 32)` — resolution is pure
/// arithmetic plus two already-initialised reads.
const BUCKETS: usize = 26; // 32 << 25 ≈ 10^9 symbols, far beyond any workload

struct Interner {
    dedup: RwLock<HashMap<&'static str, u32>>,
    buckets: [OnceLock<Box<[OnceLock<&'static str>]>>; BUCKETS],
    len: RwLock<u32>,
}

fn locate(index: u32) -> (usize, usize) {
    let adjusted = index as usize + 32;
    let bucket = (usize::BITS - 1 - adjusted.leading_zeros()) as usize - 5;
    let start = (32usize << bucket) - 32;
    (bucket, adjusted - 32 - start)
}

impl Interner {
    fn new() -> Self {
        Interner {
            dedup: RwLock::new(HashMap::new()),
            buckets: [const { OnceLock::new() }; BUCKETS],
            len: RwLock::new(0),
        }
    }

    fn try_get(&self, s: &str) -> Option<Symbol> {
        self.dedup
            .read()
            .expect("interner dedup lock")
            .get(s)
            .copied()
            .map(Symbol)
    }

    fn intern(&self, s: &str) -> Symbol {
        if let Some(sym) = self.try_get(s) {
            return sym;
        }
        let mut dedup = self.dedup.write().expect("interner dedup lock");
        if let Some(&index) = dedup.get(s) {
            return Symbol(index);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        let mut len = self.len.write().expect("interner len lock");
        let index = *len;
        let (bucket, slot) = locate(index);
        let storage = self.buckets[bucket].get_or_init(|| {
            (0..(32usize << bucket))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        storage[slot].set(leaked).expect("fresh interner slot");
        *len = index + 1;
        dedup.insert(leaked, index);
        Symbol(index)
    }

    fn resolve(&self, index: u32) -> &'static str {
        let (bucket, slot) = locate(index);
        self.buckets[bucket]
            .get()
            .and_then(|b| b[slot].get())
            .copied()
            .expect("symbol resolved before interning")
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let a = Symbol::intern("alpha-interner-test");
        let b = Symbol::intern("alpha-interner-test");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "alpha-interner-test");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("intern-x");
        let b = Symbol::intern("intern-y");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "intern-x");
        assert_eq!(b.as_str(), "intern-y");
    }

    #[test]
    fn try_get_only_sees_interned() {
        assert!(Symbol::try_get("never-interned-sentinel-xyzzy").is_none());
        let s = Symbol::intern("interned-sentinel");
        assert_eq!(Symbol::try_get("interned-sentinel"), Some(s));
    }

    #[test]
    fn bucket_arithmetic_covers_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
    }

    #[test]
    fn many_symbols_cross_buckets() {
        let syms: Vec<Symbol> = (0..300)
            .map(|i| Symbol::intern(&format!("bulk-intern-{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("bulk-intern-{i}"));
        }
    }

    #[test]
    fn display_matches_as_str() {
        let s = Symbol::intern("display-me");
        assert_eq!(s.to_string(), "display-me");
    }
}
