//! DNS name interning for the resolution hot path.
//!
//! The campaign engine resolves the same handful of names millions of
//! times; carrying them as owned [`Name`]s means every cache key, memo
//! key, trace step, and fault hash clones label vectors. A [`NameTable`]
//! assigns each distinct name a dense [`NameId`] (`u32`) once, so the
//! steady-state loop moves `Copy` ids instead of heap-backed names.
//!
//! The table is built while compiling a namespace (cold path), then
//! frozen and shared read-only across shard workers — exactly like the
//! per-round `MappingSnapshot`. Alongside each name the table precomputes
//! the FNV-1a digest of its `Display` form ([`NameTable::fnv`]), which is
//! what the fault layer keys its deterministic draws on: resuming that
//! digest via `Fnv64::with_state` reproduces the streaming
//! `write!(h, "{name}")` hash bit-for-bit without re-walking the labels.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use core::fmt::Write as _;
use mcdn_dnswire::Name;
use mcdn_faults::Fnv64;
use std::collections::HashMap;

/// A dense identifier for an interned [`Name`]. Ids are assigned in
/// insertion order starting at 0 and are only meaningful relative to the
/// [`NameTable`] that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An insertion-ordered interner mapping [`Name`] ⇄ [`NameId`].
///
/// Each interned name also carries the FNV-1a digest of its `Display`
/// rendering, precomputed once at intern time (see module docs).
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    ids: HashMap<Name, NameId, FnvBuildHasher>,
    names: Vec<Name>,
    fnvs: Vec<u64>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &Name) -> NameId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("name table overflow"));
        self.ids.insert(name.clone(), id);
        self.names.push(name.clone());
        self.fnvs.push(display_fnv(name));
        id
    }

    /// The id of an already-interned name, without interning.
    pub fn get(&self, name: &Name) -> Option<NameId> {
        self.ids.get(name).copied()
    }

    /// The name behind `id`. Panics on an id this table never issued.
    pub fn name(&self, id: NameId) -> &Name {
        &self.names[id.index()]
    }

    /// The FNV-1a digest of `Display(name)` for `id`, equal to streaming
    /// the name through `write!(Fnv64::new(), "{name}")`.
    pub fn fnv(&self, id: NameId) -> u64 {
        self.fnvs[id.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &Name)> {
        self.names.iter().enumerate().map(|(i, n)| (NameId(i as u32), n))
    }

    /// Releases excess capacity after the build phase.
    pub fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.fnvs.shrink_to_fit();
        self.ids.shrink_to_fit();
    }
}

/// The FNV-1a digest of a name's `Display` form — the hash the fault
/// layer derives zone/query keys from.
fn display_fnv(name: &Name) -> u64 {
    let mut h = Fnv64::new();
    let _ = write!(h, "{name}");
    h.finish()
}

/// A deterministic, allocation-free [`std::hash::Hasher`] for the hot-path
/// hash maps (resolver cache, round memo, compiled-zone lookup tables).
///
/// The std `RandomState` hasher re-seeds per process — harmless for
/// correctness (every output that leaves a map is canonicalized first) but
/// needlessly slow for the 6–16-byte keys the resolution loop hashes
/// millions of times. This is FNV-1a over the written bytes with an
/// avalanche finalizer, so the low bits `HashMap` selects buckets from are
/// well mixed even for dense integer keys. Integers (ids, packed keys,
/// length prefixes) are folded in as one word with one multiply rather
/// than byte by byte; the finalizer spreads the word's bits either way.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl FnvHasher {
    fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl std::hash::Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn write_u8(&mut self, i: u8) {
        self.write_word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.write_word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_word(i as u64);
    }

    fn finish(&self) -> u64 {
        // splitmix64-style finalizer: FNV-1a's low bits mix poorly on
        // short integer keys, and HashMap buckets by the low bits.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// [`std::hash::BuildHasher`] for [`FnvHasher`]; zero-sized and
/// `Default`, so `HashMap<K, V, FnvBuildHasher>` works with
/// `HashMap::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_faults::fnv64;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn intern_is_idempotent_and_ordered() {
        let mut t = NameTable::new();
        let a = t.intern(&n("appldnld.apple.com"));
        let b = t.intern(&n("a.gslb.applimg.com"));
        assert_eq!(a, NameId(0));
        assert_eq!(b, NameId(1));
        assert_eq!(t.intern(&n("appldnld.apple.com")), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&n("a.gslb.applimg.com")), Some(b));
        assert_eq!(t.get(&n("missing.example")), None);
        assert_eq!(t.name(a), &n("appldnld.apple.com"));
        let collected: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(collected, vec![a, b]);
    }

    #[test]
    fn precomputed_fnv_matches_streaming_display_hash() {
        let mut t = NameTable::new();
        for s in ["apple.com", "appldnld.apple.com.akadns.net", "a1015.gi3.akamai.net"] {
            let name = n(s);
            let id = t.intern(&name);
            assert_eq!(t.fnv(id), fnv64(name.to_string().as_bytes()), "{s}");
        }
    }

    #[test]
    fn names_are_compared_by_parsed_form() {
        // Name normalizes case; the table must agree with Name equality.
        let mut t = NameTable::new();
        let a = t.intern(&n("Apple.COM"));
        assert_eq!(t.get(&n("apple.com")), Some(a));
        assert_eq!(t.len(), 1);
    }
}
