//! Interned DNS names.
//!
//! The internet-scale tier registers a million site names; storing each as
//! its own `String` (in the zone, again in every `Site`) costs several heap
//! allocations and ~60 bytes of overhead per copy. A [`NameTable`] stores
//! every distinct name once in a shared byte arena and hands out dense
//! `u32` [`NameId`]s; everything else carries the id and borrows the bytes
//! back on demand. Whether a name is in wire form is decided once, when it
//! is interned, so a lookup by id never scans the name.

use crate::wire;
use ipv6web_stats::fnv1a64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Dense identifier of an interned name (index into its [`NameTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NameId(pub u32);

impl NameId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only symbol table of DNS names: one byte arena plus offsets, with
/// a hash index for string→id lookup. Interning the same name twice returns
/// the same id.
#[derive(Debug, Clone)]
pub struct NameTable {
    bytes: String,
    /// `offsets[i]..offsets[i + 1]` spans name `i`; length is `len() + 1`.
    offsets: Vec<u32>,
    /// Whether name `i` is in wire form (`wire::wire_form_len`).
    wire_form: Vec<bool>,
    /// FNV-1a name hash → id of the first name seen with that hash.
    /// Collisions are resolved against the arena, so the hash only has to
    /// be cheap, not perfect.
    index: HashMap<u64, u32>,
    /// Ids whose name hash collided with an earlier, different name.
    collisions: Vec<u32>,
}

impl NameTable {
    /// Empty table.
    pub fn new() -> Self {
        NameTable {
            bytes: String::new(),
            offsets: vec![0],
            wire_form: Vec::new(),
            index: HashMap::new(),
            collisions: Vec::new(),
        }
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no names are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns `name`, returning its id (existing id if already interned).
    ///
    /// # Panics
    /// Panics if the id space (`u32`) or the arena (`u32` offsets) would
    /// overflow — both are unreachable below ~4 billion names.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.id_of(name) {
            return id;
        }
        let id = u32::try_from(self.len()).expect("name count exceeds u32 id space");
        let end = self.bytes.len() + name.len();
        let end = u32::try_from(end).expect("name arena exceeds u32 offset space");
        self.bytes.push_str(name);
        self.offsets.push(end);
        self.wire_form.push(wire::wire_form_len(name).is_some());
        let h = fnv1a64(name.as_bytes());
        match self.index.entry(h) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(_) => self.collisions.push(id),
        }
        NameId(id)
    }

    /// The name interned as `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn get(&self, id: NameId) -> &str {
        let i = id.index();
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length in bytes of the name interned as `id`, read from its offsets
    /// alone.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub(crate) fn name_len(&self, id: NameId) -> usize {
        let i = id.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Whether the name interned as `id` is in wire form: the codec
    /// carries it and decodes it back to the same spelling.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub(crate) fn is_wire_form(&self, id: NameId) -> bool {
        self.wire_form[id.index()]
    }

    /// Looks up the id of `name`, if interned.
    pub fn id_of(&self, name: &str) -> Option<NameId> {
        let h = fnv1a64(name.as_bytes());
        if let Some(&id) = self.index.get(&h) {
            if self.get(NameId(id)) == name {
                return Some(NameId(id));
            }
            // hash collided with a different name: fall through to the
            // (near-empty) collision list
            return self.collisions.iter().copied().map(NameId).find(|&c| self.get(c) == name);
        }
        None
    }

    /// Iterates `(id, name)` in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> {
        (0..self.len() as u32).map(move |i| (NameId(i), self.get(NameId(i))))
    }
}

impl Default for NameTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for NameTable {
    fn eq(&self, other: &Self) -> bool {
        // the hash index and the wire-form flags are derived state; the
        // arena is the identity
        self.bytes == other.bytes && self.offsets == other.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_get_roundtrip() {
        let mut t = NameTable::new();
        let a = t.intern("site0.web.example");
        let b = t.intern("site1.web.example");
        assert_ne!(a, b);
        assert_eq!(t.get(a), "site0.web.example");
        assert_eq!(t.get(b), "site1.web.example");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = NameTable::new();
        let a = t.intern("a.example");
        assert_eq!(t.intern("a.example"), a);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn id_of_finds_only_interned() {
        let mut t = NameTable::new();
        let a = t.intern("a.example");
        assert_eq!(t.id_of("a.example"), Some(a));
        assert_eq!(t.id_of("b.example"), None);
        assert_eq!(t.id_of(""), None);
    }

    #[test]
    fn empty_name_is_a_valid_symbol() {
        let mut t = NameTable::new();
        let e = t.intern("");
        assert_eq!(t.get(e), "");
        assert_eq!(t.id_of(""), Some(e));
    }

    #[test]
    fn ids_are_dense_interning_order() {
        let mut t = NameTable::new();
        for i in 0..100 {
            let id = t.intern(&format!("site{i}.web.example"));
            assert_eq!(id, NameId(i));
        }
        assert_eq!(t.iter().count(), 100);
        assert_eq!(t.iter().nth(7), Some((NameId(7), "site7.web.example")));
    }

    #[test]
    fn equality_ignores_index_internals() {
        let mut a = NameTable::new();
        let mut b = NameTable::new();
        for n in ["x.example", "y.example"] {
            a.intern(n);
            b.intern(n);
        }
        assert_eq!(a, b);
        b.intern("z.example");
        assert_ne!(a, b);
    }
}
