//! Flat hot-path collections for simulator state.
//!
//! The DES hot paths key state by small dense identifiers (line
//! addresses, block addresses, GPM ids). `std`'s ordered maps pay a
//! pointer chase per tree level on every access; [`FlatMap`] instead
//! keeps entries in a dense `Vec` with an open-addressing index of
//! `u32` positions beside it — O(1) lookup/insert/remove, one indirection,
//! and cache-friendly iteration.
//!
//! **Determinism.** The hash function is a fixed arithmetic mix of the
//! key's value (never of addresses or any per-process state), and
//! iteration order is a pure function of the operation sequence
//! (insertion order, perturbed only by `remove`'s documented
//! swap-removal). Two runs issuing the same operations therefore
//! observe identical iteration order — the property the hmg-audit
//! `unordered-map` lint exists to protect. Call sites that fold state
//! into digests or drive simulation behavior from iteration still sort
//! explicitly, exactly as they did over the ordered maps, so replacing
//! the map cannot move an observable event.

use crate::addr::{BlockAddr, LineAddr, PageId};

/// Keys usable in [`FlatMap`]/[`FlatSet`]: hashed by value with a fixed
/// deterministic mix.
pub trait FlatKey: Copy + Eq {
    /// A well-mixed 64-bit hash of the key's value.
    fn flat_hash(&self) -> u64;
}

/// SplitMix64 finalizer: a fixed, seedless bit mix.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

macro_rules! int_flat_key {
    ($($t:ty),*) => {$(
        impl FlatKey for $t {
            #[inline]
            fn flat_hash(&self) -> u64 {
                mix(*self as u64)
            }
        }
    )*};
}
int_flat_key!(u8, u16, u32, u64, usize);

impl FlatKey for LineAddr {
    #[inline]
    fn flat_hash(&self) -> u64 {
        mix(self.0)
    }
}
impl FlatKey for BlockAddr {
    #[inline]
    fn flat_hash(&self) -> u64 {
        mix(self.0)
    }
}
impl FlatKey for PageId {
    #[inline]
    fn flat_hash(&self) -> u64 {
        mix(self.0)
    }
}

impl<A: FlatKey, B: FlatKey> FlatKey for (A, B) {
    #[inline]
    fn flat_hash(&self) -> u64 {
        // Feed the second hash through the mixer keyed by the first so
        // (a, b) and (b, a) decorrelate.
        mix(self.0.flat_hash() ^ self.1.flat_hash().rotate_left(32))
    }
}

/// Index slot states: `0` = never used, `TOMBSTONE` = deleted,
/// otherwise `entry position + 1`.
const TOMBSTONE: u32 = u32::MAX;

/// A dense insertion-ordered map with an open-addressing index.
///
/// See the module docs for the determinism argument. `remove` swaps the
/// last entry into the removed position (O(1)); sites that need a
/// specific order sort explicitly.
///
/// # Example
///
/// ```
/// use hmg_sim::collect::FlatMap;
///
/// let mut m: FlatMap<u64, u32> = FlatMap::new();
/// m.insert(7, 1);
/// *m.or_insert(7, 0) += 10;
/// assert_eq!(m.get(&7), Some(&11));
/// assert_eq!(m.remove(&7), Some(11));
/// assert!(m.is_empty());
/// ```
#[derive(Clone)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
    index: Vec<u32>,
    /// Live index slots that are not empty (entries + tombstones); the
    /// rehash trigger.
    occupied: usize,
}

impl<K: FlatKey, V> FlatMap<K, V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
            index: Vec::new(),
            occupied: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.fill(0);
        self.occupied = 0;
    }

    /// Position of `k` in `entries`, if present.
    #[inline]
    fn find(&self, k: &K) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = (k.flat_hash() as usize) & mask;
        loop {
            match self.index[slot] {
                0 => return None,
                TOMBSTONE => {}
                pos1 => {
                    let pos = (pos1 - 1) as usize;
                    if self.entries[pos].0 == *k {
                        return Some(pos);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// A shared reference to the value for `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).map(|p| &self.entries[p].1)
    }

    /// A mutable reference to the value for `k`.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).map(|p| &mut self.entries[p].1)
    }

    /// Whether `k` is present.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_some()
    }

    /// Inserts `k → v`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        if let Some(p) = self.find(&k) {
            return Some(std::mem::replace(&mut self.entries[p].1, v));
        }
        self.push_new(k, v);
        None
    }

    /// The value for `k`, inserting `default` first if absent
    /// (`BTreeMap::entry(k).or_insert(default)` equivalent).
    #[inline]
    pub fn or_insert(&mut self, k: K, default: V) -> &mut V {
        self.or_insert_with(k, || default)
    }

    /// The value for `k`, inserting `make()` first if absent.
    #[inline]
    pub fn or_insert_with(&mut self, k: K, make: impl FnOnce() -> V) -> &mut V {
        let p = match self.find(&k) {
            Some(p) => p,
            None => self.push_new(k, make()),
        };
        &mut self.entries[p].1
    }

    /// Removes `k`, returning its value. O(1): the last entry is
    /// swapped into the hole, so relative order of remaining entries
    /// changes — deterministically, as a function of the op sequence.
    #[inline]
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let p = self.find(k)?;
        let mask = self.index.len() - 1;
        // Tombstone the removed key's slot.
        let mut slot = (k.flat_hash() as usize) & mask;
        while self.index[slot] != (p + 1) as u32 {
            slot = (slot + 1) & mask;
        }
        self.index[slot] = TOMBSTONE;
        let (_, v) = self.entries.swap_remove(p);
        // Re-point the moved (former last) entry's slot, if any moved.
        if p < self.entries.len() {
            let moved_hash = self.entries[p].0.flat_hash();
            let old_pos1 = (self.entries.len() + 1) as u32;
            let mut s = (moved_hash as usize) & mask;
            while self.index[s] != old_pos1 {
                s = (s + 1) & mask;
            }
            self.index[s] = (p + 1) as u32;
        }
        Some(v)
    }

    /// Iterates entries in dense-storage order (see type docs).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates entries mutably in dense-storage order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterates keys in dense-storage order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in dense-storage order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Appends a new key (caller guarantees absence); returns its
    /// position.
    fn push_new(&mut self, k: K, v: V) -> usize {
        if (self.occupied + 1) * 8 >= self.index.len() * 7 {
            // At most half live: sweep the tombstones at the same size,
            // so insert/remove churn alone never grows the index.
            let live = self.entries.len() + 1;
            let cap = if live * 2 <= self.index.len() {
                self.index.len()
            } else {
                (self.index.len() * 2).max(16)
            };
            self.rehash(cap);
        }
        let mask = self.index.len() - 1;
        let mut slot = (k.flat_hash() as usize) & mask;
        loop {
            match self.index[slot] {
                0 => {
                    self.occupied += 1;
                    break;
                }
                TOMBSTONE => break, // reuse; occupancy unchanged
                _ => slot = (slot + 1) & mask,
            }
        }
        self.entries.push((k, v));
        self.index[slot] = self.entries.len() as u32;
        self.entries.len() - 1
    }

    /// Rebuilds the index at `cap` slots and reinserts every live
    /// position, clearing accumulated tombstones.
    fn rehash(&mut self, cap: usize) {
        self.index.clear();
        self.index.resize(cap, 0);
        self.occupied = self.entries.len();
        let mask = cap - 1;
        for (pos, (k, _)) in self.entries.iter().enumerate() {
            let mut slot = (k.flat_hash() as usize) & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = (pos + 1) as u32;
        }
    }
}

impl<K: FlatKey, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

impl<K: FlatKey + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for FlatMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A dense set over [`FlatKey`] keys; a thin wrapper around [`FlatMap`].
///
/// # Example
///
/// ```
/// use hmg_sim::collect::FlatSet;
///
/// let mut s: FlatSet<u64> = FlatSet::new();
/// assert!(s.insert(3));
/// assert!(!s.insert(3));
/// assert!(s.contains(&3));
/// ```
#[derive(Clone)]
pub struct FlatSet<K> {
    map: FlatMap<K, ()>,
}

impl<K: FlatKey> Default for FlatSet<K> {
    fn default() -> Self {
        FlatSet::new()
    }
}

impl<K: FlatKey> FlatSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        FlatSet {
            map: FlatMap::new(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts `k`; `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, k: K) -> bool {
        self.map.insert(k, ()).is_none()
    }

    /// Whether `k` is a member.
    #[inline]
    pub fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    /// Removes `k`; `true` if it was present.
    #[inline]
    pub fn remove(&mut self, k: &K) -> bool {
        self.map.remove(k).is_some()
    }

    /// Removes every member, keeping capacity.
    pub fn clear(&mut self) {
        self.map.clear()
    }

    /// Iterates members in dense-storage order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}

impl<K: FlatKey + std::fmt::Debug> std::fmt::Debug for FlatSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update_remove_round_trip() {
        let mut m: FlatMap<u64, u64> = FlatMap::new();
        for i in 0..1000 {
            assert_eq!(m.insert(i, i * 2), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.insert(5, 99), Some(10));
        *m.get_mut(&5).unwrap() += 1;
        assert_eq!(m.get(&5), Some(&100));
        for i in (0..1000).step_by(2) {
            assert!(m.remove(&i).is_some(), "{i}");
        }
        assert_eq!(m.len(), 500);
        for i in 0..1000 {
            assert_eq!(m.contains_key(&i), i % 2 == 1, "{i}");
        }
        assert_eq!(m.remove(&2), None);
    }

    #[test]
    fn churn_keeps_the_index_sized_to_live_keys() {
        let mut m: FlatMap<u64, u64> = FlatMap::new();
        for i in 0..1_000_000u64 {
            if i >= 64 {
                assert_eq!(m.remove(&(i - 64)), Some(i - 64));
            }
            m.insert(i, i);
            assert!(m.len() <= 64);
        }
        assert!(m.index.len() <= 256, "index grew to {}", m.index.len());
        for i in 1_000_000 - 64..1_000_000 {
            assert_eq!(m.get(&i), Some(&i));
        }
    }

    #[test]
    fn matches_btreemap_on_a_seeded_op_sequence() {
        use std::collections::BTreeMap;
        let mut flat: FlatMap<u64, u64> = FlatMap::new();
        let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 512; // small key space forces collisions + reuse
            match x % 4 {
                0 | 1 => {
                    assert_eq!(flat.insert(k, step), tree.insert(k, step));
                }
                2 => {
                    assert_eq!(flat.remove(&k), tree.remove(&k));
                }
                _ => {
                    assert_eq!(flat.get(&k), tree.get(&k));
                    *flat.or_insert(k, 0) += 1;
                    *tree.entry(k).or_insert(0) += 1;
                }
            }
            assert_eq!(flat.len(), tree.len());
        }
        let mut a: Vec<_> = flat.iter().map(|(k, v)| (*k, *v)).collect();
        a.sort_unstable();
        let b: Vec<_> = tree.into_iter().collect();
        assert_eq!(a, b, "same final contents");
    }

    #[test]
    fn iteration_order_is_a_function_of_the_op_sequence() {
        let run = || {
            let mut m: FlatMap<u32, u32> = FlatMap::new();
            for i in 0..100 {
                m.insert(i, i);
            }
            for i in (0..100).step_by(3) {
                m.remove(&i);
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "two identical op sequences, same order");
    }

    #[test]
    fn clear_keeps_working_after_reuse() {
        let mut m: FlatMap<u32, u32> = FlatMap::new();
        for round in 0..3 {
            for i in 0..50 {
                m.insert(i, i + round);
            }
            assert_eq!(m.len(), 50);
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.get(&1), None);
        }
    }

    #[test]
    fn or_insert_with_runs_once_and_only_when_absent() {
        let mut m: FlatMap<u32, Vec<u32>> = FlatMap::new();
        m.or_insert_with(1, Vec::new).push(10);
        m.or_insert_with(1, || panic!("key present, must not run"))
            .push(11);
        assert_eq!(m.get(&1), Some(&vec![10, 11]));
    }

    #[test]
    fn tuple_and_addr_keys_work() {
        let mut m: FlatMap<(u16, LineAddr), u32> = FlatMap::new();
        m.insert((3, LineAddr(0x80)), 7);
        m.insert((4, LineAddr(0x80)), 8);
        assert_eq!(m.get(&(3, LineAddr(0x80))), Some(&7));
        assert_eq!(m.get(&(4, LineAddr(0x80))), Some(&8));
        assert_ne!(
            (3u16, LineAddr(0x80)).flat_hash(),
            (4u16, LineAddr(0x80)).flat_hash()
        );
        let mut s: FlatSet<PageId> = FlatSet::new();
        assert!(s.insert(PageId(9)));
        assert!(s.contains(&PageId(9)));
        assert!(s.remove(&PageId(9)));
        assert!(!s.remove(&PageId(9)));
    }
}
