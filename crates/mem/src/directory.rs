//! The NHCC/HMG coherence directory.
//!
//! A set-associative structure attached to every GPM's L2 slice
//! (Section IV-A). Each entry tracks one *block* (four cache lines in the
//! paper's configuration) in one of two stable states — Valid (present)
//! and Invalid (absent) — plus the set of sharers. Under HMG the sharer
//! set is hierarchical: other GPMs of the home GPU are tracked
//! individually, while remote GPUs are tracked as whole GPUs (Section V-A).

use hmg_interconnect::{GpmId, GpuId, Topology};
use hmg_sim::SimError;

use crate::addr::BlockAddr;

/// One tracked sharer: either a specific GPM (a module of the home GPU,
/// or any GPM under flat NHCC tracking) or a whole GPU (HMG's inter-GPU
/// layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sharer {
    /// A GPU module, identified by its global index.
    Gpm(GpmId),
    /// A whole GPU (tracked by the system home node under HMG).
    Gpu(GpuId),
}

impl std::fmt::Display for Sharer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sharer::Gpm(g) => write!(f, "{g}"),
            Sharer::Gpu(g) => write!(f, "{g}"),
        }
    }
}

/// A compact set of [`Sharer`]s: one bit per GPM in the system plus one
/// bit per GPU. Sized for systems up to 48 GPMs + 16 GPUs.
///
/// A set can degrade to *broadcast mode* (see
/// [`SharerSet::insert_capped`]): precise tracking is abandoned and the
/// entry conservatively means "anyone may be sharing". Broadcast sets
/// answer [`SharerSet::contains`] with `true` for every sharer, are
/// never empty, and enumerate no precise members — the caller must
/// substitute the full target list when invalidating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharerSet {
    bits: u64,
    broadcast: bool,
}

impl SharerSet {
    /// The empty set.
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// The precisely tracked sharers, one bit each: GPM `g` at bit `g`,
    /// GPU `u` at bit `num_gpms + u` (0 in broadcast mode).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// `s`'s one-bit mask in the layout of [`SharerSet::bits`].
    pub fn bit(topo: &Topology, s: Sharer) -> u64 {
        1u64 << Self::slot(topo, s)
    }

    fn slot(topo: &Topology, s: Sharer) -> u32 {
        match s {
            Sharer::Gpm(g) => {
                assert!(g.0 < topo.num_gpms(), "{g} out of range");
                g.0 as u32
            }
            Sharer::Gpu(g) => {
                assert!(g.0 < topo.num_gpus(), "{g} out of range");
                topo.num_gpms() as u32 + g.0 as u32
            }
        }
    }

    /// Adds a sharer; returns `true` if it was newly added. A broadcast
    /// set already covers everyone, so inserts into it are no-ops.
    pub fn insert(&mut self, topo: &Topology, s: Sharer) -> bool {
        if self.broadcast {
            return false;
        }
        let mask = Self::bit(topo, s);
        let added = self.bits & mask == 0;
        self.bits |= mask;
        added
    }

    /// Adds a sharer under a limited-pointer cap (graceful degradation).
    ///
    /// With `cap == None` this is exactly [`SharerSet::insert`]. With a
    /// cap, an insertion that would grow the set past `cap` precise
    /// sharers instead flips the set into broadcast mode: the precise
    /// bits are discarded and the block must from now on be invalidated
    /// by broadcast — correct but slower. Returns `(added,
    /// newly_broadcast)`; `newly_broadcast` is `true` exactly once per
    /// degradation so callers can count the fallback rate.
    pub fn insert_capped(&mut self, topo: &Topology, s: Sharer, cap: Option<u32>) -> (bool, bool) {
        let Some(cap) = cap else {
            return (self.insert(topo, s), false);
        };
        if self.broadcast || self.contains(topo, s) {
            return (false, false);
        }
        if self.len() >= cap {
            self.bits = 0;
            self.broadcast = true;
            return (false, true);
        }
        (self.insert(topo, s), false)
    }

    /// Whether the set has degraded to broadcast mode.
    pub fn is_broadcast(&self) -> bool {
        self.broadcast
    }

    /// Removes a sharer; returns `true` if it was present. A broadcast
    /// set cannot un-learn a member: it stays broadcast (conservative).
    pub fn remove(&mut self, topo: &Topology, s: Sharer) -> bool {
        if self.broadcast {
            return false;
        }
        let mask = Self::bit(topo, s);
        let present = self.bits & mask != 0;
        self.bits &= !mask;
        present
    }

    /// Whether `s` is in the set. Broadcast sets may be sharing with
    /// anyone, so they answer `true` for every sharer.
    pub fn contains(&self, topo: &Topology, s: Sharer) -> bool {
        self.broadcast || self.bits & Self::bit(topo, s) != 0
    }

    /// Number of *precisely tracked* sharers (0 in broadcast mode).
    pub fn len(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Whether the set tracks nobody. Broadcast sets are never empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0 && !self.broadcast
    }

    /// Removes all sharers and leaves broadcast mode.
    pub fn clear(&mut self) {
        self.bits = 0;
        self.broadcast = false;
    }

    /// Forces the set into broadcast mode, discarding precise bits.
    /// Used by fail-in-place re-homing: a re-homed entry's precise
    /// sharer list died with its directory, so the rebuilt entry must
    /// conservatively mean "anyone may be sharing".
    pub fn force_broadcast(&mut self) {
        self.bits = 0;
        self.broadcast = true;
    }

    /// Enumerates the precisely tracked sharers in the set. Broadcast
    /// sets enumerate nothing — check [`SharerSet::is_broadcast`] first
    /// and substitute the full target list.
    pub fn iter(&self, topo: &Topology) -> Vec<Sharer> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for gpm in topo.all_gpms() {
            if self.bits & (1u64 << (gpm.0 as u32)) != 0 {
                out.push(Sharer::Gpm(gpm));
            }
        }
        for gpu in topo.all_gpus() {
            if self.bits & (1u64 << (topo.num_gpms() as u32 + gpu.0 as u32)) != 0 {
                out.push(Sharer::Gpu(gpu));
            }
        }
        out
    }
}

/// Shape of one GPM's coherence directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectoryConfig {
    /// Total entries (Table II: 12K per GPM).
    pub entries: u32,
    /// Ways per set.
    pub ways: u32,
    /// Limited-pointer cap: the most precise sharers one entry tracks
    /// before it degrades to broadcast mode. `None` (the default, and
    /// the paper's configuration) tracks every sharer precisely — the
    /// full bit-vector always fits.
    pub max_sharers: Option<u32>,
}

impl DirectoryConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `entries` is not a multiple of
    /// `ways`. (Unlike the data caches, the directory permits a
    /// non-power-of-two set count; indexing uses modulo.)
    pub fn new(entries: u32, ways: u32) -> Self {
        // Documented panicking wrapper over try_new.
        Self::try_new(entries, ways).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DirectoryConfig::new`]: returns a typed
    /// [`SimError`] instead of panicking on a bad geometry.
    pub fn try_new(entries: u32, ways: u32) -> Result<Self, SimError> {
        if entries == 0 || ways == 0 {
            return Err(SimError::config(format!(
                "directory dimensions must be positive (entries={entries}, ways={ways})"
            )));
        }
        if !entries.is_multiple_of(ways) {
            return Err(SimError::config(format!(
                "entries must divide evenly into ways (entries={entries}, ways={ways})"
            )));
        }
        Ok(DirectoryConfig {
            entries,
            ways,
            max_sharers: None,
        })
    }

    /// Returns the configuration with a limited-pointer sharer cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (an entry that can track nobody would
    /// degrade on its first sharer, which is a misconfiguration).
    pub fn with_max_sharers(mut self, cap: u32) -> Self {
        assert!(cap > 0, "sharer cap must be positive");
        self.max_sharers = Some(cap);
        self
    }

    /// Table II: 12K entries per GPM, 16-way.
    pub fn paper_default() -> Self {
        DirectoryConfig::new(12 * 1024, 16)
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// Counters the evaluation reads out of the directory (Figs. 9 and 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Entries evicted for capacity/conflict reasons.
    pub evictions: u64,
    /// Evictions whose entry still tracked at least one sharer (these are
    /// the ones that cost invalidation messages).
    pub evictions_with_sharers: u64,
    /// Total sharers held by evicted entries.
    pub evicted_sharers: u64,
    /// Entries currently allocated.
    pub allocations: u64,
    /// Entries that overflowed their limited-pointer cap and degraded
    /// to broadcast tracking (the graceful-degradation rate).
    pub broadcast_fallbacks: u64,
}

#[derive(Debug, Clone)]
struct DirWay {
    tag: u64,
    last_use: u64,
    sharers: SharerSet,
}

/// One GPM's coherence directory: block-granular, set-associative,
/// LRU-replaced. Presence in the directory is the Valid state of
/// Table I; absence is Invalid.
///
/// # Example
///
/// ```
/// use hmg_mem::{Directory, DirectoryConfig, Sharer};
/// use hmg_mem::addr::BlockAddr;
/// use hmg_interconnect::{Topology, GpmId};
///
/// let topo = Topology::new(2, 2);
/// let mut dir = Directory::new(DirectoryConfig::new(64, 4), topo);
/// let (set, evicted) = dir.allocate(BlockAddr(9));
/// assert!(evicted.is_none());
/// set.insert(&topo, Sharer::Gpm(GpmId(1)));
/// assert!(dir.lookup(BlockAddr(9)).is_some());
/// ```
#[derive(Debug)]
pub struct Directory {
    config: DirectoryConfig,
    topo: Topology,
    sets: Vec<Vec<DirWay>>,
    /// Strength-reduced `(tag, set)` splitter for the set count.
    split: crate::fastdiv::SetSplit,
    tick: u64,
    stats: DirectoryStats,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new(config: DirectoryConfig, topo: Topology) -> Self {
        Directory {
            config,
            topo,
            sets: (0..config.sets()).map(|_| Vec::new()).collect(),
            split: crate::fastdiv::SetSplit::new(config.sets()),
            tick: 0,
            stats: DirectoryStats::default(),
        }
    }

    /// The configuration the directory was built with.
    pub fn config(&self) -> DirectoryConfig {
        self.config
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        self.split.split(block.0).1 as usize
    }

    #[inline]
    fn tag(&self, block: BlockAddr) -> u64 {
        self.split.split(block.0).0
    }

    /// Looks up `block` without touching recency.
    pub fn lookup(&self, block: BlockAddr) -> Option<&SharerSet> {
        let tag = self.tag(block);
        self.sets[self.set_index(block)]
            .iter()
            .find(|w| w.tag == tag)
            .map(|w| &w.sharers)
    }

    /// Looks up `block`, refreshing LRU recency on a hit.
    pub fn lookup_mut(&mut self, block: BlockAddr) -> Option<&mut SharerSet> {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(block);
        let tag = self.tag(block);
        self.sets[idx].iter_mut().find(|w| w.tag == tag).map(|w| {
            w.last_use = tick;
            &mut w.sharers
        })
    }

    /// Finds or creates the entry for `block`. If the set is full, the
    /// LRU victim is evicted and returned — the caller must send
    /// invalidations to the victim's sharers (Table I, "Replace Dir
    /// Entry").
    pub fn allocate(
        &mut self,
        block: BlockAddr,
    ) -> (&mut SharerSet, Option<(BlockAddr, SharerSet)>) {
        self.tick += 1;
        let tick = self.tick;
        let sets_count = self.config.sets() as u64;
        let ways = self.config.ways as usize;
        let idx = self.set_index(block);
        let tag = self.tag(block);

        let pos = self.sets[idx].iter().position(|w| w.tag == tag);
        if let Some(p) = pos {
            self.sets[idx][p].last_use = tick;
            return (&mut self.sets[idx][p].sharers, None);
        }

        self.stats.allocations += 1;
        if self.sets[idx].len() < ways {
            self.sets[idx].push(DirWay {
                tag,
                last_use: tick,
                sharers: SharerSet::new(),
            });
            let last = self.sets[idx].len() - 1;
            return (&mut self.sets[idx][last].sharers, None);
        }

        // The set is full here (len == ways >= 1), so the minimum
        // always exists; the fallback avoids a panic path.
        let victim_i = self.sets[idx]
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_use)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let victim = std::mem::replace(
            &mut self.sets[idx][victim_i],
            DirWay {
                tag,
                last_use: tick,
                sharers: SharerSet::new(),
            },
        );
        self.stats.evictions += 1;
        if !victim.sharers.is_empty() {
            self.stats.evictions_with_sharers += 1;
            self.stats.evicted_sharers += victim.sharers.len() as u64;
        }
        let victim_block = BlockAddr(victim.tag * sets_count + idx as u64);
        (
            &mut self.sets[idx][victim_i].sharers,
            Some((victim_block, victim.sharers)),
        )
    }

    /// Deallocates `block` (the V→I transition on a local store), returning
    /// the sharers that must be invalidated.
    pub fn remove(&mut self, block: BlockAddr) -> Option<SharerSet> {
        let idx = self.set_index(block);
        let tag = self.tag(block);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|w| w.tag == tag)?;
        Some(set.swap_remove(pos).sharers)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters for the Figs. 9–10 analyses.
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// Enumerates every resident entry as `(block, sharers)`, in
    /// deterministic set/way order. Used by the fail-in-place
    /// reconfiguration to walk a dead GPM's directory and re-home its
    /// entries onto survivors.
    pub fn resident_blocks(&self) -> Vec<(BlockAddr, SharerSet)> {
        let sets_count = self.config.sets() as u64;
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(idx, set)| {
                set.iter()
                    .map(move |w| (BlockAddr(w.tag * sets_count + idx as u64), w.sharers))
            })
            .collect()
    }

    /// The `n`th resident entry in deterministic set/way order, or
    /// `None` when fewer than `n + 1` entries are resident. Fault
    /// injection uses this to pick a victim entry reproducibly.
    pub fn nth_resident_block(&self, n: usize) -> Option<BlockAddr> {
        let sets_count = self.config.sets() as u64;
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(idx, set)| {
                set.iter()
                    .map(move |w| BlockAddr(w.tag * sets_count + idx as u64))
            })
            .nth(n)
    }

    /// Removes `sharer` from every resident entry (a dead component
    /// must not be sent invalidations); returns how many entries
    /// tracked it. Broadcast entries are untouched — they stay
    /// conservative and the engine's target-list substitution skips
    /// dead nodes.
    pub fn purge_sharer(&mut self, sharer: Sharer) -> u64 {
        let topo = self.topo;
        let mut purged = 0;
        for set in &mut self.sets {
            for way in set.iter_mut() {
                if way.sharers.remove(&topo, sharer) {
                    purged += 1;
                }
            }
        }
        purged
    }

    /// Records one limited-pointer overflow: an entry of this directory
    /// degraded to broadcast tracking. Called by the engine when
    /// [`SharerSet::insert_capped`] reports a fresh degradation (the
    /// engine holds the set borrow at that moment, so the counter bump
    /// happens through this separate method).
    pub fn note_broadcast_fallback(&mut self) {
        self.stats.broadcast_fallbacks += 1;
    }

    /// Storage cost of this directory in bits per entry and total bytes,
    /// reproducing the §VII-C arithmetic: tag bits + 1 state bit +
    /// one sharer bit per trackable sharer (M + N − 2 hierarchically).
    pub fn storage_cost(&self, tag_bits: u32) -> StorageCost {
        let sharer_bits = self.topo.max_hierarchical_sharers() as u32;
        let bits_per_entry = tag_bits + 1 + sharer_bits;
        let total_bits = bits_per_entry as u64 * self.config.entries as u64;
        StorageCost {
            bits_per_entry,
            total_bytes: total_bits / 8,
        }
    }
}

impl hmg_sim::SnapshotWrite for SharerSet {
    fn write_snap(&self, w: &mut hmg_sim::SnapWriter) {
        w.put_u64(self.bits);
        w.put_u8(u8::from(self.broadcast));
    }
}

impl hmg_sim::SnapshotRead for SharerSet {
    fn read_snap(r: &mut hmg_sim::SnapReader<'_>) -> Result<Self, hmg_sim::SnapError> {
        let bits = r.get_u64()?;
        let broadcast = match r.get_u8()? {
            0 => false,
            1 => true,
            b => {
                return Err(hmg_sim::SnapError::Malformed(format!(
                    "sharer-set broadcast flag {b}"
                )))
            }
        };
        if broadcast && bits != 0 {
            return Err(hmg_sim::SnapError::Malformed(
                "broadcast sharer set with precise bits".into(),
            ));
        }
        Ok(SharerSet { bits, broadcast })
    }
}

hmg_sim::snapshot_codec!(DirectoryStats {
    evictions,
    evictions_with_sharers,
    evicted_sharers,
    allocations,
    broadcast_fallbacks,
});

impl hmg_sim::SnapshotWrite for Directory {
    fn write_snap(&self, w: &mut hmg_sim::SnapWriter) {
        w.put_u32(self.config.entries);
        w.put_u32(self.config.ways);
        self.config.max_sharers.write_snap(w);
        self.topo.write_snap(w);
        w.put_u64(self.tick);
        self.stats.write_snap(w);
        for set in &self.sets {
            w.put_u32(set.len() as u32);
            for way in set {
                w.put_u64(way.tag);
                w.put_u64(way.last_use);
                way.sharers.write_snap(w);
            }
        }
    }
}

impl hmg_sim::SnapshotRead for Directory {
    fn read_snap(r: &mut hmg_sim::SnapReader<'_>) -> Result<Self, hmg_sim::SnapError> {
        let entries = r.get_u32()?;
        let ways = r.get_u32()?;
        let max_sharers = Option::<u32>::read_snap(r)?;
        let mut config = DirectoryConfig::try_new(entries, ways)
            .map_err(|e| hmg_sim::SnapError::Malformed(e.to_string()))?;
        if let Some(cap) = max_sharers {
            if cap == 0 {
                return Err(hmg_sim::SnapError::Malformed(
                    "zero directory sharer cap".into(),
                ));
            }
            config = config.with_max_sharers(cap);
        }
        let topo = hmg_interconnect::Topology::read_snap(r)?;
        let mut dir = Directory::new(config, topo);
        dir.tick = r.get_u64()?;
        dir.stats = DirectoryStats::read_snap(r)?;
        for idx in 0..config.sets() as usize {
            let len = r.get_u32()?;
            if len > config.ways {
                return Err(hmg_sim::SnapError::Malformed(format!(
                    "directory set {idx} claims {len} ways of {}",
                    config.ways
                )));
            }
            let set = &mut dir.sets[idx];
            for _ in 0..len {
                set.push(DirWay {
                    tag: r.get_u64()?,
                    last_use: r.get_u64()?,
                    sharers: SharerSet::read_snap(r)?,
                });
            }
        }
        Ok(dir)
    }
}

/// Result of [`Directory::storage_cost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageCost {
    /// Bits of storage per directory entry (55 in §VII-C).
    pub bits_per_entry: u32,
    /// Total bytes across all entries (84 KB per GPM in §VII-C).
    pub total_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(4, 4)
    }

    #[test]
    fn sharer_set_insert_remove_contains() {
        let t = topo();
        let mut s = SharerSet::new();
        assert!(s.insert(&t, Sharer::Gpm(GpmId(3))));
        assert!(!s.insert(&t, Sharer::Gpm(GpmId(3))), "duplicate insert");
        assert!(s.insert(&t, Sharer::Gpu(GpuId(2))));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&t, Sharer::Gpm(GpmId(3))));
        assert!(!s.contains(&t, Sharer::Gpm(GpmId(2))));
        assert!(s.remove(&t, Sharer::Gpm(GpmId(3))));
        assert!(!s.remove(&t, Sharer::Gpm(GpmId(3))));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sharer_set_gpm_and_gpu_slots_do_not_collide() {
        let t = topo();
        let mut s = SharerSet::new();
        // GpmId(0) and GpuId(0) are distinct sharers.
        s.insert(&t, Sharer::Gpm(GpmId(0)));
        assert!(!s.contains(&t, Sharer::Gpu(GpuId(0))));
        s.insert(&t, Sharer::Gpu(GpuId(0)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sharer_set_iter_roundtrip() {
        let t = topo();
        let mut s = SharerSet::new();
        let members = [
            Sharer::Gpm(GpmId(1)),
            Sharer::Gpm(GpmId(9)),
            Sharer::Gpu(GpuId(3)),
        ];
        for &m in &members {
            s.insert(&t, m);
        }
        let got = s.iter(&t);
        assert_eq!(got.len(), 3);
        for m in members {
            assert!(got.contains(&m));
        }
    }

    #[test]
    fn capped_insert_degrades_to_broadcast_once() {
        let t = topo();
        let mut s = SharerSet::new();
        let cap = Some(2);
        assert_eq!(
            s.insert_capped(&t, Sharer::Gpm(GpmId(1)), cap),
            (true, false)
        );
        assert_eq!(
            s.insert_capped(&t, Sharer::Gpm(GpmId(2)), cap),
            (true, false)
        );
        // Re-inserting a member never degrades.
        assert_eq!(
            s.insert_capped(&t, Sharer::Gpm(GpmId(1)), cap),
            (false, false)
        );
        // The third distinct sharer overflows the cap.
        assert_eq!(
            s.insert_capped(&t, Sharer::Gpm(GpmId(3)), cap),
            (false, true)
        );
        assert!(s.is_broadcast());
        // Degradation is reported exactly once.
        assert_eq!(
            s.insert_capped(&t, Sharer::Gpu(GpuId(1)), cap),
            (false, false)
        );
        // Broadcast is conservative: everyone may be sharing, nobody
        // can be removed, and the set is never empty.
        assert!(s.contains(&t, Sharer::Gpm(GpmId(9))));
        assert!(!s.remove(&t, Sharer::Gpm(GpmId(1))));
        assert!(s.is_broadcast());
        assert!(!s.is_empty());
        assert!(s.iter(&t).is_empty(), "no precise members to enumerate");
        s.clear();
        assert!(!s.is_broadcast() && s.is_empty());
    }

    #[test]
    fn uncapped_insert_never_degrades() {
        let t = topo();
        let mut s = SharerSet::new();
        for gpm in t.all_gpms() {
            s.insert_capped(&t, Sharer::Gpm(gpm), None);
        }
        assert!(!s.is_broadcast());
        assert_eq!(s.len(), t.num_gpms() as u32);
    }

    #[test]
    fn directory_counts_broadcast_fallbacks() {
        let t = topo();
        let cfg = DirectoryConfig::new(64, 4).with_max_sharers(1);
        assert_eq!(cfg.max_sharers, Some(1));
        let mut d = Directory::new(cfg, t);
        let cap = cfg.max_sharers;
        let (set, _) = d.allocate(BlockAddr(5));
        set.insert_capped(&t, Sharer::Gpm(GpmId(0)), cap);
        let (_, newly) = set.insert_capped(&t, Sharer::Gpm(GpmId(1)), cap);
        assert!(newly);
        d.note_broadcast_fallback();
        assert_eq!(d.stats().broadcast_fallbacks, 1);
        // An evicted broadcast entry still reports "had sharers", so
        // eviction invalidations fire for it.
        assert!(!d.lookup(BlockAddr(5)).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_sharer_cap_rejected() {
        DirectoryConfig::new(64, 4).with_max_sharers(0);
    }

    #[test]
    fn directory_allocate_then_lookup() {
        let t = topo();
        let mut d = Directory::new(DirectoryConfig::new(64, 4), t);
        {
            let (set, ev) = d.allocate(BlockAddr(100));
            assert!(ev.is_none());
            set.insert(&t, Sharer::Gpu(GpuId(1)));
        }
        let s = d.lookup(BlockAddr(100)).expect("present");
        assert!(s.contains(&t, Sharer::Gpu(GpuId(1))));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn directory_eviction_returns_sharers() {
        let t = topo();
        // 4 entries, 1 way: 4 sets; blocks 0 and 4 collide in set 0.
        let mut d = Directory::new(DirectoryConfig::new(4, 1), t);
        {
            let (set, _) = d.allocate(BlockAddr(0));
            set.insert(&t, Sharer::Gpm(GpmId(2)));
        }
        let (_, evicted) = d.allocate(BlockAddr(4));
        let (block, sharers) = evicted.expect("conflict eviction");
        assert_eq!(block, BlockAddr(0));
        assert!(sharers.contains(&t, Sharer::Gpm(GpmId(2))));
        assert_eq!(d.stats().evictions, 1);
        assert_eq!(d.stats().evictions_with_sharers, 1);
        assert_eq!(d.stats().evicted_sharers, 1);
    }

    #[test]
    fn directory_eviction_of_sharerless_entry_is_cheap() {
        let t = topo();
        let mut d = Directory::new(DirectoryConfig::new(4, 1), t);
        d.allocate(BlockAddr(0));
        d.allocate(BlockAddr(4));
        assert_eq!(d.stats().evictions, 1);
        assert_eq!(d.stats().evictions_with_sharers, 0);
    }

    #[test]
    fn directory_remove_is_v_to_i() {
        let t = topo();
        let mut d = Directory::new(DirectoryConfig::new(64, 4), t);
        {
            let (set, _) = d.allocate(BlockAddr(7));
            set.insert(&t, Sharer::Gpm(GpmId(1)));
            set.insert(&t, Sharer::Gpu(GpuId(2)));
        }
        let sharers = d.remove(BlockAddr(7)).expect("present");
        assert_eq!(sharers.len(), 2);
        assert!(d.lookup(BlockAddr(7)).is_none());
        assert!(d.remove(BlockAddr(7)).is_none());
    }

    #[test]
    fn resident_blocks_roundtrip_and_purge() {
        let t = topo();
        let mut d = Directory::new(DirectoryConfig::new(64, 4), t);
        {
            let (set, _) = d.allocate(BlockAddr(3));
            set.insert(&t, Sharer::Gpm(GpmId(5)));
            set.insert(&t, Sharer::Gpu(GpuId(2)));
        }
        {
            let (set, _) = d.allocate(BlockAddr(67)); // same set as 3
            set.insert(&t, Sharer::Gpm(GpmId(5)));
        }
        let mut blocks: Vec<BlockAddr> = d.resident_blocks().into_iter().map(|(b, _)| b).collect();
        blocks.sort();
        assert_eq!(blocks, vec![BlockAddr(3), BlockAddr(67)]);
        assert_eq!(d.purge_sharer(Sharer::Gpm(GpmId(5))), 2);
        assert_eq!(d.purge_sharer(Sharer::Gpm(GpmId(5))), 0, "idempotent");
        assert!(d
            .lookup(BlockAddr(3))
            .unwrap()
            .contains(&t, Sharer::Gpu(GpuId(2))));
        assert!(d.lookup(BlockAddr(67)).unwrap().is_empty());
    }

    #[test]
    fn force_broadcast_is_sticky_and_conservative() {
        let t = topo();
        let mut s = SharerSet::new();
        s.insert(&t, Sharer::Gpm(GpmId(1)));
        s.force_broadcast();
        assert!(s.is_broadcast());
        assert!(s.contains(&t, Sharer::Gpm(GpmId(9))));
        assert!(s.iter(&t).is_empty(), "no precise members");
        // Purging from a broadcast entry is a no-op (stays conservative).
        let mut d = Directory::new(DirectoryConfig::new(4, 1), t);
        d.allocate(BlockAddr(0)).0.force_broadcast();
        assert_eq!(d.purge_sharer(Sharer::Gpm(GpmId(1))), 0);
        assert!(d.lookup(BlockAddr(0)).unwrap().is_broadcast());
    }

    #[test]
    fn nth_resident_block_matches_resident_blocks_order() {
        let t = topo();
        let mut d = Directory::new(DirectoryConfig::new(64, 4), t);
        for b in [3u64, 67, 12] {
            d.allocate(BlockAddr(b));
        }
        let listed: Vec<BlockAddr> = d.resident_blocks().into_iter().map(|(b, _)| b).collect();
        for (n, &b) in listed.iter().enumerate() {
            assert_eq!(d.nth_resident_block(n), Some(b));
        }
        assert_eq!(d.nth_resident_block(listed.len()), None);
    }

    #[test]
    fn lru_replacement_in_directory() {
        let t = topo();
        // 2 entries, 2 ways: single set.
        let mut d = Directory::new(DirectoryConfig::new(2, 2), t);
        d.allocate(BlockAddr(10));
        d.allocate(BlockAddr(20));
        d.lookup_mut(BlockAddr(10)); // 20 becomes LRU
        let (_, ev) = d.allocate(BlockAddr(30));
        assert_eq!(ev.expect("eviction").0, BlockAddr(20));
    }

    #[test]
    fn paper_storage_cost() {
        // §VII-C: 48-bit tags + 1 state bit + 6 sharers = 55 bits/entry;
        // 12K entries -> 84 KB (84,480 bytes).
        let t = topo();
        let d = Directory::new(DirectoryConfig::paper_default(), t);
        let cost = d.storage_cost(48);
        assert_eq!(cost.bits_per_entry, 55);
        assert_eq!(cost.total_bytes, 84_480);
        // 2.7% of a 3 MB L2 slice.
        let frac = cost.total_bytes as f64 / (3.0 * 1024.0 * 1024.0);
        assert!((frac - 0.027).abs() < 0.001, "frac={frac}");
    }

    #[test]
    fn snapshot_round_trip_preserves_entries_sharers_and_lru() {
        use hmg_sim::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
        let t = topo();
        let mut d = Directory::new(DirectoryConfig::new(8, 2).with_max_sharers(3), t);
        {
            let (set, _) = d.allocate(BlockAddr(3));
            set.insert(&t, Sharer::Gpm(GpmId(5)));
            set.insert(&t, Sharer::Gpu(GpuId(2)));
        }
        d.allocate(BlockAddr(7)).0.force_broadcast();
        d.allocate(BlockAddr(11));
        d.lookup_mut(BlockAddr(3)); // perturb recency
        let mut w = SnapWriter::new();
        d.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = Directory::read_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.config(), d.config());
        assert_eq!(back.stats(), d.stats());
        assert_eq!(back.resident_blocks(), d.resident_blocks());
        assert!(back.lookup(BlockAddr(7)).unwrap().is_broadcast());
        // Same future behavior: identical LRU victim on the next conflict.
        let (_, ev_orig) = d.allocate(BlockAddr(103));
        let (_, ev_back) = back.allocate(BlockAddr(103));
        assert_eq!(ev_orig.map(|e| e.0), ev_back.map(|e| e.0));
    }

    #[test]
    fn snapshot_refuses_broadcast_set_with_precise_bits_and_overfull_sets() {
        use hmg_sim::{SnapError, SnapReader, SnapWriter, SnapshotRead};
        let mut w = SnapWriter::new();
        w.put_u64(0b101); // precise bits...
        w.put_u8(1); // ...and broadcast: impossible
        assert!(matches!(
            SharerSet::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(SnapError::Malformed(_))
        ));

        let mut w = SnapWriter::new();
        w.put_u32(4); // entries
        w.put_u32(2); // ways
        w.put_u8(0); // no sharer cap
        w.put_u16(2); // topology 2x2
        w.put_u16(2);
        w.put_u64(0); // tick
        for _ in 0..5 {
            w.put_u64(0); // stats
        }
        w.put_u32(3); // set 0 claims 3 ways of 2
        assert!(matches!(
            Directory::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn non_power_of_two_sets_allowed() {
        let t = topo();
        let cfg = DirectoryConfig::paper_default();
        assert_eq!(cfg.sets(), 768);
        let mut d = Directory::new(cfg, t);
        for b in 0..10_000u64 {
            d.allocate(BlockAddr(b));
        }
        assert!(d.len() <= cfg.entries as usize);
    }
}
