//! A set-associative cache with LRU replacement and per-line metadata.
//!
//! Used for both the software-managed L1s and the GPM L2 slices. The
//! paper's evaluated configuration is write-through everywhere
//! (Section VI), so evictions of clean lines are silent and the cache
//! never needs a writeback path.

use hmg_sim::SimError;

use crate::addr::LineAddr;
use crate::fastdiv::SetSplit;

/// Shape of one cache: total capacity in lines and associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total number of cache lines.
    pub lines: u32,
    /// Ways per set.
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a positive multiple of `ways`. Set counts
    /// need not be powers of two; indexing uses modulo, which lets the
    /// Table II capacities (e.g. 3 MB slices, 16 ways, 1536 sets) be
    /// expressed exactly.
    pub fn new(lines: u32, ways: u32) -> Self {
        // Documented panicking wrapper over try_new.
        Self::try_new(lines, ways).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CacheConfig::new`]: returns a typed
    /// [`SimError`] instead of panicking on a bad geometry, for callers
    /// that validate user-supplied configurations.
    pub fn try_new(lines: u32, ways: u32) -> Result<Self, SimError> {
        if ways == 0 || lines == 0 {
            return Err(SimError::config(format!(
                "cache dimensions must be positive (lines={lines}, ways={ways})"
            )));
        }
        if !lines.is_multiple_of(ways) {
            return Err(SimError::config(format!(
                "lines must divide evenly into ways (lines={lines}, ways={ways})"
            )));
        }
        Ok(CacheConfig { lines, ways })
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u32 {
        self.lines / self.ways
    }
}

/// Line indices a [`Cache`] holds are below this: 2^32 lines, 512 GiB
/// at 128-byte lines.
pub const LINE_LIMIT: u64 = 1 << 32;

/// A set-associative, LRU-replacement cache mapping [`LineAddr`]s to
/// per-line metadata `M`.
///
/// The cache stores no data payloads — the simulator tracks line
/// *versions* (for the coherence checker) and timing, not values.
///
/// Storage is struct-of-arrays: tags, recency ticks, and metadata live
/// in three flat slabs indexed `set * ways + way`, with a per-set
/// occupancy count. A probe scans only the contiguous tag lane of one
/// set (one cache line for typical associativities), and the bulk
/// invalidation that software coherence performs at every acquire is a
/// clear of the occupancy array rather than a walk over per-set heap
/// allocations. `M: Default` fills the slabs' never-yet-occupied slots.
///
/// The cache's domain is line indices below [`LINE_LIMIT`] (2^32), so a
/// tag (`line / sets`) always fits the 32-bit tag lane. Every probe
/// asserts it: a line at or above the limit panics with a message that
/// names the line, never aliases a resident one. The engine refuses such
/// traces before their first event, so only a direct caller can trip it.
///
/// Within a set, slots behave exactly like a `Vec` of ways: inserts
/// append, [`Cache::invalidate`] swap-removes, and
/// [`Cache::invalidate_where`] compacts in order — so iteration order
/// (which fault injection and the digest oracle observe) is a pure
/// function of the operation history, unchanged from the boxed-`Vec`
/// representation this replaced.
///
/// # Example
///
/// ```
/// use hmg_mem::{Cache, CacheConfig};
/// use hmg_mem::addr::LineAddr;
///
/// let mut c: Cache<u64> = Cache::new(CacheConfig::new(8, 2));
/// assert!(c.insert(LineAddr(1), 7).is_none());
/// assert_eq!(c.get(LineAddr(1)), Some(&7));
/// c.invalidate(LineAddr(1));
/// assert_eq!(c.get(LineAddr(1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Cache<M> {
    config: CacheConfig,
    /// Tag lane, indexed `set * ways + way`; only `lens[set]` slots of
    /// each set's span are live.
    tags: Box<[u32]>,
    /// LRU recency tick per slot, parallel to `tags`;
    /// [`Cache::next_tick`] renumbers the live ticks before the counter
    /// would wrap.
    last_use: Box<[u32]>,
    /// Per-line metadata per slot, parallel to `tags`.
    metas: Box<[M]>,
    /// Occupied ways per set.
    lens: Box<[u32]>,
    /// Strength-reduced `(tag, set)` splitter for the set count.
    split: SetSplit,
    tick: u32,
    insertions: u64,
    evictions: u64,
}

impl<M: Default> Cache<M> {
    /// Creates an empty cache of the given shape.
    pub fn new(config: CacheConfig) -> Self {
        let cap = config.lines as usize;
        Cache {
            config,
            tags: vec![0; cap].into_boxed_slice(),
            last_use: vec![0; cap].into_boxed_slice(),
            metas: (0..cap).map(|_| M::default()).collect(),
            lens: vec![0; config.sets() as usize].into_boxed_slice(),
            split: SetSplit::new(config.sets()),
            tick: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Splits a line address into `(tag, set index)` — one
    /// strength-reduced divide instead of a hardware div + mod.
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the cache's domain (see [`Cache`]).
    #[inline]
    fn locate(&self, line: LineAddr) -> (u32, usize) {
        assert!(
            line.0 < LINE_LIMIT,
            "line {} is outside the cache's domain of line indices below 2^32",
            line.0
        );
        let (tag, set) = self.split.split(line.0);
        // `tag <= line < 2^32`: the cast is exact.
        (tag as u32, set as usize)
    }

    /// The line held by tag `tag` of set `idx`.
    #[inline]
    fn line(&self, tag: u32, idx: usize) -> LineAddr {
        LineAddr(u64::from(tag) * u64::from(self.split.sets()) + idx as u64)
    }

    /// Position of `line`'s slot within its set span, if resident.
    #[inline]
    fn find(&self, base: usize, len: usize, tag: u32) -> Option<usize> {
        self.tags[base..base + len].iter().position(|&t| t == tag)
    }

    /// Hands out the next recency tick. Live ticks are unique, so the
    /// LRU victim of a set is its slot with the smallest tick.
    #[inline(always)]
    fn next_tick(&mut self) -> u32 {
        if self.tick == u32::MAX {
            self.renumber_ticks();
        }
        self.tick += 1;
        self.tick
    }

    /// Rank-compresses the live slots' ticks to `1..=live` and restarts
    /// the counter at `live`. Ticks stay unique and keep their order, so
    /// every later LRU choice is the one a 64-bit counter would make.
    /// Dead slots keep stale ticks; a fill overwrites them.
    #[cold]
    #[inline(never)]
    fn renumber_ticks(&mut self) {
        let ways = self.config.ways as usize;
        let mut live: Vec<(u32, usize)> = Vec::with_capacity(self.len());
        for (idx, &len) in self.lens.iter().enumerate() {
            let base = idx * ways;
            live.extend((base..base + len as usize).map(|slot| (self.last_use[slot], slot)));
        }
        live.sort_unstable();
        for (rank, &(_, slot)) in live.iter().enumerate() {
            self.last_use[slot] = rank as u32 + 1;
        }
        self.tick = live.len() as u32;
    }

    /// Looks up `line` without updating recency. Returns the metadata if
    /// present.
    pub fn peek(&self, line: LineAddr) -> Option<&M> {
        let (tag, idx) = self.locate(line);
        let base = idx * self.config.ways as usize;
        let len = self.lens[idx] as usize;
        let pos = self.find(base, len, tag)?;
        Some(&self.metas[base + pos])
    }

    /// Looks up `line`, updating LRU recency on a hit.
    // `get` and `insert` are the L1/L2 probes of every load; they are
    // forced inline so the engine's callers see the probe loop directly.
    #[inline(always)]
    pub fn get(&mut self, line: LineAddr) -> Option<&M> {
        let tick = self.next_tick();
        let (tag, idx) = self.locate(line);
        let base = idx * self.config.ways as usize;
        let len = self.lens[idx] as usize;
        let pos = self.find(base, len, tag)?;
        self.last_use[base + pos] = tick;
        Some(&self.metas[base + pos])
    }

    /// Mutable lookup, updating LRU recency on a hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let tick = self.next_tick();
        let (tag, idx) = self.locate(line);
        let base = idx * self.config.ways as usize;
        let len = self.lens[idx] as usize;
        let pos = self.find(base, len, tag)?;
        self.last_use[base + pos] = tick;
        Some(&mut self.metas[base + pos])
    }

    /// Inserts (or overwrites) `line` with `meta`. Returns the evicted
    /// line and its metadata if an LRU victim had to be displaced.
    #[inline(always)]
    pub fn insert(&mut self, line: LineAddr, meta: M) -> Option<(LineAddr, M)> {
        let tick = self.next_tick();
        let ways = self.config.ways as usize;
        let (tag, idx) = self.locate(line);
        let base = idx * ways;
        let len = self.lens[idx] as usize;
        // One pass finds both a tag hit and (if none) the LRU victim.
        // Recency ticks are globally unique, so the first minimum is
        // unambiguous and matches the previous representation exactly.
        let mut victim_i = 0;
        let mut victim_use = u32::MAX;
        for i in 0..len {
            if self.tags[base + i] == tag {
                self.metas[base + i] = meta;
                self.last_use[base + i] = tick;
                return None;
            }
            if self.last_use[base + i] < victim_use {
                victim_use = self.last_use[base + i];
                victim_i = i;
            }
        }
        self.insertions += 1;
        if len < ways {
            self.tags[base + len] = tag;
            self.last_use[base + len] = tick;
            self.metas[base + len] = meta;
            self.lens[idx] += 1;
            return None;
        }
        // Evict the LRU way found above (the set is full here, so the
        // scan visited at least one way).
        let victim_tag = self.tags[base + victim_i];
        self.tags[base + victim_i] = tag;
        self.last_use[base + victim_i] = tick;
        let victim_meta = std::mem::replace(&mut self.metas[base + victim_i], meta);
        self.evictions += 1;
        Some((self.line(victim_tag, idx), victim_meta))
    }

    /// Removes `line` if present, returning its metadata.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<M> {
        let (tag, idx) = self.locate(line);
        let base = idx * self.config.ways as usize;
        let len = self.lens[idx] as usize;
        let pos = self.find(base, len, tag)?;
        // Swap-remove: the last live slot fills the hole, matching the
        // `Vec::swap_remove` order the digest oracle was frozen on.
        let last = len - 1;
        self.tags[base + pos] = self.tags[base + last];
        self.last_use[base + pos] = self.last_use[base + last];
        self.metas.swap(base + pos, base + last);
        self.lens[idx] = last as u32;
        Some(std::mem::take(&mut self.metas[base + last]))
    }

    /// Removes every line — the bulk invalidation software coherence
    /// performs at acquire operations. Returns the number removed.
    ///
    /// With flat storage this is a sum-and-clear over the per-set
    /// occupancy counts; no per-set allocation is visited. Stale
    /// metadata stays in the slab until its slot is refilled, which is
    /// unobservable through the API.
    pub fn invalidate_all(&mut self) -> u64 {
        let n = self.lens.iter().map(|&l| u64::from(l)).sum();
        self.lens.fill(0);
        n
    }

    /// Removes every line for which `pred` holds; returns how many.
    pub fn invalidate_where<F: FnMut(LineAddr, &M) -> bool>(&mut self, mut pred: F) -> u64 {
        let ways = self.config.ways as usize;
        let mut n = 0;
        for idx in 0..self.lens.len() {
            let base = idx * ways;
            let len = self.lens[idx] as usize;
            // In-order compaction — identical survivor order to
            // `Vec::retain`.
            let mut keep = 0;
            for i in 0..len {
                let line = self.line(self.tags[base + i], idx);
                if pred(line, &self.metas[base + i]) {
                    n += 1;
                } else {
                    if keep != i {
                        self.tags[base + keep] = self.tags[base + i];
                        self.last_use[base + keep] = self.last_use[base + i];
                        self.metas.swap(base + keep, base + i);
                    }
                    keep += 1;
                }
            }
            self.lens[idx] = keep as u32;
        }
        n
    }

    /// Whether `line` is currently cached.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the tag, recency and metadata lanes occupy together.
    pub fn lane_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.tags)
            + std::mem::size_of_val(&*self.last_use)
            + std::mem::size_of_val(&*self.metas)
    }

    /// Lines inserted so far (fills).
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Capacity/conflict evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The `n`th resident `(line, meta)` pair in iteration order, or
    /// `None` when fewer than `n + 1` lines are resident. The order is
    /// unspecified but deterministic for a given insertion history —
    /// fault injection uses this to pick a victim line reproducibly.
    pub fn nth_resident(&self, n: usize) -> Option<(LineAddr, &M)> {
        self.iter().nth(n)
    }

    /// Iterates over resident `(line, meta)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        let ways = self.config.ways as usize;
        self.lens.iter().enumerate().flat_map(move |(idx, &len)| {
            let base = idx * ways;
            (base..base + len as usize)
                .map(move |slot| (self.line(self.tags[slot], idx), &self.metas[slot]))
        })
    }
}

// Snapshots serialize only the live slots (`lens[set]` per set): dead
// slab slots hold stale metadata that is unobservable through the API,
// so the restored cache fills them with `M::default()` instead. Tags
// and ticks are written as `u64`, the format's width, and a read tag or
// tick of 2^32 or more is refused.
impl<M: Default + hmg_sim::SnapshotWrite> hmg_sim::SnapshotWrite for Cache<M> {
    fn write_snap(&self, w: &mut hmg_sim::SnapWriter) {
        w.put_u32(self.config.lines);
        w.put_u32(self.config.ways);
        w.put_u64(u64::from(self.tick));
        w.put_u64(self.insertions);
        w.put_u64(self.evictions);
        let ways = self.config.ways as usize;
        for (idx, &len) in self.lens.iter().enumerate() {
            w.put_u32(len);
            let base = idx * ways;
            for slot in base..base + len as usize {
                w.put_u64(u64::from(self.tags[slot]));
                w.put_u64(u64::from(self.last_use[slot]));
                self.metas[slot].write_snap(w);
            }
        }
    }
}

impl<M: Default + hmg_sim::SnapshotRead> hmg_sim::SnapshotRead for Cache<M> {
    fn read_snap(r: &mut hmg_sim::SnapReader<'_>) -> Result<Self, hmg_sim::SnapError> {
        let lines = r.get_u32()?;
        let ways = r.get_u32()?;
        let config = CacheConfig::try_new(lines, ways)
            .map_err(|e| hmg_sim::SnapError::Malformed(e.to_string()))?;
        let mut c = Cache::new(config);
        c.tick = read_lane(r, "tick")?;
        c.insertions = r.get_u64()?;
        c.evictions = r.get_u64()?;
        let ways = config.ways as usize;
        for idx in 0..config.sets() as usize {
            let len = r.get_u32()?;
            if len as usize > ways {
                return Err(hmg_sim::SnapError::Malformed(format!(
                    "cache set {idx} claims {len} live ways of {ways}"
                )));
            }
            let base = idx * ways;
            for slot in base..base + len as usize {
                c.tags[slot] = read_lane(r, "tag")?;
                c.last_use[slot] = read_lane(r, "tick")?;
                c.metas[slot] = M::read_snap(r)?;
            }
            c.lens[idx] = len;
        }
        Ok(c)
    }
}

/// Reads one snapshot tag or tick, refusing a value that does not fit
/// its 32-bit lane.
fn read_lane(r: &mut hmg_sim::SnapReader<'_>, what: &str) -> Result<u32, hmg_sim::SnapError> {
    let v = r.get_u64()?;
    u32::try_from(v)
        .map_err(|_| hmg_sim::SnapError::Malformed(format!("cache {what} {v} exceeds 32 bits")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmg_sim::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};

    fn cache(lines: u32, ways: u32) -> Cache<u32> {
        Cache::new(CacheConfig::new(lines, ways))
    }

    #[test]
    fn hit_after_insert() {
        let mut c = cache(16, 4);
        assert!(c.insert(LineAddr(5), 99).is_none());
        assert_eq!(c.get(LineAddr(5)), Some(&99));
        assert!(c.contains(LineAddr(5)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn miss_on_absent_line() {
        let mut c = cache(16, 4);
        assert_eq!(c.get(LineAddr(3)), None);
        assert_eq!(c.peek(LineAddr(3)), None);
    }

    #[test]
    fn overwrite_updates_meta_without_eviction() {
        let mut c = cache(16, 4);
        c.insert(LineAddr(5), 1);
        assert!(c.insert(LineAddr(5), 2).is_none());
        assert_eq!(c.peek(LineAddr(5)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        // 1 set, 2 ways: lines 0, 4, 8 all map to set 0 (4 sets? no: 2
        // lines / 2 ways = 1 set). Use 2-line, 2-way cache.
        let mut c = cache(2, 2);
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(1), 11);
        c.get(LineAddr(0)); // 1 becomes LRU
        let evicted = c.insert(LineAddr(2), 12).expect("must evict");
        assert_eq!(evicted, (LineAddr(1), 11));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(2)));
    }

    #[test]
    fn evicted_line_address_is_reconstructed_correctly() {
        let mut c = cache(8, 2); // 4 sets
                                 // Lines 3, 7, 11 map to set 3; fill two ways then force eviction.
        c.insert(LineAddr(3), 1);
        c.insert(LineAddr(7), 2);
        let (victim, meta) = c.insert(LineAddr(11), 3).expect("eviction");
        assert_eq!(victim, LineAddr(3));
        assert_eq!(meta, 1);
    }

    #[test]
    fn invalidate_single_line() {
        let mut c = cache(16, 4);
        c.insert(LineAddr(6), 42);
        assert_eq!(c.invalidate(LineAddr(6)), Some(42));
        assert_eq!(c.invalidate(LineAddr(6)), None);
        assert!(!c.contains(LineAddr(6)));
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut c = cache(16, 4);
        for i in 0..10 {
            c.insert(LineAddr(i), i as u32);
        }
        assert_eq!(c.invalidate_all(), 10);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_where_is_selective() {
        let mut c = cache(16, 4);
        for i in 0..8 {
            c.insert(LineAddr(i), i as u32);
        }
        let n = c.invalidate_where(|_, &m| m % 2 == 0);
        assert_eq!(n, 4);
        assert_eq!(c.len(), 4);
        assert!(c.contains(LineAddr(1)));
        assert!(!c.contains(LineAddr(2)));
    }

    #[test]
    fn iter_reports_correct_line_addresses() {
        let mut c = cache(8, 2);
        let lines = [LineAddr(0), LineAddr(5), LineAddr(10)];
        for (i, &l) in lines.iter().enumerate() {
            c.insert(l, i as u32);
        }
        let mut seen: Vec<LineAddr> = c.iter().map(|(l, _)| l).collect();
        seen.sort();
        assert_eq!(seen, vec![LineAddr(0), LineAddr(5), LineAddr(10)]);
    }

    #[test]
    fn nth_resident_is_deterministic_and_bounded() {
        let mut c = cache(8, 2);
        for i in 0..3 {
            c.insert(LineAddr(i), i as u32);
        }
        let all: Vec<_> = (0..3).map(|n| c.nth_resident(n).map(|(l, _)| l)).collect();
        let again: Vec<_> = (0..3).map(|n| c.nth_resident(n).map(|(l, _)| l)).collect();
        assert_eq!(all, again, "same history -> same order");
        assert!(all.iter().all(Option::is_some));
        assert_eq!(c.nth_resident(3), None, "past the end");
    }

    #[test]
    fn fill_and_eviction_counters() {
        let mut c = cache(2, 1); // 2 sets, direct-mapped
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 0); // same set as 0, evicts
        assert_eq!(c.insertions(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn non_power_of_two_set_count_works() {
        // 12 lines / 4 ways = 3 sets; lines 0, 3, 6, 9 share set 0.
        let mut c = cache(12, 4);
        for i in 0..5 {
            c.insert(LineAddr(i * 3), i as u32);
        }
        assert_eq!(c.evictions(), 1);
        for i in 1..5 {
            assert!(c.contains(LineAddr(i * 3)), "line {} resident", i * 3);
        }
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn indivisible_lines_rejected() {
        CacheConfig::new(10, 4);
    }

    #[test]
    fn snapshot_round_trip_preserves_order_and_lru() {
        let mut c = cache(8, 2);
        for i in 0..6u64 {
            c.insert(LineAddr(i), i as u32);
        }
        c.get(LineAddr(1)); // perturb recency
        c.invalidate(LineAddr(5)); // perturb in-set order via swap-remove
        let mut w = SnapWriter::new();
        c.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = Cache::<u32>::read_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            back.iter().collect::<Vec<_>>(),
            "iteration order survives"
        );
        assert_eq!(back.insertions(), c.insertions());
        assert_eq!(back.evictions(), c.evictions());
        // Same future behavior: the next conflict evicts the same victim.
        let mut c2 = c.clone();
        assert_eq!(c2.insert(LineAddr(9), 99), back.insert(LineAddr(9), 99));
    }

    #[test]
    fn snapshot_refuses_impossible_geometry_and_overfull_sets() {
        let mut w = SnapWriter::new();
        w.put_u32(10); // lines not a multiple of ways
        w.put_u32(4);
        assert!(matches!(
            Cache::<u32>::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(hmg_sim::SnapError::Malformed(_))
        ));

        let mut w = SnapWriter::new();
        c_header(&mut w);
        w.put_u32(3); // set 0 claims 3 live ways of 2
        assert!(matches!(
            Cache::<u32>::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(hmg_sim::SnapError::Malformed(_))
        ));

        let mut w = SnapWriter::new();
        c_header(&mut w);
        w.put_u32(1); // set 0 holds one line ...
        w.put_u64(0); // tag
        w.put_u64(1 << 32); // ... whose tick does not fit the 32-bit lane
        0u32.write_snap(&mut w);
        assert!(matches!(
            Cache::<u32>::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(hmg_sim::SnapError::Malformed(_))
        ));

        let mut w = SnapWriter::new();
        c_header(&mut w);
        w.put_u32(1); // set 0 holds one line ...
        w.put_u64(1 << 32); // ... whose tag does not fit the 32-bit lane
        w.put_u64(0); // tick
        0u32.write_snap(&mut w);
        assert!(matches!(
            Cache::<u32>::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(hmg_sim::SnapError::Malformed(m)) if m.contains("tag")
        ));
    }

    #[test]
    fn the_last_line_of_the_domain_keeps_its_address() {
        // 6 sets, so the split is not a shift. Line 2^32 - 1 has the
        // largest tag the lane holds; it hits, iterates and is evicted
        // as itself.
        let mut c = cache(12, 2);
        let top = LineAddr(LINE_LIMIT - 1);
        c.insert(top, 1);
        assert_eq!(c.get(top), Some(&1));
        assert_eq!(c.iter().map(|(l, _)| l).collect::<Vec<_>>(), [top]);
        c.insert(LineAddr(top.0 - 6), 2);
        assert_eq!(c.insert(LineAddr(top.0 - 12), 3), Some((top, 1)));
    }

    #[test]
    #[should_panic(expected = "line 4294967296 is outside the cache's domain")]
    fn a_line_past_the_domain_panics_instead_of_aliasing() {
        // Line 2^32 with one set would alias tag 0 in a truncating lane.
        let mut c = cache(2, 2);
        c.insert(LineAddr(0), 0);
        c.get(LineAddr(LINE_LIMIT));
    }

    fn c_header(w: &mut SnapWriter) {
        w.put_u32(4); // 2 sets x 2 ways
        w.put_u32(2);
        w.put_u64(0); // tick
        w.put_u64(0); // insertions
        w.put_u64(0); // evictions
    }

    /// One seeded operation of the tick-wrap test; returns what it saw.
    fn step(c: &mut Cache<u32>, op: u64, line: LineAddr, meta: u32) -> Option<(LineAddr, u32)> {
        match op {
            0..=3 => c.get(line).map(|&m| (line, m)),
            4..=7 => c.insert(line, meta),
            8 => c.get_mut(line).map(|m| {
                *m += 1;
                (line, *m)
            }),
            _ => c.invalidate(line).map(|m| (line, m)),
        }
    }

    #[test]
    fn ticks_renumbered_at_the_wrap_keep_every_lru_choice() {
        const START: u32 = u32::MAX - 1_000; // wraps a quarter of the way in
        let mut fresh = cache(32, 4); // 8 sets; 96 lines contend for them
        let mut wrapped = cache(32, 4);
        wrapped.tick = START;
        let mut rng = hmg_sim::Rng::new(0x7ac5);
        for i in 0..4_000u32 {
            let (op, line) = (rng.gen_range(0, 10), LineAddr(rng.gen_range(0, 96)));
            assert_eq!(
                step(&mut fresh, op, line, i),
                step(&mut wrapped, op, line, i),
                "op {i}: {op} on {line:?}"
            );
        }
        assert!(wrapped.tick < START, "the counter wrapped");
        assert!(fresh.evictions() > 100, "the sequence exercises LRU");
        assert_eq!(
            fresh.iter().collect::<Vec<_>>(),
            wrapped.iter().collect::<Vec<_>>()
        );

        // A restored copy of the wrapped cache evicts the same victims.
        let mut w = SnapWriter::new();
        wrapped.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut back = Cache::<u32>::read_snap(&mut SnapReader::new(&bytes)).unwrap();
        let mut evicted = 0;
        for line in 1_000..1_032 {
            let want = wrapped.insert(LineAddr(line), 0);
            evicted += usize::from(want.is_some());
            assert_eq!(back.insert(LineAddr(line), 0), want);
            assert_eq!(fresh.insert(LineAddr(line), 0), want);
        }
        assert!(evicted >= 16, "only {evicted} restored lines were evicted");
    }
}
