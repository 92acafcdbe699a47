//! NUMA page placement and home-node resolution.
//!
//! The *system home* GPM of every address is decided at page granularity
//! (2 MB pages, Table II) by the placement policy — first-touch by
//! default, as the paper's simulator inherits from MCM-GPU and NUMA-GPU
//! work [5, 13]. Under HMG every other GPU additionally designates a
//! *GPU home* GPM per directory block via a hash (Section V-A); within
//! the owning GPU the GPU home coincides with the system home (Fig. 6).

use hmg_interconnect::{GpmId, GpuId, Topology};
use hmg_sim::collect::{FlatMap, FlatSet};
use hmg_sim::rng::hash64;

use crate::addr::{BlockAddr, PageId};

/// Salt decorrelating the re-homing hash from the placement hash, so a
/// page that interleaved placement sent to a now-dead GPM does not
/// systematically land on the same survivor.
const REHOME_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Placement policy for the system home of each page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePlacement {
    /// The page is homed at the GPM that first touches it — the paper's
    /// default (maximizes locality under contiguous CTA scheduling).
    #[default]
    FirstTouch,
    /// The page is homed by hashing its page number across all GPMs —
    /// the "static distribution" alternative (used as an ablation).
    Interleaved,
}

/// Tracks page-to-home-GPM assignments and answers home-node queries.
///
/// # Example
///
/// ```
/// use hmg_mem::{PageMap, PagePlacement};
/// use hmg_mem::addr::PageId;
/// use hmg_interconnect::{Topology, GpmId};
///
/// let topo = Topology::new(2, 2);
/// let mut pm = PageMap::new(topo, PagePlacement::FirstTouch);
/// let home = pm.home_of(PageId(5), GpmId(3));
/// assert_eq!(home, GpmId(3)); // first touch wins
/// assert_eq!(pm.home_of(PageId(5), GpmId(0)), GpmId(3)); // sticky
/// ```
#[derive(Debug)]
pub struct PageMap {
    topo: Topology,
    placement: PagePlacement,
    /// Strength-reduced modulo by `gpms_per_gpu` for GPU-home hashing.
    gpu_split: crate::fastdiv::SetSplit,
    homes: FlatMap<PageId, GpmId>,
    /// Bit *i* set = global GPM *i* is permanently offline: it can no
    /// longer home pages, and pages it homed have been re-hashed onto
    /// the survivors.
    offline: u64,
    /// Pages whose home died and were re-homed — these serve in
    /// degraded no-peer-caching mode (their DRAM partition is gone).
    rehomed: FlatSet<PageId>,
}

impl PageMap {
    /// Creates an empty map for `topo` under `placement`.
    pub fn new(topo: Topology, placement: PagePlacement) -> Self {
        PageMap {
            topo,
            placement,
            gpu_split: crate::fastdiv::SetSplit::new(u32::from(topo.gpms_per_gpu())),
            homes: FlatMap::new(),
            offline: 0,
            rehomed: FlatSet::new(),
        }
    }

    /// The placement policy in force.
    pub fn placement(&self) -> PagePlacement {
        self.placement
    }

    /// Whether `gpm` has been taken permanently offline.
    pub fn is_offline(&self, gpm: GpmId) -> bool {
        self.offline & (1u64 << gpm.index()) != 0
    }

    /// Deterministic re-home of `page` over the surviving GPMs: a
    /// salted re-hash over the alive list in index order, so every node
    /// computes the same answer with no coordination.
    ///
    /// # Panics
    ///
    /// Panics if every GPM is offline.
    fn rehome_target(&self, page: PageId) -> GpmId {
        let alive: Vec<GpmId> = self
            .topo
            .all_gpms()
            .filter(|&g| !self.is_offline(g))
            .collect();
        assert!(!alive.is_empty(), "no surviving GPM to re-home onto");
        alive[(hash64(page.0 ^ REHOME_SALT) % alive.len() as u64) as usize]
    }

    /// The interleaved home of `page`: the placement hash, re-hashed
    /// over the survivors when it lands on a dead GPM.
    fn interleaved_home(&self, page: PageId) -> GpmId {
        let n = self.topo.num_gpms() as u64;
        let base = GpmId((hash64(page.0) % n) as u16);
        if self.is_offline(base) {
            self.rehome_target(page)
        } else {
            base
        }
    }

    /// Returns the system home GPM of `page`, assigning it on first use
    /// according to the placement policy (`toucher` is the GPM issuing
    /// the access). Never returns an offline GPM: first touches come
    /// from live GPMs, assigned homes are re-hashed by
    /// [`PageMap::take_offline`], and the interleaved hash skips the
    /// dead.
    pub fn home_of(&mut self, page: PageId, toucher: GpmId) -> GpmId {
        match self.placement {
            PagePlacement::FirstTouch => *self.homes.or_insert(page, toucher),
            PagePlacement::Interleaved => self.interleaved_home(page),
        }
    }

    /// The home of `page` if already assigned (always `Some` under
    /// interleaved placement).
    pub fn peek_home(&self, page: PageId) -> Option<GpmId> {
        match self.placement {
            PagePlacement::FirstTouch => self.homes.get(&page).copied(),
            PagePlacement::Interleaved => Some(self.interleaved_home(page)),
        }
    }

    /// Number of pages assigned so far (first-touch only).
    pub fn assigned_pages(&self) -> usize {
        self.homes.len()
    }

    /// Takes GPMs permanently offline and re-homes every assigned page
    /// they owned: a deterministic salted re-hash over the surviving
    /// GPMs in index order. Returns the re-homed pages, sorted — these
    /// are the pages whose DRAM partition died, and they serve in
    /// degraded no-peer-caching mode from now on.
    ///
    /// Under interleaved placement assignment is implicit, so nothing
    /// is eagerly moved (and the returned list is empty): the placement
    /// hash itself skips dead GPMs, and [`PageMap::is_rehomed`] answers
    /// per query.
    pub fn take_offline(&mut self, dead: &[GpmId]) -> Vec<PageId> {
        for &g in dead {
            assert!(g.0 < self.topo.num_gpms(), "{g} out of range");
            self.offline |= 1u64 << g.index();
        }
        let mut moved: Vec<PageId> = self
            .homes
            .iter()
            .filter(|(_, &home)| self.is_offline(home))
            .map(|(&page, _)| page)
            .collect();
        moved.sort_unstable();
        for &page in &moved {
            let target = self.rehome_target(page);
            self.homes.insert(page, target);
            self.rehomed.insert(page);
        }
        moved
    }

    /// Whether `page`'s original home died: its data now lives on a
    /// survivor and is served in degraded no-peer-caching mode.
    pub fn is_rehomed(&self, page: PageId) -> bool {
        if self.offline == 0 {
            return false;
        }
        match self.placement {
            PagePlacement::FirstTouch => self.rehomed.contains(&page),
            PagePlacement::Interleaved => {
                let n = self.topo.num_gpms() as u64;
                self.is_offline(GpmId((hash64(page.0) % n) as u16))
            }
        }
    }

    /// HMG's *GPU home* for directory block `block` within `gpu`, given
    /// the block's system home `sys_home`. Within the owning GPU the GPU
    /// home is the system home itself; elsewhere it is a hash across the
    /// GPU's modules — skipping dead modules by re-hashing over the
    /// GPU's survivors (falling back to `sys_home` if the whole GPU is
    /// dead, in which case nothing routes through it anyway).
    pub fn gpu_home(&self, gpu: GpuId, block: BlockAddr, sys_home: GpmId) -> GpmId {
        if self.topo.gpu_of(sys_home) == gpu {
            return sys_home;
        }
        let local = self.gpu_split.split(hash64(block.0)).1 as u16;
        let base = self.topo.gpm(gpu, local);
        if !self.is_offline(base) {
            return base;
        }
        let alive: Vec<GpmId> = self
            .topo
            .gpms_of(gpu)
            .filter(|&g| !self.is_offline(g))
            .collect();
        if alive.is_empty() {
            return sys_home;
        }
        alive[(hash64(block.0 ^ REHOME_SALT) % alive.len() as u64) as usize]
    }
}

hmg_sim::snapshot_codec!(enum PagePlacement {
    0 => FirstTouch,
    1 => Interleaved,
});

impl hmg_sim::SnapshotWrite for PageMap {
    fn write_snap(&self, w: &mut hmg_sim::SnapWriter) {
        self.topo.write_snap(w);
        self.placement.write_snap(w);
        self.homes.write_snap(w);
        w.put_u64(self.offline);
        self.rehomed.write_snap(w);
    }
}

impl hmg_sim::SnapshotRead for PageMap {
    fn read_snap(r: &mut hmg_sim::SnapReader<'_>) -> Result<Self, hmg_sim::SnapError> {
        let topo = Topology::read_snap(r)?;
        let placement = PagePlacement::read_snap(r)?;
        let homes: FlatMap<PageId, GpmId> = FlatMap::read_snap(r)?;
        let offline = r.get_u64()?;
        let rehomed = FlatSet::read_snap(r)?;
        if offline >> topo.num_gpms().min(63) != 0 {
            return Err(hmg_sim::SnapError::Malformed(
                "offline-GPM mask exceeds topology".into(),
            ));
        }
        for (_, &home) in homes.iter() {
            if home.0 >= topo.num_gpms() {
                return Err(hmg_sim::SnapError::Malformed(format!(
                    "page home {home} out of range"
                )));
            }
        }
        Ok(PageMap {
            topo,
            placement,
            gpu_split: crate::fastdiv::SetSplit::new(u32::from(topo.gpms_per_gpu())),
            homes,
            offline,
            rehomed,
        })
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the tests count distinct homes in a HashSet; never simulator state"
)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_sticky() {
        let topo = Topology::new(4, 4);
        let mut pm = PageMap::new(topo, PagePlacement::FirstTouch);
        assert_eq!(pm.home_of(PageId(1), GpmId(9)), GpmId(9));
        assert_eq!(pm.home_of(PageId(1), GpmId(2)), GpmId(9));
        assert_eq!(pm.assigned_pages(), 1);
        assert_eq!(pm.peek_home(PageId(1)), Some(GpmId(9)));
        assert_eq!(pm.peek_home(PageId(2)), None);
    }

    #[test]
    fn interleaved_ignores_toucher_and_spreads() {
        let topo = Topology::new(4, 4);
        let mut pm = PageMap::new(topo, PagePlacement::Interleaved);
        let mut seen = std::collections::HashSet::new();
        for p in 0..256u64 {
            let h = pm.home_of(PageId(p), GpmId(0));
            assert_eq!(pm.home_of(PageId(p), GpmId(5)), h, "deterministic");
            seen.insert(h);
        }
        assert!(seen.len() >= 12, "interleaving should hit most GPMs");
    }

    #[test]
    fn gpu_home_in_owning_gpu_is_system_home() {
        let topo = Topology::new(4, 4);
        let pm = PageMap::new(topo, PagePlacement::FirstTouch);
        let sys_home = GpmId(6); // GPU1
        let gh = pm.gpu_home(GpuId(1), BlockAddr(77), sys_home);
        assert_eq!(gh, sys_home);
    }

    #[test]
    fn gpu_home_elsewhere_is_within_that_gpu_and_deterministic() {
        let topo = Topology::new(4, 4);
        let pm = PageMap::new(topo, PagePlacement::FirstTouch);
        let sys_home = GpmId(6); // GPU1
        for b in 0..100u64 {
            let gh = pm.gpu_home(GpuId(3), BlockAddr(b), sys_home);
            assert_eq!(topo.gpu_of(gh), GpuId(3));
            assert_eq!(pm.gpu_home(GpuId(3), BlockAddr(b), sys_home), gh);
        }
    }

    #[test]
    fn take_offline_rehomes_deterministically_onto_survivors() {
        let topo = Topology::new(2, 2);
        let mut a = PageMap::new(topo, PagePlacement::FirstTouch);
        let mut b = PageMap::new(topo, PagePlacement::FirstTouch);
        for pm in [&mut a, &mut b] {
            for p in 0..32u64 {
                pm.home_of(PageId(p), GpmId((p % 4) as u16));
            }
        }
        let moved_a = a.take_offline(&[GpmId(2), GpmId(3)]);
        let moved_b = b.take_offline(&[GpmId(2), GpmId(3)]);
        assert_eq!(moved_a, moved_b, "re-home set is deterministic");
        assert_eq!(moved_a.len(), 16, "pages homed at GPM2/3");
        for &p in &moved_a {
            let home = a.peek_home(p).unwrap();
            assert!(home == GpmId(0) || home == GpmId(1), "survivor only");
            assert_eq!(b.peek_home(p), Some(home), "same target everywhere");
            assert!(a.is_rehomed(p));
        }
        // Surviving pages keep their home and are not degraded.
        for p in 0..32u64 {
            if !moved_a.contains(&PageId(p)) {
                assert!(!a.is_rehomed(PageId(p)));
                assert_eq!(a.peek_home(PageId(p)), Some(GpmId((p % 4) as u16)));
            }
        }
        assert!(a.is_offline(GpmId(2)) && !a.is_offline(GpmId(1)));
    }

    #[test]
    fn interleaved_homes_skip_dead_gpms_lazily() {
        let topo = Topology::new(2, 2);
        let mut pm = PageMap::new(topo, PagePlacement::Interleaved);
        let moved = pm.take_offline(&[GpmId(0)]);
        assert!(moved.is_empty(), "interleaved re-homes lazily");
        let mut rehomed = 0;
        for p in 0..64u64 {
            let h = pm.home_of(PageId(p), GpmId(1));
            assert_ne!(h, GpmId(0), "dead GPM must not home pages");
            assert_eq!(pm.peek_home(PageId(p)), Some(h));
            if pm.is_rehomed(PageId(p)) {
                rehomed += 1;
            }
        }
        assert!(rehomed > 0, "some pages hashed to the dead GPM");
    }

    #[test]
    fn gpu_home_avoids_dead_modules() {
        let topo = Topology::new(2, 2);
        let mut pm = PageMap::new(topo, PagePlacement::FirstTouch);
        pm.take_offline(&[GpmId(2)]); // GPU1 loses its first module
        let sys_home = GpmId(0); // GPU0
        let mut seen = std::collections::HashSet::new();
        for b in 0..64u64 {
            let gh = pm.gpu_home(GpuId(1), BlockAddr(b), sys_home);
            assert_ne!(gh, GpmId(2), "dead module must not be a GPU home");
            assert_eq!(topo.gpu_of(gh), GpuId(1));
            seen.insert(gh);
        }
        assert_eq!(seen, std::collections::HashSet::from([GpmId(3)]));
        // A fully dead GPU degenerates to the system home (nothing
        // routes through it).
        pm.take_offline(&[GpmId(3)]);
        assert_eq!(pm.gpu_home(GpuId(1), BlockAddr(7), sys_home), sys_home);
    }

    #[test]
    fn snapshot_round_trip_preserves_homes_and_degradation() {
        use hmg_sim::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
        let topo = Topology::new(2, 2);
        let mut pm = PageMap::new(topo, PagePlacement::FirstTouch);
        for p in 0..32u64 {
            pm.home_of(PageId(p), GpmId((p % 4) as u16));
        }
        pm.take_offline(&[GpmId(2)]);
        let mut w = SnapWriter::new();
        pm.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = PageMap::read_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.placement(), pm.placement());
        assert_eq!(back.assigned_pages(), pm.assigned_pages());
        assert!(back.is_offline(GpmId(2)));
        for p in 0..32u64 {
            assert_eq!(back.peek_home(PageId(p)), pm.peek_home(PageId(p)));
            assert_eq!(back.is_rehomed(PageId(p)), pm.is_rehomed(PageId(p)));
        }
        // Same future behavior: first touches and GPU homes agree.
        assert_eq!(
            back.home_of(PageId(99), GpmId(1)),
            pm.home_of(PageId(99), GpmId(1))
        );
        for b in 0..16u64 {
            assert_eq!(
                back.gpu_home(GpuId(1), BlockAddr(b), GpmId(0)),
                pm.gpu_home(GpuId(1), BlockAddr(b), GpmId(0))
            );
        }
    }

    #[test]
    fn snapshot_refuses_out_of_range_homes_and_masks() {
        use hmg_sim::{SnapError, SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
        let topo = Topology::new(2, 2);
        // Home GPM index 9 does not exist in a 2x2 system.
        let mut w = SnapWriter::new();
        topo.write_snap(&mut w);
        w.put_u8(0);
        w.put_u64(1); // one home entry
        w.put_u64(5); // PageId(5)
        w.put_u16(9); // GpmId(9): out of range
        w.put_u64(0); // offline mask
        w.put_u64(0); // empty rehomed set
        assert!(matches!(
            PageMap::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(SnapError::Malformed(_))
        ));

        // Offline mask naming GPM 60 in a 4-GPM system.
        let mut w = SnapWriter::new();
        topo.write_snap(&mut w);
        w.put_u8(0);
        w.put_u64(0); // no homes
        w.put_u64(1u64 << 60);
        w.put_u64(0);
        assert!(matches!(
            PageMap::read_snap(&mut SnapReader::new(&w.into_bytes())),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn gpu_home_spreads_blocks_across_modules() {
        let topo = Topology::new(4, 4);
        let pm = PageMap::new(topo, PagePlacement::FirstTouch);
        let mut seen = std::collections::HashSet::new();
        for b in 0..64u64 {
            seen.insert(pm.gpu_home(GpuId(2), BlockAddr(b), GpmId(0)));
        }
        assert_eq!(seen.len(), 4, "all four modules should serve as GPU homes");
    }
}
