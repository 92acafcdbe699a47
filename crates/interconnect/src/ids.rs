//! Strongly-typed identifiers for GPUs and GPU modules, and the system
//! topology that relates them.

use std::fmt;

/// Identifies one GPU in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GpuId(pub u16);

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU{}", self.0)
    }
}

/// Identifies one GPU module (GPM) by its *global* (flat) index across the
/// whole system. Use [`Topology`] to convert between global indices and
/// (GPU, local-GPM) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GpmId(pub u16);

impl GpmId {
    /// The raw flat index, handy for indexing per-GPM state vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GpmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPM{}", self.0)
    }
}

/// The shape of the system: how many GPUs, and how many GPMs per GPU.
///
/// GPM global indices are laid out GPU-major: GPU *g*'s modules are
/// `g * gpms_per_gpu .. (g + 1) * gpms_per_gpu`.
///
/// # Example
///
/// ```
/// use hmg_interconnect::{Topology, GpuId, GpmId};
///
/// let t = Topology::new(2, 4);
/// assert_eq!(t.gpm(GpuId(1), 0), GpmId(4));
/// assert_eq!(t.local_index(GpmId(6)), 2);
/// assert!(t.same_gpu(GpmId(4), GpmId(7)));
/// assert!(!t.same_gpu(GpmId(3), GpmId(4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    num_gpus: u16,
    gpms_per_gpu: u16,
}

impl Topology {
    /// Creates a topology of `num_gpus` GPUs with `gpms_per_gpu` modules each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_gpus: u16, gpms_per_gpu: u16) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        assert!(gpms_per_gpu > 0, "need at least one GPM per GPU");
        Topology {
            num_gpus,
            gpms_per_gpu,
        }
    }

    /// Number of GPUs in the system.
    #[inline]
    pub fn num_gpus(&self) -> u16 {
        self.num_gpus
    }

    /// Number of GPMs in each GPU.
    #[inline]
    pub fn gpms_per_gpu(&self) -> u16 {
        self.gpms_per_gpu
    }

    /// Total number of GPMs across all GPUs.
    #[inline]
    pub fn num_gpms(&self) -> u16 {
        self.num_gpus * self.gpms_per_gpu
    }

    /// The GPU that owns `gpm`.
    ///
    /// # Panics
    ///
    /// Panics if `gpm` is out of range.
    #[inline]
    pub fn gpu_of(&self, gpm: GpmId) -> GpuId {
        assert!(gpm.0 < self.num_gpms(), "{gpm} out of range");
        GpuId(gpm.0 / self.gpms_per_gpu)
    }

    /// `gpm`'s index within its GPU (`0..gpms_per_gpu`).
    #[inline]
    pub fn local_index(&self, gpm: GpmId) -> u16 {
        assert!(gpm.0 < self.num_gpms(), "{gpm} out of range");
        gpm.0 % self.gpms_per_gpu
    }

    /// The global id of GPU `gpu`'s `local`-th module.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    #[inline]
    pub fn gpm(&self, gpu: GpuId, local: u16) -> GpmId {
        assert!(gpu.0 < self.num_gpus, "{gpu} out of range");
        assert!(local < self.gpms_per_gpu, "local GPM {local} out of range");
        GpmId(gpu.0 * self.gpms_per_gpu + local)
    }

    /// Whether two GPMs sit on the same GPU.
    #[inline]
    pub fn same_gpu(&self, a: GpmId, b: GpmId) -> bool {
        self.gpu_of(a) == self.gpu_of(b)
    }

    /// Iterates over the GPMs of one GPU.
    pub fn gpms_of(&self, gpu: GpuId) -> impl Iterator<Item = GpmId> {
        let base = gpu.0 * self.gpms_per_gpu;
        (base..base + self.gpms_per_gpu).map(GpmId)
    }

    /// Iterates over every GPM in the system.
    pub fn all_gpms(&self) -> impl Iterator<Item = GpmId> {
        (0..self.num_gpms()).map(GpmId)
    }

    /// Iterates over every GPU in the system.
    pub fn all_gpus(&self) -> impl Iterator<Item = GpuId> {
        (0..self.num_gpus).map(GpuId)
    }

    /// Maximum number of sharers one coherence-directory entry must track
    /// under HMG's hierarchical scheme: the other GPMs of the home GPU plus
    /// the other GPUs — `M + N - 2` for an M-GPM, N-GPU system (§V-A).
    #[inline]
    pub fn max_hierarchical_sharers(&self) -> u16 {
        self.gpms_per_gpu + self.num_gpus - 2
    }
}

hmg_sim::snapshot_codec!(GpuId(u16));

hmg_sim::snapshot_codec!(GpmId(u16));

impl hmg_sim::SnapshotWrite for Topology {
    fn write_snap(&self, w: &mut hmg_sim::SnapWriter) {
        w.put_u16(self.num_gpus);
        w.put_u16(self.gpms_per_gpu);
    }
}
impl hmg_sim::SnapshotRead for Topology {
    fn read_snap(r: &mut hmg_sim::SnapReader<'_>) -> Result<Self, hmg_sim::SnapError> {
        let num_gpus = r.get_u16()?;
        let gpms_per_gpu = r.get_u16()?;
        if num_gpus == 0 || gpms_per_gpu == 0 {
            return Err(hmg_sim::SnapError::Malformed(format!(
                "empty topology {num_gpus}x{gpms_per_gpu}"
            )));
        }
        Ok(Topology::new(num_gpus, gpms_per_gpu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_gpu_major() {
        let t = Topology::new(4, 4);
        assert_eq!(t.num_gpms(), 16);
        assert_eq!(t.gpm(GpuId(0), 0), GpmId(0));
        assert_eq!(t.gpm(GpuId(3), 3), GpmId(15));
        assert_eq!(t.gpu_of(GpmId(5)), GpuId(1));
        assert_eq!(t.local_index(GpmId(5)), 1);
    }

    #[test]
    fn roundtrip_all_gpms() {
        let t = Topology::new(3, 5);
        for gpm in t.all_gpms() {
            let gpu = t.gpu_of(gpm);
            let local = t.local_index(gpm);
            assert_eq!(t.gpm(gpu, local), gpm);
        }
    }

    #[test]
    fn same_gpu_classification() {
        let t = Topology::new(2, 2);
        assert!(t.same_gpu(GpmId(0), GpmId(1)));
        assert!(!t.same_gpu(GpmId(1), GpmId(2)));
    }

    #[test]
    fn gpms_of_yields_the_right_block() {
        let t = Topology::new(2, 3);
        let v: Vec<_> = t.gpms_of(GpuId(1)).collect();
        assert_eq!(v, vec![GpmId(3), GpmId(4), GpmId(5)]);
    }

    #[test]
    fn table_ii_sharer_budget() {
        // 4 GPMs x 4 GPUs: at most 6 sharers, matching §VII-C's 6-bit vector.
        let t = Topology::new(4, 4);
        assert_eq!(t.max_hierarchical_sharers(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gpm_panics() {
        Topology::new(1, 1).gpu_of(GpmId(1));
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(GpuId(3).to_string(), "GPU3");
        assert_eq!(GpmId(7).to_string(), "GPM7");
    }
}
