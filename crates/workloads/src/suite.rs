//! The Table III benchmark suite: 20 workloads, their paper-reported
//! footprints, and the archetype parameters that reproduce each one's
//! sharing structure.

use hmg_protocol::{Scope, WorkloadTrace};

use crate::archetypes::{
    graph, layers, solver, stencil, wavefront, Dims, GraphParams, LayersParams, SolverParams,
    StencilParams, WavefrontParams,
};

/// Experiment scale. The paper's traces run on an industrial simulator
/// farm; we provide three sizes with the same sharing structure:
///
/// * `Tiny` — seconds-fast, sized for the `EngineConfig::small_test`
///   machine (unit/integration tests).
/// * `Small` — the default for figure regeneration on the Table II
///   machine: footprints are the paper's divided by 16 (clamped to stay
///   far above the 12 MB/GPU L2), access counts trimmed accordingly.
/// * `Full` — paper-sized footprints; slow, for spot checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Test-sized; pair with `EngineConfig::small_test`.
    Tiny,
    /// Default benchmarking scale; pair with `EngineConfig::paper_default`.
    #[default]
    Small,
    /// Paper-sized footprints.
    Full,
}

impl Scale {
    /// The scale's command-line name: `tiny`, `small` or `full`. Sweep
    /// checkpoints, snapshot identities and BENCH reports record it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// Parses a [`Scale::name`].
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Small, Scale::Full]
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// CTAs per kernel grid.
    pub fn ctas(self) -> u64 {
        match self {
            Scale::Tiny => 8,
            Scale::Small => 512,
            Scale::Full => 2048,
        }
    }

    /// CTAs for the persistent-kernel solver archetype. These must all be
    /// resident simultaneously (each CTA occupies an SM while flag
    /// synchronization is in progress), so the count may not exceed the
    /// total SMs of the paired engine configuration.
    pub fn resident_ctas(self) -> u64 {
        match self {
            Scale::Tiny => 8,    // small_test: 2 GPUs x 2 GPMs x 2 SMs
            Scale::Small => 512, // paper_default: 512 SMs
            Scale::Full => 512,
        }
    }

    /// Caps a workload's kernel count.
    pub fn kernels(self, base: u32) -> u32 {
        match self {
            Scale::Tiny => base.min(3),
            Scale::Small => base.min(16),
            Scale::Full => base,
        }
    }

    /// Scales a per-CTA access amount. The `Small` multiplier keeps each
    /// kernel's memory work large relative to launch overhead and
    /// round-trip latency, so bandwidth queueing — the effect the paper's
    /// evaluation hinges on — dominates as it does at full scale.
    pub fn amount(self, base: u64) -> u64 {
        match self {
            Scale::Tiny => (base / 8).max(2),
            Scale::Small => base * 3,
            Scale::Full => base * 12,
        }
    }

    /// Scales a paper footprint (in MB) to bytes. Workloads small enough
    /// to simulate directly (≤ 48 MB — the RNN layers, bfs) keep their
    /// exact Table III footprint at `Small`, and thus run on the exact
    /// Table II machine.
    pub fn footprint(self, paper_mb: f64) -> u64 {
        let mb = 1024.0 * 1024.0;
        let bytes = match self {
            Scale::Tiny => (paper_mb * mb / 256.0).clamp(4.0 * mb, 8.0 * mb),
            Scale::Small if paper_mb <= 48.0 => paper_mb * mb,
            Scale::Small => (paper_mb * mb / 16.0).clamp(24.0 * mb, 160.0 * mb),
            Scale::Full => paper_mb * mb,
        };
        bytes as u64
    }

    /// How much the machine's cache/directory capacities must shrink to
    /// match this scale's footprint reduction, preserving the paper's
    /// footprint-to-cache ratios. 1.0 at `Full` (exact Table II) and at
    /// `Tiny` (which pairs with the already-miniature test machine).
    pub fn capacity_factor(self, paper_mb: f64) -> f64 {
        match self {
            Scale::Tiny => 1.0,
            Scale::Small | Scale::Full => {
                (paper_mb * 1024.0 * 1024.0 / self.footprint(paper_mb) as f64).max(1.0)
            }
        }
    }
}

/// Benchmark provenance groups of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// NVIDIA cuSolver library kernel.
    CuSolver,
    /// DOE proxy/production HPC applications.
    Hpc,
    /// LoneStar irregular graph workloads.
    Lonestar,
    /// Machine-learning layers.
    Ml,
    /// Rodinia kernels.
    Rodinia,
}

/// Which archetype generates a workload, with its tuned parameters.
#[derive(Debug, Clone, Copy)]
enum Arche {
    Layers { kernels: u32, p: LayersParams },
    Stencil { kernels: u32, p: StencilParams },
    Graph { kernels: u32, p: GraphParams },
    Wavefront { kernels: u32, p: WavefrontParams },
    Solver { phases: u32, p: SolverParams },
}

/// One Table III benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Full benchmark name as listed in Table III.
    pub name: &'static str,
    /// Abbreviation used on the figures' x-axes.
    pub abbrev: &'static str,
    /// Memory footprint reported in Table III, in MB.
    pub paper_footprint_mb: f64,
    /// Provenance group.
    pub category: Category,
    arche: Arche,
}

impl WorkloadSpec {
    /// The capacity-scaling factor for this workload at `scale`
    /// (see [`Scale::capacity_factor`]).
    pub fn capacity_factor(&self, scale: Scale) -> f64 {
        scale.capacity_factor(self.paper_footprint_mb)
    }

    /// Whether this workload runs as a single persistent kernel whose
    /// CTAs synchronize through flags. Such grids must be fully resident
    /// ([`Scale::resident_ctas`] is sized for the default Table II
    /// machine), so experiments that shrink the machine's SM count must
    /// exclude these workloads or they would deadlock by construction.
    pub fn uses_persistent_kernel(&self) -> bool {
        matches!(self.arche, Arche::Solver { .. })
    }

    /// Generates the synthetic trace at `scale` with the given seed.
    pub fn generate(&self, scale: Scale, seed: u64) -> WorkloadTrace {
        let footprint = scale.footprint(self.paper_footprint_mb);
        match self.arche {
            Arche::Layers { kernels, p } => {
                let d = Dims {
                    ctas: scale.ctas(),
                    kernels: scale.kernels(kernels),
                    footprint,
                    seed,
                };
                let p = LayersParams {
                    bcast_reads: scale.amount(p.bcast_reads),
                    own_reads: scale.amount(p.own_reads),
                    state_reads: scale.amount(p.state_reads),
                    tile_reads: scale.amount(p.tile_reads),
                    tile_writes: scale.amount(p.tile_writes),
                    ..p
                };
                layers(self.abbrev, d, p)
            }
            Arche::Stencil { kernels, p } => {
                let d = Dims {
                    ctas: scale.ctas(),
                    kernels: scale.kernels(kernels),
                    footprint,
                    seed,
                };
                let p = StencilParams {
                    interior_reads: scale.amount(p.interior_reads),
                    writes: scale.amount(p.writes),
                    stride2: if p.stride2 > 0 {
                        (scale.ctas() / 16).max(1)
                    } else {
                        0
                    },
                    ..p
                };
                stencil(self.abbrev, d, p)
            }
            Arche::Graph { kernels, p } => {
                let d = Dims {
                    ctas: scale.ctas(),
                    kernels: scale.kernels(kernels),
                    footprint,
                    seed,
                };
                let p = GraphParams {
                    irregular_reads: scale.amount(p.irregular_reads),
                    frontier_reads: scale.amount(p.frontier_reads),
                    ..p
                };
                graph(self.abbrev, d, p)
            }
            Arche::Wavefront { kernels, p } => {
                let d = Dims {
                    ctas: scale.ctas(),
                    kernels: scale.kernels(kernels),
                    footprint,
                    seed,
                };
                let p = WavefrontParams {
                    back_reads: scale.amount(p.back_reads),
                    writes: scale.amount(p.writes),
                    ..p
                };
                wavefront(self.abbrev, d, p)
            }
            Arche::Solver { phases, p } => {
                let d = Dims {
                    ctas: scale.resident_ctas(),
                    kernels: scale.kernels(phases),
                    footprint,
                    seed,
                };
                let p = SolverParams {
                    panel_writes: scale.amount(p.panel_writes),
                    panel_reads: scale.amount(p.panel_reads),
                    trailing: scale.amount(p.trailing),
                    ..p
                };
                solver(self.abbrev, d, p)
            }
        }
    }
}

/// The 20 Table III workloads, in the order the paper's figures plot
/// them (left: coarse-grained/local; right: fine-grained sharing).
pub fn table3() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "ML overfeat layer1",
            abbrev: "overfeat",
            paper_footprint_mb: 618.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 6,
                p: LayersParams {
                    bcast_frac: 0.02,
                    bcast_reads: 6,
                    own_frac: 0.0,
                    own_reads: 0,
                    state_frac: 0.48,
                    state_reads: 0,
                    tile_reads: 60,
                    tile_writes: 20,
                    shift_frac: 0.02,
                    delay: 2,
                },
            },
        },
        WorkloadSpec {
            name: "HPC MiniAMR-test2",
            abbrev: "MiniAMR",
            paper_footprint_mb: 1800.0,
            category: Category::Hpc,
            arche: Arche::Stencil {
                kernels: 10,
                p: StencilParams {
                    interior_reads: 50,
                    halo: 2,
                    stride2: 1,
                    writes: 16,
                    delay: 2,
                },
            },
        },
        WorkloadSpec {
            name: "ML AlexNet conv2",
            abbrev: "AlexNet",
            paper_footprint_mb: 812.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 8,
                p: LayersParams {
                    bcast_frac: 0.01,
                    bcast_reads: 12,
                    own_frac: 0.0,
                    own_reads: 0,
                    state_frac: 0.46,
                    state_reads: 0,
                    tile_reads: 50,
                    tile_writes: 16,
                    shift_frac: 0.05,
                    delay: 2,
                },
            },
        },
        WorkloadSpec {
            name: "HPC CoMD-xyz49",
            abbrev: "CoMD",
            paper_footprint_mb: 313.0,
            category: Category::Hpc,
            arche: Arche::Stencil {
                kernels: 10,
                p: StencilParams {
                    interior_reads: 40,
                    halo: 4,
                    stride2: 1,
                    writes: 12,
                    delay: 2,
                },
            },
        },
        WorkloadSpec {
            name: "HPC HPGMG",
            abbrev: "HPGMG",
            paper_footprint_mb: 1320.0,
            category: Category::Hpc,
            arche: Arche::Stencil {
                kernels: 16,
                p: StencilParams {
                    interior_reads: 30,
                    halo: 6,
                    stride2: 1,
                    writes: 10,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "HPC MiniContact",
            abbrev: "MiniContact",
            paper_footprint_mb: 246.0,
            category: Category::Hpc,
            arche: Arche::Graph {
                kernels: 8,
                p: GraphParams {
                    zipf_s: 0.6,
                    irregular_reads: 15,
                    frontier_reads: 20,
                    write_frac: 0.10,
                    write_own_partition: true,
                    atomics: false,
                    scope: Scope::Cta,
                    delay: 2,
                },
            },
        },
        WorkloadSpec {
            name: "Rodinia pathfinder",
            abbrev: "pathfinder",
            paper_footprint_mb: 1490.0,
            category: Category::Rodinia,
            arche: Arche::Wavefront {
                kernels: 20,
                p: WavefrontParams {
                    back_reads: 10,
                    boundary_reads: 2,
                    writes: 8,
                    shift_frac: 0.0,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "HPC Nekbone-10",
            abbrev: "Nekbone",
            paper_footprint_mb: 178.0,
            category: Category::Hpc,
            arche: Arche::Stencil {
                kernels: 12,
                p: StencilParams {
                    interior_reads: 40,
                    halo: 3,
                    stride2: 0,
                    writes: 14,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "cuSolver",
            abbrev: "cuSolver",
            paper_footprint_mb: 1600.0,
            category: Category::CuSolver,
            arche: Arche::Solver {
                phases: 12,
                p: SolverParams {
                    panel_writes: 24,
                    panel_reads: 24,
                    trailing: 24,
                    scope: Scope::Gpu,
                    groups: 8,
                    delay: 2,
                },
            },
        },
        WorkloadSpec {
            name: "HPC namd2.10",
            abbrev: "namd2.10",
            paper_footprint_mb: 72.0,
            category: Category::Hpc,
            arche: Arche::Solver {
                phases: 10,
                p: SolverParams {
                    panel_writes: 12,
                    panel_reads: 16,
                    trailing: 20,
                    scope: Scope::Gpu,
                    groups: 8,
                    delay: 3,
                },
            },
        },
        WorkloadSpec {
            name: "ML resnet",
            abbrev: "resnet",
            paper_footprint_mb: 3200.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 10,
                p: LayersParams {
                    bcast_frac: 0.004,
                    bcast_reads: 20,
                    own_frac: 0.0,
                    own_reads: 0,
                    state_frac: 0.44,
                    state_reads: 6,
                    tile_reads: 34,
                    tile_writes: 12,
                    shift_frac: 0.27,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "Lonestar mst-road-fla",
            abbrev: "mst",
            paper_footprint_mb: 83.0,
            category: Category::Lonestar,
            arche: Arche::Graph {
                kernels: 10,
                p: GraphParams {
                    zipf_s: 0.95,
                    irregular_reads: 25,
                    frontier_reads: 8,
                    write_frac: 0.40,
                    write_own_partition: false,
                    atomics: true,
                    scope: Scope::Gpu,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "Rodinia nw-16K-10",
            abbrev: "nw-16K",
            paper_footprint_mb: 2000.0,
            category: Category::Rodinia,
            arche: Arche::Wavefront {
                kernels: 24,
                p: WavefrontParams {
                    back_reads: 10,
                    boundary_reads: 6,
                    writes: 8,
                    shift_frac: 0.13,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "ML lstm layer2",
            abbrev: "lstm",
            paper_footprint_mb: 710.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 16,
                p: LayersParams {
                    bcast_frac: 0.02,
                    bcast_reads: 4,
                    own_frac: 0.10,
                    own_reads: 4,
                    state_frac: 0.008,
                    state_reads: 240,
                    tile_reads: 0,
                    tile_writes: 2,
                    shift_frac: 0.27,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "ML RNN layer4 FW",
            abbrev: "RNN_FW",
            paper_footprint_mb: 40.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 16,
                p: LayersParams {
                    bcast_frac: 0.0,
                    bcast_reads: 0,
                    own_frac: 0.20,
                    own_reads: 3,
                    state_frac: 0.12,
                    state_reads: 260,
                    tile_reads: 0,
                    tile_writes: 2,
                    shift_frac: 0.27,
                    delay: 0,
                },
            },
        },
        WorkloadSpec {
            name: "ML RNN layer4 DGRAD",
            abbrev: "RNN_DGRAD",
            paper_footprint_mb: 29.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 16,
                p: LayersParams {
                    bcast_frac: 0.0,
                    bcast_reads: 0,
                    own_frac: 0.20,
                    own_reads: 3,
                    state_frac: 0.12,
                    state_reads: 290,
                    tile_reads: 0,
                    tile_writes: 2,
                    shift_frac: 0.31,
                    delay: 0,
                },
            },
        },
        WorkloadSpec {
            name: "ML GoogLeNet conv2",
            abbrev: "GoogLeNet",
            paper_footprint_mb: 1150.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 12,
                p: LayersParams {
                    bcast_frac: 0.006,
                    bcast_reads: 200,
                    own_frac: 0.0,
                    own_reads: 0,
                    state_frac: 0.40,
                    state_reads: 0,
                    tile_reads: 6,
                    tile_writes: 8,
                    shift_frac: 0.27,
                    delay: 1,
                },
            },
        },
        WorkloadSpec {
            name: "Lonestar bfs-road-fla",
            abbrev: "bfs",
            paper_footprint_mb: 26.0,
            category: Category::Lonestar,
            arche: Arche::Graph {
                kernels: 12,
                p: GraphParams {
                    zipf_s: 0.9,
                    irregular_reads: 40,
                    frontier_reads: 6,
                    write_frac: 0.06,
                    write_own_partition: true,
                    atomics: false,
                    scope: Scope::Cta,
                    delay: 0,
                },
            },
        },
        WorkloadSpec {
            name: "HPC snap",
            abbrev: "snap",
            paper_footprint_mb: 3440.0,
            category: Category::Hpc,
            // SN transport: every cell computation samples the shared
            // cross-section tables (broadcast, read-only); angular flux
            // ping-pongs between sweep kernels with octant remapping.
            arche: Arche::Layers {
                kernels: 16,
                p: LayersParams {
                    bcast_frac: 0.0015,
                    bcast_reads: 80,
                    own_frac: 0.0,
                    own_reads: 0,
                    state_frac: 0.30,
                    state_reads: 0,
                    tile_reads: 26,
                    tile_writes: 10,
                    shift_frac: 0.08,
                    delay: 0,
                },
            },
        },
        WorkloadSpec {
            name: "ML RNN layer4 WGRAD",
            abbrev: "RNN_WGRAD",
            paper_footprint_mb: 38.0,
            category: Category::Ml,
            arche: Arche::Layers {
                kernels: 16,
                p: LayersParams {
                    bcast_frac: 0.0,
                    bcast_reads: 0,
                    own_frac: 0.20,
                    own_reads: 3,
                    state_frac: 0.12,
                    state_reads: 240,
                    tile_reads: 0,
                    tile_writes: 4,
                    shift_frac: 0.30,
                    delay: 0,
                },
            },
        },
    ]
}

/// Looks up a workload by its figure-axis abbreviation.
pub fn by_abbrev(abbrev: &str) -> Option<WorkloadSpec> {
    table3().into_iter().find(|w| w.abbrev == abbrev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_round_trip() {
        for s in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert_eq!(Scale::from_name(s.name()), Some(s));
        }
        assert_eq!(Scale::Small.name(), "small");
        assert_eq!(Scale::from_name("huge"), None);
    }

    #[test]
    fn suite_has_twenty_unique_workloads() {
        let specs = table3();
        assert_eq!(specs.len(), 20);
        let mut names: Vec<_> = specs.iter().map(|s| s.abbrev).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn footprints_match_table_iii() {
        let f = |a: &str| by_abbrev(a).unwrap().paper_footprint_mb;
        assert_eq!(f("cuSolver"), 1600.0);
        assert_eq!(f("CoMD"), 313.0);
        assert_eq!(f("snap"), 3440.0);
        assert_eq!(f("bfs"), 26.0);
        assert_eq!(f("RNN_DGRAD"), 29.0);
        assert_eq!(f("nw-16K"), 2000.0);
    }

    #[test]
    fn every_workload_generates_at_tiny_scale() {
        for spec in table3() {
            let t = spec.generate(Scale::Tiny, 1);
            assert!(t.num_accesses() > 0, "{} is empty", spec.abbrev);
            assert!(t.num_kernels() > 0);
            assert_eq!(t.name, spec.abbrev);
            // Every op fits its 4-byte word: nothing is escaped.
            let escapes: usize = t
                .kernels
                .iter()
                .flat_map(|k| &k.ctas)
                .map(|c| c.ops.num_escapes())
                .sum();
            assert_eq!(escapes, 0, "{} escaped ops", spec.abbrev);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for spec in [by_abbrev("bfs").unwrap(), by_abbrev("lstm").unwrap()] {
            let a = spec.generate(Scale::Tiny, 3);
            let b = spec.generate(Scale::Tiny, 3);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scales_order_footprints_and_work() {
        let spec = by_abbrev("resnet").unwrap();
        let tiny = spec.generate(Scale::Tiny, 1);
        let small = spec.generate(Scale::Small, 1);
        assert!(tiny.num_accesses() < small.num_accesses());
        assert!(tiny.footprint_bytes() < small.footprint_bytes());
    }

    #[test]
    fn gpu_scoped_workloads_use_gpu_scope() {
        for a in ["cuSolver", "namd2.10", "mst"] {
            let spec = by_abbrev(a).unwrap();
            let t = spec.generate(Scale::Tiny, 1);
            let mut has_gpu_scope = false;
            for k in &t.kernels {
                for c in &k.ctas {
                    for op in &c.ops {
                        match op {
                            hmg_protocol::TraceOp::Release(Scope::Gpu)
                            | hmg_protocol::TraceOp::Acquire(Scope::Gpu) => {
                                has_gpu_scope = true;
                            }
                            hmg_protocol::TraceOp::Access(acc) if acc.scope == Scope::Gpu => {
                                has_gpu_scope = true;
                            }
                            _ => {}
                        }
                    }
                }
            }
            assert!(has_gpu_scope, "{a} must use .gpu scope");
        }
    }

    #[test]
    fn small_scale_footprints_dwarf_the_scaled_l2() {
        // The point of the evaluation: allocated footprints far exceed
        // the (capacity-scaled) L2. Traces may leave part of the
        // allocation cold (e.g. register-stashed RNN weights), but must
        // still touch more than the scaled per-GPU L2.
        for spec in table3() {
            let allocated = Scale::Small.footprint(spec.paper_footprint_mb);
            assert!(allocated >= 24 * 1024 * 1024, "{}", spec.abbrev);
            let t = spec.generate(Scale::Small, 1);
            let scaled_gpu_l2 =
                (12.0 * 1024.0 * 1024.0 / spec.capacity_factor(Scale::Small)) as u64;
            assert!(
                t.footprint_bytes() > scaled_gpu_l2,
                "{}: {} B touched vs {} B per-GPU L2",
                spec.abbrev,
                t.footprint_bytes(),
                scaled_gpu_l2
            );
        }
    }
}
