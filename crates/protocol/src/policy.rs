//! The coherence configurations the evaluation compares (Section VI,
//! plus a CARVE-like prior-work baseline from Section II-A) and the
//! rules each imposes on the cache hierarchy.
//!
//! | Kind            | Routing      | Stale-data handling                   |
//! |-----------------|--------------|---------------------------------------|
//! | `NoPeerCaching` | flat         | remote-GPU data never cached (baseline of Figs. 2/8) |
//! | `SwNonHier`     | flat         | bulk cache invalidation at acquires   |
//! | `SwHier`        | hierarchical | bulk cache invalidation at acquires   |
//! | `Nhcc`          | flat         | hardware directory at system home     |
//! | `Hmg`           | hierarchical | hardware directories at GPU + system homes |
//! | `CarveLike`     | flat         | sharing classifier at home; broadcast invalidations |
//! | `Ideal`         | hierarchical | none — idealized caching upper bound  |

use std::fmt;

use crate::scope::Scope;

/// Which caches an acquire operation must bulk-invalidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcquireAction {
    /// Nothing to invalidate.
    None,
    /// The issuing SM's L1 only (hardware protocols keep L2s coherent).
    L1,
    /// The issuing SM's L1 and its GPM's L2 (non-hierarchical software).
    L1AndLocalL2,
    /// The issuing SM's L1 and every L2 of the issuing GPU
    /// (hierarchical software at `.sys` scope).
    L1AndAllGpuL2,
}

/// How far a release fence must propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceDomain {
    /// No fence traffic (`.cta` releases, or idealized caching).
    None,
    /// Every L2 of the issuing GPU (hierarchical `.gpu` releases).
    LocalGpu,
    /// Every L2 in the system.
    AllGpms,
}

/// Position of a cache relative to a line's home nodes, used to decide
/// hit and fill permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// An SM's L1.
    L1,
    /// The requester's GPM L2 when it is not a home node for the line.
    LocalL2NonHome,
    /// The line's GPU home L2 within the requester's GPU (hierarchical
    /// protocols only), when it is not also the system home.
    GpuHomeL2,
    /// The line's system home L2.
    SysHomeL2,
}

/// One of the evaluated coherence configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// No caching of remote-GPU data; software coherence within each GPU.
    /// This is the normalization baseline of Figs. 2 and 8.
    NoPeerCaching,
    /// Conventional scoped software coherence, flat across all GPMs.
    SwNonHier,
    /// Scoped software coherence with hierarchical (GPU home) caching.
    SwHier,
    /// The paper's non-hierarchical hardware protocol (Section IV).
    Nhcc,
    /// The paper's hierarchical hardware protocol (Section V).
    Hmg,
    /// A CARVE-like prior-work baseline \[14\]: remote data cached freely,
    /// coherence filtered by private/read-only/read-write classification
    /// at the home — no sharer tracking, no scope use; stores to shared
    /// data *broadcast* invalidations to every cache (Section II-A).
    CarveLike,
    /// Idealized caching with zero coherence overhead (upper bound).
    Ideal,
}

impl ProtocolKind {
    /// All configurations, in the order Fig. 8 plots them
    /// (baseline first, then SW-NH, NHCC, SW-H, HMG; the CARVE-like
    /// prior-work baseline and the ideal bound close the list).
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::NoPeerCaching,
        ProtocolKind::SwNonHier,
        ProtocolKind::Nhcc,
        ProtocolKind::SwHier,
        ProtocolKind::Hmg,
        ProtocolKind::CarveLike,
        ProtocolKind::Ideal,
    ];

    /// The five configurations Fig. 8 compares against the baseline.
    pub const FIG8: [ProtocolKind; 5] = [
        ProtocolKind::SwNonHier,
        ProtocolKind::Nhcc,
        ProtocolKind::SwHier,
        ProtocolKind::Hmg,
        ProtocolKind::Ideal,
    ];

    /// Short machine-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::NoPeerCaching => "no-peer-caching",
            ProtocolKind::SwNonHier => "sw-nonhier",
            ProtocolKind::SwHier => "sw-hier",
            ProtocolKind::Nhcc => "nhcc",
            ProtocolKind::Hmg => "hmg",
            ProtocolKind::CarveLike => "carve-like",
            ProtocolKind::Ideal => "ideal",
        }
    }

    /// Inverse of [`ProtocolKind::name`]: resolves a short machine
    /// name back to the configuration, e.g. when a sweep cell crosses a
    /// process boundary as command-line arguments.
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The label the paper's figures use.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::NoPeerCaching => "No Peer Caching (baseline)",
            ProtocolKind::SwNonHier => "Non-Hierarchical SW Coherence",
            ProtocolKind::SwHier => "Hierarchical SW Coherence",
            ProtocolKind::Nhcc => "Non-Hierarchical HW Coherence",
            ProtocolKind::Hmg => "HMG Coherence",
            ProtocolKind::CarveLike => "CARVE-like Broadcast Coherence",
            ProtocolKind::Ideal => "Idealized Caching w/o Coherence",
        }
    }

    /// Whether requests route through a per-GPU home node (Section V)
    /// rather than straight to the system home.
    pub fn hierarchical_routing(self) -> bool {
        matches!(
            self,
            ProtocolKind::SwHier | ProtocolKind::Hmg | ProtocolKind::Ideal
        )
    }

    /// Whether home nodes run the Table I hardware directory.
    pub fn has_hw_directory(self) -> bool {
        matches!(self, ProtocolKind::Nhcc | ProtocolKind::Hmg)
    }

    /// Whether coherence is enforced by software bulk invalidation.
    pub fn is_software_coherent(self) -> bool {
        matches!(
            self,
            ProtocolKind::NoPeerCaching | ProtocolKind::SwNonHier | ProtocolKind::SwHier
        )
    }

    /// Whether home nodes run the CARVE-like sharing classifier with
    /// broadcast invalidations.
    pub fn has_broadcast_classifier(self) -> bool {
        matches!(self, ProtocolKind::CarveLike)
    }

    /// Whether all coherence overheads are waived (upper bound only).
    pub fn coherence_free(self) -> bool {
        matches!(self, ProtocolKind::Ideal)
    }

    /// Whether data homed on a *different GPU* may be cached locally.
    pub fn caches_remote_gpu_data(self) -> bool {
        !matches!(self, ProtocolKind::NoPeerCaching)
    }

    /// What an acquire at `scope` must invalidate under this protocol.
    pub fn acquire_action(self, scope: Scope) -> AcquireAction {
        use ProtocolKind::*;
        if scope == Scope::Cta || self == Ideal {
            return AcquireAction::None;
        }
        match self {
            Ideal => AcquireAction::None,
            Nhcc | Hmg | CarveLike => AcquireAction::L1,
            NoPeerCaching | SwNonHier => AcquireAction::L1AndLocalL2,
            SwHier => match scope {
                Scope::Gpu => AcquireAction::L1AndLocalL2,
                Scope::Sys => AcquireAction::L1AndAllGpuL2,
                Scope::Cta => unreachable!(),
            },
        }
    }

    /// How far a release at `scope` must fence.
    ///
    /// Idealized caching pays the same write-drain fences as HMG: kernel
    /// launch and release semantics are machine behavior shared by every
    /// configuration, not a coherence overhead — only invalidations and
    /// acquire-side cache flushing are waived for the upper bound.
    pub fn release_domain(self, scope: Scope) -> FenceDomain {
        if scope == Scope::Cta {
            return FenceDomain::None;
        }
        if self.hierarchical_routing() {
            match scope {
                Scope::Gpu => FenceDomain::LocalGpu,
                Scope::Sys => FenceDomain::AllGpms,
                Scope::Cta => unreachable!(),
            }
        } else {
            // Flat protocols have no intra-GPU ordering point: any GPM in
            // the system may be the home of a .gpu-scoped line.
            FenceDomain::AllGpms
        }
    }

    /// Whether a load with `scope` may hit in a cache at `level`.
    ///
    /// Scoped loads must reach the home node of their scope to guarantee
    /// forward progress (Sections IV-B and V-B); idealized caching waives
    /// this.
    pub fn load_may_hit(self, level: CacheLevel, scope: Scope) -> bool {
        if self == ProtocolKind::Ideal {
            return true;
        }
        match level {
            CacheLevel::L1 | CacheLevel::LocalL2NonHome => scope == Scope::Cta,
            CacheLevel::GpuHomeL2 => scope <= Scope::Gpu,
            CacheLevel::SysHomeL2 => true,
        }
    }

    /// Whether a response may fill a cache at `level`.
    /// `same_gpu_as_sys_home` says whether the filling cache sits on the
    /// same GPU as the line's system home.
    pub fn may_fill(self, level: CacheLevel, same_gpu_as_sys_home: bool) -> bool {
        match self {
            ProtocolKind::NoPeerCaching => match level {
                CacheLevel::SysHomeL2 => true,
                _ => same_gpu_as_sys_home,
            },
            _ => {
                // Hierarchical protocols fill the GPU home on the response
                // path; flat protocols never present a GpuHomeL2 level.
                let _ = level;
                true
            }
        }
    }

    /// The per-address fallback configuration fail-in-place
    /// reconfiguration drops an address into when its DRAM partition
    /// dies: the paper's no-peer-caching baseline. No peer copy of a
    /// degraded address is ever cached, so no coherence state needs to
    /// be maintained for it — correct data, honestly worse bandwidth.
    pub const DEGRADED: ProtocolKind = ProtocolKind::NoPeerCaching;

    /// [`ProtocolKind::load_may_hit`] under degraded (fail-in-place)
    /// mode, regardless of the protocol the rest of the run uses: only
    /// the (re-homed) system home may serve the address, except for
    /// CTA-scoped private reuse which was already coherence-free.
    pub fn degraded_load_may_hit(level: CacheLevel, scope: Scope) -> bool {
        Self::DEGRADED.load_may_hit(level, scope)
    }

    /// [`ProtocolKind::may_fill`] under degraded (fail-in-place) mode:
    /// peer caches never fill a degraded address, so no stale copy can
    /// form after the conservative broadcast scrub.
    pub fn degraded_may_fill(level: CacheLevel, same_gpu_as_sys_home: bool) -> bool {
        Self::DEGRADED.may_fill(level, same_gpu_as_sys_home)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_mode_is_the_no_peer_caching_baseline() {
        // Degraded addresses follow the baseline's rules no matter what
        // protocol the rest of the run uses.
        for level in [
            CacheLevel::L1,
            CacheLevel::LocalL2NonHome,
            CacheLevel::GpuHomeL2,
            CacheLevel::SysHomeL2,
        ] {
            for scope in [Scope::Cta, Scope::Gpu, Scope::Sys] {
                assert_eq!(
                    ProtocolKind::degraded_load_may_hit(level, scope),
                    ProtocolKind::NoPeerCaching.load_may_hit(level, scope)
                );
            }
            for same in [false, true] {
                assert_eq!(
                    ProtocolKind::degraded_may_fill(level, same),
                    ProtocolKind::NoPeerCaching.may_fill(level, same)
                );
            }
        }
        // The rules that matter: peers never fill, only the system home
        // serves system-scoped loads.
        assert!(!ProtocolKind::degraded_may_fill(
            CacheLevel::LocalL2NonHome,
            false
        ));
        assert!(ProtocolKind::degraded_may_fill(
            CacheLevel::SysHomeL2,
            false
        ));
        assert!(!ProtocolKind::degraded_load_may_hit(
            CacheLevel::GpuHomeL2,
            Scope::Sys
        ));
        assert!(ProtocolKind::degraded_load_may_hit(
            CacheLevel::SysHomeL2,
            Scope::Sys
        ));
    }

    #[test]
    fn routing_classification() {
        assert!(!ProtocolKind::NoPeerCaching.hierarchical_routing());
        assert!(!ProtocolKind::SwNonHier.hierarchical_routing());
        assert!(!ProtocolKind::Nhcc.hierarchical_routing());
        assert!(ProtocolKind::SwHier.hierarchical_routing());
        assert!(ProtocolKind::Hmg.hierarchical_routing());
        assert!(ProtocolKind::Ideal.hierarchical_routing());
    }

    #[test]
    fn directory_classification() {
        for p in ProtocolKind::ALL {
            assert_eq!(
                p.has_hw_directory(),
                matches!(p, ProtocolKind::Nhcc | ProtocolKind::Hmg)
            );
            assert_eq!(p.has_broadcast_classifier(), p == ProtocolKind::CarveLike);
        }
    }

    #[test]
    fn carve_is_flat_hardware_like() {
        let p = ProtocolKind::CarveLike;
        assert!(!p.hierarchical_routing());
        assert!(!p.has_hw_directory());
        assert!(!p.is_software_coherent());
        assert!(p.caches_remote_gpu_data());
        assert_eq!(p.acquire_action(Scope::Sys), AcquireAction::L1);
        assert_eq!(p.release_domain(Scope::Gpu), FenceDomain::AllGpms);
    }

    #[test]
    fn cta_acquire_is_free_everywhere() {
        for p in ProtocolKind::ALL {
            assert_eq!(p.acquire_action(Scope::Cta), AcquireAction::None);
        }
    }

    #[test]
    fn hw_acquires_touch_only_l1() {
        for s in [Scope::Gpu, Scope::Sys] {
            assert_eq!(ProtocolKind::Nhcc.acquire_action(s), AcquireAction::L1);
            assert_eq!(ProtocolKind::Hmg.acquire_action(s), AcquireAction::L1);
        }
    }

    #[test]
    fn sw_nonhier_acquires_invalidate_local_l2_only() {
        // §VI: in the non-hierarchical protocol, .sys loads need not
        // invalidate L2s of other GPMs in the same GPU.
        for s in [Scope::Gpu, Scope::Sys] {
            assert_eq!(
                ProtocolKind::SwNonHier.acquire_action(s),
                AcquireAction::L1AndLocalL2
            );
        }
    }

    #[test]
    fn sw_hier_sys_acquire_invalidates_whole_gpu() {
        assert_eq!(
            ProtocolKind::SwHier.acquire_action(Scope::Gpu),
            AcquireAction::L1AndLocalL2
        );
        assert_eq!(
            ProtocolKind::SwHier.acquire_action(Scope::Sys),
            AcquireAction::L1AndAllGpuL2
        );
    }

    #[test]
    fn ideal_has_no_acquire_actions_but_pays_release_drains() {
        for s in Scope::ALL {
            assert_eq!(ProtocolKind::Ideal.acquire_action(s), AcquireAction::None);
        }
        assert_eq!(
            ProtocolKind::Ideal.release_domain(Scope::Gpu),
            FenceDomain::LocalGpu
        );
        assert_eq!(
            ProtocolKind::Ideal.release_domain(Scope::Sys),
            FenceDomain::AllGpms
        );
        assert!(ProtocolKind::Ideal.coherence_free());
    }

    #[test]
    fn hierarchical_gpu_release_stays_on_gpu() {
        // §V-B: a .gpu-scoped release need not cross the inter-GPU network.
        assert_eq!(
            ProtocolKind::Hmg.release_domain(Scope::Gpu),
            FenceDomain::LocalGpu
        );
        assert_eq!(
            ProtocolKind::Hmg.release_domain(Scope::Sys),
            FenceDomain::AllGpms
        );
        assert_eq!(
            ProtocolKind::Nhcc.release_domain(Scope::Gpu),
            FenceDomain::AllGpms
        );
    }

    #[test]
    fn scoped_loads_must_miss_below_their_home() {
        for p in [ProtocolKind::Nhcc, ProtocolKind::Hmg, ProtocolKind::SwHier] {
            assert!(p.load_may_hit(CacheLevel::L1, Scope::Cta));
            assert!(!p.load_may_hit(CacheLevel::L1, Scope::Gpu));
            assert!(!p.load_may_hit(CacheLevel::LocalL2NonHome, Scope::Sys));
            assert!(p.load_may_hit(CacheLevel::GpuHomeL2, Scope::Gpu));
            assert!(!p.load_may_hit(CacheLevel::GpuHomeL2, Scope::Sys));
            assert!(p.load_may_hit(CacheLevel::SysHomeL2, Scope::Sys));
        }
    }

    #[test]
    fn ideal_hits_anywhere() {
        for lvl in [
            CacheLevel::L1,
            CacheLevel::LocalL2NonHome,
            CacheLevel::GpuHomeL2,
            CacheLevel::SysHomeL2,
        ] {
            assert!(ProtocolKind::Ideal.load_may_hit(lvl, Scope::Sys));
        }
    }

    #[test]
    fn baseline_never_fills_remote_gpu_data() {
        let p = ProtocolKind::NoPeerCaching;
        assert!(!p.may_fill(CacheLevel::L1, false));
        assert!(!p.may_fill(CacheLevel::LocalL2NonHome, false));
        assert!(p.may_fill(CacheLevel::LocalL2NonHome, true));
        assert!(p.may_fill(CacheLevel::SysHomeL2, false));
        assert!(!p.caches_remote_gpu_data());
    }

    #[test]
    fn everyone_else_fills_freely() {
        for p in [
            ProtocolKind::SwNonHier,
            ProtocolKind::SwHier,
            ProtocolKind::Nhcc,
            ProtocolKind::Hmg,
            ProtocolKind::Ideal,
        ] {
            assert!(p.may_fill(CacheLevel::LocalL2NonHome, false));
            assert!(p.caches_remote_gpu_data());
        }
    }

    #[test]
    fn names_and_labels_are_unique_and_nonempty() {
        let mut names: Vec<_> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
        for p in ProtocolKind::ALL {
            assert!(!p.label().is_empty());
            assert_eq!(p.to_string(), p.name());
        }
    }

    #[test]
    fn from_name_inverts_name() {
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_name(p.name()), Some(p));
        }
        assert_eq!(ProtocolKind::from_name("mesi"), None);
    }
}
