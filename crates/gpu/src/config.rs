//! Engine configuration: the Table II machine expressed in simulator
//! units (lines, bytes per cycle, cycles).

use hmg_interconnect::{FabricConfig, Topology};
use hmg_mem::{CacheConfig, DirectoryConfig, MemGeometry, PagePlacement};
use hmg_protocol::{Arbitration, MsgSizes, ProtocolKind};
use hmg_sim::{Cycle, FaultPlan, SimError};

/// L2 write policy for plain (`.cta`) stores.
///
/// The paper's evaluated configuration is write-through everywhere
/// (Section VI), but Section IV-B explicitly designs for both: under
/// write-back, plain stores coalesce as dirty lines in the issuing GPM's
/// L2 and are flushed by evictions and release operations (using the
/// paper's "data update without sharer tracking" message). Scoped
/// stores are always written through to their scope home to guarantee
/// forward progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Every store writes through immediately (the evaluated default).
    #[default]
    WriteThrough,
    /// Plain stores dirty the local L2; evictions and releases flush.
    WriteBack,
}

/// Error-detection/correction code protecting L2 lines and directory
/// entries against soft errors (the `flip-line` / `flip-dir` fault
/// classes).
///
/// Real GPUs ship SEC-DED ECC on SRAM arrays; `Parity` and `None`
/// exist to quantify what the protection buys (the adversarial proof
/// that without it, corruption is silent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EccMode {
    /// No protection: every flip corrupts state silently.
    None,
    /// Parity: every flip is detected but none are correctable.
    /// Detected-uncorrectable lines are handled like SEC-DED
    /// double-bit errors (refetch clean data, poison dirty data).
    Parity,
    /// Single-error-correct, double-error-detect (the default):
    /// single-bit flips are corrected in place, double-bit flips are
    /// detected-uncorrectable.
    #[default]
    SecDed,
}

/// Full configuration of one simulated system.
///
/// Construct via [`EngineConfig::paper_default`] (the Table II machine)
/// or [`EngineConfig::small_test`] (a fast configuration for tests), then
/// adjust fields as needed for sweeps.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// GPUs and GPMs per GPU.
    pub topo: Topology,
    /// The coherence configuration to run.
    pub protocol: ProtocolKind,
    /// Line/block/page sizes.
    pub geometry: MemGeometry,
    /// Protocol message sizes.
    pub msg: MsgSizes,
    /// Interconnect bandwidths and latencies.
    pub fabric: FabricConfig,
    /// SMs per GPM (Table II: 128 per GPU / 4 GPMs = 32).
    pub sms_per_gpm: u16,
    /// Per-SM L1 shape (Table II: 128 KB, 128 B lines).
    pub l1: CacheConfig,
    /// Per-GPM L2 slice shape (Table II: 12 MB per GPU / 4 = 3 MB).
    pub l2: CacheConfig,
    /// Per-GPM coherence directory shape (Table II: 12K entries).
    pub dir: DirectoryConfig,
    /// System-home page placement policy.
    pub placement: PagePlacement,
    /// DRAM bandwidth per GPM in bytes/cycle (Table II: 1 TB/s per GPU).
    pub dram_bytes_per_cycle: f64,
    /// DRAM access latency.
    pub dram_latency: Cycle,
    /// L1 hit/lookup latency.
    pub l1_latency: Cycle,
    /// L2 slice access latency (data array, charged when serving data).
    pub l2_latency: Cycle,
    /// L2 tag-probe latency, charged when a lookup misses and the
    /// request is forwarded onward (pass-through nodes of the
    /// hierarchical path probe tags without touching the data array).
    pub l2_tag_latency: Cycle,
    /// Maximum in-flight load/atomic misses per SM (one per warp).
    pub max_outstanding_per_sm: u32,
    /// Cycles an SM spends issuing one memory instruction.
    pub issue_cycles: u32,
    /// Fixed cost of launching a kernel (host-side + scheduling).
    pub kernel_launch_overhead: Cycle,
    /// Latency for a flag update to become visible to waiters.
    pub flag_latency: Cycle,
    /// Cycles charged to an SM for a bulk L1 invalidation at an acquire.
    pub acquire_l1_cost: u32,
    /// Cycles charged for a bulk L2 invalidation at an acquire (software
    /// coherence only).
    pub acquire_l2_cost: u32,
    /// Record the Fig. 3 peer-redundancy statistic (costs memory).
    pub track_peer_redundancy: bool,
    /// Coherence-checker hook: when set to a raw line index, every load
    /// of that line records the version it observed into
    /// [`crate::RunMetrics::probe`].
    pub probe_line: Option<u64>,
    /// Ablation: make release fences complete instantly (no fence
    /// traffic, no drain waiting). Quantifies the cost of HMG's only
    /// acknowledged operation. Breaks the visibility guarantees the
    /// coherence checker tests, so only use it for performance ablation.
    pub zero_cost_fences: bool,
    /// L2 write policy for plain stores (Section IV-B gives both
    /// options; Section VI evaluates write-through).
    pub l2_write_policy: WritePolicy,
    /// Optional sharer-downgrade messages on clean L2 evictions
    /// (Section IV-B "Cache Eviction", first option). Deletes the
    /// evicting GPM from the home directory when its last line of the
    /// block departs, saving a later spurious invalidation. The paper's
    /// evaluation leaves this off (Section VI).
    pub sharer_downgrades: bool,
    /// Fault-injection plan for this run. The default plan injects
    /// nothing; link faults are forwarded to the fabric, message and
    /// flag faults are consulted by the engine.
    pub faults: FaultPlan,
    /// Livelock watchdog budget: abort with a typed diagnostic if this
    /// many cycles pass without a single retired access. `None`
    /// (default) disarms the watchdog.
    pub livelock_budget: Option<u64>,
    /// Directory-home flow control: when a remote request reaches a
    /// directory home whose ingress port has more than this many cycles
    /// of queued serialization, the home NACKs the request instead of
    /// accepting it, and the requester re-issues after an exponential
    /// backoff. `None` (default) disables NACKs — requests queue
    /// unboundedly, the pre-flow-control behavior.
    pub home_nack_threshold: Option<u64>,
    /// Base backoff before a NACKed request is re-issued; doubles per
    /// consecutive NACK of the same request (capped at `2^6`).
    pub nack_backoff: Cycle,
    /// Maximum number of NACK re-issues a single request may attempt.
    /// When the cap is exhausted the run aborts with a typed
    /// `Protocol` [`SimError`] naming the starved requester instead of
    /// retrying (and potentially livelocking) forever. `None` (default)
    /// keeps the pre-existing unbounded-retry behavior.
    pub nack_attempt_cap: Option<u8>,
    /// What a busy directory home does with the requests it throttles
    /// (only consulted when `home_nack_threshold` is set): NACK/retry
    /// rejects them back to the requester with exponential backoff;
    /// phase-priority holds them at the home and replays them after a
    /// fixed quantum (`nack_backoff`) in arrival order. The discipline
    /// is the guarded `HomeBusy` rows of the protocol spec
    /// (`hmg_protocol::spec`), so both variants are model-checked.
    pub arbitration: Arbitration,
    /// ECC scheme protecting L2 lines and directory entries against
    /// `flip-line`/`flip-dir` soft errors. Default [`EccMode::SecDed`].
    pub ecc: EccMode,
    /// Fraction of injected line/directory flips that hit two bits of
    /// the same codeword (uncorrectable under SEC-DED). Real soft-error
    /// data puts this well under 10%; the default 0.25 exercises both
    /// paths, and tests pin it to 0.0 (all correctable) or 1.0 (all
    /// uncorrectable) for exact accounting.
    pub ecc_double_bit_fraction: f64,
    /// End-to-end message checksums on the fabric: corrupted deliveries
    /// (`flip-msg`) are detected at the receiver and replayed. Disabled
    /// only for the adversarial ablation — corruption then lands
    /// silently.
    pub checksums: bool,
    /// Period of the background scrubber that sweeps L2 lines and
    /// directory entries for latent flips. The scrubber is armed only
    /// when the fault plan injects `flip-line`/`flip-dir`, so
    /// fault-free runs never pay for it.
    pub scrub_interval: Cycle,
}

impl EngineConfig {
    /// The Table II machine: 4 GPUs x 4 GPMs, 32 SMs/GPM, 128 KB L1s,
    /// 3 MB L2 slices, 12K-entry directories, 2 TB/s intra-GPU and
    /// 200 GB/s inter-GPU bandwidth, 1 TB/s DRAM per GPU, 1.3 GHz.
    pub fn paper_default(protocol: ProtocolKind) -> Self {
        let geometry = MemGeometry::paper_default();
        EngineConfig {
            topo: Topology::new(4, 4),
            protocol,
            geometry,
            msg: MsgSizes::paper_default(),
            fabric: FabricConfig::paper_default(),
            sms_per_gpm: 32,
            l1: CacheConfig::new((128 * 1024 / 128) as u32, 8),
            l2: CacheConfig::new((3 * 1024 * 1024 / 128) as u32, 16),
            dir: DirectoryConfig::paper_default(),
            placement: PagePlacement::FirstTouch,
            // 1 TB/s per GPU / 4 GPMs at 1.3 GHz ~ 192 B/cycle.
            dram_bytes_per_cycle: 250.0 / 1.3,
            dram_latency: Cycle(350),
            l1_latency: Cycle(30),
            l2_latency: Cycle(120),
            l2_tag_latency: Cycle(40),
            max_outstanding_per_sm: 96,
            issue_cycles: 2,
            kernel_launch_overhead: Cycle(3000),
            flag_latency: Cycle(150),
            acquire_l1_cost: 30,
            acquire_l2_cost: 120,
            track_peer_redundancy: false,
            probe_line: None,
            zero_cost_fences: false,
            l2_write_policy: WritePolicy::WriteThrough,
            sharer_downgrades: false,
            faults: FaultPlan::default(),
            livelock_budget: None,
            home_nack_threshold: None,
            nack_backoff: Cycle(200),
            nack_attempt_cap: None,
            arbitration: Arbitration::NackRetry,
            ecc: EccMode::SecDed,
            ecc_double_bit_fraction: 0.25,
            checksums: true,
            scrub_interval: Cycle(5000),
        }
    }

    /// A deliberately small machine for unit/integration tests:
    /// 2 GPUs x 2 GPMs, 2 SMs per GPM, tiny caches, low latencies.
    pub fn small_test(protocol: ProtocolKind) -> Self {
        let mut c = EngineConfig::paper_default(protocol);
        c.topo = Topology::new(2, 2);
        c.sms_per_gpm = 2;
        c.l1 = CacheConfig::new(64, 4);
        c.l2 = CacheConfig::new(256, 8);
        c.dir = hmg_mem::DirectoryConfig::new(128, 4);
        c.dram_latency = Cycle(50);
        c.l1_latency = Cycle(5);
        c.l2_latency = Cycle(10);
        c.l2_tag_latency = Cycle(4);
        c.kernel_launch_overhead = Cycle(100);
        c.flag_latency = Cycle(20);
        c.nack_backoff = Cycle(40);
        c.scrub_interval = Cycle(500);
        c
    }

    /// Total SMs in the system.
    pub fn total_sms(&self) -> u32 {
        self.topo.num_gpms() as u32 * self.sms_per_gpm as u32
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the directory granularity and message sizes disagree
    /// with the geometry, or dimensions are zero.
    pub fn validate(&self) {
        // Documented panicking wrapper over try_validate.
        self.try_validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`EngineConfig::validate`]: returns a typed
    /// [`SimError`] describing the first inconsistency found, including
    /// fault-plan range checks.
    pub fn try_validate(&self) -> Result<(), SimError> {
        if self.sms_per_gpm == 0 {
            return Err(SimError::config("need at least one SM per GPM"));
        }
        if self.max_outstanding_per_sm == 0 {
            return Err(SimError::config("max_outstanding_per_sm must be positive"));
        }
        if self.issue_cycles == 0 {
            return Err(SimError::config("issue_cycles must be positive"));
        }
        // NaN must fail validation, hence the negative comparison.
        if self.dram_bytes_per_cycle <= 0.0 || self.dram_bytes_per_cycle.is_nan() {
            return Err(SimError::config(format!(
                "dram_bytes_per_cycle must be positive, got {}",
                self.dram_bytes_per_cycle
            )));
        }
        if self.msg.load_resp != self.msg.header + self.geometry.line_bytes() {
            return Err(SimError::config(format!(
                "response size must carry exactly one line \
                 (load_resp={}, header={} + line={})",
                self.msg.load_resp,
                self.msg.header,
                self.geometry.line_bytes()
            )));
        }
        if self.home_nack_threshold.is_some() && self.nack_backoff == Cycle::ZERO {
            return Err(SimError::config(
                "nack_backoff must be positive when NACK flow control is enabled \
                 (a zero backoff can retry forever within one cycle)",
            ));
        }
        if self.nack_attempt_cap.is_some() && self.home_nack_threshold.is_none() {
            return Err(SimError::config(
                "nack_attempt_cap without home_nack_threshold has no effect \
                 (no home ever NACKs, so no attempt is ever counted)",
            ));
        }
        if let Some(l) = &self.faults.link_down {
            let n = self.topo.num_gpms();
            if l.a >= n || l.b >= n {
                return Err(SimError::config(format!(
                    "link-down endpoints {}-{} out of range (topology has {n} GPMs)",
                    l.a, l.b
                )));
            }
            if l.a / self.topo.gpms_per_gpu() != l.b / self.topo.gpms_per_gpu() {
                return Err(SimError::config(format!(
                    "link-down endpoints {}-{} belong to different GPUs; only \
                     intra-GPU (first-tier) links can fail over to the second tier",
                    l.a, l.b
                )));
            }
        }
        if let Some(g) = &self.faults.gpm_offline {
            if g.gpu >= self.topo.num_gpus() || g.gpm >= self.topo.gpms_per_gpu() {
                return Err(SimError::config(format!(
                    "gpm-offline target {}.{} out of range ({}x{} topology)",
                    g.gpu,
                    g.gpm,
                    self.topo.num_gpus(),
                    self.topo.gpms_per_gpu()
                )));
            }
        }
        if let Some(g) = &self.faults.gpu_offline {
            if g.gpu >= self.topo.num_gpus() {
                return Err(SimError::config(format!(
                    "gpu-offline target {} out of range ({} GPUs)",
                    g.gpu,
                    self.topo.num_gpus()
                )));
            }
            if self.topo.num_gpus() == 1 {
                return Err(SimError::config(
                    "gpu-offline with a single-GPU topology leaves no survivors",
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.ecc_double_bit_fraction) {
            return Err(SimError::config(format!(
                "ecc_double_bit_fraction {} not in [0,1]",
                self.ecc_double_bit_fraction
            )));
        }
        if (self.faults.flip_line.is_some() || self.faults.flip_dir.is_some())
            && self.scrub_interval == Cycle::ZERO
        {
            return Err(SimError::config(
                "scrub_interval must be positive when flip faults are armed \
                 (a zero period would reschedule the scrubber every cycle)",
            ));
        }
        self.faults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_ii() {
        let c = EngineConfig::paper_default(ProtocolKind::Hmg);
        assert_eq!(c.topo.num_gpus(), 4);
        assert_eq!(c.topo.gpms_per_gpu(), 4);
        assert_eq!(c.total_sms(), 512);
        assert_eq!(c.sms_per_gpm as u32 * c.topo.gpms_per_gpu() as u32, 128);
        assert_eq!(c.l1.lines * 128, 128 * 1024); // 128 KB per SM
        assert_eq!(c.l2.lines as u64 * 128 * 4, 12 * 1024 * 1024); // 12 MB per GPU
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.dir.entries, 12 * 1024);
        assert_eq!(c.geometry.page_bytes(), 2 * 1024 * 1024);
        assert!((c.fabric.intra_gpu_gbps - 2000.0).abs() < 1e-9);
        assert!((c.fabric.inter_gpu_gbps - 200.0).abs() < 1e-9);
        c.validate();
    }

    #[test]
    fn small_test_is_consistent() {
        for p in ProtocolKind::ALL {
            EngineConfig::small_test(p).validate();
        }
    }

    #[test]
    fn validate_rejects_attempt_cap_without_flow_control() {
        let mut c = EngineConfig::small_test(ProtocolKind::Hmg);
        c.nack_attempt_cap = Some(4);
        assert!(c.try_validate().is_err(), "cap needs NACKs to count");
        c.home_nack_threshold = Some(0);
        c.try_validate().unwrap();
    }

    #[test]
    fn validate_checks_permanent_faults_against_the_topology() {
        use hmg_sim::{GpmOffline, GpuOffline, LinkDown};
        // small_test is a 2x2 topology: GPMs 0..4, GPUs 0..2.
        let base = EngineConfig::small_test(ProtocolKind::Hmg);

        let mut c = base.clone();
        c.faults.link_down = Some(LinkDown {
            a: 0,
            b: 1,
            at_cycle: 100,
        });
        c.try_validate().unwrap();
        c.faults.link_down = Some(LinkDown {
            a: 0,
            b: 4,
            at_cycle: 100,
        });
        assert!(c.try_validate().is_err(), "endpoint out of range");
        c.faults.link_down = Some(LinkDown {
            a: 1,
            b: 2,
            at_cycle: 100,
        });
        assert!(
            c.try_validate().is_err(),
            "cross-GPU link has no first tier"
        );

        let mut c = base.clone();
        c.faults.gpm_offline = Some(GpmOffline {
            gpu: 1,
            gpm: 1,
            at_cycle: 50,
        });
        c.try_validate().unwrap();
        c.faults.gpm_offline = Some(GpmOffline {
            gpu: 2,
            gpm: 0,
            at_cycle: 50,
        });
        assert!(c.try_validate().is_err(), "gpu index out of range");

        let mut c = base.clone();
        c.faults.gpu_offline = Some(GpuOffline {
            gpu: 1,
            at_cycle: 50,
        });
        c.try_validate().unwrap();
        c.faults.gpu_offline = Some(GpuOffline {
            gpu: 9,
            at_cycle: 50,
        });
        assert!(c.try_validate().is_err(), "gpu index out of range");

        let mut c = base.clone();
        c.topo = Topology::new(1, 4);
        c.faults.gpu_offline = Some(GpuOffline {
            gpu: 0,
            at_cycle: 50,
        });
        assert!(c.try_validate().is_err(), "no survivors allowed");
    }

    #[test]
    fn validate_checks_integrity_knobs() {
        let mut c = EngineConfig::small_test(ProtocolKind::Hmg);
        assert_eq!(c.ecc, EccMode::SecDed);
        assert!(c.checksums);
        c.ecc_double_bit_fraction = 1.5;
        assert!(c.try_validate().is_err(), "fraction out of range");
        c.ecc_double_bit_fraction = 1.0;
        c.try_validate().unwrap();
        // A zero scrub period is fine until flips are armed.
        c.scrub_interval = Cycle::ZERO;
        c.try_validate().unwrap();
        c.faults = FaultPlan::parse("flip-line=0.1").unwrap();
        assert!(c.try_validate().is_err(), "flips need a scrub period");
        c.scrub_interval = Cycle(500);
        c.try_validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "response size")]
    fn validate_catches_msg_geometry_mismatch() {
        let mut c = EngineConfig::small_test(ProtocolKind::Hmg);
        c.msg.load_resp = 10;
        c.validate();
    }
}
