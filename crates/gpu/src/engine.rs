//! The event-driven engine: replays a workload trace through the modeled
//! cache/directory/interconnect system under one coherence configuration.
//!
//! # Model summary
//!
//! * Each SM issues its CTA's trace ops in order, with up to
//!   `max_outstanding_per_sm` load/atomic misses in flight (warp-level
//!   memory parallelism). Stores are fire-and-forget write-throughs,
//!   drained by release fences.
//! * Loads walk the hierarchy: local L2 → GPU home (hierarchical
//!   protocols) → system home → DRAM, obeying the scope hit rules of
//!   [`ProtocolKind::load_may_hit`]. Responses fill caches on the way
//!   back where [`ProtocolKind::may_fill`] allows.
//! * Stores write through along the same path, updating copies they pass
//!   and triggering Table I directory transitions (and thus background
//!   invalidations) at home nodes.
//! * Release fences broadcast to the protocol's fence domain and
//!   additionally wait for this GPM's outstanding write-throughs and
//!   store-caused invalidations to drain — the paper's requirement that
//!   releases "ensure completion of any write-through operations and
//!   invalidation messages that are still in flight".
//! * Kernel boundaries carry the implicit `.sys` acquire (bulk cache
//!   invalidation under software coherence) and release (fence per GPM).
//!
//! This file holds the coherence paths. Every directory transition runs
//! through the Table I interpreter in `engine/directory.rs`. Fault
//! recovery (fail-in-place reconfiguration and soft-error repair) lives
//! in `engine/recovery.rs` and snapshot capture and restore in
//! `engine/snapshot.rs`; the hot loop reaches both only through the
//! one-branch guards kept here.

use std::collections::VecDeque;

use hmg_interconnect::{Fabric, GpmId, GpuId, MsgClass};
use hmg_mem::{BlockAddr, Cache, Directory, Dram, LineAddr, PageMap, Sharer, VersionStore};
use hmg_protocol::{
    AccessKind, AcquireAction, CacheLevel, FenceDomain, Ops, ProtocolKind, Scope, TraceOp,
    WorkloadTrace,
};
use hmg_sim::collect::FlatMap;
use hmg_sim::{Cycle, EventQueue, ProgressWatchdog, Rng, SimError};

use crate::config::EngineConfig;
use crate::metrics::RunMetrics;

mod directory;
mod recovery;
mod snapshot;

use snapshot::SnapCtl;
pub use snapshot::{SnapshotPolicy, SnapshotReport};

/// Salt for the engine's dedicated soft-error stream, so line/directory
/// flip draws never perturb the message-fault stream (`faults.seed`)
/// or the fabric's drop/flip streams.
const SCRUB_STREAM_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// Severity of a latent soft error planted on a resident L2 line, as
/// the configured [`EccMode`] will classify it when the line is next
/// read (by an access or by the scrubber).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlipSeverity {
    /// Single-bit under SEC-DED: corrected in place when detected.
    Correctable,
    /// Double-bit under SEC-DED, or any flip under parity: detected
    /// but not correctable. Clean lines are dropped and refetched;
    /// dirty lines poison their consumer.
    Uncorrectable,
}

/// The largest version a cache lane holds. Messages, the committed map
/// and the [`VersionStore`] carry `u64` versions; only the L1 and L2
/// lanes are 31 bits wide, and a store that would take a line past this
/// ends the run with a typed error (`Sim::bump_version`).
const MAX_LANE_VERSION: u64 = (1 << 31) - 1;

/// `version` in a cache lane's 31 bits.
fn lane_version(version: u64) -> u32 {
    debug_assert!(
        version <= MAX_LANE_VERSION,
        "version {version} overflows 31 bits"
    );
    version as u32
}

/// One L1 line's metadata: the data version it holds, in the low 31
/// bits of a 4-byte lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct L1Line(u32);

impl L1Line {
    fn new(version: u64) -> Self {
        L1Line(lane_version(version))
    }

    fn version(self) -> u64 {
        u64::from(self.0)
    }
}

/// One L2 line's metadata in one 4-byte word: the data version it holds
/// in bits 0–30 and, under the write-back policy, whether it is dirty
/// (newer than its home) in bit 31.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct L2Line(u32);

impl L2Line {
    const DIRTY: u32 = 1 << 31;

    fn new(version: u64, dirty: bool) -> Self {
        L2Line(lane_version(version) | if dirty { Self::DIRTY } else { 0 })
    }

    fn clean(version: u64) -> Self {
        Self::new(version, false)
    }

    fn version(self) -> u64 {
        u64::from(self.0 & !Self::DIRTY)
    }

    fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    fn set_version(&mut self, version: u64) {
        *self = Self::new(version, self.dirty());
    }

    fn mark_clean(&mut self) {
        self.0 &= !Self::DIRTY;
    }
}

/// Identifies one SM: its GPM and its index within the GPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SmRef {
    gpm: GpmId,
    sm: u16,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmState {
    /// Has a pending `SmResume` event or is mid-issue.
    Runnable,
    /// Out of outstanding-miss capacity; woken by a response.
    StalledMem,
    /// Waiting on a release fence.
    FenceWait,
    /// Waiting on a counting flag.
    FlagWait(u32),
    /// No CTA to run.
    Idle,
}

#[derive(Debug)]
struct Sm {
    l1: Cache<L1Line>,
    cta: Option<usize>,
    pc: usize,
    outstanding: u32,
    state: SmState,
}

#[derive(Debug)]
struct Gpm {
    l2: Cache<L2Line>,
    dir: Directory,
    dram: Dram,
    /// Stores issued by this GPM not yet past their GPU-level ordering point.
    st_pending_gpu: u64,
    /// Stores issued by this GPM not yet committed at the system home.
    st_pending_sys: u64,
    /// Store-caused invalidations headed to targets within this GPM's GPU.
    inv_pending_gpu: u64,
    /// All store-caused invalidations attributed to this GPM.
    inv_pending_sys: u64,
    /// CTA work queue for the current kernel.
    cta_queue: VecDeque<usize>,
    /// CARVE-like sharing classification for blocks homed here.
    carve: FlatMap<BlockAddr, CarveClass>,
    /// Per-block invalidation floor: the newest store version whose
    /// invalidation this GPM has already processed. A fill carrying an
    /// older version raced past that invalidation in the fabric and
    /// must not install stale data — the simulator's stand-in for the
    /// transient (inv-while-fill-pending) states of a real directory
    /// protocol.
    inv_floor: FlatMap<BlockAddr, u64>,
}

/// A load or atomic request in flight.
#[derive(Debug, Clone, Copy)]
struct MemMsg {
    sm: SmRef,
    line: LineAddr,
    kind: AccessKind,
    scope: Scope,
    /// For atomics: the version the RMW will publish.
    version: u64,
    /// Issue time, for latency accounting.
    issued_at: Cycle,
    /// Consecutive NACKs this request has absorbed; scales the
    /// retry backoff exponentially.
    attempts: u8,
    /// The response carries poisoned data: an uncorrectable ECC error
    /// hit the only copy (a dirty line). The consumer must not use the
    /// value — `complete_load` aborts the consuming CTA instead of
    /// filling caches (detected-and-contained, never silent).
    poisoned: bool,
}

/// A store (or atomic write-through continuation) in flight.
#[derive(Debug, Clone, Copy)]
struct StoreMsg {
    origin: GpmId,
    line: LineAddr,
    version: u64,
    /// Whether the store has passed its GPU-level ordering point.
    gpu_ordered: bool,
    /// Fault-injected duplicate delivery: re-applies idempotent state
    /// (version-max commit, cache update) but skips all pending-counter
    /// bookkeeping, which the original delivery owns.
    duplicate: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InvCause {
    Store,
    Eviction,
}

/// CARVE-like per-block sharing classification, kept at the block's
/// system home. (CARVE stores this metadata in spare DRAM; the map is
/// the idealization of that storage.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CarveClass {
    /// Accessed by exactly one GPM so far.
    Private(GpmId),
    /// Read by multiple GPMs, never written by a non-owner.
    ReadOnly,
    /// Read-write shared: stores broadcast invalidations.
    ReadWrite,
}

#[derive(Debug, Clone, Copy)]
struct InvMsg {
    block: BlockAddr,
    cause: InvCause,
    /// GPM whose store caused this invalidation (counter attribution).
    causer: GpmId,
    /// Counted against the causer's pending counters (store-caused only).
    counted: bool,
    /// Arriving at a GPU home from the system home (HMG forwards these).
    from_sys: bool,
    target: GpmId,
    /// Version of the store that caused this invalidation (0 for
    /// eviction-caused invs). Raises the target's per-block fill floor
    /// so an in-flight stale fill cannot land after the invalidation.
    version: u64,
}

#[derive(Debug)]
struct Fence {
    gpm: GpmId,
    scope: Scope,
    /// `Some` for an SM-issued release, `None` for a kernel-end fence.
    sm: Option<SmRef>,
    acks_done: bool,
    completed: bool,
}

#[derive(Debug)]
enum Ev {
    SmResume(SmRef),
    Req {
        msg: MemMsg,
        node: GpmId,
    },
    Store {
        msg: StoreMsg,
        node: GpmId,
    },
    RespGpuHome {
        msg: MemMsg,
        node: GpmId,
    },
    Resp {
        msg: MemMsg,
    },
    Inv(InvMsg),
    Downgrade {
        block: BlockAddr,
        target: GpmId,
        evictor: GpmId,
    },
    FenceAcks(usize),
    KernelStart(usize),
    /// Periodic background scrubber tick: retires latent line flips
    /// (detect-and-recover) and plants this tick's injected soft
    /// errors. Scheduled only when the plan injects
    /// `flip-line`/`flip-dir`.
    Scrub,
}

/// A permanent fault scheduled for activation at a fixed cycle. Built
/// from the [`hmg_sim::FaultPlan`] at construction; the main loop
/// activates each entry at the first event boundary at or past its
/// cycle, which keeps reconfiguration deterministic.
#[derive(Debug, Clone)]
enum PermFault {
    /// First-tier link failure. The fabric reroutes affected traffic
    /// over the second tier by itself (see
    /// [`hmg_interconnect::Liveness`]); the engine only accounts for
    /// the detection epoch.
    LinkDown,
    /// These GPMs go permanently offline together (a single module, or
    /// every module of a GPU).
    Offline(Vec<GpmId>),
}

/// The simulation engine. Construct with a validated [`EngineConfig`],
/// then call [`Engine::run`] on a trace.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent
    /// (see [`EngineConfig::validate`]).
    pub fn new(cfg: EngineConfig) -> Self {
        // Documented panicking wrapper over try_new.
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Engine::new`]: returns the typed
    /// [`SimError`] for an inconsistent configuration.
    pub fn try_new(cfg: EngineConfig) -> Result<Self, SimError> {
        cfg.try_validate()?;
        Ok(Engine { cfg })
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Replays `trace` to completion and returns the collected metrics.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (a `WaitFlag` whose count is never reached)
    /// or livelock; the panic message carries the full [`SimError`]
    /// diagnostic. Use [`Engine::try_run`] to capture the error
    /// instead.
    pub fn run(&self, trace: &WorkloadTrace) -> RunMetrics {
        // Documented panicking wrapper over try_run.
        self.try_run(trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Replays `trace` to completion, returning a typed [`SimError`]
    /// instead of panicking when the run deadlocks, livelocks, or
    /// violates a protocol invariant. The error carries cycle, agent
    /// and address context plus a machine-state dump: per-SM
    /// outstanding ops, pending counters, the directory entry and link
    /// backlogs for the stuck address.
    ///
    /// A trace that accesses a line index of 2^32 or more is refused
    /// before the first event: the caches' tag lanes hold 32 bits.
    pub fn try_run(&self, trace: &WorkloadTrace) -> Result<RunMetrics, SimError> {
        self.check_line_domain(trace)?;
        let mut sim = Sim::new(&self.cfg, trace);
        sim.run()
    }

    /// Refuses a trace whose highest access lies on a line index at or
    /// above [`hmg_mem::cache::LINE_LIMIT`] (512 GiB at 128-byte lines).
    fn check_line_domain(&self, trace: &WorkloadTrace) -> Result<(), SimError> {
        let Some(max) = trace.max_addr() else {
            return Ok(());
        };
        let line = self.cfg.geometry.line_of(hmg_mem::Addr(max));
        if line.0 < hmg_mem::cache::LINE_LIMIT {
            return Ok(());
        }
        Err(SimError::trace(format!(
            "trace accesses line {} at byte address {max:#x}; the caches hold line \
             indices below 2^32",
            line.0
        ))
        .with_addr(max))
    }
}

/// Maximum ops an SM issues per `SmResume` event before yielding.
const ISSUE_BATCH: usize = 256;

struct Sim<'t> {
    cfg: &'t EngineConfig,
    trace: &'t WorkloadTrace,
    q: EventQueue<Ev>,
    fabric: Fabric,
    pages: PageMap,
    versions: VersionStore,
    gpms: Vec<Gpm>,
    sms: Vec<Sm>,
    fences: Vec<Fence>,
    /// Indices of fences not yet completed (scanned on every counter
    /// change; completed entries are swap-removed so the scan stays
    /// proportional to fences actually in flight).
    active_fences: Vec<usize>,
    flags: FlatMap<u32, u32>,
    flag_waiters: FlatMap<u32, Vec<SmRef>>,
    /// MSHR-style miss coalescing: requests merged behind an outstanding
    /// fill of the same line at the same node. Keyed by (node, line).
    mshr: FlatMap<(u16, LineAddr), Vec<MemMsg>>,
    /// Line -> bitmask of GPMs that have loaded it (Fig. 3 tracking).
    touch_map: FlatMap<LineAddr, u64>,
    /// Line -> latest version committed at its system home.
    committed: FlatMap<LineAddr, u64>,
    kernel: usize,
    ctas_unfinished: u64,
    loads_inflight: u64,
    kernel_fences_left: u32,
    draining: bool,
    finished: bool,
    /// Fault-injection RNG stream, seeded from the plan. Event
    /// processing order is deterministic, so draws are too.
    rng: Rng,
    /// Dedicated stream for soft-error injection (line/directory
    /// flips). Armed only when the plan injects them, so flip-free
    /// runs draw nothing and timing is untouched.
    flip_rng: Option<Rng>,
    /// Latent soft errors planted on resident L2 lines, keyed by
    /// `(GPM index, line)`. An entry is retired exactly once — by an
    /// access (ECC check before serving), a fill overwrite (refetch),
    /// or a scrubber sweep — so the [`hmg_sim::IntegrityStats`]
    /// conservation equation balances.
    line_faults: FlatMap<(u16, LineAddr), FlipSeverity>,
    /// Store messages sent over the fabric (drop-store fault index).
    store_seq: u64,
    /// Store-caused invalidations sent (reorder-inv fault index).
    inv_seq: u64,
    /// Permanent faults not yet activated, ascending by cycle.
    perm_faults: Vec<(u64, PermFault)>,
    /// Index of the next entry of `perm_faults` to activate.
    perm_next: usize,
    /// Bitmask of permanently offline GPMs.
    dead_gpms: u64,
    /// Whether any offline reconfiguration has run (gates the
    /// per-address degraded-mode checks off the fault-free fast path).
    reconfigured: bool,
    /// Livelock detection (armed by `cfg.livelock_budget`).
    watchdog: ProgressWatchdog,
    /// First fatal protocol violation observed inside a handler; the
    /// main loop aborts with it at the next event boundary.
    fatal: Option<SimError>,
    /// Whether this run continues from a restored snapshot (skips the
    /// initial event seeding — the restored queue already carries it).
    resumed: bool,
    /// Next cycle at which the snapshot machinery has work to do
    /// (`u64::MAX` when disarmed). The run loop pays exactly one u64
    /// compare per event for it; everything else lives behind
    /// [`Sim::snapshot_tick`].
    snap_next: u64,
    /// Snapshot policy state, boxed off the hot path.
    snap: Option<Box<SnapCtl>>,
    m: RunMetrics,
}

impl<'t> Sim<'t> {
    fn new(cfg: &'t EngineConfig, trace: &'t WorkloadTrace) -> Self {
        let topo = cfg.topo;
        let gpms = topo
            .all_gpms()
            .map(|_| Gpm {
                l2: Cache::new(cfg.l2),
                dir: Directory::new(cfg.dir, topo),
                dram: Dram::new(cfg.dram_bytes_per_cycle, cfg.dram_latency),
                st_pending_gpu: 0,
                st_pending_sys: 0,
                inv_pending_gpu: 0,
                inv_pending_sys: 0,
                cta_queue: VecDeque::new(),
                carve: FlatMap::new(),
                inv_floor: FlatMap::new(),
            })
            .collect();
        let sms = (0..cfg.total_sms())
            .map(|_| Sm {
                l1: Cache::new(cfg.l1),
                cta: None,
                pc: 0,
                outstanding: 0,
                state: SmState::Idle,
            })
            .collect();
        let mut fabric = Fabric::new(topo, cfg.fabric);
        fabric.apply_faults(&cfg.faults);
        fabric.set_checksums(cfg.checksums);
        let mut perm_faults: Vec<(u64, PermFault)> = Vec::new();
        if let Some(l) = &cfg.faults.link_down {
            perm_faults.push((l.at_cycle, PermFault::LinkDown));
        }
        if let Some(g) = &cfg.faults.gpm_offline {
            let gpm = GpmId(g.gpu * topo.gpms_per_gpu() + g.gpm);
            perm_faults.push((g.at_cycle, PermFault::Offline(vec![gpm])));
        }
        if let Some(g) = &cfg.faults.gpu_offline {
            let dead: Vec<GpmId> = topo.gpms_of(GpuId(g.gpu)).collect();
            perm_faults.push((g.at_cycle, PermFault::Offline(dead)));
        }
        perm_faults.sort_by_key(|&(at, _)| at);
        Sim {
            cfg,
            trace,
            q: EventQueue::new(),
            fabric,
            pages: PageMap::new(topo, cfg.placement),
            versions: VersionStore::new(),
            gpms,
            sms,
            fences: Vec::new(),
            active_fences: Vec::new(),
            flags: FlatMap::new(),
            flag_waiters: FlatMap::new(),
            mshr: FlatMap::new(),
            touch_map: FlatMap::new(),
            committed: FlatMap::new(),
            kernel: 0,
            ctas_unfinished: 0,
            loads_inflight: 0,
            kernel_fences_left: 0,
            draining: false,
            finished: false,
            rng: Rng::new(cfg.faults.seed),
            flip_rng: (cfg.faults.flip_line.is_some() || cfg.faults.flip_dir.is_some())
                .then(|| Rng::new(cfg.faults.seed ^ SCRUB_STREAM_SALT)),
            line_faults: FlatMap::new(),
            store_seq: 0,
            inv_seq: 0,
            perm_faults,
            perm_next: 0,
            dead_gpms: 0,
            reconfigured: false,
            watchdog: ProgressWatchdog::new(cfg.livelock_budget),
            fatal: None,
            resumed: false,
            snap_next: u64::MAX,
            snap: None,
            m: RunMetrics::default(),
        }
    }

    // ---------- identity helpers ----------

    fn sm_index(&self, r: SmRef) -> usize {
        r.gpm.index() * self.cfg.sms_per_gpm as usize + r.sm as usize
    }

    fn sm(&mut self, r: SmRef) -> &mut Sm {
        let i = self.sm_index(r);
        &mut self.sms[i]
    }

    fn line_of(&self, addr: hmg_mem::Addr) -> LineAddr {
        self.cfg.geometry.line_of(addr)
    }

    /// System home GPM of `line` (first-touch assigned by `toucher`).
    fn sys_home(&mut self, line: LineAddr, toucher: GpmId) -> GpmId {
        let page = self.cfg.geometry.page_of_line(line);
        self.pages.home_of(page, toucher)
    }

    /// GPU home of `line` within `gpu`, given its system home.
    fn gpu_home(&self, gpu: GpuId, line: LineAddr, sys_home: GpmId) -> GpmId {
        let block = self.cfg.geometry.block_of(line);
        self.pages.gpu_home(gpu, block, sys_home)
    }

    fn gpm_is_dead(&self, g: GpmId) -> bool {
        self.dead_gpms & (1u64 << g.index()) != 0
    }

    /// Whether `line` lives on a page whose DRAM partition failed. Such
    /// lines were re-homed onto a survivor and follow the degraded
    /// no-peer-caching coherence rules from the reconfiguration on.
    fn line_degraded(&self, line: LineAddr) -> bool {
        self.reconfigured && self.pages.is_rehomed(self.cfg.geometry.page_of_line(line))
    }

    /// Consumes the latent fault planted on `(node, line)`, if any. The
    /// fast path keeps the per-access overhead at one branch when no
    /// flip faults are armed.
    fn take_line_fault(&mut self, node: GpmId, line: LineAddr) -> Option<FlipSeverity> {
        if self.line_faults.is_empty() {
            return None;
        }
        self.line_faults.remove(&(node.0, line))
    }

    /// The cache level `node` represents for a line homed at `sys_home`
    /// (system home) and `gpu_home` (the requester's GPU home).
    fn level_of(&self, node: GpmId, sys_home: GpmId, gpu_home: GpmId) -> CacheLevel {
        if node == sys_home {
            CacheLevel::SysHomeL2
        } else if self.cfg.protocol.hierarchical_routing() && node == gpu_home {
            CacheLevel::GpuHomeL2
        } else {
            CacheLevel::LocalL2NonHome
        }
    }

    /// The next node a request at `node` forwards to, or `None` when
    /// `node` is the system home (next stop is DRAM).
    fn next_node(
        &self,
        node: GpmId,
        req_gpm: GpmId,
        sys_home: GpmId,
        gpu_home: GpmId,
    ) -> Option<GpmId> {
        if node == sys_home {
            return None;
        }
        if self.cfg.protocol.hierarchical_routing() && node != gpu_home && node == req_gpm {
            Some(gpu_home)
        } else {
            Some(sys_home)
        }
    }

    // ---------- main loop ----------

    fn run(&mut self) -> Result<RunMetrics, SimError> {
        if self.trace.kernels.is_empty() {
            self.m.total_cycles = Cycle::ZERO;
            return Ok(std::mem::take(&mut self.m));
        }
        if !self.resumed {
            self.q.push(Cycle::ZERO, Ev::KernelStart(0));
            if self.flip_rng.is_some() {
                self.q.push(self.cfg.scrub_interval, Ev::Scrub);
            }
        }
        while let Some((now, ev)) = self.q.pop() {
            // Activate pending permanent faults at the event boundary —
            // before the watchdog check, so the reconfiguration can
            // grant itself the detection-window grace.
            while self.perm_next < self.perm_faults.len()
                && self.perm_faults[self.perm_next].0 <= now.0
            {
                let fault = self.perm_faults[self.perm_next].1.clone();
                self.perm_next += 1;
                self.reconfigure(now, fault);
            }
            if let Some(gap) = self.watchdog.stalled(now.0) {
                return Err(self.livelock_error(now, gap));
            }
            match ev {
                Ev::SmResume(r) => self.sm_issue(now, r),
                Ev::Req { msg, node } => self.handle_req(now, msg, node),
                Ev::Store { msg, node } => self.handle_store(now, msg, node),
                Ev::RespGpuHome { msg, node } => self.handle_resp_gpu_home(now, msg, node),
                Ev::Resp { msg } => self.handle_resp(now, msg),
                Ev::Inv(inv) => self.handle_inv(now, inv),
                Ev::Downgrade {
                    block,
                    target,
                    evictor,
                } => {
                    let topo = self.cfg.topo;
                    if let Some(sharers) = self.gpms[target.index()].dir.lookup_mut(block) {
                        sharers.remove(&topo, Sharer::Gpm(evictor));
                    }
                }
                Ev::FenceAcks(id) => self.handle_fence_acks(now, id),
                Ev::KernelStart(k) => self.kernel_start(now, k),
                Ev::Scrub => self.handle_scrub(now),
            }
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
            if self.finished {
                break;
            }
            // Snapshot machinery: one u64 compare on the hot path; the
            // cold tick handles periodic/one-shot captures and the
            // test-only kill hook. Placed after the fatal/finished
            // checks so terminal states are never captured.
            if now.0 >= self.snap_next {
                self.snapshot_tick(now);
            }
        }
        if !self.finished {
            return Err(self.deadlock_error());
        }
        #[cfg(debug_assertions)]
        if !self.cfg.zero_cost_fences {
            // Every kernel-end fence waits for write-throughs and
            // invalidations; nothing may be left in flight at the end.
            self.assert_drained();
        }
        // Retire any latent flips the scrubber had not reached, then
        // fold in the fabric's checksum layer, so the IntegrityStats
        // conservation equation balances exactly: every injected flip
        // lands in exactly one recovery/containment bucket.
        self.scrub_sweep();
        let transport = self.fabric.stats().transport();
        self.m.integrity.flips_msg = transport.flips_injected;
        self.m.integrity.checksum_retransmits = transport.checksum_retransmits;
        self.m.integrity.silent_corruptions += transport.silent_flips;
        self.m.total_cycles = self.q.now();
        self.m.events = self.q.events_processed();
        self.m.fabric = *self.fabric.stats();
        self.m.dram_bytes = self.gpms.iter().map(|g| g.dram.bytes_transferred()).sum();
        let elapsed = self.m.total_cycles;
        self.m.max_dram_util = self
            .gpms
            .iter()
            .map(|g| g.dram.utilization(elapsed))
            .fold(0.0, f64::max);
        self.m.max_inter_util = self
            .cfg
            .topo
            .all_gpus()
            .map(|g| self.fabric.inter_egress_utilization(g, elapsed))
            .fold(0.0, f64::max);
        self.m.max_intra_util = self
            .cfg
            .topo
            .all_gpms()
            .map(|g| {
                self.fabric
                    .intra_egress_utilization(g, elapsed)
                    .max(self.fabric.intra_ingress_utilization(g, elapsed))
            })
            .fold(0.0, f64::max);
        self.m.state_digest = self.state_digest();
        Ok(std::mem::take(&mut self.m))
    }

    /// FNV-1a digest of the final committed memory state, over
    /// `(line, version)` pairs in ascending line order. Recovery paths
    /// (retransmission, NACK/retry, broadcast fallback) must converge to
    /// the fault-free digest for the same seed and trace.
    fn state_digest(&self) -> u64 {
        let mut lines: Vec<(u64, u64)> = self.committed.iter().map(|(l, v)| (l.0, *v)).collect();
        lines.sort_unstable();
        let bytes: Vec<u8> = lines
            .into_iter()
            .flat_map(|(l, v)| l.to_le_bytes().into_iter().chain(v.to_le_bytes()))
            .collect();
        hmg_sim::snap::fnv1a64(&bytes)
    }

    // ---------- watchdog diagnostics ----------

    /// Human-readable name for an SM, used as error agent context.
    fn agent_name(&self, r: SmRef) -> String {
        format!(
            "gpu{}/gpm{}/sm{}",
            self.cfg.topo.gpu_of(r.gpm).0,
            r.gpm.index(),
            r.sm
        )
    }

    /// A multi-line snapshot of everything relevant to a stuck run:
    /// non-idle SMs with their outstanding ops, per-GPM pending
    /// counters, flag state, MSHR entries, and — for the stuck address,
    /// when one is identifiable — the home directory entry and the link
    /// backlogs along its path.
    fn machine_dump(&mut self) -> (String, Option<SmRef>, Option<LineAddr>) {
        use std::fmt::Write;
        let now = self.q.now();
        let topo = self.cfg.topo;
        let mut dump = String::new();
        let mut first_stuck: Option<SmRef> = None;
        for gpm in topo.all_gpms() {
            for sm in 0..self.cfg.sms_per_gpm {
                let r = SmRef { gpm, sm };
                let s = &self.sms[self.sm_index(r)];
                if s.state == SmState::Idle {
                    continue;
                }
                if first_stuck.is_none() {
                    first_stuck = Some(r);
                }
                let _ = writeln!(
                    dump,
                    "  {}: {:?} cta={:?} pc={} outstanding={}",
                    self.agent_name(r),
                    s.state,
                    s.cta,
                    s.pc,
                    s.outstanding
                );
            }
        }
        for (i, g) in self.gpms.iter().enumerate() {
            if g.st_pending_gpu + g.st_pending_sys + g.inv_pending_gpu + g.inv_pending_sys > 0 {
                let _ = writeln!(
                    dump,
                    "  gpm{i}: st_pending_gpu={} st_pending_sys={} \
                     inv_pending_gpu={} inv_pending_sys={}",
                    g.st_pending_gpu, g.st_pending_sys, g.inv_pending_gpu, g.inv_pending_sys
                );
            }
        }
        if !self.flags.is_empty() || !self.flag_waiters.is_empty() {
            let mut flags: Vec<_> = self.flags.iter().collect();
            flags.sort();
            let _ = writeln!(dump, "  flags: {flags:?}");
            let mut waits: Vec<_> = self
                .flag_waiters
                .iter()
                .map(|(f, ws)| {
                    (
                        *f,
                        ws.iter().map(|w| self.agent_name(*w)).collect::<Vec<_>>(),
                    )
                })
                .collect();
            waits.sort();
            for (f, ws) in waits {
                let _ = writeln!(dump, "  flag {f} awaited by {ws:?}");
            }
        }
        // Pick the stuck address: an un-filled miss if any, else the
        // probe line.
        let stuck_line = self
            .mshr
            .keys()
            .min()
            .map(|&(_, line)| line)
            .or(self.cfg.probe_line.map(LineAddr));
        if !self.mshr.is_empty() {
            let mut entries: Vec<_> = self
                .mshr
                .iter()
                .map(|(&(node, line), v)| (node, line, v.len()))
                .collect();
            entries.sort();
            for (node, line, waiters) in entries.into_iter().take(8) {
                let _ = writeln!(
                    dump,
                    "  mshr gpm{node} line {:#x}: {waiters} merged",
                    line.0
                );
            }
        }
        if let Some(line) = stuck_line {
            let home = self.sys_home(line, GpmId(0));
            let block = self.cfg.geometry.block_of(line);
            let committed = self.committed.get(&line).copied().unwrap_or(0);
            let sharers = self.gpms[home.index()]
                .dir
                .lookup(block)
                .map(|s| s.iter(&topo))
                .unwrap_or_default();
            let _ = writeln!(
                dump,
                "  stuck line {:#x}: sys_home=gpm{} committed_version={committed} \
                 dir[{:#x}]={sharers:?}",
                line.0,
                home.index(),
                block.0
            );
            let (eg, ing) = self.fabric.intra_backlog(home, now);
            let (ieg, iing) = self.fabric.inter_backlog(topo.gpu_of(home), now);
            let _ = writeln!(
                dump,
                "  links at home: intra egress/ingress backlog {eg}/{ing} cycles, \
                 inter {ieg}/{iing} cycles"
            );
        }
        (dump, first_stuck, stuck_line)
    }

    /// Builds the structural-deadlock error: the event queue drained
    /// with CTAs unfinished, loads in flight, or fences un-drained.
    fn deadlock_error(&mut self) -> SimError {
        let message = format!(
            "kernel {}/{} unfinished_ctas={} loads_inflight={} mshr_entries={} \
             (a WaitFlag count was never reached, or an in-flight message was lost)",
            self.kernel,
            self.trace.num_kernels(),
            self.ctas_unfinished,
            self.loads_inflight,
            self.mshr.len()
        );
        self.stuck_error(hmg_sim::SimErrorKind::Deadlock, self.q.now(), message)
    }

    /// Builds the livelock error: `gap` cycles elapsed with events
    /// still flowing but no access retiring.
    fn livelock_error(&mut self, now: Cycle, gap: u64) -> SimError {
        let message = format!(
            "no access retired for {gap} cycles (budget {:?}); kernel {}/{} \
             unfinished_ctas={} loads_inflight={}",
            self.cfg.livelock_budget,
            self.kernel,
            self.trace.num_kernels(),
            self.ctas_unfinished,
            self.loads_inflight,
        );
        self.stuck_error(hmg_sim::SimErrorKind::Livelock, now, message)
    }

    /// A watchdog error at `now`: `message` plus the machine dump, and
    /// the first stuck SM and address it names.
    fn stuck_error(
        &mut self,
        kind: hmg_sim::SimErrorKind,
        now: Cycle,
        message: String,
    ) -> SimError {
        let (dump, stuck_sm, stuck_line) = self.machine_dump();
        let mut e = SimError::new(kind, message).at_cycle(now.0).with_dump(dump);
        if let Some(r) = stuck_sm {
            e = e.with_agent(self.agent_name(r));
        }
        if let Some(line) = stuck_line {
            e = e.with_addr(line.0 * self.cfg.geometry.line_bytes() as u64);
        }
        e
    }

    // ---------- kernel lifecycle ----------

    fn kernel_start(&mut self, now: Cycle, k: usize) {
        self.kernel = k;
        let kernel = &self.trace.kernels[k];
        let n_ctas = kernel.num_ctas();
        self.ctas_unfinished = n_ctas as u64;
        if n_ctas == 0 {
            self.kernel_end(now);
            return;
        }
        self.draining = false;

        // Implicit .sys acquire at kernel launch: bulk-invalidate caches
        // according to the protocol (software coherence pays here).
        self.apply_acquire_everywhere(now);

        // Contiguous CTA scheduling: adjacent CTAs share a GPM [5, 13].
        // Fail-in-place: dead modules get no work; survivors absorb it.
        let alive: Vec<GpmId> = self
            .cfg
            .topo
            .all_gpms()
            .filter(|g| !self.gpm_is_dead(*g))
            .collect();
        let chunk = n_ctas.div_ceil(alive.len());
        for g in self.cfg.topo.all_gpms() {
            self.gpms[g.index()].cta_queue.clear();
        }
        for (i, &g) in alive.iter().enumerate() {
            let lo = (i * chunk).min(n_ctas);
            let hi = ((i + 1) * chunk).min(n_ctas);
            self.gpms[g.index()].cta_queue.extend(lo..hi);
        }

        let start = now + self.cfg.kernel_launch_overhead;
        for gpm in alive {
            for sm in 0..self.cfg.sms_per_gpm {
                let r = SmRef { gpm, sm };
                let cta = self.gpms[gpm.index()].cta_queue.pop_front();
                let s = self.sm(r);
                s.cta = cta;
                s.pc = 0;
                if cta.is_some() {
                    s.state = SmState::Runnable;
                    self.q.push(start, Ev::SmResume(r));
                } else {
                    s.state = SmState::Idle;
                }
            }
        }
    }

    fn apply_acquire_everywhere(&mut self, now: Cycle) {
        let action = self.cfg.protocol.acquire_action(Scope::Sys);
        match action {
            AcquireAction::None => {}
            AcquireAction::L1 => {
                for sm in &mut self.sms {
                    self.m.lines_bulk_invalidated += sm.l1.invalidate_all();
                }
            }
            AcquireAction::L1AndLocalL2 | AcquireAction::L1AndAllGpuL2 => {
                for sm in &mut self.sms {
                    self.m.lines_bulk_invalidated += sm.l1.invalidate_all();
                }
                for gpm in self.cfg.topo.all_gpms() {
                    self.m.lines_bulk_invalidated += self.wipe_l2(now, gpm);
                }
            }
        }
    }

    fn maybe_kernel_end(&mut self, now: Cycle) {
        if self.ctas_unfinished == 0 && self.loads_inflight == 0 && !self.draining {
            self.kernel_end(now);
        }
    }

    fn kernel_end(&mut self, now: Cycle) {
        // Implicit .sys release: flush dirty data (write-back policy),
        // then one fence per GPM drains write-throughs and in-flight
        // invalidations before the next dependent kernel.
        if self.cfg.l2_write_policy == crate::config::WritePolicy::WriteBack {
            for gpm in self.cfg.topo.all_gpms() {
                if !self.gpm_is_dead(gpm) {
                    self.flush_dirty(now, gpm);
                }
            }
        }
        self.draining = true;
        let domain = self.cfg.protocol.release_domain(Scope::Sys);
        if domain == FenceDomain::None {
            self.kernel_fences_left = 0;
            self.advance_kernel(now);
            return;
        }
        // Count every fence before starting any: a zero-cost fence
        // completes inside `start_fence`, and the kernel must advance
        // once, after the last of them.
        let live = self.cfg.topo.all_gpms().filter(|&g| !self.gpm_is_dead(g));
        self.kernel_fences_left = live.count() as u32;
        for gpm in self.cfg.topo.all_gpms() {
            if !self.gpm_is_dead(gpm) {
                self.start_fence(now, gpm, Scope::Sys, None);
            }
        }
    }

    fn advance_kernel(&mut self, now: Cycle) {
        self.m.kernel_end_cycles.push(now.as_u64());
        if self.kernel + 1 < self.trace.num_kernels() {
            self.q.push(now, Ev::KernelStart(self.kernel + 1));
        } else {
            self.finished = true;
        }
    }

    // ---------- SM issue ----------

    fn sm_issue(&mut self, now: Cycle, r: SmRef) {
        let mut t = now;
        let idx = self.sm_index(r);
        if self.sms[idx].state != SmState::Runnable {
            return;
        }
        // The trace outlives `self`'s borrow, so the current CTA's op
        // list can be cached across batch iterations instead of
        // re-walking kernel -> CTA -> ops for every issued op.
        let trace: &'t WorkloadTrace = self.trace;
        let mut cached: Option<(usize, usize, &'t Ops)> = None;
        for _ in 0..ISSUE_BATCH {
            let (kernel, cta, pc) = {
                let s = &self.sms[idx];
                match s.cta {
                    Some(c) => (self.kernel, c, s.pc),
                    None => {
                        self.sms[idx].state = SmState::Idle;
                        self.maybe_kernel_end(t);
                        return;
                    }
                }
            };
            let ops = match cached {
                Some((k, c, ops)) if (k, c) == (kernel, cta) => ops,
                _ => {
                    let ops = &trace.kernels[kernel].ctas[cta].ops;
                    cached = Some((kernel, cta, ops));
                    ops
                }
            };
            let Some(op) = ops.get(pc) else {
                // CTA complete; grab the next one from the GPM queue.
                self.ctas_unfinished -= 1;
                let next = self.gpms[r.gpm.index()].cta_queue.pop_front();
                let s = &mut self.sms[idx];
                s.cta = next;
                s.pc = 0;
                if next.is_none() {
                    s.state = SmState::Idle;
                    self.maybe_kernel_end(t);
                    return;
                }
                continue;
            };
            match op {
                TraceOp::Access(a) => {
                    let line = self.line_of(a.addr);
                    match a.kind {
                        AccessKind::Load => {
                            if !self.issue_load(t, r, line, a.scope) {
                                // Stalled for capacity: retry this op later.
                                self.sms[idx].state = SmState::StalledMem;
                                return;
                            }
                        }
                        AccessKind::Store => self.issue_store(t, r, line, a.scope),
                        AccessKind::Atomic => {
                            if !self.issue_atomic(t, r, line, a.scope) {
                                self.sms[idx].state = SmState::StalledMem;
                                return;
                            }
                        }
                    }
                    self.sms[idx].pc += 1;
                    t += Cycle(self.cfg.issue_cycles as u64);
                }
                TraceOp::Delay(d) => {
                    self.sms[idx].pc += 1;
                    self.q.push(t + Cycle(d as u64), Ev::SmResume(r));
                    return;
                }
                TraceOp::Acquire(scope) => {
                    t += self.apply_acquire(t, r, scope);
                    self.sms[idx].pc += 1;
                }
                TraceOp::Release(scope) => {
                    self.sms[idx].pc += 1;
                    if self.cfg.protocol.release_domain(scope) == FenceDomain::None {
                        continue;
                    }
                    if self.cfg.l2_write_policy == crate::config::WritePolicy::WriteBack {
                        self.flush_dirty(t, r.gpm);
                    }
                    self.sms[idx].state = SmState::FenceWait;
                    self.start_fence(t, r.gpm, scope, Some(r));
                    return;
                }
                TraceOp::SetFlag(f) => {
                    self.sms[idx].pc += 1;
                    // Fault: delayed flag propagation. Waiters wake
                    // later but the ordering guarantees are intact, so
                    // outcomes are unchanged (tolerated).
                    let extra = Cycle(self.cfg.faults.flag_delay.unwrap_or(0));
                    self.set_flag(t, f, extra);
                    t += Cycle(self.cfg.issue_cycles as u64);
                }
                TraceOp::WaitFlag { flag, count } => {
                    if self.flags.get(&flag).copied().unwrap_or(0) >= count {
                        self.sms[idx].pc += 1;
                        t += Cycle(self.cfg.issue_cycles as u64);
                    } else {
                        self.sms[idx].state = SmState::FlagWait(flag);
                        self.flag_waiters.or_insert_with(flag, Vec::new).push(r);
                        return;
                    }
                }
            }
        }
        // Yield after a long batch so other events interleave.
        self.q.push(t, Ev::SmResume(r));
    }

    /// Publishes one increment of flag `f` at `t` and wakes its waiters
    /// `flag_latency + extra` later.
    fn set_flag(&mut self, t: Cycle, f: u32, extra: Cycle) {
        *self.flags.or_insert(f, 0) += 1;
        if let Some(waiters) = self.flag_waiters.remove(&f) {
            let wake = t + self.cfg.flag_latency + extra;
            for w in waiters {
                let wi = self.sm_index(w);
                if self.sms[wi].state == SmState::FlagWait(f) {
                    self.sms[wi].state = SmState::Runnable;
                    self.q.push(wake, Ev::SmResume(w));
                }
            }
        }
    }

    /// Issues a load. Returns `false` if the SM is out of miss capacity.
    fn issue_load(&mut self, t: Cycle, r: SmRef, line: LineAddr, scope: Scope) -> bool {
        let proto = self.cfg.protocol;
        let idx = self.sm_index(r);
        if proto.load_may_hit(CacheLevel::L1, scope) {
            if let Some(v) = self.sms[idx].l1.get(line).map(|m| m.version()) {
                self.m.loads += 1;
                self.m.l1_hits += 1;
                self.record_touch(r, line);
                self.record_probe(r, line, v);
                return true;
            }
        }
        if self.sms[idx].outstanding >= self.cfg.max_outstanding_per_sm {
            return false;
        }
        self.m.loads += 1;
        self.record_touch(r, line);
        self.sms[idx].outstanding += 1;
        self.loads_inflight += 1;
        if self.loads_inflight > self.m.max_loads_inflight {
            self.m.max_loads_inflight = self.loads_inflight;
        }
        let msg = MemMsg {
            sm: r,
            line,
            kind: AccessKind::Load,
            scope,
            version: 0,
            issued_at: t,
            attempts: 0,
            poisoned: false,
        };
        self.q
            .push(t + self.cfg.l1_latency, Ev::Req { msg, node: r.gpm });
        true
    }

    /// Fig. 3 bookkeeping: remember which GPMs touched each line.
    fn record_touch(&mut self, r: SmRef, line: LineAddr) {
        if self.cfg.track_peer_redundancy {
            let mask = self.touch_map.or_insert(line, 0);
            *mask |= 1u64 << r.gpm.index();
        }
    }

    /// Coherence-checker hook: records the version each load of the probe
    /// line observes.
    fn record_probe(&mut self, r: SmRef, line: LineAddr, version: u64) {
        if self.cfg.probe_line == Some(line.0) {
            let sm = self.sm_index(r) as u32;
            self.m.probe.push((sm, version));
        }
    }

    /// Commits a store or atomic by SM `r` to `line` and returns the
    /// line's new version, or ends the run with a typed error when that
    /// version would not fit the 31-bit cache lanes.
    #[inline]
    fn bump_version(&mut self, t: Cycle, r: SmRef, line: LineAddr) -> Option<u64> {
        let v = self.versions.bump(line);
        if v > MAX_LANE_VERSION {
            self.refuse_version(t, r, line, v);
            return None;
        }
        Some(v)
    }

    #[cold]
    #[inline(never)]
    fn refuse_version(&mut self, t: Cycle, r: SmRef, line: LineAddr, v: u64) {
        if self.fatal.is_some() {
            return;
        }
        self.fatal = Some(
            SimError::trace(format!(
                "a store takes line {} to version {v}; cache lanes hold versions below 2^31",
                line.0
            ))
            .at_cycle(t.0)
            .with_agent(self.agent_name(r))
            .with_addr(line.0 * self.cfg.geometry.line_bytes() as u64),
        );
    }

    fn issue_store(&mut self, t: Cycle, r: SmRef, line: LineAddr, scope: Scope) {
        self.m.stores += 1;
        let Some(v) = self.bump_version(t, r, line) else {
            return;
        };
        let idx = self.sm_index(r);
        // The L1 is always write-through with write-update, no-allocate.
        if let Some(meta) = self.sms[idx].l1.get_mut(line) {
            *meta = L1Line::new(v);
        }
        // §IV-B write-back option: plain stores coalesce as dirty lines
        // in the local L2; evictions and releases flush them. Scoped
        // stores always write through to their scope home.
        if self.cfg.l2_write_policy == crate::config::WritePolicy::WriteBack && scope == Scope::Cta
        {
            self.fill_l2(t + self.cfg.l1_latency, r.gpm, line, L2Line::new(v, true));
            return;
        }
        let g = &mut self.gpms[r.gpm.index()];
        g.st_pending_gpu += 1;
        g.st_pending_sys += 1;
        let msg = StoreMsg {
            origin: r.gpm,
            line,
            version: v,
            gpu_ordered: false,
            duplicate: false,
        };
        self.q
            .push(t + self.cfg.l1_latency, Ev::Store { msg, node: r.gpm });
    }

    /// Issues an atomic. Returns `false` if out of miss capacity.
    fn issue_atomic(&mut self, t: Cycle, r: SmRef, line: LineAddr, scope: Scope) -> bool {
        let idx = self.sm_index(r);
        if self.sms[idx].outstanding >= self.cfg.max_outstanding_per_sm {
            return false;
        }
        self.m.loads += 1; // response-bearing
        self.m.stores += 1; // write-committing
        let Some(v) = self.bump_version(t, r, line) else {
            return true;
        };
        let g = &mut self.gpms[r.gpm.index()];
        g.st_pending_gpu += 1;
        g.st_pending_sys += 1;
        self.sms[idx].outstanding += 1;
        self.loads_inflight += 1;
        let msg = MemMsg {
            sm: r,
            line,
            kind: AccessKind::Atomic,
            scope,
            version: v,
            issued_at: t,
            attempts: 0,
            poisoned: false,
        };
        self.q
            .push(t + self.cfg.l1_latency, Ev::Req { msg, node: r.gpm });
        true
    }

    fn apply_acquire(&mut self, t: Cycle, r: SmRef, scope: Scope) -> Cycle {
        let idx = self.sm_index(r);
        match self.cfg.protocol.acquire_action(scope) {
            AcquireAction::None => Cycle::ZERO,
            AcquireAction::L1 => {
                self.m.lines_bulk_invalidated += self.sms[idx].l1.invalidate_all();
                Cycle(self.cfg.acquire_l1_cost as u64)
            }
            AcquireAction::L1AndLocalL2 => {
                self.m.lines_bulk_invalidated += self.sms[idx].l1.invalidate_all();
                self.m.lines_bulk_invalidated += self.wipe_l2(t, r.gpm);
                Cycle((self.cfg.acquire_l1_cost + self.cfg.acquire_l2_cost) as u64)
            }
            AcquireAction::L1AndAllGpuL2 => {
                self.m.lines_bulk_invalidated += self.sms[idx].l1.invalidate_all();
                let gpu = self.cfg.topo.gpu_of(r.gpm);
                let gpms: Vec<GpmId> = self.cfg.topo.gpms_of(gpu).collect();
                for g in gpms {
                    self.m.lines_bulk_invalidated += self.wipe_l2(t, g);
                }
                Cycle((self.cfg.acquire_l1_cost + 2 * self.cfg.acquire_l2_cost) as u64)
            }
        }
    }

    // ---------- request path ----------

    fn handle_req(&mut self, now: Cycle, msg: MemMsg, node: GpmId) {
        if self.gpm_is_dead(node) {
            self.reroute_req(now, msg);
            return;
        }
        let proto = self.cfg.protocol;
        let degraded = self.line_degraded(msg.line);
        let req_gpm = msg.sm.gpm;
        let req_gpu = self.cfg.topo.gpu_of(req_gpm);
        let sys_home = self.sys_home(msg.line, req_gpm);
        let gpu_home = self.gpu_home(req_gpu, msg.line, sys_home);
        let level = self.level_of(node, sys_home, gpu_home);
        // A lookup that forwards costs only a tag probe; serving data
        // (hits, DRAM fetches, atomics) costs the full data-array access.
        let t = now + self.cfg.l2_tag_latency;
        let t_data = now + self.cfg.l2_latency;
        let block = self.cfg.geometry.block_of(msg.line);

        // Flow control: a busy directory home throttles remote requests
        // rather than queueing them unboundedly. This runs before any
        // state is touched, so a throttled delivery has no side effects
        // and the replay is a clean re-issue (redelivery is idempotent
        // by construction). *What* the home does comes from the spec's
        // guarded `HomeBusy` rows: NACK/retry rejects the request back
        // to the requester with exponential backoff; phase-priority
        // holds it at the home and replays it after a fixed quantum, in
        // arrival order (the event queue's FIFO tie order).
        if let Some(thr) = self.cfg.home_nack_threshold {
            if node != req_gpm
                && self.node_is_dir_home(node, sys_home, gpu_home)
                && self.fabric.intra_backlog(node, now).1 > thr
            {
                if self.home_defers(node, block, msg.kind) {
                    self.m.deferred_reqs += 1;
                    self.q
                        .push(now + self.cfg.nack_backoff, Ev::Req { msg, node });
                    return;
                }
                self.m.nacks += 1;
                // Attempt cap: a request the home keeps refusing must
                // surface as a typed error, not retry into a livelock.
                if let Some(cap) = self.cfg.nack_attempt_cap {
                    if msg.attempts >= cap {
                        self.fatal = Some(
                            SimError::protocol(format!(
                                "request NACKed {} times by busy directory home gpm{}: \
                                 attempt cap {cap} exhausted",
                                u32::from(msg.attempts) + 1,
                                node.index(),
                            ))
                            .at_cycle(now.0)
                            .with_agent(format!("gpm{}/sm{}", req_gpm.index(), msg.sm.sm))
                            .with_addr(msg.line.0 * self.cfg.geometry.line_bytes() as u64),
                        );
                        return;
                    }
                }
                let back = self
                    .fabric
                    .send(now, node, req_gpm, self.cfg.msg.nack, MsgClass::Ctrl);
                let shift = u32::from(msg.attempts.min(6));
                let backoff = Cycle(self.cfg.nack_backoff.0 << shift);
                self.reissue_req(back + backoff, msg);
                return;
            }
        }

        // Fig. 3: the request is about to leave the requester's GPU.
        // Retries already counted themselves on their first pass.
        if self.cfg.track_peer_redundancy
            && msg.kind == AccessKind::Load
            && msg.attempts == 0
            && node == req_gpm
            && self.cfg.topo.gpu_of(sys_home) != req_gpu
        {
            self.m.inter_gpu_loads += 1;
            let mask = self.touch_map.get(&msg.line).copied().unwrap_or(0);
            let gpu_mask: u64 = self
                .cfg
                .topo
                .gpms_of(req_gpu)
                .filter(|g| *g != req_gpm)
                .map(|g| 1u64 << g.index())
                .sum();
            if mask & gpu_mask != 0 {
                self.m.inter_gpu_loads_peer_redundant += 1;
            }
        }

        // Atomics are performed at the home node of their scope; on the
        // way there they act like stores on every directory they pass.
        let atomic = msg.kind == AccessKind::Atomic;
        let perform_here = atomic
            && match msg.scope {
                Scope::Cta => node == req_gpm,
                Scope::Gpu => {
                    // Degraded lines perform at the (re-homed) system
                    // home: the GPU home no longer caches them.
                    if proto.hierarchical_routing() && !degraded {
                        node == gpu_home
                    } else {
                        node == sys_home
                    }
                }
                Scope::Sys => node == sys_home,
            };
        if perform_here {
            self.perform_atomic(t_data, msg, node, sys_home, gpu_home);
            return;
        }
        let (line, kind, version) = (msg.line, msg.kind, msg.version);
        self.dir_access(t, node, line, kind, req_gpm, version, sys_home, gpu_home);
        if atomic {
            self.forward_req(t, msg, node, req_gpm, sys_home, gpu_home);
            return;
        }

        // CARVE-like classifier: loads widen Private -> ReadOnly.
        if proto.has_broadcast_classifier() && !degraded && node == sys_home {
            let entry = self.gpms[node.index()]
                .carve
                .or_insert(block, CarveClass::Private(req_gpm));
            if let CarveClass::Private(owner) = *entry {
                if owner != req_gpm {
                    *entry = CarveClass::ReadOnly;
                }
            }
        }

        // Load hit check (degraded lines obey no-peer-caching rules).
        let may_hit = if degraded {
            ProtocolKind::degraded_load_may_hit(level, msg.scope)
        } else {
            proto.load_may_hit(level, msg.scope)
        };
        if may_hit {
            if let Some(&meta) = self.gpms[node.index()].l2.get(msg.line) {
                let (v, dirty) = (meta.version(), meta.dirty());
                // ECC check: a latent flip on the resident copy is
                // detected (and handled) before the data is served.
                match self.take_line_fault(node, msg.line) {
                    Some(FlipSeverity::Uncorrectable) => {
                        // The copy is unusable and dropped. Clean: fall
                        // through to the miss path, which refetches the
                        // line from its home. Dirty: the only copy of
                        // the data is gone — serve a poisoned response
                        // that aborts the consuming CTA instead of
                        // handing out a corrupt value.
                        self.gpms[node.index()].l2.invalidate(msg.line);
                        if dirty {
                            self.m.integrity.poisoned += 1;
                            let mut served = msg;
                            served.version = v;
                            served.poisoned = true;
                            self.send_response(t_data, served, node, sys_home, gpu_home);
                            return;
                        }
                        self.m.integrity.refetched_lines += 1;
                    }
                    fault => {
                        if fault.is_some() {
                            // Single-bit flip: corrected in place.
                            self.m.integrity.corrected += 1;
                        }
                        match level {
                            CacheLevel::SysHomeL2 => self.m.sys_home_hits += 1,
                            CacheLevel::GpuHomeL2 => self.m.gpu_home_hits += 1,
                            _ => self.m.local_l2_hits += 1,
                        }
                        let mut served = msg;
                        served.version = v;
                        self.send_response(t_data, served, node, sys_home, gpu_home);
                        return;
                    }
                }
            }
        }

        if node == sys_home {
            // Miss at the system home: fetch from DRAM and fill.
            self.m.dram_accesses += 1;
            let line_bytes = self.cfg.geometry.line_bytes();
            let done = self.gpms[node.index()].dram.access(t_data, line_bytes);
            let v = self.home_version(msg.line);
            if proto.may_fill(CacheLevel::SysHomeL2, true) {
                self.fill_l2(done, node, msg.line, L2Line::clean(v));
            }
            let mut served = msg;
            served.version = v;
            self.send_response(done, served, node, sys_home, gpu_home);
            return;
        }

        // MSHR merge: a load that misses behind an identical outstanding
        // fill at this node rides that fill instead of re-crossing the
        // network. Merging is only legal when this node's cache would be
        // a valid serving point for the load's scope. A NACKed retry
        // must not merge: the entry it would ride may be its own first
        // attempt, whose fill the home just refused to produce.
        let mergeable = msg.kind == AccessKind::Load && may_hit && msg.attempts == 0;
        if mergeable {
            let key = (node.0, msg.line);
            if let Some(waiters) = self.mshr.get_mut(&key) {
                waiters.push(msg);
                return;
            }
            self.mshr.insert(key, Vec::new());
        }
        self.forward_req(t, msg, node, req_gpm, sys_home, gpu_home);
    }

    /// Re-issues `msg` from its requester's GPM at `at`. The attempt
    /// count grows, so the retry backs off further if NACKed again and
    /// never merges behind an MSHR entry (the one it rode may be gone).
    fn reissue_req(&mut self, at: Cycle, msg: MemMsg) {
        let retry = MemMsg {
            attempts: msg.attempts.saturating_add(1),
            ..msg
        };
        self.q.push(
            at,
            Ev::Req {
                msg: retry,
                node: retry.sm.gpm,
            },
        );
    }

    /// Completes any loads merged behind a fill of `line` at `node`.
    /// Waiters from this GPM complete in place; waiters forwarded from
    /// other GPMs (merged at a GPU home) are sent their own responses.
    /// Completing a load only schedules events, so no waiter can merge
    /// behind this fill again while it drains.
    fn drain_mshr(
        &mut self,
        now: Cycle,
        node: GpmId,
        line: LineAddr,
        version: u64,
        poisoned: bool,
    ) {
        let Some(waiters) = self.mshr.remove(&(node.0, line)) else {
            return;
        };
        for mut w in waiters {
            w.version = version;
            // Poison propagates to every consumer merged behind the
            // fill: each aborts rather than using the corrupt value.
            w.poisoned = poisoned;
            if w.sm.gpm == node {
                self.complete_load(now, w);
            } else {
                let arrive =
                    self.fabric
                        .send(now, node, w.sm.gpm, self.cfg.msg.load_resp, MsgClass::Data);
                self.q.push(arrive, Ev::Resp { msg: w });
            }
        }
        debug_assert!(!self.mshr.contains_key(&(node.0, line)));
    }

    fn forward_req(
        &mut self,
        t: Cycle,
        msg: MemMsg,
        node: GpmId,
        req_gpm: GpmId,
        sys_home: GpmId,
        gpu_home: GpmId,
    ) {
        let Some(next) = self.next_node(node, req_gpm, sys_home, gpu_home) else {
            // Structurally unreachable; typed error instead of a panic.
            self.fatal = Some(
                SimError::protocol(format!(
                    "request at non-home gpm{} has no forwarding target (sys_home=gpm{})",
                    node.index(),
                    sys_home.index()
                ))
                .at_cycle(t.0)
                .with_agent(self.agent_name(msg.sm))
                .with_addr(msg.line.0 * self.cfg.geometry.line_bytes() as u64),
            );
            return;
        };
        let bytes = match msg.kind {
            AccessKind::Atomic => self.cfg.msg.atomic_req,
            _ => self.cfg.msg.load_req,
        };
        let arrive = self.fabric.send(t, node, next, bytes, MsgClass::Request);
        self.q.push(arrive, Ev::Req { msg, node: next });
    }

    /// The latest version committed at the system home for `line`.
    fn home_version(&self, line: LineAddr) -> u64 {
        self.committed.get(&line).copied().unwrap_or(0)
    }

    /// Inserts into a GPM's L2, handling the victim: dirty victims are
    /// written back toward their home (§IV-B's data-update message);
    /// clean victims optionally send a sharer downgrade.
    fn fill_l2(&mut self, t: Cycle, node: GpmId, line: LineAddr, meta: L2Line) {
        // Stale-fill filter: a response that was served before a newer
        // store's invalidation but delivered after it must not
        // (re)install the old data. Versions are monotone per line, so
        // refusing anything below the invalidation floor — or below a
        // version already resident — is exactly the transient-state
        // protection a real directory protocol provides.
        let block = self.cfg.geometry.block_of(line);
        let floor = self.gpms[node.index()]
            .inv_floor
            .get(&block)
            .copied()
            .unwrap_or(0);
        let resident = self.gpms[node.index()].l2.get(line).map(|m| m.version());
        if meta.version() < floor || resident.is_some_and(|v| v > meta.version()) {
            self.m.stale_fills_dropped += 1;
            return;
        }
        // A fill overwrites the whole line: any latent flip on the old
        // copy is gone — the data was effectively refetched.
        if !self.line_faults.is_empty() && self.line_faults.remove(&(node.0, line)).is_some() {
            self.m.integrity.refetched_lines += 1;
        }
        if let Some((victim_line, victim)) = self.gpms[node.index()].l2.insert(line, meta) {
            self.evicted_l2_line(t, node, victim_line, victim);
        }
    }

    /// Handles an L2 line leaving a cache (capacity eviction or bulk
    /// invalidation): flush it if dirty, else maybe downgrade.
    fn evicted_l2_line(&mut self, t: Cycle, node: GpmId, line: LineAddr, meta: L2Line) {
        if meta.dirty() {
            self.write_back(t, node, line, meta.version());
            return;
        }
        if !self.cfg.sharer_downgrades || !self.cfg.protocol.has_hw_directory() {
            return;
        }
        // Downgrade only once the evictor holds no other line of the
        // block — the directory entry covers the whole block, so sending
        // earlier would lose coverage of the remaining sibling lines.
        let block = self.cfg.geometry.block_of(line);
        let siblings_resident = self
            .cfg
            .geometry
            .lines_of_block(block)
            .any(|l| l != line && self.gpms[node.index()].l2.contains(l));
        if siblings_resident {
            return;
        }
        let sys_home = match self.pages.peek_home(self.cfg.geometry.page_of_line(line)) {
            Some(h) => h,
            None => return,
        };
        if sys_home == node {
            return;
        }
        // The directory tracking this GPM: its GPU home under HMG when
        // the system home is on another GPU, the system home otherwise.
        let topo = self.cfg.topo;
        let tracker = if self.cfg.protocol == ProtocolKind::Hmg
            && topo.gpu_of(sys_home) != topo.gpu_of(node)
        {
            self.pages.gpu_home(topo.gpu_of(node), block, sys_home)
        } else {
            sys_home
        };
        if tracker == node {
            return;
        }
        self.m.downgrades += 1;
        let arrive = self
            .fabric
            .send(t, node, tracker, self.cfg.msg.fence, MsgClass::Ctrl);
        self.q.push(
            arrive,
            Ev::Downgrade {
                block,
                target: tracker,
                evictor: node,
            },
        );
    }

    /// Flushes every dirty line of a GPM's L2 (release semantics under
    /// the write-back policy), marking them clean in place.
    fn flush_dirty(&mut self, t: Cycle, node: GpmId) {
        let mut dirty: Vec<(LineAddr, u64)> = Vec::new();
        for (line, meta) in self.gpms[node.index()].l2.iter() {
            if meta.dirty() {
                dirty.push((line, meta.version()));
            }
        }
        for &(line, version) in &dirty {
            if let Some(meta) = self.gpms[node.index()].l2.get_mut(line) {
                meta.mark_clean();
            }
            self.write_back(t, node, line, version);
        }
    }

    /// Sends `node`'s dirty copy of `line` toward its home as a
    /// write-through the node's release fences wait for.
    fn write_back(&mut self, t: Cycle, node: GpmId, line: LineAddr, version: u64) {
        self.m.writebacks += 1;
        let g = &mut self.gpms[node.index()];
        g.st_pending_gpu += 1;
        g.st_pending_sys += 1;
        let msg = StoreMsg {
            origin: node,
            line,
            version,
            gpu_ordered: false,
            duplicate: false,
        };
        self.q.push(t + Cycle(1), Ev::Store { msg, node });
    }

    /// Bulk-invalidates a GPM's L2 (software acquire), flushing dirty
    /// lines first so no write is lost. Returns lines dropped.
    fn wipe_l2(&mut self, t: Cycle, node: GpmId) -> u64 {
        if self.cfg.l2_write_policy == crate::config::WritePolicy::WriteBack {
            self.flush_dirty(t, node);
        }
        self.gpms[node.index()].l2.invalidate_all()
    }

    fn perform_atomic(
        &mut self,
        t: Cycle,
        msg: MemMsg,
        node: GpmId,
        sys_home: GpmId,
        gpu_home: GpmId,
    ) {
        let proto = self.cfg.protocol;
        let block = self.cfg.geometry.block_of(msg.line);
        let degraded = self.line_degraded(msg.line);
        // Directory: atomics are stores (Table I).
        let (line, kind, origin, version) = (msg.line, msg.kind, msg.sm.gpm, msg.version);
        self.dir_access(t, node, line, kind, origin, version, sys_home, gpu_home);
        // CARVE-like classifier treats atomics as stores too.
        if proto.has_broadcast_classifier() && !degraded && node == sys_home {
            self.carve_store(t, node, block, msg.sm.gpm, msg.version);
        }
        // Atomics are performed (and cached) at their scope home; a
        // degraded line is only ever cached at its system home.
        if !degraded || node == sys_home {
            self.fill_l2(t, node, msg.line, L2Line::clean(msg.version));
        }
        // Respond to the requester.
        self.send_response(t, msg, node, sys_home, gpu_home);
        // Continue the write-through towards the system home.
        let st = StoreMsg {
            origin: msg.sm.gpm,
            line: msg.line,
            version: msg.version,
            gpu_ordered: false,
            duplicate: false,
        };
        self.continue_store(t, st, node, sys_home, gpu_home);
    }

    fn send_response(
        &mut self,
        t: Cycle,
        msg: MemMsg,
        server: GpmId,
        sys_home: GpmId,
        gpu_home: GpmId,
    ) {
        let req_gpm = msg.sm.gpm;
        let proto = self.cfg.protocol;
        let bytes = match msg.kind {
            AccessKind::Atomic => self.cfg.msg.atomic_resp,
            _ => self.cfg.msg.load_resp,
        };
        if server == req_gpm {
            self.q.push(t + Cycle(1), Ev::Resp { msg });
            return;
        }
        // Hierarchical responses pass (and fill) the GPU home.
        if proto.hierarchical_routing()
            && server == sys_home
            && gpu_home != sys_home
            && gpu_home != req_gpm
            && msg.kind == AccessKind::Load
        {
            let arrive = self.fabric.send(t, server, gpu_home, bytes, MsgClass::Data);
            self.q.push(
                arrive,
                Ev::RespGpuHome {
                    msg,
                    node: gpu_home,
                },
            );
            return;
        }
        let arrive = self.fabric.send(t, server, req_gpm, bytes, MsgClass::Data);
        self.q.push(arrive, Ev::Resp { msg });
    }

    fn handle_resp_gpu_home(&mut self, now: Cycle, msg: MemMsg, node: GpmId) {
        if self.gpm_is_dead(node) {
            // The GPU home died with the response in flight: forward
            // straight to the requester (or abort with it).
            self.m.reconfig.drained_txns += 1;
            if self.gpm_is_dead(msg.sm.gpm) {
                self.loads_inflight -= 1;
                self.maybe_kernel_end(now);
            } else {
                self.q.push(now + Cycle(1), Ev::Resp { msg });
            }
            return;
        }
        // Fill the GPU home L2 on the response path (Fig. 6(b)).
        let req_gpm = msg.sm.gpm;
        let req_gpu = self.cfg.topo.gpu_of(req_gpm);
        let sys_home = self.sys_home(msg.line, req_gpm);
        let same_gpu = self.cfg.topo.gpu_of(sys_home) == req_gpu;
        let fill = if self.line_degraded(msg.line) {
            ProtocolKind::degraded_may_fill(CacheLevel::GpuHomeL2, same_gpu)
        } else {
            self.cfg.protocol.may_fill(CacheLevel::GpuHomeL2, same_gpu)
        };
        if fill && !msg.poisoned {
            self.fill_l2(now, node, msg.line, L2Line::clean(msg.version));
        }
        let arrive = self
            .fabric
            .send(now, node, req_gpm, self.cfg.msg.load_resp, MsgClass::Data);
        self.q.push(arrive, Ev::Resp { msg });
        // Serve the other GPMs merged behind this fill at the GPU home.
        if msg.kind == AccessKind::Load {
            self.drain_mshr(now, node, msg.line, msg.version, msg.poisoned);
        }
    }

    fn handle_resp(&mut self, now: Cycle, msg: MemMsg) {
        self.complete_load(now, msg);
        if msg.kind == AccessKind::Load {
            self.drain_mshr(now, msg.sm.gpm, msg.line, msg.version, msg.poisoned);
        }
    }

    /// Fills requester-side caches and wakes the issuing SM.
    fn complete_load(&mut self, now: Cycle, msg: MemMsg) {
        if self.gpm_is_dead(msg.sm.gpm) {
            // The requesting SM died while its miss was in flight; the
            // in-flight slot drains without waking anyone.
            self.loads_inflight -= 1;
            self.maybe_kernel_end(now);
            return;
        }
        if msg.poisoned {
            // The served data was uncorrectably corrupt: no caches fill,
            // no latency is credited — the consuming CTA aborts instead
            // of running on poison.
            self.watchdog.note_progress(now.0);
            let idx = self.sm_index(msg.sm);
            self.sms[idx].outstanding -= 1;
            self.loads_inflight -= 1;
            self.abort_poisoned_cta(now, msg.sm);
            return;
        }
        let req_gpm = msg.sm.gpm;
        let req_gpu = self.cfg.topo.gpu_of(req_gpm);
        let sys_home = self.sys_home(msg.line, req_gpm);
        let same_gpu = self.cfg.topo.gpu_of(sys_home) == req_gpu;
        let proto = self.cfg.protocol;
        let degraded = self.line_degraded(msg.line);
        // Fill requester-side caches with the version served.
        if msg.kind == AccessKind::Load {
            let fill_l2 = if degraded {
                ProtocolKind::degraded_may_fill(CacheLevel::LocalL2NonHome, same_gpu)
            } else {
                proto.may_fill(CacheLevel::LocalL2NonHome, same_gpu)
            };
            if req_gpm != sys_home && fill_l2 {
                self.fill_l2(now, req_gpm, msg.line, L2Line::clean(msg.version));
            }
            let fill_l1 = if degraded {
                ProtocolKind::degraded_may_fill(CacheLevel::L1, same_gpu)
            } else {
                proto.may_fill(CacheLevel::L1, same_gpu)
            };
            if fill_l1 {
                let idx = self.sm_index(msg.sm);
                self.sms[idx].l1.insert(msg.line, L1Line::new(msg.version));
            }
        }
        self.record_probe(msg.sm, msg.line, msg.version);
        self.watchdog.note_progress(now.0);
        let lat = now.saturating_sub(msg.issued_at).as_u64();
        self.m.miss_latency_sum += lat;
        self.m.miss_count += 1;
        let bucket =
            (64 - lat.max(1).leading_zeros() as usize - 1).min(self.m.miss_latency_hist.len() - 1);
        self.m.miss_latency_hist[bucket] += 1;
        // Wake the SM.
        let idx = self.sm_index(msg.sm);
        self.sms[idx].outstanding -= 1;
        self.loads_inflight -= 1;
        if self.sms[idx].state == SmState::StalledMem {
            self.sms[idx].state = SmState::Runnable;
            self.q.push(now, Ev::SmResume(msg.sm));
        }
        self.maybe_kernel_end(now);
    }

    // ---------- store path ----------

    fn handle_store(&mut self, now: Cycle, msg: StoreMsg, node: GpmId) {
        if self.gpm_is_dead(node) {
            // The write-through was heading to a node that died. Hand
            // it straight to the (re-homed, alive) system home so no
            // committed data is lost.
            self.m.reconfig.drained_txns += 1;
            #[expect(
                clippy::expect_used,
                reason = "infallible: epoch reconfiguration refuses plans that kill every GPM, \
                          so at least one survivor always exists"
            )]
            let toucher = if self.gpm_is_dead(msg.origin) {
                self.cfg
                    .topo
                    .all_gpms()
                    .find(|g| !self.gpm_is_dead(*g))
                    .expect("reconfiguration keeps at least one survivor")
            } else {
                msg.origin
            };
            let sys_home = self.sys_home(msg.line, toucher);
            self.q.push(
                now + Cycle(1),
                Ev::Store {
                    msg,
                    node: sys_home,
                },
            );
            return;
        }
        let req_gpm = msg.origin;
        let req_gpu = self.cfg.topo.gpu_of(req_gpm);
        let sys_home = self.sys_home(msg.line, req_gpm);
        let gpu_home = self.gpu_home(req_gpu, msg.line, sys_home);
        let block = self.cfg.geometry.block_of(msg.line);
        let proto = self.cfg.protocol;
        let degraded = self.line_degraded(msg.line);

        // §IV-B "Remote Stores": stores that arrive at a home L2 are
        // *cached* (write-allocate) and written through; elsewhere they
        // only update an existing copy. A degraded line is only cached
        // at its system home.
        let is_home =
            node == sys_home || (proto.hierarchical_routing() && node == gpu_home && !degraded);
        let t = if is_home {
            now + self.cfg.l2_latency
        } else {
            now + self.cfg.l2_tag_latency
        };
        if is_home {
            self.fill_l2(t, node, msg.line, L2Line::clean(msg.version));
        } else if let Some(meta) = self.gpms[node.index()].l2.get_mut(msg.line) {
            // Version-max: a delayed or duplicated older write-through
            // must not roll a copy back.
            if msg.version >= meta.version() {
                meta.set_version(msg.version);
                // An in-flight write-through supersedes local dirtiness.
                if msg.origin == node {
                    meta.mark_clean();
                }
            }
        }

        // Directory transitions at home nodes.
        let (line, kind, version) = (msg.line, AccessKind::Store, msg.version);
        self.dir_access(t, node, line, kind, req_gpm, version, sys_home, gpu_home);

        // CARVE-like classifier: a store to data any other GPM has
        // touched makes the block read-write shared and broadcasts
        // invalidations to every cache — no sharer list exists.
        if proto.has_broadcast_classifier() && !degraded && node == sys_home {
            self.carve_store(t, node, block, req_gpm, msg.version);
        }

        self.continue_store(t, msg, node, sys_home, gpu_home);
    }

    /// CARVE-like store handling at the system home: classify, and
    /// broadcast invalidations for shared blocks.
    fn carve_store(
        &mut self,
        t: Cycle,
        node: GpmId,
        block: BlockAddr,
        writer: GpmId,
        version: u64,
    ) {
        let class = self.gpms[node.index()]
            .carve
            .or_insert(block, CarveClass::Private(writer));
        let shared = match *class {
            CarveClass::Private(owner) if owner == writer => false,
            CarveClass::Private(_) | CarveClass::ReadOnly | CarveClass::ReadWrite => {
                *class = CarveClass::ReadWrite;
                true
            }
        };
        if !shared {
            return;
        }
        let targets: Vec<Sharer> = self
            .cfg
            .topo
            .all_gpms()
            .filter(|&g| g != node && g != writer)
            .map(Sharer::Gpm)
            .collect();
        self.m.stores_triggering_invs += 1;
        self.send_invs(t, node, block, &targets, InvCause::Store, writer, version);
    }

    /// Routes a store onward from `node`, maintaining the pending
    /// counters.
    fn continue_store(
        &mut self,
        t: Cycle,
        mut msg: StoreMsg,
        node: GpmId,
        sys_home: GpmId,
        gpu_home: GpmId,
    ) {
        let proto = self.cfg.protocol;
        // GPU-level ordering point: the GPU home under hierarchical
        // routing, the system home otherwise.
        let gpu_order_point = if proto.hierarchical_routing() {
            gpu_home
        } else {
            sys_home
        };
        if !msg.gpu_ordered && node == gpu_order_point {
            msg.gpu_ordered = true;
            // Duplicates re-apply idempotent state only; the original
            // delivery owns every counter decrement. A dead origin's
            // counters were voided at reconfiguration — never touched
            // again.
            if !msg.duplicate {
                if !self.gpm_is_dead(msg.origin) {
                    let g = &mut self.gpms[msg.origin.index()];
                    g.st_pending_gpu -= 1;
                }
                self.check_fences(t);
            }
        }
        if node == sys_home {
            // Commit: update the authoritative home version, write DRAM.
            // The version-max rule makes duplicate commits no-ops.
            let cur = self.committed.or_insert(msg.line, 0);
            if msg.version > *cur {
                *cur = msg.version;
            }
            let bytes = self.cfg.geometry.line_bytes();
            self.gpms[node.index()].dram.write(t, bytes);
            if !msg.duplicate {
                if !self.gpm_is_dead(msg.origin) {
                    if !msg.gpu_ordered {
                        msg.gpu_ordered = true;
                        self.gpms[msg.origin.index()].st_pending_gpu -= 1;
                    }
                    self.gpms[msg.origin.index()].st_pending_sys -= 1;
                }
                self.check_fences(t);
                self.watchdog.note_progress(t.0);
            }
            return;
        }
        let Some(next) = self.next_node(node, msg.origin, sys_home, gpu_home) else {
            // Structurally unreachable (non-home nodes always have a
            // next hop); surface as a typed protocol violation rather
            // than panicking mid-handler.
            self.fatal = Some(
                SimError::protocol(format!(
                    "store at non-home gpm{} has no forwarding target (sys_home=gpm{})",
                    node.index(),
                    sys_home.index()
                ))
                .at_cycle(t.0)
                .with_addr(msg.line.0 * self.cfg.geometry.line_bytes() as u64),
            );
            return;
        };
        // Fault: silently lose the nth store message. The origin's
        // st_pending counters never drain, so the next release fence
        // hangs and the run ends in a *detected* structural deadlock.
        if !msg.duplicate {
            self.store_seq += 1;
            if self.cfg.faults.drop_store == Some(self.store_seq) {
                return;
            }
        }
        // Counters are decremented at delivery, so fences wait out a
        // fault-injected delay (tolerated).
        let arrive = self
            .fabric
            .send(t, node, next, self.cfg.msg.store, MsgClass::StoreData)
            + self.draw_delay();
        // Fault: duplicated delivery, flagged so the copy skips
        // counter bookkeeping (tolerated: state updates are idempotent).
        if let Some(dup) = self.cfg.faults.duplicate {
            if !msg.duplicate && self.rng.gen_bool(dup.prob) {
                let copy = StoreMsg {
                    duplicate: true,
                    ..msg
                };
                self.q.push(
                    arrive + Cycle(1),
                    Ev::Store {
                        msg: copy,
                        node: next,
                    },
                );
            }
        }
        self.q.push(arrive, Ev::Store { msg, node: next });
    }

    /// Fault: the random extra delivery delay of the `delay` clause,
    /// drawn from the message-fault stream (zero when unarmed).
    fn draw_delay(&mut self) -> Cycle {
        match self.cfg.faults.delay {
            Some(d) if self.rng.gen_bool(d.prob) => Cycle(d.extra),
            _ => Cycle::ZERO,
        }
    }

    // ---------- invalidations ----------

    #[allow(clippy::too_many_arguments)] // a directory transition, not a config
    fn send_invs(
        &mut self,
        t: Cycle,
        node: GpmId,
        block: BlockAddr,
        targets: &[Sharer],
        cause: InvCause,
        causer: GpmId,
        version: u64,
    ) {
        let topo = self.cfg.topo;
        for &s in targets {
            let (target, from_sys) = match s {
                Sharer::Gpm(g) => (g, false),
                Sharer::Gpu(g) => {
                    // Invalidate via that GPU's home node, which forwards.
                    let gh = self.pages.gpu_home(g, block, node);
                    (gh, true)
                }
            };
            if target == node || self.gpm_is_dead(target) {
                continue;
            }
            // A dead causer's pending counters were voided; its
            // still-in-flight stores send uncounted invalidations.
            let mut counted = cause == InvCause::Store && !self.gpm_is_dead(causer);
            let mut reorder_extra = Cycle::ZERO;
            if counted {
                self.inv_seq += 1;
                // Fault: FIFO violation. The nth store-caused
                // invalidation is delivered late *without* holding its
                // pending counter, so the causer's release fence
                // completes before the stale copy is removed — the
                // exact reordering HMG's FIFO-link assumption forbids.
                // The version oracle (probe) must detect the stale
                // read; the run must never hang.
                if let Some(r) = self.cfg.faults.reorder_inv {
                    if self.inv_seq == r.nth {
                        counted = false;
                        reorder_extra = Cycle(r.extra);
                    }
                }
            }
            if counted {
                let same_gpu = topo.gpu_of(target) == topo.gpu_of(causer);
                let gc = &mut self.gpms[causer.index()];
                gc.inv_pending_sys += 1;
                if same_gpu {
                    gc.inv_pending_gpu += 1;
                }
            }
            match cause {
                InvCause::Store => self.m.invs_from_stores += 1,
                InvCause::Eviction => self.m.invs_from_evictions += 1,
            }
            // Counted invalidations keep their counter until delivery,
            // so fences wait out a fault-injected delay (tolerated).
            let arrive = self
                .fabric
                .send(t, node, target, self.cfg.msg.inv, MsgClass::Inv)
                + reorder_extra
                + self.draw_delay();
            let inv = InvMsg {
                block,
                cause,
                causer,
                counted,
                from_sys,
                target,
                version,
            };
            // Fault: duplicated delivery — the copy is uncounted and
            // re-invalidation is a no-op (tolerated).
            if let Some(dup) = self.cfg.faults.duplicate {
                if self.rng.gen_bool(dup.prob) {
                    self.q.push(
                        arrive + Cycle(1),
                        Ev::Inv(InvMsg {
                            counted: false,
                            ..inv
                        }),
                    );
                }
            }
            self.q.push(arrive, Ev::Inv(inv));
        }
    }

    fn handle_inv(&mut self, now: Cycle, inv: InvMsg) {
        if self.gpm_is_dead(inv.target) {
            // The target died with the invalidation in flight: nothing
            // to invalidate, but a counted message must still release
            // its (surviving) causer's pending counters or the
            // causer's release fence wedges.
            self.retire_inv(now, &inv);
            return;
        }
        // Raise the fill floor first: any fill still in flight that was
        // served before the store this invalidation announces must not
        // land after it (see `fill_l2`).
        if inv.version > 0 {
            let floor = self.gpms[inv.target.index()]
                .inv_floor
                .or_insert(inv.block, 0);
            *floor = (*floor).max(inv.version);
        }
        // Drop the L2 copies of every line in the block; racy dirty
        // copies are flushed rather than lost.
        let mut removed = 0u64;
        for line in self.cfg.geometry.lines_of_block(inv.block) {
            if let Some(meta) = self.gpms[inv.target.index()].l2.invalidate(line) {
                removed += 1;
                if meta.dirty() {
                    self.evicted_l2_line(now, inv.target, line, meta);
                }
            }
        }
        match inv.cause {
            InvCause::Store => self.m.lines_invalidated_by_stores += removed,
            InvCause::Eviction => self.m.lines_invalidated_by_evictions += removed,
        }
        if inv.from_sys {
            self.forward_inv(now, &inv);
        }
        self.retire_inv(now, &inv);
    }

    /// Releases a delivered invalidation's hold on its causer's pending
    /// counters, if it was counted and the causer is alive, and lets
    /// any fence waiting on them complete.
    fn retire_inv(&mut self, now: Cycle, inv: &InvMsg) {
        if inv.counted && !self.gpm_is_dead(inv.causer) {
            let topo = self.cfg.topo;
            let same_gpu = topo.gpu_of(inv.target) == topo.gpu_of(inv.causer);
            let gc = &mut self.gpms[inv.causer.index()];
            gc.inv_pending_sys -= 1;
            if same_gpu {
                gc.inv_pending_gpu -= 1;
            }
            self.check_fences(now);
        }
    }

    // ---------- fences ----------

    fn start_fence(&mut self, t: Cycle, gpm: GpmId, scope: Scope, sm: Option<SmRef>) {
        self.m.fences += 1;
        if self.cfg.zero_cost_fences {
            // Fence-cost ablation: complete immediately, without traffic
            // or drain waiting.
            match sm {
                Some(r) => {
                    let idx = self.sm_index(r);
                    self.sms[idx].state = SmState::Runnable;
                    self.q.push(t, Ev::SmResume(r));
                }
                None => {
                    self.kernel_fences_left -= 1;
                    if self.kernel_fences_left == 0 {
                        self.advance_kernel(t);
                    }
                }
            }
            return;
        }
        let domain = self.cfg.protocol.release_domain(scope);
        // Dead modules neither hold copies nor ack: fence around them.
        let dead = self.dead_gpms;
        let alive_peer = |g: &GpmId| *g != gpm && dead & (1u64 << g.index()) == 0;
        let targets: Vec<GpmId> = match domain {
            FenceDomain::None => Vec::new(),
            FenceDomain::LocalGpu => self
                .cfg
                .topo
                .gpms_of(self.cfg.topo.gpu_of(gpm))
                .filter(alive_peer)
                .collect(),
            FenceDomain::AllGpms => self.cfg.topo.all_gpms().filter(alive_peer).collect(),
        };
        let id = self.fences.len();
        self.fences.push(Fence {
            gpm,
            scope,
            sm,
            acks_done: targets.is_empty(),
            completed: false,
        });
        self.active_fences.push(id);
        if targets.is_empty() {
            self.q.push(t, Ev::FenceAcks(id));
            return;
        }
        // Fence messages ride the same FIFO links as the stores they
        // order; acks return on the reverse path.
        let mut last_ack = t;
        for target in targets {
            let there = self
                .fabric
                .send(t, gpm, target, self.cfg.msg.fence, MsgClass::Ctrl);
            let processed = there + self.cfg.l2_latency;
            let back = self
                .fabric
                .send(processed, target, gpm, self.cfg.msg.fence, MsgClass::Ctrl);
            last_ack = last_ack.max(back);
        }
        self.q.push(last_ack, Ev::FenceAcks(id));
    }

    fn handle_fence_acks(&mut self, now: Cycle, id: usize) {
        self.fences[id].acks_done = true;
        self.check_fences(now);
    }

    #[cfg(debug_assertions)]
    fn assert_drained(&self) {
        for (i, g) in self.gpms.iter().enumerate() {
            assert_eq!(g.st_pending_gpu, 0, "GPM{i} st_pending_gpu leaked");
            assert_eq!(g.st_pending_sys, 0, "GPM{i} st_pending_sys leaked");
            assert_eq!(g.inv_pending_gpu, 0, "GPM{i} inv_pending_gpu leaked");
            assert_eq!(g.inv_pending_sys, 0, "GPM{i} inv_pending_sys leaked");
        }
    }

    fn check_fences(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.active_fences.len() {
            let id = self.active_fences[i];
            if !self.fences[id].acks_done {
                i += 1;
                continue;
            }
            let gpm = self.fences[id].gpm;
            let scope = self.fences[id].scope;
            let drained = {
                let g = &self.gpms[gpm.index()];
                let hier = self.cfg.protocol.hierarchical_routing();
                match (scope, hier) {
                    (Scope::Gpu, true) => g.st_pending_gpu == 0 && g.inv_pending_gpu == 0,
                    _ => g.st_pending_sys == 0 && g.inv_pending_sys == 0,
                }
            };
            if !drained {
                i += 1;
                continue;
            }
            self.fences[id].completed = true;
            self.active_fences.swap_remove(i);
            match self.fences[id].sm {
                Some(r) => {
                    let idx = self.sm_index(r);
                    if self.sms[idx].state == SmState::FenceWait {
                        self.sms[idx].state = SmState::Runnable;
                        self.q.push(now, Ev::SmResume(r));
                    }
                }
                None => {
                    self.kernel_fences_left -= 1;
                    if self.kernel_fences_left == 0 {
                        self.advance_kernel(now);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmg_mem::Addr;
    use hmg_protocol::{Access, Cta, Kernel, WorkloadTrace};
    use hmg_sim::{SnapError, Snapshot, SnapshotRead, SnapshotStore, SnapshotWrite};

    /// Builds a kernel with one CTA per GPM of the small_test topology
    /// (2 GPUs x 2 GPMs = 4 GPMs), so CTA `i` lands on GPM `i` under
    /// contiguous scheduling.
    fn kernel_per_gpm(mut ops: Vec<Vec<TraceOp>>) -> Kernel {
        ops.resize(4, Vec::new());
        Kernel::new(ops.into_iter().map(Cta::new).collect())
    }

    fn ld(addr: u64) -> TraceOp {
        TraceOp::Access(Access::load(Addr(addr)))
    }

    fn st(addr: u64) -> TraceOp {
        TraceOp::Access(Access::store(Addr(addr)))
    }

    fn run(protocol: ProtocolKind, trace: &WorkloadTrace) -> RunMetrics {
        Engine::new(EngineConfig::small_test(protocol)).run(trace)
    }

    fn run_probed(protocol: ProtocolKind, trace: &WorkloadTrace, line: u64) -> RunMetrics {
        let mut cfg = EngineConfig::small_test(protocol);
        cfg.probe_line = Some(line);
        Engine::new(cfg).run(trace)
    }

    #[test]
    fn event_payloads_stay_small() {
        // Payloads move by value through the inlined event queue (slab
        // to handler in registers); growing `Ev` past 40 bytes brings
        // back the stack-copy cost the inlining removed (DESIGN.md §13).
        let (ev, msg) = (std::mem::size_of::<Ev>(), std::mem::size_of::<MemMsg>());
        assert!(ev <= 40, "Ev is {ev} bytes");
        assert!(msg <= 32, "MemMsg is {msg} bytes");
    }

    #[test]
    fn cache_slots_stay_twelve_bytes() {
        // 917,504 L1 and L2 slots on the Table II machine: a 4-byte tag,
        // tick and meta each. A wider lane costs megabytes per cell
        // (DESIGN.md §13), so widening one must fail here first.
        assert_eq!(std::mem::size_of::<L1Line>(), 4);
        assert_eq!(std::mem::size_of::<L2Line>(), 4);
        let shape = hmg_mem::CacheConfig::new(1024, 8);
        assert_eq!(Cache::<L1Line>::new(shape).lane_bytes(), 12 * 1024);
        assert_eq!(Cache::<L2Line>::new(shape).lane_bytes(), 12 * 1024);
    }

    #[test]
    fn zero_cost_fences_advance_each_kernel_boundary_once() {
        // Every live GPM fences at a kernel boundary; with the ablation
        // each fence completes inside `start_fence`, and the kernel must
        // still advance once per boundary, not once per GPM.
        let k = |base: u64| {
            kernel_per_gpm((0..4).map(|g| vec![st(base + g * 128), ld(base)]).collect())
        };
        let trace = WorkloadTrace::new("three", vec![k(0), k(4096), k(8192)]);
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.zero_cost_fences = true;
        let free = Engine::new(cfg).run(&trace);
        let fenced = run(ProtocolKind::Hmg, &trace);
        assert_eq!(free.kernel_end_cycles.len(), trace.num_kernels());
        assert_eq!(fenced.kernel_end_cycles.len(), trace.num_kernels());
        assert_eq!((free.loads, free.stores), (fenced.loads, fenced.stores));
    }

    #[test]
    fn empty_trace_completes_instantly() {
        let m = run(ProtocolKind::Hmg, &WorkloadTrace::new("empty", vec![]));
        assert_eq!(m.total_cycles, Cycle::ZERO);
        assert_eq!(m.loads, 0);
    }

    #[test]
    fn repeated_load_hits_l1() {
        // The delay lets the first fill land before the reloads issue.
        let trace = WorkloadTrace::new(
            "t",
            vec![kernel_per_gpm(vec![vec![
                ld(0),
                TraceOp::Delay(100_000),
                ld(0),
                ld(0),
            ]])],
        );
        let m = run(ProtocolKind::Hmg, &trace);
        assert_eq!(m.loads, 3);
        assert_eq!(m.l1_hits, 2);
        assert_eq!(m.dram_accesses, 1);
    }

    #[test]
    fn overlapping_misses_exploit_memory_level_parallelism() {
        // Without a delay, back-to-back loads of one line all miss and
        // overlap — the engine models MLP rather than serializing.
        let trace = WorkloadTrace::new("t", vec![kernel_per_gpm(vec![vec![ld(0), ld(0), ld(0)]])]);
        let m = run(ProtocolKind::Hmg, &trace);
        assert_eq!(m.loads, 3);
        assert_eq!(m.l1_hits, 0, "fills cannot land before the next issue");
    }

    #[test]
    fn first_touch_homes_line_at_toucher() {
        // GPM0 touches line 0 first (kernel 0); GPM3's load in kernel 1
        // must therefore cross the inter-GPU network.
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]),
                kernel_per_gpm(vec![vec![], vec![], vec![], vec![ld(0)]]),
            ],
        );
        let m = run(ProtocolKind::Hmg, &trace);
        assert!(
            m.fabric.inter_bytes(hmg_interconnect::MsgClass::Request) > 0,
            "GPM3's load must cross GPUs"
        );
    }

    #[test]
    fn baseline_never_caches_remote_gpu_lines() {
        // Line homed at GPM0 (GPU0); GPM2 (GPU1) loads it twice in one
        // kernel. Without peer caching both loads travel to the home.
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]),
                kernel_per_gpm(vec![
                    vec![],
                    vec![],
                    vec![ld(0), TraceOp::Delay(100_000), ld(0)],
                    vec![],
                ]),
            ],
        );
        let m = run(ProtocolKind::NoPeerCaching, &trace);
        // The second remote load cannot hit L1 or the local L2.
        assert_eq!(m.l1_hits, 0);
        assert_eq!(m.local_l2_hits, 0);
        assert!(m.sys_home_hits >= 1, "second load serves at the home");

        let m2 = run(ProtocolKind::Hmg, &trace);
        assert!(m2.l1_hits >= 1, "HMG caches the remote line locally");
    }

    #[test]
    fn hmg_store_invalidates_remote_sharer() {
        // Kernel 0: GPM0 homes line 0. Kernel 1: GPM2 (GPU1) caches it.
        // Kernel 2: GPM0 stores -> the GPU1 copy must be invalidated.
        // Kernel 3: GPM2 reloads and must observe version 2.
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]), // version 1, homes at GPM0
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0), ld(0)], vec![]]),
                kernel_per_gpm(vec![vec![st(0)]]), // version 2
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
            ],
        );
        let m = run_probed(ProtocolKind::Hmg, &trace, 0);
        assert!(m.invs_from_stores >= 1, "store must invalidate the sharer");
        assert!(m.lines_invalidated_by_stores >= 1);
        let last = m.probe.last().expect("final load observed");
        assert_eq!(last.1, 2, "consumer must see the second store");
    }

    #[test]
    fn nhcc_store_invalidates_remote_sharer_too() {
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], vec![ld(0), ld(0)], vec![], vec![]]),
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], vec![ld(0)], vec![], vec![]]),
            ],
        );
        let m = run_probed(ProtocolKind::Nhcc, &trace, 0);
        assert!(m.invs_from_stores >= 1);
        assert_eq!(m.probe.last().unwrap().1, 2);
    }

    #[test]
    fn software_coherence_sees_fresh_data_after_kernel_boundary() {
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
            ],
        );
        for p in [
            ProtocolKind::SwNonHier,
            ProtocolKind::SwHier,
            ProtocolKind::NoPeerCaching,
        ] {
            let m = run_probed(p, &trace, 0);
            assert_eq!(
                m.probe.last().unwrap().1,
                2,
                "{p} must see the second store after the kernel boundary"
            );
            assert_eq!(m.invs_from_stores, 0, "{p} sends no hardware invs");
        }
    }

    #[test]
    fn sw_protocols_bulk_invalidate_at_kernel_start() {
        // Two kernels, same GPM reloading its own remote-homed line: SW
        // coherence refetches after the boundary, HW does not.
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]), // homes at GPM0
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
            ],
        );
        let sw = run(ProtocolKind::SwNonHier, &trace);
        assert!(sw.lines_bulk_invalidated > 0);
        // HMG keeps the line across the boundary: the kernel-2 load is
        // served inside GPU1 (local L2 or GPU home) instead of crossing
        // back to GPU0.
        let hw = run(ProtocolKind::Hmg, &trace);
        assert!(
            hw.l1_hits + hw.local_l2_hits + hw.gpu_home_hits >= 1,
            "HMG retains remote lines across kernel boundaries"
        );
    }

    #[test]
    fn gpu_home_serves_second_module_of_same_gpu() {
        // Line homed on GPU0. Both GPMs of GPU1 load it; under HMG the
        // second GPM's request should be served inside GPU1.
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]),
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![ld(0)]]),
            ],
        );
        let m = run(ProtocolKind::Hmg, &trace);
        let flat = run(ProtocolKind::Nhcc, &trace);
        assert!(
            m.fabric.inter_bytes(hmg_interconnect::MsgClass::Request)
                <= flat.fabric.inter_bytes(hmg_interconnect::MsgClass::Request),
            "hierarchical routing must not increase inter-GPU requests"
        );
    }

    #[test]
    fn flags_synchronize_producer_and_consumer() {
        // GPM0 stores then releases and sets a flag; GPM2 waits, acquires
        // and loads: it must observe the store.
        let producer = vec![st(0), TraceOp::Release(Scope::Sys), TraceOp::SetFlag(7)];
        let consumer = vec![
            TraceOp::WaitFlag { flag: 7, count: 1 },
            TraceOp::Acquire(Scope::Sys),
            ld(0),
        ];
        let trace = WorkloadTrace::new(
            "mp",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]), // home line at GPM0
                kernel_per_gpm(vec![producer, vec![], consumer, vec![]]),
            ],
        );
        for p in [
            ProtocolKind::Hmg,
            ProtocolKind::Nhcc,
            ProtocolKind::SwNonHier,
            ProtocolKind::SwHier,
            ProtocolKind::NoPeerCaching,
        ] {
            let m = run_probed(p, &trace, 0);
            let last = m.probe.last().expect("consumer load observed");
            assert_eq!(last.1, 1, "{p}: message passing must be visible");
            assert!(m.fences >= 1);
        }
    }

    #[test]
    fn gpu_scoped_sync_within_one_gpu() {
        // Producer GPM0 and consumer GPM1 are on the same GPU; .gpu-scoped
        // release/acquire must be sufficient.
        let producer = vec![st(0), TraceOp::Release(Scope::Gpu), TraceOp::SetFlag(1)];
        let consumer = vec![
            TraceOp::WaitFlag { flag: 1, count: 1 },
            TraceOp::Acquire(Scope::Gpu),
            TraceOp::Access(Access::new(Addr(0), AccessKind::Load, Scope::Gpu)),
        ];
        let trace = WorkloadTrace::new(
            "mp-gpu",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]),
                kernel_per_gpm(vec![producer, consumer, vec![], vec![]]),
            ],
        );
        for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc, ProtocolKind::SwHier] {
            let m = run_probed(p, &trace, 0);
            assert_eq!(m.probe.last().unwrap().1, 1, "{p}");
        }
    }

    #[test]
    fn atomics_commit_and_respond() {
        let trace = WorkloadTrace::new(
            "atom",
            vec![kernel_per_gpm(vec![
                vec![TraceOp::Access(Access::atomic(Addr(0), Scope::Gpu))],
                vec![TraceOp::Access(Access::atomic(Addr(0), Scope::Sys))],
            ])],
        );
        for p in ProtocolKind::ALL {
            let m = run(p, &trace);
            assert_eq!(m.stores, 2, "{p}: atomics count as stores");
            assert_eq!(m.loads, 2, "{p}: atomics count as loads");
        }
    }

    #[test]
    fn ideal_is_fastest_or_equal_on_shared_reload() {
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![ld(0), ld(128), ld(256)]]),
                kernel_per_gpm(vec![
                    vec![ld(0), ld(128)],
                    vec![ld(0), ld(128)],
                    vec![ld(0), ld(128)],
                    vec![ld(0), ld(128)],
                ]),
                kernel_per_gpm(vec![
                    vec![ld(0), ld(128)],
                    vec![ld(0), ld(128)],
                    vec![ld(0), ld(128)],
                    vec![ld(0), ld(128)],
                ]),
            ],
        );
        let ideal = run(ProtocolKind::Ideal, &trace);
        for p in ProtocolKind::ALL {
            let m = run(p, &trace);
            // Ideal is an upper bound on *caching*; on tiny traces its
            // hierarchical routing can cost a percent or two against a
            // flat protocol, so allow a small tolerance.
            assert!(
                ideal.total_cycles.as_u64() as f64 <= m.total_cycles.as_u64() as f64 * 1.05,
                "{p}: ideal {} far exceeds {}",
                ideal.total_cycles,
                m.total_cycles
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![
                    vec![ld(0), st(128), ld(256), ld(0)],
                    vec![ld(0), ld(512)],
                    vec![st(0), ld(640)],
                    vec![ld(128)],
                ]),
                kernel_per_gpm(vec![
                    vec![ld(0)],
                    vec![ld(128)],
                    vec![ld(256)],
                    vec![ld(512)],
                ]),
            ],
        );
        let a = Engine::new(EngineConfig::small_test(ProtocolKind::Hmg)).run(&trace);
        let b = Engine::new(EngineConfig::small_test(ProtocolKind::Hmg)).run(&trace);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.fabric.inter_bytes(MsgClass::Data),
            b.fabric.inter_bytes(MsgClass::Data)
        );
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn unsatisfiable_wait_flag_panics() {
        let trace = WorkloadTrace::new(
            "dead",
            vec![kernel_per_gpm(vec![vec![TraceOp::WaitFlag {
                flag: 99,
                count: 1,
            }]])],
        );
        run(ProtocolKind::Hmg, &trace);
    }

    #[test]
    fn delay_advances_time() {
        let base = run(
            ProtocolKind::Hmg,
            &WorkloadTrace::new("a", vec![kernel_per_gpm(vec![vec![ld(0)]])]),
        );
        let delayed = run(
            ProtocolKind::Hmg,
            &WorkloadTrace::new(
                "b",
                vec![kernel_per_gpm(vec![vec![TraceOp::Delay(100_000), ld(0)]])],
            ),
        );
        assert!(delayed.total_cycles.as_u64() >= base.total_cycles.as_u64() + 100_000);
    }

    #[test]
    fn peer_redundancy_tracks_shared_remote_lines() {
        // GPMs 2 and 3 (GPU1) both load a GPU0-homed line.
        let mut cfg = EngineConfig::small_test(ProtocolKind::NoPeerCaching);
        cfg.track_peer_redundancy = true;
        let trace = WorkloadTrace::new(
            "t",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]),
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![ld(0)]]),
            ],
        );
        let m = Engine::new(cfg).run(&trace);
        assert_eq!(m.inter_gpu_loads, 2);
        assert!(
            m.inter_gpu_loads_peer_redundant >= 1,
            "the second GPM's load is redundant"
        );
        assert!(m.peer_redundancy().unwrap() >= 0.5);
    }

    #[test]
    fn writeback_coalesces_repeated_stores() {
        // 24 rewrites of a remote-homed line: write-through crosses the
        // fabric 24 times, write-back flushes once at the kernel boundary.
        let ops: Vec<TraceOp> = (0..24).map(|_| st(0)).collect();
        let trace = WorkloadTrace::new(
            "wb",
            vec![
                // Home line 0 at GPM2 first.
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
                kernel_per_gpm(vec![ops]),
            ],
        );
        let run_policy = |policy| {
            let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
            cfg.l2_write_policy = policy;
            Engine::new(cfg).run(&trace)
        };
        let wt = run_policy(crate::config::WritePolicy::WriteThrough);
        let wb = run_policy(crate::config::WritePolicy::WriteBack);
        assert_eq!(wt.writebacks, 0);
        assert!(wb.writebacks >= 1);
        let store_bytes = |m: &RunMetrics| m.fabric.total_bytes(MsgClass::StoreData);
        assert!(
            store_bytes(&wb) < store_bytes(&wt),
            "write-back must coalesce store traffic: wb={} wt={}",
            store_bytes(&wb),
            store_bytes(&wt)
        );
    }

    #[test]
    fn writeback_preserves_synchronized_visibility() {
        // The mp-with-flags litmus under the write-back policy: the
        // release flush must publish the dirty line before the flag.
        let producer = vec![st(0), TraceOp::Release(Scope::Sys), TraceOp::SetFlag(4)];
        let consumer = vec![
            TraceOp::WaitFlag { flag: 4, count: 1 },
            TraceOp::Acquire(Scope::Sys),
            ld(0),
        ];
        let trace = WorkloadTrace::new(
            "wb-mp",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]),
                kernel_per_gpm(vec![producer, vec![], consumer, vec![]]),
            ],
        );
        for p in [
            ProtocolKind::Hmg,
            ProtocolKind::Nhcc,
            ProtocolKind::SwHier,
            ProtocolKind::SwNonHier,
        ] {
            let mut cfg = EngineConfig::small_test(p);
            cfg.l2_write_policy = crate::config::WritePolicy::WriteBack;
            cfg.probe_line = Some(0);
            let m = Engine::new(cfg).run(&trace);
            assert_eq!(m.probe.last().unwrap().1, 1, "{p} under write-back");
        }
    }

    #[test]
    fn writeback_publishes_across_kernel_boundary() {
        let trace = WorkloadTrace::new(
            "wb-kernel",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
            ],
        );
        for p in [ProtocolKind::Hmg, ProtocolKind::SwNonHier] {
            let mut cfg = EngineConfig::small_test(p);
            cfg.l2_write_policy = crate::config::WritePolicy::WriteBack;
            cfg.probe_line = Some(0);
            let m = Engine::new(cfg).run(&trace);
            assert_eq!(m.probe.last().unwrap().1, 1, "{p}");
        }
    }

    #[test]
    fn downgrades_reduce_eviction_invalidations() {
        // Tiny L2 at the reader forces clean evictions of remote lines;
        // with downgrades on, the home stops tracking the evictor and
        // sends fewer spurious invalidations later.
        let homing: Vec<TraceOp> = (0..64u64).map(|i| ld(i * 512)).collect();
        let reading: Vec<TraceOp> = (0..64u64)
            .flat_map(|i| [ld(i * 512), TraceOp::Delay(500)])
            .collect();
        let writing: Vec<TraceOp> = (0..64u64).map(|i| st(i * 512)).collect();
        let trace = WorkloadTrace::new(
            "downgrade",
            vec![
                kernel_per_gpm(vec![homing]),
                kernel_per_gpm(vec![vec![], vec![], reading, vec![]]),
                kernel_per_gpm(vec![writing]),
            ],
        );
        let run_dg = |dg: bool| {
            let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
            cfg.l2 = hmg_mem::CacheConfig::new(16, 4); // tiny: forces evictions
            cfg.sharer_downgrades = dg;
            Engine::new(cfg).run(&trace)
        };
        let without = run_dg(false);
        let with = run_dg(true);
        assert_eq!(without.downgrades, 0);
        assert!(with.downgrades > 0, "clean evictions must downgrade");
        assert!(
            with.invs_from_stores <= without.invs_from_stores,
            "downgrades must not increase invalidations ({} vs {})",
            with.invs_from_stores,
            without.invs_from_stores
        );
    }

    #[test]
    fn scoped_loads_never_hit_below_their_home() {
        // All loads at .gpu scope: the local (non-home) L2 must never
        // serve them, even when it holds the line.
        let warm = vec![ld(0), TraceOp::Delay(50_000)];
        let scoped: Vec<TraceOp> = (0..4)
            .flat_map(|_| {
                [
                    TraceOp::Access(Access::new(Addr(0), AccessKind::Load, Scope::Gpu)),
                    TraceOp::Delay(1000),
                ]
            })
            .collect();
        let mut ops = warm;
        ops.extend(scoped);
        let trace = WorkloadTrace::new(
            "scoped",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]), // home at GPM0
                kernel_per_gpm(vec![vec![], ops, vec![], vec![]]),
            ],
        );
        for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc, ProtocolKind::SwHier] {
            let m = run(p, &trace);
            // The .gpu loads must all travel to a home; only the single
            // plain warm load may hit locally after its fill.
            assert!(
                m.l1_hits <= 1,
                "{p}: scoped loads leaked into the L1 ({} hits)",
                m.l1_hits
            );
        }
        // Ideal waives the rule: scoped loads may hit locally.
        let ideal = run(ProtocolKind::Ideal, &trace);
        assert!(ideal.l1_hits >= 2, "ideal hits: {}", ideal.l1_hits);
    }

    #[test]
    fn sys_scoped_loads_travel_to_the_system_home() {
        // A .sys load may only be served at the system home, even under
        // hierarchical routing with a warm GPU home.
        let warm = vec![ld(0), TraceOp::Delay(50_000)]; // fills gpu home
        let sys_load = vec![TraceOp::Access(Access::new(
            Addr(0),
            AccessKind::Load,
            Scope::Sys,
        ))];
        let mut ops = warm;
        ops.extend(sys_load);
        let trace = WorkloadTrace::new(
            "sys-scope",
            vec![
                kernel_per_gpm(vec![vec![ld(0)]]),
                kernel_per_gpm(vec![vec![], vec![], ops, vec![]]),
            ],
        );
        let m = run(ProtocolKind::Hmg, &trace);
        // At least one request reached the system home in kernel 1 (the
        // .sys load; the warm load may have been served at the GPU home).
        assert!(m.sys_home_hits + m.dram_accesses >= 2);
    }

    #[test]
    fn carve_broadcasts_on_read_write_sharing() {
        // GPM0 homes and writes a line that GPMs 1-3 have read: the
        // CARVE-like classifier must broadcast invalidations to every
        // cache, and a synchronized reader still sees the new value.
        let reader = vec![ld(0)];
        let trace = WorkloadTrace::new(
            "carve",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], reader.clone(), reader.clone(), reader]),
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], vec![], vec![ld(0)], vec![]]),
            ],
        );
        let m = run_probed(ProtocolKind::CarveLike, &trace, 0);
        // Broadcast: the second store reaches a ReadWrite block ->
        // invalidations to all GPMs but home and writer (= 3 on the
        // small_test machine, per store event).
        assert!(m.invs_from_stores >= 3, "got {}", m.invs_from_stores);
        assert_eq!(m.probe.last().unwrap().1, 2);
    }

    #[test]
    fn carve_private_blocks_stay_quiet() {
        // A GPM rewriting its own private data must not broadcast.
        let ops: Vec<TraceOp> = (0..8).map(|_| st(0)).collect();
        let trace = WorkloadTrace::new("carve-priv", vec![kernel_per_gpm(vec![ops])]);
        let m = run(ProtocolKind::CarveLike, &trace);
        assert_eq!(m.invs_from_stores, 0, "private writes must not broadcast");
    }

    #[test]
    fn carve_sends_more_invalidations_than_hmg_on_shared_writes() {
        // The paper's §II-A point: without sharer tracking, CARVE
        // broadcasts where HMG invalidates precisely.
        let reader = vec![ld(0)];
        let trace = WorkloadTrace::new(
            "carve-vs-hmg",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]),
                kernel_per_gpm(vec![vec![], reader.clone(), vec![], vec![]]),
                kernel_per_gpm(vec![vec![st(0)]]),
            ],
        );
        let carve = run(ProtocolKind::CarveLike, &trace);
        let hmg = run(ProtocolKind::Hmg, &trace);
        assert!(
            carve.invs_from_stores > hmg.invs_from_stores,
            "carve {} vs hmg {}",
            carve.invs_from_stores,
            hmg.invs_from_stores
        );
    }

    #[test]
    fn directory_eviction_sends_invalidations() {
        // A tiny directory (4 entries, 1 way) plus many distinct remote
        // blocks forces eviction invalidations.
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.dir = hmg_mem::DirectoryConfig::new(4, 1);
        let line_b = cfg.geometry.line_bytes() as u64;
        let block_b = line_b * cfg.geometry.lines_per_block() as u64;
        // Home everything at GPM0 in kernel 0, then have GPM2 read many
        // distinct blocks.
        let homing: Vec<TraceOp> = (0..64u64).map(|i| ld(i * block_b)).collect();
        let remote: Vec<TraceOp> = (0..64u64).map(|i| ld(i * block_b)).collect();
        let trace = WorkloadTrace::new(
            "evict",
            vec![
                kernel_per_gpm(vec![homing]),
                kernel_per_gpm(vec![vec![], vec![], remote, vec![]]),
            ],
        );
        let m = Engine::new(cfg).run(&trace);
        assert!(m.invs_from_evictions > 0, "directory must overflow");
        assert!(m.evictions_triggering_invs > 0);
    }

    #[test]
    fn nack_flow_control_rejects_and_recovers() {
        // Heavy bursts from every GPM onto GPM0-homed lines; with the
        // threshold at zero, any queued serialization at the home's
        // ingress port rejects the request.
        let line_b = 128u64;
        let homing: Vec<TraceOp> = (0..32u64).map(|i| ld(i * line_b)).collect();
        let burst: Vec<TraceOp> = (0..32u64).map(|i| ld(i * line_b)).collect();
        let trace = WorkloadTrace::new(
            "nack",
            vec![
                kernel_per_gpm(vec![homing]),
                kernel_per_gpm(vec![vec![], burst.clone(), burst.clone(), burst]),
            ],
        );
        let base = run(ProtocolKind::Hmg, &trace);
        assert_eq!(base.nacks, 0, "flow control is off by default");
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.home_nack_threshold = Some(0);
        let m = Engine::new(cfg).run(&trace);
        assert!(m.nacks > 0, "zero threshold must reject bursty requests");
        assert_eq!(m.loads, base.loads, "every rejected load still retires");
        assert_eq!(
            m.state_digest, base.state_digest,
            "NACK/retry must converge to the same memory state"
        );
    }

    #[test]
    fn phase_priority_arbitration_defers_without_nack_traffic() {
        // Same burst shape as `nack_flow_control_rejects_and_recovers`,
        // but with phase-priority arbitration the busy home holds and
        // replays requests instead of NACKing them: zero NACK messages,
        // same retired work, same final memory state.
        let line_b = 128u64;
        let homing: Vec<TraceOp> = (0..32u64).map(|i| ld(i * line_b)).collect();
        let burst: Vec<TraceOp> = (0..32u64).map(|i| ld(i * line_b)).collect();
        let trace = WorkloadTrace::new(
            "phase",
            vec![
                kernel_per_gpm(vec![homing]),
                kernel_per_gpm(vec![vec![], burst.clone(), burst.clone(), burst]),
            ],
        );
        let base = run(ProtocolKind::Hmg, &trace);
        assert_eq!(base.deferred_reqs, 0, "arbitration is idle by default");
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.home_nack_threshold = Some(0);
        cfg.arbitration = hmg_protocol::Arbitration::PhasePriority;
        let m = Engine::new(cfg).run(&trace);
        assert!(m.deferred_reqs > 0, "zero threshold must defer bursts");
        assert_eq!(m.nacks, 0, "phase-priority sends no NACK messages");
        assert_eq!(m.loads, base.loads, "every deferred load still retires");
        assert_eq!(
            m.state_digest, base.state_digest,
            "deferral must converge to the same memory state"
        );
    }

    #[test]
    fn sharer_overflow_degrades_to_broadcast_and_stays_coherent() {
        // Cap the directory at one precise sharer: the second reader of
        // a GPM0-homed line overflows the entry into broadcast mode.
        // The writer's invalidation round must then reach *every*
        // possible sharer, so synchronized readers still see the store.
        let trace = WorkloadTrace::new(
            "overflow",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]), // homes at GPM0, version 1
                kernel_per_gpm(vec![vec![], vec![ld(0)], vec![ld(0)], vec![ld(0)]]),
                kernel_per_gpm(vec![vec![st(0)]]), // version 2
                kernel_per_gpm(vec![vec![], vec![ld(0)], vec![ld(0)], vec![ld(0)]]),
            ],
        );
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.dir = cfg.dir.with_max_sharers(1);
        cfg.probe_line = Some(0);
        let m = Engine::new(cfg).run(&trace);
        assert!(
            m.dir_broadcast_fallbacks >= 1,
            "a one-sharer cap must overflow with three readers"
        );
        assert!(m.broadcast_invs >= 1, "degraded entries must broadcast");
        let final_reads: Vec<u64> = m.probe.iter().rev().take(3).map(|&(_, v)| v).collect();
        assert_eq!(
            final_reads,
            vec![2, 2, 2],
            "broadcast fallback must invalidate every stale copy"
        );

        // Uncapped control: same trace, precise tracking, no fallbacks.
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.probe_line = Some(0);
        let precise = Engine::new(cfg).run(&trace);
        assert_eq!(precise.dir_broadcast_fallbacks, 0);
        assert_eq!(precise.broadcast_invs, 0);
        assert_eq!(m.state_digest, precise.state_digest);
    }

    #[test]
    fn nack_attempt_cap_exhaustion_is_a_typed_error() {
        // Same burst shape as `nack_flow_control_rejects_and_recovers`,
        // but with a zero attempt cap the very first NACK must abort the
        // run with a Protocol error instead of retrying (or hanging).
        let line_b = 128u64;
        let homing: Vec<TraceOp> = (0..32u64).map(|i| ld(i * line_b)).collect();
        let burst: Vec<TraceOp> = (0..32u64).map(|i| ld(i * line_b)).collect();
        let trace = WorkloadTrace::new(
            "nack-cap",
            vec![
                kernel_per_gpm(vec![homing]),
                kernel_per_gpm(vec![vec![], burst.clone(), burst.clone(), burst]),
            ],
        );
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.home_nack_threshold = Some(0);
        cfg.nack_attempt_cap = Some(0);
        let err = Engine::try_new(cfg)
            .unwrap()
            .try_run(&trace)
            .expect_err("an exhausted attempt cap must surface, not hang");
        assert_eq!(err.kind, hmg_sim::SimErrorKind::Protocol, "{err}");
        assert!(err.message.contains("attempt cap"), "{err}");
        assert!(err.cycle.is_some(), "errors carry the failing cycle");
        assert!(err.agent.is_some(), "errors name the starved requester");

        // A generous cap never exhausts: the run recovers exactly like
        // the uncapped configuration.
        let base = run(ProtocolKind::Hmg, &trace);
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.home_nack_threshold = Some(0);
        cfg.nack_attempt_cap = Some(200);
        let m = Engine::new(cfg).run(&trace);
        assert!(m.nacks > 0);
        assert_eq!(m.loads, base.loads);
        assert_eq!(m.state_digest, base.state_digest);
    }

    #[test]
    fn broadcast_mode_stays_sticky_across_sharer_downgrades() {
        // A degraded (broadcast) directory entry must *stay* degraded
        // when a tracked sharer later leaves: precise removal on an
        // imprecise entry would silently re-narrow the target list.
        // GPM1's clean eviction of the line sends a sharer downgrade to
        // the home after the entry has already overflowed to broadcast;
        // the store that follows must still invalidate every possible
        // sharer, and every synchronized reader must see it.
        let line_b = 128u64;
        let evict_gpm1: Vec<TraceOp> = (1..3u64).map(|i| ld(4 * i * line_b)).collect();
        let trace = WorkloadTrace::new(
            "sticky-broadcast",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]), // homes at GPM0, version 1
                kernel_per_gpm(vec![vec![], vec![ld(0)], vec![ld(0)], vec![ld(0)]]),
                // GPM1 evicts its clean copy -> downgrade to the home.
                kernel_per_gpm(vec![vec![], evict_gpm1]),
                kernel_per_gpm(vec![vec![st(0)]]), // version 2, after shrink
                kernel_per_gpm(vec![vec![], vec![ld(0)], vec![ld(0)], vec![ld(0)]]),
            ],
        );
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.dir = cfg.dir.with_max_sharers(1);
        cfg.sharer_downgrades = true;
        // A 2-way, 4-set L2 so two colliding fills evict GPM1's copy.
        cfg.l2 = hmg_mem::CacheConfig::new(8, 2);
        cfg.probe_line = Some(0);
        let m = Engine::new(cfg).run(&trace);
        assert!(m.dir_broadcast_fallbacks >= 1, "entry must degrade first");
        assert!(m.downgrades >= 1, "the sharer list must shrink afterwards");
        assert!(
            m.broadcast_invs >= 1,
            "the post-shrink store must still use the broadcast list"
        );
        let final_reads: Vec<u64> = m.probe.iter().rev().take(3).map(|&(_, v)| v).collect();
        assert_eq!(
            final_reads,
            vec![2, 2, 2],
            "sticky broadcast must keep every reader coherent"
        );
    }

    #[test]
    fn gpm_offline_mid_kernel_aborts_ctas_and_completes() {
        // GPM3 (GPU1.GPM1) dies mid-kernel with the livelock watchdog
        // armed: its CTA is aborted, the epoch grace keeps the watchdog
        // quiet through the detection window, and the run completes.
        let far = 6u64 << 20; // fresh 2 MB page, first-touched by GPM3
        let trace = WorkloadTrace::new(
            "gpm-off",
            vec![
                // Kernel 0 homes `far` at GPM3 (sole first toucher);
                // kernel 1 has GPM2 cache a copy, so the dead module's
                // directory has something to rebuild.
                kernel_per_gpm(vec![vec![st(0)], vec![], vec![], vec![ld(far)]]),
                kernel_per_gpm(vec![
                    vec![TraceOp::Delay(40_000), st(0)],
                    vec![ld(0)],
                    vec![ld(far)],
                    vec![ld(far), TraceOp::Delay(40_000), ld(far)],
                ]),
            ],
        );
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.livelock_budget = Some(50_000);
        cfg.faults.gpm_offline = Some(hmg_sim::GpmOffline {
            gpu: 1,
            gpm: 1,
            at_cycle: 20_000,
        });
        let m = Engine::try_new(cfg)
            .unwrap()
            .try_run(&trace)
            .expect("the survivors must finish without tripping the watchdog");
        assert_eq!(m.reconfig.epochs, 1);
        assert!(m.reconfig.aborted_ctas >= 1, "GPM3's CTA dies mid-delay");
        assert!(m.reconfig.downtime_cycles > 0, "detection window charged");
        assert!(
            m.reconfig.rehomed_pages >= 1,
            "the page first-touched by GPM3 must re-home"
        );
        assert!(m.total_cycles.0 > 20_000, "the run outlives the fault");
    }

    #[test]
    fn gpu_offline_preserves_memory_homed_on_survivors() {
        // GPU1 dies mid-run. Everything it homed re-homes onto GPU0 in
        // degraded mode; because the dead GPU only ever *loaded*, the
        // final committed memory state must be byte-identical to the
        // fault-free run of the same trace.
        let far = 4u64 << 20; // page first-touched (homed) by GPM2 / GPU1
        let trace = WorkloadTrace::new(
            "gpu-off",
            vec![
                kernel_per_gpm(vec![
                    vec![st(0), st(128)],
                    vec![],
                    vec![ld(far), ld(far + 128)],
                    vec![ld(0)],
                ]),
                kernel_per_gpm(vec![
                    vec![TraceOp::Delay(60_000), st(0), st(far)],
                    vec![ld(0)],
                    vec![ld(far), TraceOp::Delay(60_000), ld(far)],
                    vec![ld(0), TraceOp::Delay(60_000), ld(0)],
                ]),
                // Started after the fault: CTAs redistribute over GPU0,
                // and the degraded page is still readable and writable.
                kernel_per_gpm(vec![
                    vec![st(far)],
                    vec![ld(far)],
                    vec![ld(0)],
                    vec![ld(far)],
                ]),
            ],
        );
        let fault_free = run(ProtocolKind::Hmg, &trace);
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.faults.gpu_offline = Some(hmg_sim::GpuOffline {
            gpu: 1,
            at_cycle: 30_000,
        });
        let m = Engine::new(cfg).run(&trace);
        assert_eq!(m.reconfig.epochs, 1);
        assert!(m.reconfig.rehomed_pages >= 1);
        assert!(m.reconfig.degraded_pages >= 1, "re-homed pages degrade");
        assert!(m.reconfig.rehomed_blocks >= 1, "GPM2 tracked `far` blocks");
        assert_eq!(
            m.state_digest, fault_free.state_digest,
            "a dead GPU that only loaded must not change committed memory"
        );
    }

    #[test]
    fn lines_past_the_cache_domain_are_refused_before_the_first_event() {
        let line_bytes = 128;
        let trace_at = |line: u64| {
            WorkloadTrace::new(
                "edge",
                vec![kernel_per_gpm(vec![
                    vec![ld(0)],
                    vec![ld(line * line_bytes)],
                ])],
            )
        };
        let engine = Engine::new(EngineConfig::small_test(ProtocolKind::Hmg));
        let last = hmg_mem::cache::LINE_LIMIT - 1;
        let m = engine.try_run(&trace_at(last)).expect("line 2^32 - 1 fits");
        assert_eq!(m.loads, 2);

        let wide = trace_at(last + 1);
        let err = engine.try_run(&wide).expect_err("line 2^32 is refused");
        assert_eq!(err.kind, hmg_sim::SimErrorKind::Trace, "{err}");
        assert!(err.message.contains("line 4294967296"), "{err}");
        assert_eq!(err.addr, Some((last + 1) * line_bytes));
        assert_eq!(err.cycle, None, "refused before any event ran");

        // The preemptible entry refuses it too, before it restores or
        // captures anything: a capture every cycle writes no slot.
        let base = snap_store("line-domain");
        let policy = SnapshotPolicy::periodic(base.clone(), 1, 1);
        let err = engine
            .try_run_preemptible(&wide, &policy)
            .expect_err("line 2^32 is refused");
        assert_eq!(err.kind, hmg_sim::SimErrorKind::Trace, "{err}");
        assert!(SnapshotStore::new(&base)
            .slots()
            .iter()
            .all(|p| !p.exists()));
    }

    /// A version store holding `line` at version `v`.
    fn versions_at(line: LineAddr, v: u64) -> VersionStore {
        let mut map = FlatMap::new();
        map.insert(line, v);
        let mut w = hmg_sim::SnapWriter::new();
        map.write_snap(&mut w);
        0u64.write_snap(&mut w); // stores committed
        VersionStore::read_snap(&mut hmg_sim::SnapReader::new(&w.into_bytes())).unwrap()
    }

    #[test]
    fn a_version_past_the_cache_lanes_is_a_typed_error() {
        let atomic = TraceOp::Access(Access::atomic(Addr(0), Scope::Gpu));
        for (op, what) in [(st(0), "store"), (atomic, "atomic")] {
            let trace = WorkloadTrace::new("v", vec![kernel_per_gpm(vec![vec![ld(0), op]])]);
            let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
            let run_from = |v: u64| {
                let mut sim = Sim::new(&cfg, &trace);
                sim.versions = versions_at(LineAddr(0), v);
                sim.run()
            };
            let m = run_from(MAX_LANE_VERSION - 1).expect("version 2^31 - 1 fits the lanes");
            assert_eq!(m.stores, 1, "{what}");
            let err = run_from(MAX_LANE_VERSION).expect_err("version 2^31 does not");
            assert_eq!(err.kind, hmg_sim::SimErrorKind::Trace, "{what}: {err}");
            assert!(err.message.contains("version 2147483648"), "{what}: {err}");
            assert!(err.cycle.is_some() && err.agent.is_some(), "{what}: {err}");
        }
    }

    #[test]
    fn snapshot_refuses_versions_past_the_cache_lanes() {
        let read = |v: u64, dirty: Option<bool>| {
            let mut w = hmg_sim::SnapWriter::new();
            v.write_snap(&mut w);
            let Some(d) = dirty else {
                let bytes = w.into_bytes();
                return L1Line::read_snap(&mut hmg_sim::SnapReader::new(&bytes))
                    .map(|l| l.version());
            };
            d.write_snap(&mut w);
            let bytes = w.into_bytes();
            L2Line::read_snap(&mut hmg_sim::SnapReader::new(&bytes)).map(|l| l.version())
        };
        for dirty in [None, Some(false), Some(true)] {
            assert_eq!(read(MAX_LANE_VERSION, dirty), Ok(MAX_LANE_VERSION));
            assert!(
                matches!(
                    read(MAX_LANE_VERSION + 1, dirty),
                    Err(SnapError::Malformed(_))
                ),
                "{dirty:?}"
            );
        }
    }

    #[test]
    fn link_down_reroutes_over_second_tier_with_identical_memory_state() {
        // The GPM0<->GPM1 first-tier link dies before any traffic flows:
        // every request between them detours over the second-tier switch
        // path. Slower, but the memory state is exactly the fault-free
        // one.
        let trace = WorkloadTrace::new(
            "link-down",
            vec![
                kernel_per_gpm(vec![vec![st(0)]]), // homes line 0 at GPM0
                kernel_per_gpm(vec![vec![], vec![ld(0), ld(0)], vec![], vec![st(0)]]),
            ],
        );
        let fault_free = run(ProtocolKind::Hmg, &trace);
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.faults.link_down = Some(hmg_sim::LinkDown {
            a: 0,
            b: 1,
            at_cycle: 0,
        });
        let m = Engine::new(cfg).run(&trace);
        assert_eq!(m.reconfig.epochs, 1, "the link loss opens one epoch");
        assert!(
            m.fabric.transport().reroutes > 0,
            "GPM1<->GPM0 traffic must detour over the second tier"
        );
        assert_eq!(m.state_digest, fault_free.state_digest);
        assert_eq!(m.loads, fault_free.loads);
        assert_eq!(m.stores, fault_free.stores);
    }

    // -----------------------------------------------------------------
    // Preemptible cells: snapshot/restore (DESIGN.md §14)
    // -----------------------------------------------------------------

    /// Fresh per-test snapshot store base path under the system tmpdir.
    fn snap_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hmg-snap-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let base = dir.join(format!("{name}.snap"));
        for slot in SnapshotStore::new(&base).slots() {
            let _ = std::fs::remove_file(&slot);
        }
        base
    }

    /// A pseudo-random mixed load/store trace with enough work that
    /// mid-run snapshots capture non-trivial in-flight state: shared
    /// lines across GPMs, stores forcing invalidations, delays opening
    /// quiet windows.
    fn busy_trace(kernels: usize, ops_per_cta: usize) -> WorkloadTrace {
        let mut rng = Rng::new(0xC0FFEE);
        let mut ks = Vec::new();
        for _ in 0..kernels {
            let mut ctas = Vec::new();
            for _ in 0..4 {
                let mut v = Vec::with_capacity(ops_per_cta);
                for _ in 0..ops_per_cta {
                    let addr = rng.gen_range(0, 64) * 16;
                    v.push(if rng.gen_bool(0.3) {
                        st(addr)
                    } else {
                        ld(addr)
                    });
                    if rng.gen_bool(0.1) {
                        v.push(TraceOp::Delay(rng.gen_range(1, 300) as u32));
                    }
                }
                ctas.push(v);
            }
            ks.push(kernel_per_gpm(ctas));
        }
        WorkloadTrace::new("snap-busy", ks)
    }

    /// The flip-line + link-down plan the kill-matrix acceptance
    /// criterion runs under.
    fn kill_matrix_faults() -> hmg_sim::FaultPlan {
        hmg_sim::FaultPlan::parse("flip-line=0.5,link-down=0-1@400,seed=9")
            .expect("fault spec parses")
    }

    /// Full-metrics equality via the Debug rendering: every counter,
    /// histogram bucket, and digest must agree, not just the headline
    /// digest.
    fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics, what: &str) {
        assert_eq!(a.state_digest, b.state_digest, "{what}: state_digest");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{what}: full RunMetrics"
        );
    }

    #[test]
    fn preemptible_cold_run_matches_plain_run() {
        let trace = busy_trace(2, 30);
        let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        let plain = Engine::new(cfg.clone()).try_run(&trace).unwrap();
        let policy = SnapshotPolicy::periodic(snap_store("cold"), 1, 0);
        let (m, rep) = Engine::new(cfg)
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert_eq!(rep.resumed_from, None);
        assert_eq!(rep.written, 0, "interval 0 captures nothing");
        assert!(rep.rejected.is_empty());
        assert_metrics_identical(&plain, &m, "cold preemptible run");
    }

    /// Golden snapshot bytes: one faulty Hmg cell captured at two fixed
    /// cycles, with the fnv1a64 of each slot file pinned. Any change to
    /// the encoded layout of any snapshotted type fails this test, so a
    /// layout change must bump `SNAP_VERSION` and re-pin the constants
    /// deliberately.
    #[test]
    fn snapshot_bytes_match_golden_format() {
        let trace = busy_trace(2, 30);
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.faults = kill_matrix_faults();
        let base = snap_store("golden");
        let mut policy = SnapshotPolicy::periodic(base.clone(), 0x601d, 0);
        policy.snap_at = vec![700, 1400];
        let (_, rep) = Engine::new(cfg)
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert_eq!(rep.written, 2, "both slots captured");
        let hashes: Vec<(u64, usize)> = SnapshotStore::new(&base)
            .slots()
            .iter()
            .map(|p| {
                let bytes = std::fs::read(p).expect("slot written");
                (hmg_sim::snap::fnv1a64(&bytes), bytes.len())
            })
            .collect();
        assert_eq!(
            hashes,
            [(0xde36_0ef7_5de4_96c0, 8175), (0xcf10_1017_3f93_a8ed, 7566)],
            "snapshot layout drifted"
        );
    }

    /// The kill matrix: for every Fig. 8 protocol, with and without the
    /// flip-line + link-down fault plan, interrupt the run at several
    /// mid-run points and prove the resumed run is bit-identical —
    /// same `state_digest`, same full `RunMetrics` — to the
    /// uninterrupted one. Capturing a snapshot must also never perturb
    /// the capturing run itself.
    #[test]
    fn kill_matrix_resume_is_bit_identical() {
        let trace = busy_trace(2, 30);
        for protocol in ProtocolKind::FIG8 {
            for faulty in [false, true] {
                let mut cfg = EngineConfig::small_test(protocol);
                if faulty {
                    cfg.faults = kill_matrix_faults();
                }
                let reference = Engine::new(cfg.clone()).try_run(&trace).unwrap();
                let total = reference.total_cycles.as_u64();
                assert!(total > 1000, "busy trace must run long enough");
                // Hmg gets the full 3-point matrix; the other protocols
                // one midpoint each (the mechanism is protocol-generic,
                // the state captured is not).
                let points: &[u64] = if protocol == ProtocolKind::Hmg {
                    &[1, 2, 3]
                } else {
                    &[2]
                };
                for frac in points {
                    let cut = total * frac / 4;
                    let name = format!(
                        "km-{}-{}-{frac}",
                        protocol.name(),
                        if faulty { "faulty" } else { "clean" }
                    );
                    let base = snap_store(&name);
                    let mut policy = SnapshotPolicy::periodic(base, 77, 0);
                    policy.snap_at = vec![cut];
                    let (first, rep) = Engine::new(cfg.clone())
                        .try_run_preemptible(&trace, &policy)
                        .unwrap();
                    assert_eq!(rep.resumed_from, None, "{name}: cold start");
                    assert_eq!(rep.written, 1, "{name}: one capture at the cut");
                    assert_eq!(rep.write_errors, 0, "{name}");
                    assert_metrics_identical(
                        &reference,
                        &first,
                        &format!("{name}: capture must not perturb the run"),
                    );
                    policy.snap_at.clear();
                    let (resumed, rep) = Engine::new(cfg.clone())
                        .try_run_preemptible(&trace, &policy)
                        .unwrap();
                    let from = rep
                        .resumed_from
                        .expect("the second run resumes from the capture");
                    assert!(from >= cut, "{name}: resumed at {from}, cut {cut}");
                    assert!(from < total, "{name}: resumed mid-run");
                    assert_metrics_identical(&reference, &resumed, &format!("{name}: resumed run"));
                }
            }
        }
    }

    /// Periodic captures at snapshot boundaries plus a one-shot capture
    /// mid-interval: resuming from the newest snapshot (whichever slot
    /// holds it) reproduces the uninterrupted run exactly.
    #[test]
    fn periodic_and_mid_interval_captures_resume_identical() {
        let trace = busy_trace(2, 30);
        let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        let reference = Engine::new(cfg.clone()).try_run(&trace).unwrap();
        let total = reference.total_cycles.as_u64();
        let interval = total / 5;
        let base = snap_store("periodic");
        let mut policy = SnapshotPolicy::periodic(base, 9, interval);
        // One extra capture off the periodic grid.
        policy.snap_at = vec![interval * 2 + interval / 2];
        let (first, rep) = Engine::new(cfg.clone())
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert!(rep.written >= 3, "several captures: {rep:?}");
        assert_metrics_identical(&reference, &first, "capturing run");
        policy.snap_at.clear();
        let (resumed, rep) = Engine::new(cfg)
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert!(rep.resumed_from.is_some(), "{rep:?}");
        assert_metrics_identical(&reference, &resumed, "resumed run");
    }

    /// Seeds a store with exactly one valid snapshot of the busy Hmg
    /// trace and returns (path-with-the-snapshot, reference metrics,
    /// config, trace, policy used).
    fn seeded_store(
        name: &str,
    ) -> (
        std::path::PathBuf,
        RunMetrics,
        EngineConfig,
        WorkloadTrace,
        SnapshotPolicy,
    ) {
        let trace = busy_trace(2, 30);
        let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        let reference = Engine::new(cfg.clone()).try_run(&trace).unwrap();
        let base = snap_store(name);
        let mut policy = SnapshotPolicy::periodic(base.clone(), 41, 0);
        policy.snap_at = vec![reference.total_cycles.as_u64() / 2];
        let (_, rep) = Engine::new(cfg.clone())
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert_eq!(rep.written, 1);
        policy.snap_at.clear();
        let slot = SnapshotStore::new(&base)
            .slots()
            .into_iter()
            .find(|p| p.exists())
            .expect("one slot holds the capture");
        (slot, reference, cfg, trace, policy)
    }

    /// Every adversarial corruption — truncation, a flipped byte, a
    /// version-mismatched header, a stale identity — is refused with a
    /// typed error and the run falls back to a cold start that still
    /// produces the uninterrupted result. No panic, no silent
    /// acceptance.
    #[test]
    fn corrupted_snapshots_are_refused_and_fall_back_to_scratch() {
        let (slot, reference, cfg, trace, policy) = seeded_store("adversary");
        let pristine = std::fs::read(&slot).expect("snapshot readable");

        type Corruption = (&'static str, Vec<u8>, fn(&SnapError) -> bool);
        let cases: Vec<Corruption> = vec![
            ("truncated", pristine[..pristine.len() / 2].to_vec(), |e| {
                matches!(e, SnapError::UnexpectedEof { .. } | SnapError::Malformed(_))
            }),
            (
                "flipped byte",
                {
                    let mut b = pristine.clone();
                    let mid = b.len() / 2;
                    b[mid] ^= 0x40;
                    b
                },
                |e| matches!(e, SnapError::Checksum { .. } | SnapError::Malformed(_)),
            ),
            (
                "version mismatch",
                {
                    let mut b = pristine.clone();
                    b[8] ^= 0x01; // version u32 follows the 8-byte magic
                    b
                },
                |e| matches!(e, SnapError::Version { .. }),
            ),
        ];
        for (what, bytes, expected) in cases {
            std::fs::write(&slot, &bytes).unwrap();
            let (m, rep) = Engine::new(cfg.clone())
                .try_run_preemptible(&trace, &policy)
                .unwrap();
            assert_eq!(rep.resumed_from, None, "{what}: must not resume");
            assert_eq!(rep.rejected.len(), 1, "{what}: refusal recorded");
            assert!(
                expected(&rep.rejected[0].1),
                "{what}: got {:?}",
                rep.rejected[0].1
            );
            assert_metrics_identical(&reference, &m, what);
        }

        // Stale identity: the file is pristine but belongs to another
        // cell. Version-mismatch bytes restored first.
        std::fs::write(&slot, &pristine).unwrap();
        let mut stale = policy.clone();
        stale.identity = policy.identity ^ 0xDEAD;
        let (m, rep) = Engine::new(cfg.clone())
            .try_run_preemptible(&trace, &stale)
            .unwrap();
        assert_eq!(rep.resumed_from, None, "stale identity must not resume");
        assert!(
            matches!(rep.rejected[0].1, SnapError::Identity { .. }),
            "got {:?}",
            rep.rejected[0].1
        );
        assert_metrics_identical(&reference, &m, "stale identity");
    }

    /// A snapshot from the same cell identity but a *differently shaped*
    /// engine (larger L2) is refused by restore validation rather than
    /// grafted onto the wrong machine.
    #[test]
    fn config_shape_mismatch_is_refused() {
        let (_slot, _reference, _cfg, trace, policy) = seeded_store("shape");
        let mut other = EngineConfig::small_test(ProtocolKind::Hmg);
        other.l2 = hmg_mem::CacheConfig::new(512, 8);
        let (_, rep) = Engine::new(other)
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert_eq!(rep.resumed_from, None, "shape mismatch must not resume");
        assert_eq!(rep.rejected.len(), 1);
        assert!(
            matches!(rep.rejected[0].1, SnapError::Malformed(_)),
            "got {:?}",
            rep.rejected[0].1
        );
    }

    /// Double-buffering: a longer periodic run keeps only the last two
    /// captures, and corrupting the newest slot falls back to the
    /// older one (not to scratch) — the fallback ladder's middle rung.
    #[test]
    fn fallback_ladder_uses_the_older_slot() {
        let trace = busy_trace(2, 30);
        let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        let reference = Engine::new(cfg.clone()).try_run(&trace).unwrap();
        let total = reference.total_cycles.as_u64();
        let base = snap_store("ladder");
        let mut policy = SnapshotPolicy::periodic(base.clone(), 8, 0);
        policy.snap_at = vec![total / 4, total / 2];
        let (_, rep) = Engine::new(cfg.clone())
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert_eq!(rep.written, 2, "both slots populated");
        policy.snap_at.clear();

        // Identify newest/oldest by probing the headers.
        let slots = SnapshotStore::new(&base).slots();
        let mut probed: Vec<(u64, std::path::PathBuf)> = slots
            .iter()
            .filter_map(|p| Snapshot::probe(p).map(|(_, c)| (c, p.clone())))
            .collect();
        probed.sort_by_key(|(c, _)| *c);
        assert_eq!(probed.len(), 2);
        let (older_cycle, newest) = (probed[0].0, probed[1].1.clone());
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let (m, rep) = Engine::new(cfg)
            .try_run_preemptible(&trace, &policy)
            .unwrap();
        assert_eq!(rep.rejected.len(), 1, "newest slot refused");
        assert_eq!(
            rep.resumed_from,
            Some(older_cycle),
            "resume falls back to the older slot"
        );
        assert_metrics_identical(&reference, &m, "older-slot resume");
    }
}
