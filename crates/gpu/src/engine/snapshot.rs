//! Snapshot capture and restore for preemptible runs.
//!
//! A snapshot captures the complete deterministic state of a `Sim` at an
//! event boundary: the event queue (with its far list), the fabric (link
//! clocks, sequence numbers, fault RNG streams, liveness epochs), all
//! memory-system state (caches, directories, DRAM ports, page homes,
//! committed versions, latent soft errors), scheduler state (fences,
//! flags, MSHRs, CTA queues), every RNG stream, the fault-plan cursor,
//! and the accumulated `RunMetrics`. The borrowed `cfg`/`trace` are
//! rebuilt, not serialized; `fatal` and `finished` are structurally
//! `None`/`false` at every snapshot point because the run-loop hook sits
//! after both checks.
//!
//! Restore is refusal-based: any shape that disagrees with the live
//! configuration (wrong cache geometry, out-of-range GPM/SM/CTA/fence
//! index, mis-armed RNG stream) yields a typed `SnapError` and leaves
//! the caller free to fall back to an older snapshot or a cold start.
//!
//! The engine's own types are plain field lists and tagged enums, so
//! `snapshot_codec!` generates both codec directions from one list
//! each; the validating checks live in the hand-written section reader
//! below and in the `Cache`/`Directory`/`Fabric` impls it calls. A
//! layout change must bump `SNAP_VERSION` and re-pin the golden test
//! `snapshot_bytes_match_golden_format`.

use hmg_mem::{PageMap, VersionStore};
use hmg_protocol::WorkloadTrace;
use hmg_sim::collect::FlatMap;
use hmg_sim::{
    Cycle, EventQueue, ProgressWatchdog, Rng, SimError, SnapError, SnapReader, SnapWriter,
    Snapshot, SnapshotRead, SnapshotStore, SnapshotWrite,
};

use super::{
    CarveClass, Engine, Ev, Fence, FlipSeverity, Gpm, InvCause, InvMsg, L1Line, L2Line, MemMsg,
    Sim, Sm, SmRef, SmState, StoreMsg, MAX_LANE_VERSION,
};
use crate::metrics::RunMetrics;

hmg_sim::snapshot_codec!(enum FlipSeverity {
    0 => Correctable,
    1 => Uncorrectable,
});
// Cache metas are written as the `u64` version (and, for the L2, the
// dirty flag) they hold, so the snapshot format does not depend on the
// lanes' in-memory packing; a read version the 31-bit lane cannot hold
// is refused.
impl SnapshotWrite for L1Line {
    fn write_snap(&self, w: &mut SnapWriter) {
        self.version().write_snap(w);
    }
}
impl SnapshotRead for L1Line {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        read_lane_version(r, "L1").map(L1Line::new)
    }
}
impl SnapshotWrite for L2Line {
    fn write_snap(&self, w: &mut SnapWriter) {
        self.version().write_snap(w);
        self.dirty().write_snap(w);
    }
}
impl SnapshotRead for L2Line {
    fn read_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let version = read_lane_version(r, "L2")?;
        Ok(L2Line::new(version, bool::read_snap(r)?))
    }
}

fn read_lane_version(r: &mut SnapReader<'_>, level: &str) -> Result<u64, SnapError> {
    let version = u64::read_snap(r)?;
    if version > MAX_LANE_VERSION {
        return Err(SnapError::Malformed(format!(
            "{level} line version {version} exceeds 31 bits"
        )));
    }
    Ok(version)
}
hmg_sim::snapshot_codec!(SmRef { gpm, sm });
hmg_sim::snapshot_codec!(enum SmState {
    0 => Runnable,
    1 => StalledMem,
    2 => FenceWait,
    3 => FlagWait(flag),
    4 => Idle,
});
hmg_sim::snapshot_codec!(Sm {
    l1,
    cta,
    pc,
    outstanding,
    state
});
hmg_sim::snapshot_codec!(enum CarveClass {
    0 => Private(owner),
    1 => ReadOnly,
    2 => ReadWrite,
});
hmg_sim::snapshot_codec!(Gpm {
    l2,
    dir,
    dram,
    st_pending_gpu,
    st_pending_sys,
    inv_pending_gpu,
    inv_pending_sys,
    cta_queue,
    carve,
    inv_floor,
});
hmg_sim::snapshot_codec!(MemMsg {
    sm,
    line,
    kind,
    scope,
    version,
    issued_at,
    attempts,
    poisoned,
});
hmg_sim::snapshot_codec!(StoreMsg {
    origin,
    line,
    version,
    gpu_ordered,
    duplicate,
});
hmg_sim::snapshot_codec!(enum InvCause {
    0 => Store,
    1 => Eviction,
});
hmg_sim::snapshot_codec!(InvMsg {
    block,
    cause,
    causer,
    counted,
    from_sys,
    target,
    version,
});
hmg_sim::snapshot_codec!(Fence {
    gpm,
    scope,
    sm,
    acks_done,
    completed,
});
hmg_sim::snapshot_codec!(enum Ev {
    0 => SmResume(sm),
    1 => Req { msg, node },
    2 => Store { msg, node },
    3 => RespGpuHome { msg, node },
    4 => Resp { msg },
    5 => Inv(inv),
    6 => Downgrade { block, target, evictor },
    7 => FenceAcks(id),
    8 => KernelStart(k),
    9 => Scrub,
});

/// How a preemptible run captures and resumes snapshots.
///
/// Passed to [`Engine::try_run_preemptible`]. The store at `path` keeps
/// the last two snapshots double-buffered (`<path>.a` / `<path>.b`);
/// `identity` must be a stable hash of everything that defines the
/// cell (workload, protocol, scale, seed, fault plan) so a snapshot
/// from a different cell is refused rather than silently resumed.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    /// Base path of the double-buffered snapshot store.
    pub path: std::path::PathBuf,
    /// Identity hash of the producing cell; snapshots whose header
    /// carries a different identity are refused as stale.
    pub identity: u64,
    /// Cycles between periodic snapshots (0 disables periodic capture).
    pub interval: u64,
    /// Extra one-shot capture points: a snapshot is taken at the first
    /// event boundary at or past each cycle. Used by the kill-matrix
    /// tests to pin captures at arbitrary mid-run points.
    pub snap_at: Vec<u64>,
    /// Test hook: abort the process (no unwinding, no cleanup) at the
    /// first event boundary at or past this cycle, after any snapshot
    /// due at that boundary has been written. Simulates preemption.
    pub kill_at: Option<u64>,
}

impl SnapshotPolicy {
    /// Periodic capture every `interval` cycles into `path`.
    pub fn periodic(path: impl Into<std::path::PathBuf>, identity: u64, interval: u64) -> Self {
        SnapshotPolicy {
            path: path.into(),
            identity,
            interval,
            snap_at: Vec::new(),
            kill_at: None,
        }
    }
}

/// What the snapshot machinery did during one preemptible run.
#[derive(Debug, Default)]
pub struct SnapshotReport {
    /// Cycle of the snapshot the run resumed from, or `None` for a
    /// cold start.
    pub resumed_from: Option<u64>,
    /// Snapshots written during this run.
    pub written: u64,
    /// Snapshot writes that failed (the run continues regardless; a
    /// snapshot is an optimization, never a correctness dependency).
    pub write_errors: u64,
    /// Candidate snapshots refused during resume, newest first, with
    /// the typed reason for each refusal.
    pub rejected: Vec<(std::path::PathBuf, SnapError)>,
}

/// Cold-path snapshot state, boxed off the `Sim` hot path.
pub(super) struct SnapCtl {
    store: SnapshotStore,
    identity: u64,
    interval: u64,
    /// Next periodic capture cycle (`u64::MAX` when periodic capture
    /// is off).
    periodic_next: u64,
    /// One-shot capture cycles, ascending.
    snap_at: Vec<u64>,
    at_idx: usize,
    kill_at: Option<u64>,
    written: u64,
    write_errors: u64,
}

impl SnapCtl {
    /// Earliest cycle at which the tick has any work.
    fn next_trigger(&self) -> u64 {
        let mut n = self.periodic_next;
        if let Some(&a) = self.snap_at.get(self.at_idx) {
            n = n.min(a);
        }
        if let Some(k) = self.kill_at {
            n = n.min(k);
        }
        n
    }
}

impl Engine {
    /// Like [`Engine::try_run`], but resumes from the most recent valid
    /// snapshot in `policy.path` (if any) and captures new snapshots as
    /// the policy directs.
    ///
    /// Resume walks a fallback ladder: candidate snapshots are tried
    /// newest-first, and any refusal — truncation, checksum mismatch,
    /// version or identity mismatch, or a shape that disagrees with
    /// this engine's configuration — drops to the next rung, ending at
    /// a cold start from cycle zero. Refusals are reported, never
    /// panicked on. A resumed run is bit-identical to an uninterrupted
    /// one: same `state_digest`, same `RunMetrics`.
    pub fn try_run_preemptible(
        &self,
        trace: &WorkloadTrace,
        policy: &SnapshotPolicy,
    ) -> Result<(RunMetrics, SnapshotReport), SimError> {
        self.check_line_domain(trace)?;
        let store = SnapshotStore::new(&policy.path);
        let mut report = SnapshotReport::default();
        // Every existing slot is a candidate; files whose header does
        // not even probe (bad magic, wrong version, truncated header)
        // sort last and surface their typed refusal through the load
        // below rather than vanishing silently.
        let mut cands: Vec<(u64, std::path::PathBuf)> = store
            .slots()
            .into_iter()
            .filter(|p| p.exists())
            .map(|p| (Snapshot::probe(&p).map_or(0, |(_, cycle)| cycle), p))
            .collect();
        cands.sort_by_key(|c| std::cmp::Reverse(c.0));
        let mut sim = Sim::new(&self.cfg, trace);
        for (cycle, path) in cands {
            let attempt = Snapshot::load(&path, Some(policy.identity)).and_then(|s| {
                let mut cand = Sim::new(&self.cfg, trace);
                cand.restore_snapshot(&s)?;
                Ok(cand)
            });
            match attempt {
                Ok(restored) => {
                    report.resumed_from = Some(cycle);
                    sim = restored;
                    break;
                }
                Err(e) => report.rejected.push((path, e)),
            }
        }
        sim.arm_snapshots(store, policy);
        let run = sim.run();
        if let Some(ctl) = sim.snap.take() {
            report.written = ctl.written;
            report.write_errors = ctl.write_errors;
        }
        run.map(|m| (m, report))
    }
}

impl<'t> Sim<'t> {
    /// Installs the snapshot policy on a (possibly restored) sim.
    fn arm_snapshots(&mut self, store: SnapshotStore, policy: &SnapshotPolicy) {
        let mut snap_at = policy.snap_at.clone();
        snap_at.sort_unstable();
        snap_at.dedup();
        let base = self.q.now().0;
        // Capture points at or before the resume cycle were already
        // taken by the interrupted attempt.
        let at_idx = snap_at.partition_point(|&c| c <= base);
        let ctl = SnapCtl {
            store,
            identity: policy.identity,
            interval: policy.interval,
            periodic_next: if policy.interval == 0 {
                u64::MAX
            } else {
                base.saturating_add(policy.interval)
            },
            snap_at,
            at_idx,
            kill_at: policy.kill_at,
            written: 0,
            write_errors: 0,
        };
        self.snap_next = ctl.next_trigger();
        self.snap = Some(Box::new(ctl));
    }

    /// Cold half of the snapshot hook: takes due captures, honors the
    /// test-only kill hook, and re-arms `snap_next`.
    #[inline(never)]
    pub(super) fn snapshot_tick(&mut self, now: Cycle) {
        let Some(mut ctl) = self.snap.take() else {
            self.snap_next = u64::MAX;
            return;
        };
        let mut due = false;
        if now.0 >= ctl.periodic_next {
            due = true;
            ctl.periodic_next = now.0.saturating_add(ctl.interval.max(1));
        }
        while ctl.at_idx < ctl.snap_at.len() && ctl.snap_at[ctl.at_idx] <= now.0 {
            due = true;
            ctl.at_idx += 1;
        }
        if due {
            let snap = self.write_snapshot(ctl.identity);
            match ctl.store.save(&snap) {
                Ok(_) => ctl.written += 1,
                // A failed write never aborts the run: the store still
                // holds the previous snapshot, and losing a capture
                // only costs resume granularity.
                Err(_) => ctl.write_errors += 1,
            }
        }
        if ctl.kill_at.is_some_and(|k| now.0 >= k) {
            // Simulated preemption: no unwinding, no destructors, no
            // flushing — exactly what SIGKILL leaves behind.
            std::process::abort();
        }
        self.snap_next = ctl.next_trigger();
        self.snap = Some(ctl);
    }

    /// Serializes the complete simulation state at the current event
    /// boundary. Read-only: taking a snapshot must not perturb the run,
    /// or resumed and uninterrupted runs would diverge.
    fn write_snapshot(&self, identity: u64) -> Snapshot {
        let now = self.q.now();
        let mut snap = Snapshot::new(identity, now.0);

        let mut w = SnapWriter::new();
        self.q.write_snap(&mut w);
        snap.add_section("queue", w);

        let mut w = SnapWriter::new();
        self.fabric.write_snap(&mut w);
        snap.add_section("fabric", w);

        let mut w = SnapWriter::new();
        self.pages.write_snap(&mut w);
        self.versions.write_snap(&mut w);
        self.committed.write_snap(&mut w);
        self.touch_map.write_snap(&mut w);
        self.line_faults.write_snap(&mut w);
        snap.add_section("memory", w);

        let mut w = SnapWriter::new();
        self.gpms.write_snap(&mut w);
        snap.add_section("gpms", w);

        let mut w = SnapWriter::new();
        self.sms.write_snap(&mut w);
        snap.add_section("sms", w);

        let mut w = SnapWriter::new();
        self.fences.write_snap(&mut w);
        self.active_fences.write_snap(&mut w);
        self.flags.write_snap(&mut w);
        self.flag_waiters.write_snap(&mut w);
        self.mshr.write_snap(&mut w);
        self.kernel.write_snap(&mut w);
        w.put_u64(self.ctas_unfinished);
        w.put_u64(self.loads_inflight);
        w.put_u32(self.kernel_fences_left);
        self.draining.write_snap(&mut w);
        self.rng.write_snap(&mut w);
        self.flip_rng.write_snap(&mut w);
        w.put_u64(self.store_seq);
        w.put_u64(self.inv_seq);
        self.perm_next.write_snap(&mut w);
        w.put_u64(self.dead_gpms);
        self.reconfigured.write_snap(&mut w);
        self.watchdog.write_snap(&mut w);
        snap.add_section("sched", w);

        let mut w = SnapWriter::new();
        self.m.write_snap(&mut w);
        snap.add_section("metrics", w);

        snap
    }

    /// Refuses a section with trailing bytes (a length-smuggling or
    /// layout-drift symptom the per-field reads cannot see).
    fn check_exhausted(r: &SnapReader<'_>, name: &str) -> Result<(), SnapError> {
        if r.is_exhausted() {
            Ok(())
        } else {
            Err(SnapError::Malformed(format!(
                "section '{name}' has {} trailing bytes",
                r.remaining()
            )))
        }
    }

    /// Overwrites this freshly constructed sim's state from `snap`.
    ///
    /// On any refusal the sim is in an unspecified partial state and
    /// must be discarded; [`Engine::try_run_preemptible`] constructs a
    /// fresh `Sim` per ladder rung for exactly that reason.
    fn restore_snapshot(&mut self, snap: &Snapshot) -> Result<(), SnapError> {
        let mut r = snap.section("queue")?;
        let q: EventQueue<Ev> = EventQueue::read_snap(&mut r)?;
        Self::check_exhausted(&r, "queue")?;
        if q.now().0 != snap.cycle {
            return Err(SnapError::Malformed(format!(
                "header cycle {} disagrees with queue position {}",
                snap.cycle,
                q.now()
            )));
        }
        self.q = q;

        let mut r = snap.section("fabric")?;
        self.fabric.restore_snap_state(&mut r)?;
        Self::check_exhausted(&r, "fabric")?;

        let mut r = snap.section("memory")?;
        self.pages = PageMap::read_snap(&mut r)?;
        self.versions = VersionStore::read_snap(&mut r)?;
        self.committed = FlatMap::read_snap(&mut r)?;
        self.touch_map = FlatMap::read_snap(&mut r)?;
        self.line_faults = FlatMap::read_snap(&mut r)?;
        Self::check_exhausted(&r, "memory")?;

        let mut r = snap.section("gpms")?;
        self.gpms = Vec::read_snap(&mut r)?;
        Self::check_exhausted(&r, "gpms")?;

        let mut r = snap.section("sms")?;
        self.sms = Vec::read_snap(&mut r)?;
        Self::check_exhausted(&r, "sms")?;

        let mut r = snap.section("sched")?;
        self.fences = Vec::read_snap(&mut r)?;
        self.active_fences = Vec::read_snap(&mut r)?;
        self.flags = FlatMap::read_snap(&mut r)?;
        self.flag_waiters = FlatMap::read_snap(&mut r)?;
        self.mshr = FlatMap::read_snap(&mut r)?;
        self.kernel = usize::read_snap(&mut r)?;
        self.ctas_unfinished = r.get_u64()?;
        self.loads_inflight = r.get_u64()?;
        self.kernel_fences_left = r.get_u32()?;
        self.draining = bool::read_snap(&mut r)?;
        self.rng = Rng::read_snap(&mut r)?;
        self.flip_rng = Option::read_snap(&mut r)?;
        self.store_seq = r.get_u64()?;
        self.inv_seq = r.get_u64()?;
        self.perm_next = usize::read_snap(&mut r)?;
        self.dead_gpms = r.get_u64()?;
        self.reconfigured = bool::read_snap(&mut r)?;
        self.watchdog = ProgressWatchdog::read_snap(&mut r)?;
        Self::check_exhausted(&r, "sched")?;

        let mut r = snap.section("metrics")?;
        self.m = RunMetrics::read_snap(&mut r)?;
        Self::check_exhausted(&r, "metrics")?;

        self.validate_restored()?;
        self.resumed = true;
        Ok(())
    }

    /// Cross-field validation of restored state against the live
    /// configuration and trace: everything the engine later uses as an
    /// unchecked index must be proven in range here, so a refused
    /// snapshot can never become a panic mid-run.
    fn validate_restored(&self) -> Result<(), SnapError> {
        let bad = |what: String| Err(SnapError::Malformed(what));
        let topo = self.cfg.topo;
        let n_gpms = topo.num_gpms() as usize;
        let sms_per_gpm = self.cfg.sms_per_gpm;
        if self.gpms.len() != n_gpms {
            return bad(format!(
                "{} GPMs in snapshot, topology has {n_gpms}",
                self.gpms.len()
            ));
        }
        if self.sms.len() != self.cfg.total_sms() as usize {
            return bad(format!(
                "{} SMs in snapshot, configuration has {}",
                self.sms.len(),
                self.cfg.total_sms()
            ));
        }
        for (i, g) in self.gpms.iter().enumerate() {
            if g.l2.config() != self.cfg.l2 {
                return bad(format!("gpm{i} L2 geometry differs from configuration"));
            }
            if g.dir.config() != self.cfg.dir {
                return bad(format!(
                    "gpm{i} directory geometry differs from configuration"
                ));
            }
        }
        for (i, s) in self.sms.iter().enumerate() {
            if s.l1.config() != self.cfg.l1 {
                return bad(format!("sm{i} L1 geometry differs from configuration"));
            }
        }
        if self.kernel >= self.trace.num_kernels() {
            return bad(format!(
                "kernel index {} out of range ({} kernels)",
                self.kernel,
                self.trace.num_kernels()
            ));
        }
        let n_ctas = self.trace.kernels[self.kernel].num_ctas();
        for (i, s) in self.sms.iter().enumerate() {
            if let Some(c) = s.cta {
                if c >= n_ctas {
                    return bad(format!("sm{i} runs CTA {c}, kernel has {n_ctas}"));
                }
            }
        }
        let sm_ok = |r: SmRef| r.gpm.index() < n_gpms && r.sm < sms_per_gpm;
        for (i, g) in self.gpms.iter().enumerate() {
            for &c in &g.cta_queue {
                if c >= n_ctas {
                    return bad(format!("gpm{i} queues CTA {c}, kernel has {n_ctas}"));
                }
            }
        }
        for f in &self.fences {
            if f.gpm.index() >= n_gpms || f.sm.is_some_and(|r| !sm_ok(r)) {
                return bad("fence names an out-of-range GPM or SM".into());
            }
        }
        for &i in &self.active_fences {
            if i >= self.fences.len() {
                return bad(format!(
                    "active fence {i} out of range ({} fences)",
                    self.fences.len()
                ));
            }
        }
        for (&(node, _), waiters) in self.mshr.iter() {
            if node as usize >= n_gpms || waiters.iter().any(|m| !sm_ok(m.sm)) {
                return bad("MSHR entry names an out-of-range GPM or SM".into());
            }
        }
        for (_, waiters) in self.flag_waiters.iter() {
            if waiters.iter().any(|&r| !sm_ok(r)) {
                return bad("flag waiter names an out-of-range SM".into());
            }
        }
        for (&(node, _), _) in self.line_faults.iter() {
            if node as usize >= n_gpms {
                return bad(format!("latent fault on out-of-range gpm{node}"));
            }
        }
        if self.perm_next > self.perm_faults.len() {
            return bad(format!(
                "fault cursor {} past plan length {}",
                self.perm_next,
                self.perm_faults.len()
            ));
        }
        if n_gpms < 64 && self.dead_gpms >> n_gpms != 0 {
            return bad(format!(
                "dead-GPM mask {:#x} exceeds topology of {n_gpms}",
                self.dead_gpms
            ));
        }
        let flips_armed = self.cfg.faults.flip_line.is_some() || self.cfg.faults.flip_dir.is_some();
        if self.flip_rng.is_some() != flips_armed {
            return bad("soft-error stream arming disagrees with the fault plan".into());
        }
        let fences_len = self.fences.len();
        let num_kernels = self.trace.num_kernels();
        let mut ev_err: Option<String> = None;
        self.q.for_each_pending(|_, e| {
            if ev_err.is_some() {
                return;
            }
            let ok = match e {
                Ev::SmResume(r) => sm_ok(*r),
                Ev::Req { msg, node } | Ev::RespGpuHome { msg, node } => {
                    sm_ok(msg.sm) && node.index() < n_gpms
                }
                Ev::Resp { msg } => sm_ok(msg.sm),
                Ev::Store { msg, node } => msg.origin.index() < n_gpms && node.index() < n_gpms,
                Ev::Inv(inv) => inv.causer.index() < n_gpms && inv.target.index() < n_gpms,
                Ev::Downgrade {
                    target, evictor, ..
                } => target.index() < n_gpms && evictor.index() < n_gpms,
                Ev::FenceAcks(id) => *id < fences_len,
                Ev::KernelStart(k) => *k < num_kernels,
                Ev::Scrub => true,
            };
            if !ok {
                ev_err = Some("pending event references out-of-range state".to_string());
            }
        });
        if let Some(e) = ev_err {
            return bad(e);
        }
        Ok(())
    }
}
