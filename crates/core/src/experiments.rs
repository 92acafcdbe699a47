//! Drivers that regenerate every table and figure of the paper's
//! evaluation (Section VII). Each function returns a structured result
//! with a `print` method; the `experiments` binary in `hmg-bench` wires
//! them to the command line, and EXPERIMENTS.md records paper-measured
//! comparisons.

use hmg_gpu::{EngineConfig, RunMetrics};
use hmg_protocol::{ProtocolKind, WorkloadTrace};
use hmg_sim::{stats, FaultPlan, SimError};
use hmg_workloads::micro::{correlation_suite, MachineParams};
use hmg_workloads::suite::{by_abbrev, table3};
use hmg_workloads::{Scale, WorkloadSpec};

use crate::report::{f2, f3, pct, Table};
use crate::runner::{run_isolated, SweepCheckpoint};
use crate::supervisor::{
    self, Attempt, CellCommand, CellRun, CellStatus, Isolation, SupervisorConfig,
};

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Experiment scale (default [`Scale::Small`]).
    pub scale: Scale,
    /// Workload-generation seed.
    pub seed: u64,
    /// Restrict to these workload abbreviations (None = whole suite).
    pub filter: Option<Vec<String>>,
    /// Fault-injection plan applied to every engine run (None = no
    /// faults).
    pub faults: Option<FaultPlan>,
    /// Graceful degradation: isolate per-run failures and report a
    /// partial result with a failure table instead of aborting the
    /// whole sweep on the first deadlocked workload.
    pub keep_going: bool,
    /// Checkpoint file: every completed cell of a sweep is appended as
    /// it finishes, so an interrupted sweep can be resumed. `None`
    /// disables checkpointing.
    pub checkpoint: Option<std::path::PathBuf>,
    /// With a checkpoint file: reuse its completed cells and re-run
    /// only failed or missing ones. The final report is identical to an
    /// uninterrupted sweep.
    pub resume: bool,
    /// Livelock-watchdog budget override: `None` arms the
    /// workload-scaled default, `Some(0)` disarms the watchdog, any
    /// other value is the budget in cycles.
    pub livelock_budget: Option<u64>,
    /// Supervised-sweep worker pool size (0 = all cores).
    pub jobs: usize,
    /// Per-cell wall-clock budget in seconds for process-isolated
    /// cells; a cell exceeding it is killed and reported as `timeout`.
    /// `None` disables the budget. Ignored under thread isolation
    /// (threads cannot be killed).
    pub cell_timeout_secs: Option<u64>,
    /// Retry cap for transient cell failures (crash/timeout): after
    /// this many re-attempts the cell is quarantined.
    pub retries: u32,
    /// Cell isolation mode: `Process` re-executes the experiments
    /// binary per cell (crash/hang-proof), `Thread` runs cells
    /// in-process (panic-safe only).
    pub isolation: Isolation,
    /// Directory for per-cell crash-consistent snapshot stores. When
    /// set, every cell periodically captures its complete simulation
    /// state there, and a crashed/killed/timed-out cell's retry resumes
    /// from the latest valid snapshot instead of re-simulating from
    /// cycle zero. `None` disables snapshotting.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Cycles between periodic snapshot captures when `snapshot_dir` is
    /// set (0 = resume-only: no periodic capture, but a retry still
    /// resumes from whatever an earlier attempt left behind).
    pub snapshot_interval: u64,
}

/// Default cycles between periodic snapshot captures. A capture costs
/// roughly serialize + write of the full live state (~10-15 MB at
/// small scale), so the default trades a few percent of throughput for
/// losing at most ~100k cycles of progress to a preemption; lower it
/// for expensive cells on flaky hosts, raise it (or pass 0 for
/// resume-only) when capture overhead matters more than lost work.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 100_000;

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: Scale::Small,
            seed: 2020,
            filter: None,
            faults: None,
            keep_going: false,
            checkpoint: None,
            resume: false,
            livelock_budget: None,
            jobs: 0,
            cell_timeout_secs: None,
            retries: 2,
            isolation: Isolation::Thread,
            snapshot_dir: None,
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
        }
    }
}

impl ExpOptions {
    /// The Table III specs selected by the filter, in figure order.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        table3()
            .into_iter()
            .filter(|s| match &self.filter {
                None => true,
                Some(list) => list.iter().any(|a| a == s.abbrev),
            })
            .collect()
    }

    /// The supervisor configuration these options select.
    pub fn supervisor_config(&self) -> SupervisorConfig {
        SupervisorConfig {
            jobs: self.jobs,
            cell_timeout: self.cell_timeout_secs.map(std::time::Duration::from_secs),
            retries: self.retries,
            isolation: self.isolation,
            keep_going: self.keep_going,
        }
    }

    /// Builds the cell context for one (workload, protocol) run.
    fn cell(&self, key: String, workload: &str, protocol: ProtocolKind, tweak: &str) -> CellCtx {
        let snapshot_path = self
            .snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("{}.snap", key.replace(['/', ' '], "_"))));
        CellCtx {
            key,
            workload: workload.to_string(),
            protocol,
            tweak: tweak.to_string(),
            scale: self.scale,
            seed: self.seed,
            faults: self.faults.clone(),
            livelock_budget: self.livelock_budget,
            snapshot_path,
            snapshot_interval: self.snapshot_interval,
        }
    }

    /// The untweaked cell running `workload` under `protocol`, keyed
    /// `workload/protocol`.
    pub fn plain_cell(&self, workload: &str, protocol: ProtocolKind) -> CellCtx {
        self.cell(
            format!("{workload}/{}", protocol.name()),
            workload,
            protocol,
            "",
        )
    }

    /// One cell per selected workload under `protocol` with `tweak`
    /// applied, keyed `workload/protocol`, in figure order.
    fn suite_cells(&self, protocol: ProtocolKind, tweak: &str) -> Vec<CellCtx> {
        self.specs()
            .iter()
            .map(|s| {
                let key = format!("{}/{}", s.abbrev, protocol.name());
                self.cell(key, s.abbrev, protocol, tweak)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Sweep cells: serializable units of work the supervisor can re-exec
// in a child process (`experiments __run-cell ...`) or run in-process.
// ---------------------------------------------------------------------

/// Applies a serialized configuration tweak to `cfg`.
///
/// Tweaks are `+`-separated clauses, so a figure's configuration can
/// cross the process boundary to a `__run-cell` child:
///
/// | clause              | effect                                       |
/// |---------------------|----------------------------------------------|
/// | `bw=G`              | inter-GPU bandwidth in GB/s (Fig. 12)        |
/// | `l2mb=M`            | L2 capacity per GPU in MB (Fig. 13)          |
/// | `dirk=K`            | directory entries per GPM in K (Fig. 14)     |
/// | `grain=G`           | lines per directory entry, fixed coverage    |
/// | `gpus=N`            | N-GPU topology, 4 GPMs each                  |
/// | `zero-cost-fences`  | free release fences (ablation)               |
/// | `write-policy=wt/wb`| L2 write policy (ablation)                   |
/// | `downgrades=on/off` | sharer-downgrade messages (ablation)         |
/// | `placement=ft/il`   | first-touch / interleaved pages (ablation)   |
/// | `ecc=off/parity/secded` | cache/directory error coding (integrity) |
/// | `checksums=on/off`  | per-message checksum verification            |
/// | `scrub=N`           | background scrubber period in cycles         |
/// | `double-bit=F`      | SEC-DED uncorrectable-flip fraction in \[0,1\] |
/// | `nack-thr=N`        | busy-home flow-control threshold in cycles   |
/// | `arbitration=nack/phase` | busy-home discipline: NACK/retry or phase-priority |
/// | `peer-redundancy`   | track Fig. 3's intra-GPU peer redundancy     |
pub fn apply_tweak(spec: &str, cfg: &mut EngineConfig) -> Result<(), SimError> {
    for clause in spec.split('+').filter(|c| !c.is_empty()) {
        let (key, value) = match clause.split_once('=') {
            Some((k, v)) => (k, Some(v)),
            None => (clause, None),
        };
        let bad = || SimError::config(format!("bad tweak clause `{clause}`"));
        match (key, value) {
            ("bw", Some(v)) => cfg.fabric.inter_gpu_gbps = v.parse().map_err(|_| bad())?,
            ("l2mb", Some(v)) => {
                let mb: u64 = v.parse().map_err(|_| bad())?;
                let lines_per_gpm = mb * 1024 * 1024 / 4 / cfg.geometry.line_bytes() as u64;
                cfg.l2 = hmg_mem::CacheConfig::new(lines_per_gpm as u32, 16);
            }
            ("dirk", Some(v)) => {
                let k: u32 = v.parse().map_err(|_| bad())?;
                cfg.dir = hmg_mem::DirectoryConfig::new(k * 1024, 16);
            }
            ("grain", Some(v)) => {
                let g: u32 = v
                    .parse()
                    .ok()
                    .filter(|&g| g >= 1 && u32::is_power_of_two(g))
                    .ok_or_else(bad)?;
                let coverage_lines = cfg.dir.entries as u64 * 4; // Table II coverage
                let entries = (coverage_lines / g as u64) as u32;
                cfg.geometry = hmg_mem::MemGeometry::new(
                    cfg.geometry.line_bytes(),
                    g,
                    cfg.geometry.page_bytes(),
                );
                cfg.dir = hmg_mem::DirectoryConfig::new(entries.max(16) / 16 * 16, 16);
            }
            ("gpus", Some(v)) => {
                let n: u16 = v.parse().map_err(|_| bad())?;
                cfg.topo = hmg_interconnect::Topology::new(n, 4);
            }
            ("zero-cost-fences", None) => cfg.zero_cost_fences = true,
            ("peer-redundancy", None) => cfg.track_peer_redundancy = true,
            ("write-policy", Some("wt")) => {
                cfg.l2_write_policy = hmg_gpu::WritePolicy::WriteThrough;
            }
            ("write-policy", Some("wb")) => cfg.l2_write_policy = hmg_gpu::WritePolicy::WriteBack,
            ("downgrades", Some("on")) => cfg.sharer_downgrades = true,
            ("downgrades", Some("off")) => cfg.sharer_downgrades = false,
            ("placement", Some("ft")) => cfg.placement = hmg_mem::PagePlacement::FirstTouch,
            ("placement", Some("il")) => cfg.placement = hmg_mem::PagePlacement::Interleaved,
            ("ecc", Some("off")) => cfg.ecc = hmg_gpu::EccMode::None,
            ("ecc", Some("parity")) => cfg.ecc = hmg_gpu::EccMode::Parity,
            ("ecc", Some("secded")) => cfg.ecc = hmg_gpu::EccMode::SecDed,
            ("checksums", Some("on")) => cfg.checksums = true,
            ("checksums", Some("off")) => cfg.checksums = false,
            ("scrub", Some(v)) => {
                cfg.scrub_interval = hmg_sim::Cycle(v.parse().map_err(|_| bad())?);
            }
            ("double-bit", Some(v)) => {
                let f: f64 = v.parse().map_err(|_| bad())?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(bad());
                }
                cfg.ecc_double_bit_fraction = f;
            }
            ("nack-thr", Some(v)) => {
                cfg.home_nack_threshold = Some(v.parse().map_err(|_| bad())?);
            }
            ("arbitration", Some(v)) => {
                cfg.arbitration = hmg_protocol::Arbitration::from_name(v).ok_or_else(bad)?;
            }
            _ => return Err(bad()),
        }
    }
    Ok(())
}

/// Everything needed to run one sweep cell, small enough to serialize
/// across the `__run-cell` process boundary.
#[derive(Debug, Clone)]
pub struct CellCtx {
    /// Unique cell key within the sweep (`workload/protocol`, or
    /// `point/workload/protocol` for sensitivity sweeps).
    pub key: String,
    /// Workload abbreviation (Table III).
    pub workload: String,
    /// Protocol configuration to run.
    pub protocol: ProtocolKind,
    /// Serialized configuration tweak (see [`apply_tweak`]).
    pub tweak: String,
    /// Experiment scale.
    pub scale: Scale,
    /// Workload-generation seed.
    pub seed: u64,
    /// Fault-injection plan, if any.
    pub faults: Option<FaultPlan>,
    /// Livelock-watchdog budget override.
    pub livelock_budget: Option<u64>,
    /// Base path of this cell's double-buffered snapshot store (`None`
    /// disables snapshotting).
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Cycles between periodic snapshot captures (0 = resume-only).
    pub snapshot_interval: u64,
}

impl CellCtx {
    /// Generates this cell's workload trace: a Table III workload at
    /// the cell's scale and seed, or a Fig. 7 correlation micro looked
    /// up by name.
    pub fn trace(&self) -> Result<WorkloadTrace, SimError> {
        if let Some(spec) = by_abbrev(&self.workload) {
            return Ok(spec.generate(self.scale, self.seed));
        }
        correlation_suite()
            .into_iter()
            .find(|m| m.name == self.workload)
            .map(|m| m.trace)
            .ok_or_else(|| SimError::config(format!("unknown workload `{}`", self.workload)))
    }

    /// The machine this cell runs `trace` on — the one configuration
    /// recipe every experiment run shares: the scale's machine with the
    /// cell's fault plan, then the serialized tweak, then capacities
    /// shrunk by the workload's footprint compression (none for a
    /// Fig. 7 micro), then the livelock watchdog armed for `trace`.
    ///
    /// `scale_capacities` floors the kernel launch overhead at 200
    /// cycles even when it shrinks nothing, so a `Scale::Tiny` cell runs
    /// the small test machine with a 200-cycle launch, not its 100.
    pub fn config(&self, trace: &WorkloadTrace) -> Result<EngineConfig, SimError> {
        let factor = by_abbrev(&self.workload).map_or(1.0, |s| s.capacity_factor(self.scale));
        let mut cfg = crate::runner::machine_config(self.scale, self.protocol);
        cfg.faults = self.faults.clone().unwrap_or_default();
        apply_tweak(&self.tweak, &mut cfg)?;
        crate::runner::scale_capacities(&mut cfg, factor);
        crate::runner::arm_watchdog(&mut cfg, trace, self.livelock_budget);
        Ok(cfg)
    }
}

/// Runs one sweep cell from scratch: trace generation, configuration,
/// watchdog arming, isolated execution. This is the single code path
/// shared by thread-isolated cells and `__run-cell` children, so both
/// isolation modes produce bit-identical metrics.
pub fn run_cell(ctx: &CellCtx) -> Result<RunMetrics, SimError> {
    run_cell_attempt(ctx, 1, false).map(|(m, _)| m)
}

/// Stable identity hash of everything that defines a cell's result,
/// stamped into its snapshot headers so a snapshot from a different
/// cell — or the same cell under different semantics — is refused as
/// stale rather than silently resumed.
fn snapshot_identity(ctx: &CellCtx) -> u64 {
    let faults = ctx
        .faults
        .as_ref()
        .map(FaultPlan::to_spec)
        .unwrap_or_default();
    let id = format!(
        "{}|{}|{}|{}|{}|{}|{}|{:?}",
        ctx.key,
        ctx.workload,
        ctx.protocol.name(),
        ctx.tweak,
        ctx.scale.name(),
        ctx.seed,
        faults,
        ctx.livelock_budget,
    );
    crate::runner::fnv1a64(id.as_bytes())
}

/// [`run_cell`] with the supervisor context it cannot see: the attempt
/// number and whether this is a `__run-cell` child process. The
/// [`supervisor::ENV_SNAPSHOT_KILL`] preemption knob only arms on the
/// first attempt of a process-isolated cell — later attempts must
/// resume and finish, and an in-process abort would take the whole
/// sweep down.
fn run_cell_attempt(ctx: &CellCtx, attempt: u32, process_child: bool) -> Result<CellRun, SimError> {
    let trace = ctx.trace()?;
    let cfg = ctx.config(&trace)?;
    let policy = ctx.snapshot_path.as_ref().map(|path| {
        // Best-effort: a missing store directory degrades to
        // cold-start-plus-write-errors, never a failed cell.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut policy = hmg_gpu::SnapshotPolicy::periodic(
            path.clone(),
            snapshot_identity(ctx),
            ctx.snapshot_interval,
        );
        if process_child && attempt == 1 {
            policy.kill_at = supervisor::snapshot_kill_cycle(&ctx.key);
        }
        policy
    });
    let (m, rep) = run_isolated(cfg, &trace, policy.as_ref())?;
    // Greppable snapshot accounting, mirroring the
    // `[fail-in-place]`/`[integrity]` contract: silent on snapshot-free
    // cold runs.
    for (p, e) in &rep.rejected {
        println!("[snapshot] cell {} refused {}: {e}", ctx.key, p.display());
    }
    if let Some(c) = rep.resumed_from {
        println!("[snapshot] cell {} resumed from cycle {c}", ctx.key);
    }
    // Per-epoch fail-in-place accounting, greppable from sweep logs
    // (all-zero on fault-free runs, so print nothing).
    if m.reconfig.epochs > 0 {
        println!(
            "[fail-in-place] workload={} protocol={} {}",
            ctx.workload,
            ctx.protocol.name(),
            m.reconfig
        );
    }
    // Soft-error accounting, same contract: silent on fault-free runs.
    if !m.integrity.is_zero() {
        println!(
            "[integrity] workload={} protocol={} {}",
            ctx.workload,
            ctx.protocol.name(),
            m.integrity
        );
    }
    Ok((m, rep.resumed_from))
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("unknown error")
}

/// Entry point of the hidden `__run-cell` mode the `experiments`
/// binary dispatches before normal argument parsing. Parses the cell
/// spec from `args`, runs the cell, and reports the outcome as the
/// final stdout line ([`supervisor::ok_marker`] with the full metrics
/// on success, `__hmg_cell_v2 err ...` with exit code 2 on a typed
/// simulation error). Any other exit — a panic, a kill — is classified
/// by the parent as a crash.
pub fn cell_main(args: &[String]) -> i32 {
    let outcome = parse_cell_args(args).and_then(|(ctx, attempt)| {
        supervisor::apply_test_knobs(&ctx.key, attempt);
        run_cell_attempt(&ctx, attempt, true)
    });
    match outcome {
        Ok(run) => {
            println!("{}", supervisor::ok_marker(&run));
            0
        }
        Err(e) => {
            println!(
                "{} err {}",
                supervisor::CELL_MARKER,
                first_line(&e.to_string())
            );
            supervisor::CELL_FAULT_EXIT
        }
    }
}

fn parse_cell_args(args: &[String]) -> Result<(CellCtx, u32), SimError> {
    let mut ctx = CellCtx {
        key: String::new(),
        workload: String::new(),
        protocol: ProtocolKind::Hmg,
        tweak: String::new(),
        scale: Scale::Tiny,
        seed: 0,
        faults: None,
        livelock_budget: None,
        snapshot_path: None,
        snapshot_interval: 0,
    };
    let mut attempt = 1u32;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(SimError::config(format!("{} needs a value", pair[0])));
        };
        let bad = || SimError::config(format!("bad {flag} value `{value}`"));
        match flag.as_str() {
            "--key" => ctx.key = value.clone(),
            "--workload" => ctx.workload = value.clone(),
            "--protocol" => ctx.protocol = ProtocolKind::from_name(value).ok_or_else(bad)?,
            "--tweak" => ctx.tweak = value.clone(),
            "--scale" => ctx.scale = Scale::from_name(value).ok_or_else(bad)?,
            "--seed" => ctx.seed = value.parse().map_err(|_| bad())?,
            "--attempt" => attempt = value.parse().map_err(|_| bad())?,
            "--faults" => ctx.faults = Some(FaultPlan::parse(value)?),
            "--livelock-budget" => ctx.livelock_budget = Some(value.parse().map_err(|_| bad())?),
            "--snapshot-path" => ctx.snapshot_path = Some(std::path::PathBuf::from(value)),
            "--snapshot-interval" => ctx.snapshot_interval = value.parse().map_err(|_| bad())?,
            other => return Err(SimError::config(format!("unknown cell flag `{other}`"))),
        }
    }
    if ctx.workload.is_empty() {
        return Err(SimError::config(
            "__run-cell requires --workload".to_string(),
        ));
    }
    if ctx.key.is_empty() {
        ctx.key = format!("{}/{}", ctx.workload, ctx.protocol.name());
    }
    Ok((ctx, attempt))
}

/// Builds the `__run-cell` re-exec command for `ctx`.
fn cell_command(ctx: &CellCtx, attempt: u32) -> Result<CellCommand, SimError> {
    let exe = std::env::current_exe()
        .map_err(|e| SimError::config(format!("cannot locate the experiments binary: {e}")))?;
    let mut flags = vec![
        ("--key", ctx.key.clone()),
        ("--workload", ctx.workload.clone()),
        ("--protocol", ctx.protocol.name().to_string()),
        ("--tweak", ctx.tweak.clone()),
        ("--scale", ctx.scale.name().to_string()),
        ("--seed", ctx.seed.to_string()),
        ("--attempt", attempt.to_string()),
    ];
    if let Some(f) = &ctx.faults {
        flags.push(("--faults", f.to_spec()));
    }
    if let Some(b) = ctx.livelock_budget {
        flags.push(("--livelock-budget", b.to_string()));
    }
    if let Some(p) = &ctx.snapshot_path {
        flags.push(("--snapshot-path", p.display().to_string()));
        flags.push(("--snapshot-interval", ctx.snapshot_interval.to_string()));
    }
    let args = std::iter::once("__run-cell".to_string())
        .chain(flags.into_iter().flat_map(|(f, v)| [f.to_string(), v]))
        .collect();
    Ok(CellCommand { exe, args })
}

/// Runs `cells` through the supervisor — the one executor of every
/// engine-running driver. `opts.checkpoint` is opened here, under an
/// identity hashed from every cell's snapshot identity; its
/// completed cells are reused with `opts.resume`, the rest execute
/// under the configured isolation with retry/backoff and timeout-kill,
/// completed cells are checkpointed as they finish, and each cell's
/// full metrics merge back in input order. A cell drained unrun after
/// a hard failure (no `--keep-going`) reads as a `skipped` error.
///
/// # Errors
///
/// Only when the checkpoint cannot be opened (unwritable, or written by
/// a different sweep); a failed cell is an `Err` entry instead.
pub fn run_cells(
    opts: &ExpOptions,
    cells: &[CellCtx],
) -> Result<Vec<Result<RunMetrics, SimError>>, SimError> {
    let ckpt = match &opts.checkpoint {
        Some(path) => {
            let ids: Vec<u8> = cells
                .iter()
                .flat_map(|c| snapshot_identity(c).to_le_bytes())
                .collect();
            let identity = format!(
                "cells={} identity={:016x}",
                cells.len(),
                crate::runner::fnv1a64(&ids)
            );
            Some(SweepCheckpoint::open(path, &identity, opts.resume)?)
        }
        None => None,
    };
    let ckpt = ckpt.as_ref();
    let mut merged: Vec<Option<Result<RunMetrics, SimError>>> = cells
        .iter()
        .map(|c| ckpt.and_then(|k| k.lookup(&c.key)).map(Ok))
        .collect();
    let reused = merged.iter().filter(|m| m.is_some()).count();
    supervisor::tally_reused(reused as u64);
    let pending: Vec<&CellCtx> = cells
        .iter()
        .zip(&merged)
        .filter(|(_, m)| m.is_none())
        .map(|(c, _)| c)
        .collect();
    let sup = opts.supervisor_config();
    let resumed_cells = std::sync::atomic::AtomicU64::new(0);
    let report = supervisor::supervise(
        &pending,
        |c| c.key.clone(),
        &sup,
        |&cell, attempt_no| {
            let a = match sup.isolation {
                // A panic here (the injection knob, a residual engine
                // bug) is classified a crash by the supervisor itself.
                Isolation::Thread => {
                    supervisor::apply_test_knobs(&cell.key, attempt_no);
                    run_cell_attempt(cell, attempt_no, false)
                        .map_or_else(Attempt::Fault, Attempt::Ok)
                }
                Isolation::Process => match cell_command(cell, attempt_no) {
                    Ok(cmd) => supervisor::process_attempt(&cmd, sup.cell_timeout),
                    Err(e) => Attempt::Fault(e),
                },
            };
            // Record final outcomes immediately, so an interrupt loses
            // at most the in-flight cells. Crashes/timeouts may still
            // be retried; they are recorded post-merge instead.
            match &a {
                Attempt::Ok((m, resumed_from)) => {
                    supervisor::tally_events(m.events);
                    if resumed_from.is_some() {
                        resumed_cells.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    if let Some(k) = ckpt {
                        k.record_ok(&cell.key, m);
                    }
                }
                Attempt::Fault(e) => {
                    if let Some(k) = ckpt {
                        k.record_failure(&cell.key, &e.to_string());
                    }
                }
                Attempt::Crashed(_) | Attempt::Timeout(_) => {}
            }
            a
        },
    );
    println!(
        "{}",
        report.summary_line(reused, ckpt.map_or(0, |c| c.stale_rows()))
    );
    let resumed = resumed_cells.load(std::sync::atomic::Ordering::Relaxed);
    if resumed > 0 {
        println!("[snapshot] resumed_cells={resumed}");
    }
    let mut live = report.cells.into_iter();
    for slot in merged.iter_mut() {
        if slot.is_some() {
            continue;
        }
        let Some(cr) = live.next() else { break };
        // Typed faults were checkpointed as they happened; crashes and
        // timeouts only now that their retries are spent.
        let retried = matches!(cr.status, CellStatus::Crashed(_) | CellStatus::Timeout(_));
        let result = cr
            .outcome
            .map(|(m, _)| m)
            .ok_or_else(|| cell_error(cr.status));
        if let (Err(e), Some(k)) = (&result, ckpt.filter(|_| retried)) {
            k.record_failure(&cr.key, &e.to_string());
        }
        *slot = Some(result);
    }
    Ok(merged
        .into_iter()
        .map(|m| m.unwrap_or_else(|| Err(cell_error(CellStatus::Skipped))))
        .collect())
}

/// The typed error of a cell that finished without a result.
fn cell_error(status: CellStatus) -> SimError {
    match status {
        CellStatus::Failed(e) => e,
        CellStatus::Crashed(m) => SimError::protocol(format!("cell crashed: {m}")),
        CellStatus::Timeout(m) => SimError::protocol(format!("cell timed out: {m}")),
        CellStatus::Ok => SimError::protocol("cell reported ok without an outcome".to_string()),
        CellStatus::Skipped => SimError::protocol("skipped after an earlier failure".to_string()),
    }
}

/// The failure table of a sweep's per-cell results, in input order,
/// each failed cell labelled by [`cell_label`]. Without `--keep-going`
/// the first failure comes back as `Err` instead: cells skipped by the
/// drain always follow the failure that stopped the sweep.
fn failure_table(
    opts: &ExpOptions,
    cells: &[CellCtx],
    results: &[Result<RunMetrics, SimError>],
) -> Result<Vec<RunFailure>, SimError> {
    let failures: Vec<RunFailure> = cells
        .iter()
        .zip(results)
        .filter_map(|(cell, r)| {
            let error = r.as_ref().err()?.clone();
            let (workload, protocol) = cell_label(cell);
            Some(RunFailure {
                workload,
                protocol,
                error,
            })
        })
        .collect();
    match failures.first() {
        Some(f) if !opts.keep_going => Err(f.error.clone()),
        _ => Ok(failures),
    }
}

/// A cell's [`failure_table`] label: its key less the protocol suffix
/// (the workload, or `point/workload` in sensitivity sweeps), and its
/// protocol.
fn cell_label(cell: &CellCtx) -> (String, ProtocolKind) {
    let workload = cell
        .key
        .strip_suffix(&format!("/{}", cell.protocol.name()))
        .unwrap_or(&cell.key);
    (workload.to_string(), cell.protocol)
}

/// Prints the failure table of a `--keep-going` run: one row per failed
/// run with the first line of its error. Silent when nothing failed.
fn print_failures(failures: &[RunFailure]) {
    if failures.is_empty() {
        return;
    }
    println!("-- {} failed run(s); partial result --", failures.len());
    let mut t = Table::new(vec![
        "workload".to_string(),
        "protocol".to_string(),
        "error".to_string(),
    ]);
    for f in failures {
        t.row(vec![
            f.workload.clone(),
            f.protocol.name().to_string(),
            first_line(&f.error.to_string()).to_string(),
        ]);
    }
    println!("{}", t.render());
}

// ---------------------------------------------------------------------
// Speedup suites (Figs. 2, 8, 12, 13, 14)
// ---------------------------------------------------------------------

/// One failed run inside a `--keep-going` sweep.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Workload abbreviation.
    pub workload: String,
    /// Protocol configuration that failed.
    pub protocol: ProtocolKind,
    /// The full error, including cycle/agent/address context and the
    /// machine-state dump.
    pub error: SimError,
}

/// Per-workload speedups of several protocols over the no-peer-caching
/// baseline.
#[derive(Debug, Clone)]
pub struct SpeedupResult {
    /// The protocols compared, in column order.
    pub protocols: Vec<ProtocolKind>,
    /// Workload abbreviations, in figure order. Workloads with a failed
    /// run are excluded here and listed in `failures` instead.
    pub workloads: Vec<String>,
    /// `rows[w][p]` = speedup of protocol `p` on workload `w`.
    pub rows: Vec<Vec<f64>>,
    /// Geomean per protocol (over the surviving workloads).
    pub geomeans: Vec<f64>,
    /// Runs that failed under `--keep-going` (empty otherwise).
    pub failures: Vec<RunFailure>,
}

impl SpeedupResult {
    /// Renders the figure as a table.
    pub fn print(&self, title: &str) {
        println!("== {title} ==");
        let mut headers = vec!["workload".to_string()];
        headers.extend(self.protocols.iter().map(|p| p.name().to_string()));
        let mut t = Table::new(headers);
        for (w, row) in self.workloads.iter().zip(&self.rows) {
            let mut cells = vec![w.clone()];
            cells.extend(row.iter().map(|&v| f2(v)));
            t.row(cells);
        }
        let mut cells = vec!["GeoMean".to_string()];
        cells.extend(self.geomeans.iter().map(|&v| f2(v)));
        t.row(cells);
        println!("{}", t.render());
        print_failures(&self.failures);
    }

    /// Renders the figure as an SVG grouped-bar chart.
    pub fn to_svg(&self, title: &str) -> String {
        let mut chart = hmg_plot::GroupedBars::new(title)
            .subtitle("speedup over the no-peer-caching baseline")
            .series(
                self.protocols
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect(),
            )
            .y_label("speedup")
            .reference_line(1.0)
            .label_last_group();
        for (w, row) in self.workloads.iter().zip(&self.rows) {
            chart = chart.group(w.clone(), row.clone());
        }
        chart = chart.group("GeoMean", self.geomeans.clone());
        chart.to_svg()
    }

    /// Geomean speedup of one protocol.
    ///
    /// # Panics
    ///
    /// Panics if the protocol was not part of this result.
    pub fn geomean_of(&self, p: ProtocolKind) -> f64 {
        let i = self
            .protocols
            .iter()
            .position(|&q| q == p)
            .expect("protocol in result");
        self.geomeans[i]
    }
}

/// Runs the suite under `protocols` (plus the baseline) with the
/// serialized `tweak` applied to every configuration; returns speedups
/// over the baseline.
///
/// Every (workload, protocol) cell runs under the sweep supervisor:
/// process- or thread-isolated, retried with backoff on transient
/// failure, timeout-killed when over budget, and checkpointed as it
/// finishes so `--resume` reuses completed cells. Without
/// `keep_going`, the first hard failure drains the sweep and comes
/// back as `Err`; with it, failures land in the result's failure
/// table.
pub fn speedup_suite(
    opts: &ExpOptions,
    protocols: &[ProtocolKind],
    tweak: &str,
) -> Result<SpeedupResult, SimError> {
    let specs = opts.specs();
    // One cell per (workload, protocol-or-baseline).
    let mut cells: Vec<CellCtx> = Vec::new();
    for spec in &specs {
        for p in std::iter::once(ProtocolKind::NoPeerCaching).chain(protocols.iter().copied()) {
            let key = format!("{}/{}", spec.abbrev, p.name());
            cells.push(opts.cell(key, spec.abbrev, p, tweak));
        }
    }
    let results = run_cells(opts, &cells)?;
    let failures = failure_table(opts, &cells, &results)?;
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(specs.len());
    let mut workloads = Vec::with_capacity(specs.len());
    for (spec, chunk) in specs.iter().zip(results.chunks(protocols.len() + 1)) {
        // Only workloads whose every cell completed get a speedup row.
        if let Some(cycles) = chunk.iter().map(done_cycles).collect::<Option<Vec<u64>>>() {
            let base = cycles[0] as f64;
            rows.push(cycles[1..].iter().map(|&c| base / c as f64).collect());
            workloads.push(spec.abbrev.to_string());
        }
    }
    let geomeans: Vec<f64> = (0..protocols.len())
        .map(|p| stats::geomean(&rows.iter().map(|r| r[p]).collect::<Vec<_>>()))
        .collect();
    Ok(SpeedupResult {
        protocols: protocols.to_vec(),
        workloads,
        rows,
        geomeans,
        failures,
    })
}

/// Fig. 8: all five configurations on the 4-GPU Table II machine.
pub fn fig8(opts: &ExpOptions) -> Result<SpeedupResult, SimError> {
    speedup_suite(opts, &ProtocolKind::FIG8, "")
}

/// Fig. 2: the motivating subset (non-hierarchical SW, non-hierarchical
/// HW, idealized caching).
pub fn fig2(opts: &ExpOptions) -> Result<SpeedupResult, SimError> {
    speedup_suite(
        opts,
        &[
            ProtocolKind::SwNonHier,
            ProtocolKind::Nhcc,
            ProtocolKind::Ideal,
        ],
        "",
    )
}

/// Prior-work comparison: the CARVE-like broadcast-filtered protocol
/// \[14\] against NHCC and HMG (Section II-A's motivation for precise,
/// hierarchical sharer tracking).
pub fn carve_comparison(opts: &ExpOptions) -> Result<SpeedupResult, SimError> {
    speedup_suite(
        opts,
        &[
            ProtocolKind::Nhcc,
            ProtocolKind::CarveLike,
            ProtocolKind::Hmg,
            ProtocolKind::Ideal,
        ],
        "",
    )
}

/// §VII-D scaling discussion: geomean speedups as the system grows from
/// 2 to 8 GPUs (4 GPMs each). Directory capacity per GPM is held at the
/// Table II value; the paper argues HMG has headroom here (Fig. 14
/// showed a 50% smaller directory still performs).
pub fn scale_study(opts: &ExpOptions) -> Result<SweepResult, SimError> {
    // Persistent-kernel grids are sized for the 4-GPU machine; smaller
    // topologies cannot make them resident.
    let opts = &exclude_persistent_kernels(opts);
    let points: Vec<SweepPoint> = [2u16, 4, 8]
        .into_iter()
        .map(|gpus| (format!("{gpus} GPUs"), format!("gpus={gpus}")))
        .collect();
    // Per-point normalization here (a bigger machine changes the
    // baseline too); the interesting output is HMG's gap at each size.
    point_sweep(opts, "system size", points, &SWEEP_PROTOCOLS, true)
}

/// §VII-A single-GPU check: on one GPU, protocols should be close.
///
/// Persistent-kernel workloads are excluded: their resident grids are
/// sized for the full Table II machine and cannot co-schedule on one
/// GPU (see `WorkloadSpec::uses_persistent_kernel`).
pub fn single_gpu(opts: &ExpOptions) -> Result<SpeedupResult, SimError> {
    let opts = exclude_persistent_kernels(opts);
    speedup_suite(&opts, &ProtocolKind::FIG8, "gpus=1")
}

/// The completed cycle count of a merged cell, if it completed.
fn done_cycles(r: &Result<RunMetrics, SimError>) -> Option<u64> {
    r.as_ref().ok().map(|m| m.total_cycles.as_u64())
}

/// Drops persistent-kernel workloads from the selection (they require
/// the default machine's SM count to be fully resident).
fn exclude_persistent_kernels(opts: &ExpOptions) -> ExpOptions {
    let keep: Vec<String> = opts
        .specs()
        .into_iter()
        .filter(|s| !s.uses_persistent_kernel())
        .map(|s| s.abbrev.to_string())
        .collect();
    ExpOptions {
        filter: Some(keep),
        ..opts.clone()
    }
}

/// A sensitivity sweep: geomean speedups per sweep point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Label of the swept parameter.
    pub parameter: &'static str,
    /// Sweep point labels.
    pub points: Vec<String>,
    /// Protocols, in column order.
    pub protocols: Vec<ProtocolKind>,
    /// `geomeans[point][protocol]`, over the workloads whose cells all
    /// completed.
    pub geomeans: Vec<Vec<f64>>,
    /// Cells that failed under `--keep-going` (empty otherwise); the
    /// `workload` field carries the `point/workload` cell prefix.
    pub failures: Vec<RunFailure>,
}

impl SweepResult {
    /// Renders the sweep as a table.
    pub fn print(&self, title: &str) {
        println!("== {title} ==");
        let mut headers = vec![self.parameter.to_string()];
        headers.extend(self.protocols.iter().map(|p| p.name().to_string()));
        let mut t = Table::new(headers);
        for (pt, row) in self.points.iter().zip(&self.geomeans) {
            let mut cells = vec![pt.clone()];
            cells.extend(row.iter().map(|&v| f2(v)));
            t.row(cells);
        }
        println!("{}", t.render());
        print_failures(&self.failures);
    }

    /// Renders the sweep as an SVG line chart.
    pub fn to_svg(&self, title: &str) -> String {
        let mut chart = hmg_plot::LineChart::new(title)
            .subtitle(format!("geomean speedup vs {}", self.parameter))
            .x_points(self.points.clone())
            .y_label("geomean speedup");
        for (i, p) in self.protocols.iter().enumerate() {
            let series: Vec<f64> = self.geomeans.iter().map(|row| row[i]).collect();
            chart = chart.line(p.name(), series);
        }
        chart.to_svg()
    }
}

/// One sweep point: its axis label and the serialized configuration
/// tweak it applies (see [`apply_tweak`]).
pub type SweepPoint = (String, String);

/// The four configurations the sensitivity figures plot.
const SWEEP_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Nhcc,
    ProtocolKind::SwHier,
    ProtocolKind::Hmg,
    ProtocolKind::Ideal,
];

/// Runs a sensitivity sweep: every `(point, workload, protocol)` cell,
/// and the no-peer-caching baseline each is normalized to. With
/// `per_point_baseline` the baseline runs at every point. Without it,
/// the baseline runs **once, on the Table II configuration**, the way
/// the paper's Figs. 12–14 are normalized ("baseline is no caching with
/// configurations of Table II"). The geomean per point and protocol is
/// over the workloads whose baseline and protocol cells both completed.
fn point_sweep(
    opts: &ExpOptions,
    parameter: &'static str,
    points: Vec<SweepPoint>,
    protocols: &[ProtocolKind],
    per_point_baseline: bool,
) -> Result<SweepResult, SimError> {
    let specs = opts.specs();
    let base = ProtocolKind::NoPeerCaching;
    let key = |label: &str, w: &str, p: ProtocolKind| format!("{label}/{w}/{}", p.name());
    let mut cells: Vec<CellCtx> = Vec::new();
    if !per_point_baseline {
        for s in &specs {
            cells.push(opts.cell(key("table2", s.abbrev, base), s.abbrev, base, ""));
        }
    }
    for (label, tweak) in &points {
        for s in &specs {
            let own_base = per_point_baseline.then_some(base);
            for p in own_base.into_iter().chain(protocols.iter().copied()) {
                cells.push(opts.cell(key(label, s.abbrev, p), s.abbrev, p, tweak));
            }
        }
    }
    let results = run_cells(opts, &cells)?;
    let failures = failure_table(opts, &cells, &results)?;
    let cycles: std::collections::HashMap<&str, u64> = cells
        .iter()
        .zip(&results)
        .filter_map(|(c, r)| Some((c.key.as_str(), done_cycles(r)?)))
        .collect();
    let speedup = |base_label: &str, label: &str, w: &str, p| {
        let b = cycles.get(key(base_label, w, base).as_str())?;
        let c = cycles.get(key(label, w, p).as_str())?;
        Some(*b as f64 / *c as f64)
    };
    let geomeans = points
        .iter()
        .map(|(label, _)| {
            let base_label = if per_point_baseline { label } else { "table2" };
            protocols
                .iter()
                .map(|&p| {
                    let s: Vec<f64> = specs
                        .iter()
                        .filter_map(|s| speedup(base_label, label, s.abbrev, p))
                        .collect();
                    stats::geomean(&s)
                })
                .collect()
        })
        .collect();
    Ok(SweepResult {
        parameter,
        points: points.into_iter().map(|(l, _)| l).collect(),
        protocols: protocols.to_vec(),
        geomeans,
        failures,
    })
}

/// Fig. 12: sensitivity to inter-GPU bandwidth (100–400 GB/s per link).
pub fn fig12(opts: &ExpOptions) -> Result<SweepResult, SimError> {
    let points: Vec<SweepPoint> = [100.0f64, 200.0, 300.0, 400.0]
        .into_iter()
        .map(|bw| (format!("{bw:.0}GB/s"), format!("bw={bw}")))
        .collect();
    point_sweep(opts, "inter-GPU BW", points, &SWEEP_PROTOCOLS, false)
}

/// Fig. 13: sensitivity to L2 capacity (6/12/24 MB per GPU).
pub fn fig13(opts: &ExpOptions) -> Result<SweepResult, SimError> {
    let points: Vec<SweepPoint> = [6u32, 12, 24]
        .into_iter()
        .map(|mb| (format!("{mb}MB/GPU"), format!("l2mb={mb}")))
        .collect();
    point_sweep(opts, "L2 per GPU", points, &SWEEP_PROTOCOLS, false)
}

/// Fig. 14: sensitivity to coherence directory capacity
/// (3K/6K/12K entries per GPM).
pub fn fig14(opts: &ExpOptions) -> Result<SweepResult, SimError> {
    let points: Vec<SweepPoint> = [3u32, 6, 12]
        .into_iter()
        .map(|k| (format!("{k}K/GPM"), format!("dirk={k}")))
        .collect();
    point_sweep(opts, "dir entries", points, &SWEEP_PROTOCOLS, false)
}

/// §VII-B (not pictured): directory tracking granularity at constant
/// coverage — `lines_per_entry` in {1, 2, 4, 8} with the entry count
/// adjusted so total covered bytes stay fixed.
pub fn grain_sweep(opts: &ExpOptions) -> Result<SweepResult, SimError> {
    let points: Vec<SweepPoint> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|g| (format!("{g}x128B"), format!("grain={g}")))
        .collect();
    point_sweep(opts, "lines/entry", points, &[ProtocolKind::Hmg], false)
}

// ---------------------------------------------------------------------
// Fig. 3: inter-GPU load redundancy
// ---------------------------------------------------------------------

/// Fig. 3 result: per workload, the fraction of inter-GPU loads whose
/// line another GPM of the same GPU had already accessed.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// `(workload, redundancy)`; `None` when no inter-GPU loads occur.
    /// Workloads whose run failed are listed in `failures` instead.
    pub rows: Vec<(String, Option<f64>)>,
    /// Mean over workloads with inter-GPU loads.
    pub average: f64,
    /// Runs that failed under `--keep-going` (empty otherwise).
    pub failures: Vec<RunFailure>,
}

impl Fig3Result {
    /// Renders the figure as a table.
    pub fn print(&self) {
        println!("== Fig. 3: % of inter-GPU loads redundant within the GPU ==");
        let mut t = Table::new(vec!["workload".into(), "redundant".into()]);
        for (w, v) in &self.rows {
            t.row(vec![w.clone(), v.map(pct).unwrap_or_else(|| "n/a".into())]);
        }
        t.row(vec!["Avg".into(), pct(self.average)]);
        println!("{}", t.render());
        print_failures(&self.failures);
    }

    /// Renders the figure as an SVG bar chart (percent per workload).
    pub fn to_svg(&self) -> String {
        let mut chart =
            hmg_plot::GroupedBars::new("Fig. 3: inter-GPU loads redundant within the GPU")
                .subtitle("measured on the no-peer-caching baseline")
                .series(vec!["redundant share".into()])
                .y_label("% of inter-GPU loads");
        for (w, v) in &self.rows {
            chart = chart.group(w.clone(), vec![v.unwrap_or(0.0) * 100.0]);
        }
        chart = chart.group("Avg", vec![self.average * 100.0]);
        chart.label_last_group().to_svg()
    }
}

/// Fig. 3: measured on the no-peer-caching baseline, where every remote
/// load crosses the inter-GPU network.
pub fn fig3(opts: &ExpOptions) -> Result<Fig3Result, SimError> {
    let cells = opts.suite_cells(ProtocolKind::NoPeerCaching, "peer-redundancy");
    let results = run_cells(opts, &cells)?;
    let failures = failure_table(opts, &cells, &results)?;
    let rows: Vec<_> = cells
        .iter()
        .zip(&results)
        .filter_map(|(c, r)| Some((c.workload.clone(), r.as_ref().ok()?.peer_redundancy())))
        .collect();
    let vals: Vec<f64> = rows.iter().filter_map(|(_, v)| *v).collect();
    Ok(Fig3Result {
        average: stats::mean(&vals),
        rows,
        failures,
    })
}

// ---------------------------------------------------------------------
// Fig. 7: simulator correlation
// ---------------------------------------------------------------------

/// One Fig. 7 scatter point.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Microbenchmark name.
    pub name: String,
    /// Analytically predicted cycles.
    pub predicted: f64,
    /// Simulated cycles.
    pub simulated: f64,
}

/// Fig. 7 result: correlation of the DES against the analytical model.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// The scatter points.
    pub points: Vec<Fig7Point>,
    /// Pearson correlation of log10(cycles).
    pub r_log: f64,
    /// Mean absolute relative error.
    pub mean_abs_rel_err: f64,
    /// Simulation throughput in events per second of wall time.
    pub events_per_second: f64,
    /// Microbenchmarks whose run failed under `--keep-going` (empty
    /// otherwise).
    pub failures: Vec<RunFailure>,
}

impl Fig7Result {
    /// Renders the figure as a table.
    pub fn print(&self) {
        println!("== Fig. 7: simulator correlation vs analytical model ==");
        let mut t = Table::new(vec![
            "microbenchmark".into(),
            "predicted".into(),
            "simulated".into(),
            "ratio".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                p.name.clone(),
                format!("{:.0}", p.predicted),
                format!("{:.0}", p.simulated),
                f2(p.simulated / p.predicted),
            ]);
        }
        println!("{}", t.render());
        println!("correlation (log10): r = {}", f3(self.r_log));
        println!("mean abs rel err:    {}", f3(self.mean_abs_rel_err));
        println!(
            "simulator speed:     {:.1}M events/s",
            self.events_per_second / 1e6
        );
        print_failures(&self.failures);
    }

    /// Renders the correlation scatter as SVG.
    pub fn to_svg(&self) -> String {
        let mut chart = hmg_plot::LogLogScatter::new(
            "Fig. 7: simulator correlation",
            "analytically predicted cycles",
            "simulated cycles",
        )
        .subtitle(format!(
            "r(log10) = {:.3}, mean abs rel err = {:.3}",
            self.r_log, self.mean_abs_rel_err
        ));
        for p in &self.points {
            chart = chart.point(p.name.clone(), p.predicted, p.simulated);
        }
        chart.to_svg()
    }
}

/// Fig. 7 over the correlation microbenchmark suite. The Table II
/// machine is always used (the micros assume its 16-GPM shape): each
/// micro is an HMG cell at [`Scale::Small`] with no fault plan, and
/// `opts` supplies only the worker pool, isolation, checkpoint and
/// `--keep-going`.
pub fn fig7(opts: &ExpOptions) -> Result<Fig7Result, SimError> {
    let suite = correlation_suite();
    let machine = ExpOptions {
        scale: Scale::Small,
        faults: None,
        ..opts.clone()
    };
    let cells: Vec<CellCtx> = suite
        .iter()
        .map(|m| machine.cell(m.name.clone(), &m.name, ProtocolKind::Hmg, ""))
        .collect();
    let cfg = EngineConfig::paper_default(ProtocolKind::Hmg);
    let params = MachineParams {
        issue_cycles: cfg.issue_cycles as f64,
        l1_latency: cfg.l1_latency.as_u64() as f64,
        l2_latency: cfg.l2_latency.as_u64() as f64,
        dram_latency: cfg.dram_latency.as_u64() as f64,
        dram_bytes_per_cycle: cfg.dram_bytes_per_cycle,
        inter_gpu_bytes_per_cycle: cfg.fabric.inter_gpu_gbps / cfg.fabric.freq_ghz,
        line_bytes: cfg.geometry.line_bytes() as f64,
        resp_bytes: cfg.msg.load_resp as f64,
        kernel_launch: cfg.kernel_launch_overhead.as_u64() as f64,
        num_gpms: cfg.topo.num_gpms() as f64,
        num_gpus: cfg.topo.num_gpus() as f64,
    };
    // audit:allow(entropy): wall-clock runtime measurement (Fig. 7);
    // never feeds simulated state.
    let start = std::time::Instant::now();
    let results = run_cells(opts, &cells)?;
    let wall = start.elapsed().as_secs_f64();
    let failures = failure_table(opts, &cells, &results)?;
    let runs: Vec<_> = suite
        .iter()
        .zip(&results)
        .filter_map(|(m, r)| Some((m, r.as_ref().ok()?)))
        .collect();
    let total_events: u64 = runs.iter().map(|(_, sim)| sim.events).sum();
    let points: Vec<Fig7Point> = runs
        .into_iter()
        .map(|(m, sim)| Fig7Point {
            name: m.name.clone(),
            predicted: (m.predict)(&params),
            simulated: sim.total_cycles.as_u64() as f64,
        })
        .collect();
    let logp: Vec<f64> = points.iter().map(|p| p.predicted.log10()).collect();
    let logs: Vec<f64> = points.iter().map(|p| p.simulated.log10()).collect();
    let sims: Vec<f64> = points.iter().map(|p| p.simulated).collect();
    let preds: Vec<f64> = points.iter().map(|p| p.predicted).collect();
    Ok(Fig7Result {
        r_log: stats::pearson(&logp, &logs),
        mean_abs_rel_err: stats::mean_abs_rel_err(&sims, &preds),
        events_per_second: total_events as f64 / wall.max(1e-9),
        points,
        failures,
    })
}

// ---------------------------------------------------------------------
// Figs. 9, 10, 11: invalidation cost profile of HMG
// ---------------------------------------------------------------------

/// Per-workload invalidation costs under HMG.
#[derive(Debug, Clone)]
pub struct InvCostRow {
    /// Workload abbreviation.
    pub workload: String,
    /// Fig. 9: avg lines invalidated per invalidation-triggering store.
    pub lines_per_store_inv: Option<f64>,
    /// Fig. 10: avg lines invalidated per directory eviction.
    pub lines_per_eviction_inv: Option<f64>,
    /// Fig. 11: invalidation-message bandwidth in GB/s.
    pub inv_gbps: f64,
}

/// Figs. 9–11 result.
#[derive(Debug, Clone)]
pub struct InvCostResult {
    /// One row per workload.
    pub rows: Vec<InvCostRow>,
    /// Averages across workloads (where defined).
    pub avg_store: f64,
    /// Average lines per eviction.
    pub avg_evict: f64,
    /// Average invalidation bandwidth.
    pub avg_gbps: f64,
    /// Runs that failed under `--keep-going` (empty otherwise).
    pub failures: Vec<RunFailure>,
}

impl InvCostResult {
    /// Renders the three figures as one table.
    pub fn print(&self) {
        println!("== Figs. 9-11: HMG invalidation costs ==");
        let mut t = Table::new(vec![
            "workload".into(),
            "lines/store-inv".into(),
            "lines/dir-evict".into(),
            "inv GB/s".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.lines_per_store_inv.map(f2).unwrap_or_else(|| "0".into()),
                r.lines_per_eviction_inv
                    .map(f2)
                    .unwrap_or_else(|| "0".into()),
                f2(r.inv_gbps),
            ]);
        }
        t.row(vec![
            "Avg".into(),
            f2(self.avg_store),
            f2(self.avg_evict),
            f2(self.avg_gbps),
        ]);
        println!("{}", t.render());
        print_failures(&self.failures);
    }

    /// Renders Figs. 9–11 as three single-series SVG bar charts,
    /// concatenated vertically is left to the caller; this returns the
    /// three documents in figure order.
    pub fn to_svgs(&self) -> [String; 3] {
        let mk = |title: &str, sub: &str, vals: Vec<(String, f64)>, avg: f64| {
            let mut chart = hmg_plot::GroupedBars::new(title)
                .subtitle(sub)
                .series(vec!["HMG".into()]);
            for (w, v) in vals {
                chart = chart.group(w, vec![v]);
            }
            chart
                .group("Avg".to_string(), vec![avg])
                .label_last_group()
                .to_svg()
        };
        let fig9 = mk(
            "Fig. 9: lines invalidated per store",
            "stores that triggered invalidations",
            self.rows
                .iter()
                .map(|r| (r.workload.clone(), r.lines_per_store_inv.unwrap_or(0.0)))
                .collect(),
            self.avg_store,
        );
        let fig10 = mk(
            "Fig. 10: lines invalidated per directory eviction",
            "evictions that triggered invalidations",
            self.rows
                .iter()
                .map(|r| (r.workload.clone(), r.lines_per_eviction_inv.unwrap_or(0.0)))
                .collect(),
            self.avg_evict,
        );
        let fig11 = mk(
            "Fig. 11: invalidation-message bandwidth",
            "GB/s across both network tiers",
            self.rows
                .iter()
                .map(|r| (r.workload.clone(), r.inv_gbps))
                .collect(),
            self.avg_gbps,
        );
        [fig9, fig10, fig11]
    }
}

/// Runs HMG over the suite and extracts the Figs. 9–11 statistics.
pub fn fig9_10_11(opts: &ExpOptions) -> Result<InvCostResult, SimError> {
    let cells = opts.suite_cells(ProtocolKind::Hmg, "");
    let results = run_cells(opts, &cells)?;
    let failures = failure_table(opts, &cells, &results)?;
    // The scale's machine clock; nothing these cells apply changes it.
    let freq = crate::runner::machine_config(opts.scale, ProtocolKind::Hmg)
        .fabric
        .freq_ghz;
    let rows: Vec<InvCostRow> = cells
        .iter()
        .zip(&results)
        .filter_map(|(cell, r)| {
            let m = r.as_ref().ok()?;
            Some(InvCostRow {
                workload: cell.workload.clone(),
                lines_per_store_inv: m.lines_per_store_inv(),
                lines_per_eviction_inv: m.lines_per_eviction_inv(),
                inv_gbps: m.inv_bandwidth_gbps(freq),
            })
        })
        .collect();
    let stores: Vec<f64> = rows.iter().filter_map(|r| r.lines_per_store_inv).collect();
    let evicts: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.lines_per_eviction_inv)
        .collect();
    let gbps: Vec<f64> = rows.iter().map(|r| r.inv_gbps).collect();
    Ok(InvCostResult {
        avg_store: stats::mean(&stores),
        avg_evict: stats::mean(&evicts),
        avg_gbps: stats::mean(&gbps),
        rows,
        failures,
    })
}

// ---------------------------------------------------------------------
// §VII-C storage cost, and the DESIGN.md ablations
// ---------------------------------------------------------------------

/// §VII-C: directory storage arithmetic for the Table II machine.
pub fn storage_cost() -> (u32, u64, f64) {
    let cfg = EngineConfig::paper_default(ProtocolKind::Hmg);
    let dir = hmg_mem::Directory::new(cfg.dir, cfg.topo);
    let cost = dir.storage_cost(48);
    let l2_slice_bytes = cfg.l2.lines as u64 * cfg.geometry.line_bytes() as u64;
    let frac = cost.total_bytes as f64 / l2_slice_bytes as f64;
    (cost.bits_per_entry, cost.total_bytes, frac)
}

/// Prints the §VII-C hardware-cost numbers.
pub fn print_storage_cost() {
    let (bits, bytes, frac) = storage_cost();
    println!("== §VII-C: HMG directory hardware cost ==");
    println!("bits per entry:      {bits} (48 tag + 1 state + 6 sharers)");
    println!(
        "bytes per GPM:       {bytes} ({:.0} KB)",
        bytes as f64 / 1024.0
    );
    println!("fraction of L2 data: {}", pct(frac));
}

/// Result of a two-point ablation.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// What was ablated.
    pub name: &'static str,
    /// `(label, geomean speedup over baseline)`.
    pub variants: Vec<(String, f64)>,
}

impl AblationResult {
    /// Renders the ablation.
    pub fn print(&self) {
        println!("== Ablation: {} ==", self.name);
        let mut t = Table::new(vec!["variant".into(), "geomean speedup".into()]);
        for (label, v) in &self.variants {
            t.row(vec![label.clone(), f2(*v)]);
        }
        println!("{}", t.render());
    }
}

/// Runs a two-variant HMG ablation as one sweep: each variant's tweak
/// applies to its HMG cells and to the no-peer-caching baseline they
/// are normalized to, and each variant reports the geomean speedup
/// over the workloads whose cells both completed.
fn ablation(
    opts: &ExpOptions,
    name: &'static str,
    variants: [(&str, &str); 2],
) -> Result<AblationResult, SimError> {
    let points = variants
        .iter()
        .map(|&(label, tweak)| (label.to_string(), tweak.to_string()))
        .collect();
    let r = point_sweep(opts, name, points, &[ProtocolKind::Hmg], true)?;
    Ok(AblationResult {
        name,
        variants: r
            .points
            .into_iter()
            .zip(r.geomeans)
            .map(|(l, g)| (l, g[0]))
            .collect(),
    })
}

/// Ablation: HMG with real (acked, drained) release fences vs
/// zero-cost fences.
pub fn ablate_fences(opts: &ExpOptions) -> Result<AblationResult, SimError> {
    ablation(
        opts,
        "release fence cost (HMG)",
        [
            ("acked fences (paper)", ""),
            ("zero-cost fences", "zero-cost-fences"),
        ],
    )
}

/// Ablation: §IV-B's write-back option vs the evaluated write-through
/// configuration, under HMG.
pub fn ablate_writeback(opts: &ExpOptions) -> Result<AblationResult, SimError> {
    ablation(
        opts,
        "L2 write policy (HMG)",
        [
            ("write-through (paper)", "write-policy=wt"),
            ("write-back (§IV-B option)", "write-policy=wb"),
        ],
    )
}

/// Ablation: §IV-B's optional sharer-downgrade messages, under HMG.
pub fn ablate_downgrades(opts: &ExpOptions) -> Result<AblationResult, SimError> {
    ablation(
        opts,
        "sharer downgrades (HMG)",
        [
            ("silent clean evictions (paper)", "downgrades=off"),
            ("downgrade messages", "downgrades=on"),
        ],
    )
}

/// Ablation: first-touch vs interleaved page placement under HMG.
pub fn ablate_placement(opts: &ExpOptions) -> Result<AblationResult, SimError> {
    ablation(
        opts,
        "page placement (HMG)",
        [
            ("first-touch (paper)", "placement=ft"),
            ("interleaved", "placement=il"),
        ],
    )
}

/// Prints Table III (the workload inventory) with generated-trace sizes.
/// No engine runs here, so the traces are generated in-process on the
/// supervisor pool, and there is no per-protocol failure row: a trace
/// generator that crashes fails the table with a typed error.
pub fn print_table3(opts: &ExpOptions) -> Result<(), SimError> {
    let specs = opts.specs();
    let sup = SupervisorConfig {
        isolation: Isolation::Thread,
        ..opts.supervisor_config()
    };
    let report = supervisor::supervise(
        &specs,
        |s| s.abbrev.to_string(),
        &sup,
        |s, _| Attempt::Ok(s.generate(opts.scale, opts.seed)),
    );
    println!("{}", report.summary_line(0, 0));
    let traces = report
        .cells
        .into_iter()
        .map(|c| c.outcome.ok_or_else(|| cell_error(c.status)))
        .collect::<Result<Vec<WorkloadTrace>, SimError>>()?;
    println!("== Table III: benchmarks ==");
    let mut t = Table::new(vec![
        "benchmark".into(),
        "abbrev".into(),
        "paper footprint".into(),
        "generated accesses".into(),
        "kernels".into(),
    ]);
    for (s, tr) in specs.iter().zip(&traces) {
        let fp = if s.paper_footprint_mb >= 1000.0 {
            format!("{:.2} GB", s.paper_footprint_mb / 1024.0)
        } else {
            format!("{:.0} MB", s.paper_footprint_mb)
        };
        t.row(vec![
            s.name.to_string(),
            s.abbrev.to_string(),
            fp,
            tr.num_accesses().to_string(),
            tr.num_kernels().to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

/// One protocol's traffic/locality profile on one workload — the raw
/// characterization behind the figures.
#[derive(Debug, Clone)]
pub struct CharacterizationRow {
    /// Protocol profiled.
    pub protocol: ProtocolKind,
    /// Total execution cycles.
    pub cycles: u64,
    /// L1 hit rate over loads.
    pub l1_hit_rate: f64,
    /// Fraction of loads served by any L2 level.
    pub l2_serve_rate: f64,
    /// DRAM accesses per load.
    pub dram_per_load: f64,
    /// Inter-GPU bytes moved (all classes).
    pub inter_bytes: u64,
    /// Invalidation messages (store- plus eviction-caused).
    pub invalidations: u64,
    /// Median / 99th-percentile miss latency.
    pub lat_p50_p99: (u64, u64),
}

/// One workload's characterization under every protocol.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Workload abbreviation.
    pub workload: String,
    /// One row per protocol that completed, in [`ProtocolKind::ALL`]
    /// order.
    pub rows: Vec<CharacterizationRow>,
    /// Runs that failed under `--keep-going` (empty otherwise).
    pub failures: Vec<RunFailure>,
}

impl Characterization {
    /// Renders the characterization as a table.
    pub fn print(&self) {
        println!("== Characterization: {} ==", self.workload);
        let mut t = Table::new(vec![
            "protocol".into(),
            "cycles".into(),
            "L1 hit".into(),
            "L2 serve".into(),
            "DRAM/load".into(),
            "inter MB".into(),
            "invs".into(),
            "p50/p99 lat".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.protocol.name().into(),
                r.cycles.to_string(),
                pct(r.l1_hit_rate),
                pct(r.l2_serve_rate),
                f2(r.dram_per_load),
                format!("{:.1}", r.inter_bytes as f64 / 1e6),
                r.invalidations.to_string(),
                format!("{}/{}", r.lat_p50_p99.0, r.lat_p50_p99.1),
            ]);
        }
        println!("{}", t.render());
        print_failures(&self.failures);
    }
}

/// Characterizes each of `workloads` under every protocol (the
/// `characterize` CLI command) — a drill-down companion to Fig. 8. All
/// workloads run as one sweep, so one checkpoint covers them.
pub fn characterize(
    opts: &ExpOptions,
    workloads: &[String],
) -> Result<Vec<Characterization>, SimError> {
    if let Some(w) = workloads.iter().find(|w| by_abbrev(w).is_none()) {
        return Err(SimError::config(format!("unknown workload `{w}`")));
    }
    let cells: Vec<CellCtx> = workloads
        .iter()
        .flat_map(|w| ProtocolKind::ALL.iter().map(|&p| opts.plain_cell(w, p)))
        .collect();
    let results = run_cells(opts, &cells)?;
    let per = ProtocolKind::ALL.len();
    workloads
        .iter()
        .zip(cells.chunks(per).zip(results.chunks(per)))
        .map(|(w, (cells, results))| {
            Ok(Characterization {
                workload: w.clone(),
                failures: failure_table(opts, cells, results)?,
                rows: cells
                    .iter()
                    .zip(results)
                    .filter_map(|(c, r)| Some(characterization_row(c.protocol, r.as_ref().ok()?)))
                    .collect(),
            })
        })
        .collect()
}

/// One protocol's [`CharacterizationRow`] from its run's metrics.
fn characterization_row(protocol: ProtocolKind, m: &RunMetrics) -> CharacterizationRow {
    let per_load = |n: u64| {
        if m.loads == 0 {
            0.0
        } else {
            n as f64 / m.loads as f64
        }
    };
    CharacterizationRow {
        protocol,
        cycles: m.total_cycles.as_u64(),
        l1_hit_rate: m.l1_hit_rate(),
        l2_serve_rate: per_load(m.local_l2_hits + m.gpu_home_hits + m.sys_home_hits),
        dram_per_load: per_load(m.dram_accesses),
        inter_bytes: hmg_interconnect::MsgClass::ALL
            .iter()
            .map(|&c| m.fabric.inter_bytes(c))
            .sum(),
        invalidations: m.invs_from_stores + m.invs_from_evictions,
        lat_p50_p99: (
            m.miss_latency_percentile(0.5),
            m.miss_latency_percentile(0.99),
        ),
    }
}

/// The headline numbers of the abstract, computed from a Fig. 8
/// result: HMG's geomean speedup relative to each software-coherence
/// baseline and to NHCC, and the fraction of idealized caching it
/// reaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// HMG over non-hierarchical software coherence, minus one.
    pub vs_sw_nonhier: f64,
    /// HMG over hierarchical software coherence, minus one.
    pub vs_sw_hier: f64,
    /// HMG over NHCC, minus one.
    pub vs_nhcc: f64,
    /// HMG as a fraction of idealized caching.
    pub of_ideal: f64,
}

/// The [`Headline`] of a Fig. 8 result; `None` when no workload
/// completed (the geomeans are then undefined).
pub fn headline(fig8: &SpeedupResult) -> Option<Headline> {
    if fig8.workloads.is_empty() {
        return None;
    }
    let hmg = fig8.geomean_of(ProtocolKind::Hmg);
    let vs = |p| hmg / fig8.geomean_of(p) - 1.0;
    Some(Headline {
        vs_sw_nonhier: vs(ProtocolKind::SwNonHier),
        vs_sw_hier: vs(ProtocolKind::SwHier),
        vs_nhcc: vs(ProtocolKind::Nhcc),
        of_ideal: hmg / fig8.geomean_of(ProtocolKind::Ideal),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            scale: Scale::Tiny,
            seed: 1,
            filter: Some(vec!["bfs".into(), "lstm".into(), "CoMD".into()]),
            ..ExpOptions::default()
        }
    }

    #[test]
    fn fig8_runs_on_tiny_subset() {
        let r = fig8(&tiny()).expect("fig8");
        assert_eq!(r.workloads.len(), 3);
        assert_eq!(r.protocols.len(), 5);
        for row in &r.rows {
            for &v in row {
                assert!(v > 0.1 && v < 100.0, "speedup {v} out of range");
            }
        }
        assert!(r.geomean_of(ProtocolKind::Ideal) >= r.geomean_of(ProtocolKind::Hmg) * 0.7);
    }

    #[test]
    fn fig2_is_a_subset_of_protocols() {
        let r = fig2(&tiny()).expect("fig2");
        assert_eq!(r.protocols.len(), 3);
    }

    #[test]
    fn fig3_reports_redundancy() {
        let r = fig3(&tiny()).expect("fig3");
        assert_eq!(r.rows.len(), 3);
        assert!(r.failures.is_empty());
        assert!(r.average >= 0.0 && r.average <= 1.0);
    }

    #[test]
    fn storage_cost_matches_paper() {
        let (bits, bytes, frac) = storage_cost();
        assert_eq!(bits, 55);
        assert_eq!(bytes, 84_480);
        assert!((frac - 0.027).abs() < 0.002);
    }

    #[test]
    fn headline_computes_ratios() {
        let r = fig8(&tiny()).expect("fig8");
        let h = headline(&r).expect("workloads completed");
        assert!(h.vs_sw_nonhier > -0.9 && h.vs_sw_hier > -0.9 && h.vs_nhcc > -0.9);
        assert!(h.of_ideal > 0.1 && h.of_ideal <= 1.5);
        // Each ratio is over its own named baseline.
        let hmg = r.geomean_of(ProtocolKind::Hmg);
        let over = |p| hmg / r.geomean_of(p) - 1.0;
        assert_eq!(h.vs_sw_nonhier, over(ProtocolKind::SwNonHier));
        assert_eq!(h.vs_sw_hier, over(ProtocolKind::SwHier));
        assert_eq!(h.vs_nhcc, over(ProtocolKind::Nhcc));
    }

    #[test]
    fn headline_is_undefined_when_no_workload_completed() {
        // Every run failed under --keep-going: the geomeans are over
        // nothing, and the headline must say so instead of 0/0 = NaN.
        let empty = SpeedupResult {
            protocols: ProtocolKind::FIG8.to_vec(),
            workloads: Vec::new(),
            rows: Vec::new(),
            geomeans: vec![0.0; ProtocolKind::FIG8.len()],
            failures: Vec::new(),
        };
        assert_eq!(headline(&empty), None);
    }

    #[test]
    fn fixed_baseline_sweeps_share_one_baseline() {
        // Fig. 12-14 semantics: the same sweep run twice with an
        // identity point must reproduce the plain suite speedups.
        let opts = ExpOptions {
            filter: Some(vec!["bfs".into()]),
            ..tiny()
        };
        let plain = speedup_suite(&opts, &[ProtocolKind::Hmg], "").expect("plain suite");
        // The 200 GB/s point of fig12 leaves the machine at its default
        // bandwidth, so it must reproduce the plain suite's speedup.
        let sweep = fig12(&opts).expect("fig12");
        let identity = sweep
            .points
            .iter()
            .position(|p| p == "200GB/s")
            .expect("200GB/s point");
        let hmg_col = sweep
            .protocols
            .iter()
            .position(|&p| p == ProtocolKind::Hmg)
            .expect("hmg in sweep");
        let a = sweep.geomeans[identity][hmg_col];
        let b = plain.geomean_of(ProtocolKind::Hmg);
        assert!(
            (a - b).abs() < 1e-9,
            "identity sweep point must match the plain run: {a} vs {b}"
        );
    }

    #[test]
    fn orderings_do_not_collapse_across_seeds() {
        // Tiny-scale runs are noisy; the sanity requirement is that HMG
        // never collapses far below the software baseline for any seed.
        for seed in [3, 99] {
            let opts = ExpOptions {
                scale: Scale::Tiny,
                seed,
                filter: Some(vec!["bfs".into(), "RNN_FW".into()]),
                ..ExpOptions::default()
            };
            let r = fig8(&opts).expect("fig8");
            let hmg = r.geomean_of(ProtocolKind::Hmg);
            let sw = r.geomean_of(ProtocolKind::SwNonHier);
            assert!(
                hmg >= sw * 0.8,
                "seed {seed}: hmg {hmg} collapsed below sw {sw}"
            );
        }
    }

    #[test]
    fn characterization_covers_all_protocols() {
        let opts = ExpOptions {
            filter: Some(vec!["bfs".into()]),
            ..tiny()
        };
        let c = characterize(&opts, &["bfs".into()]).expect("bfs known");
        let [c] = c.as_slice() else {
            panic!("one characterization per workload")
        };
        assert_eq!(c.rows.len(), ProtocolKind::ALL.len());
        assert!(c.failures.is_empty());
        for r in &c.rows {
            assert!(r.cycles > 0);
            assert!((0.0..=1.0).contains(&r.l1_hit_rate));
        }
        let err = characterize(&opts, &["nope".into()]).expect_err("unknown workload");
        assert!(err.to_string().contains("unknown workload"), "{err}");
    }

    #[test]
    fn checkpointed_sweep_resumes_to_identical_report() {
        let dir = std::env::temp_dir().join("hmg-exp-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig8.ckpt");
        let opts = ExpOptions {
            filter: Some(vec!["bfs".into(), "lstm".into()]),
            checkpoint: Some(path.clone()),
            ..tiny()
        };
        let full = fig8(&opts).expect("full sweep");

        // Simulate an interrupted sweep: drop some completed cells from
        // the checkpoint, then resume. The resumed sweep re-runs only
        // the missing cells and must reproduce the full report.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().filter(|l| !l.contains("lstm/")).collect();
        std::fs::write(&path, kept.join("\n") + "\n").unwrap();
        let resumed = fig8(&ExpOptions {
            resume: true,
            ..opts.clone()
        })
        .expect("resumed sweep");
        assert_eq!(resumed.workloads, full.workloads);
        assert_eq!(resumed.rows, full.rows, "resumed report must be identical");
        assert_eq!(resumed.geomeans, full.geomeans);

        // A second resume with the now-complete file reuses every cell.
        let resumed_again = fig8(&ExpOptions {
            resume: true,
            ..opts.clone()
        })
        .expect("second resume");
        assert_eq!(resumed_again.rows, full.rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ablation_resumes_from_its_checkpoint() {
        // Both variants of an ablation run as one sweep, so one
        // checkpoint file covers all 8 cells and `resume` reuses them.
        let path = std::env::temp_dir().join(format!("hmg-ablate-{}.ckpt", std::process::id()));
        let opts = ExpOptions {
            filter: Some(vec!["bfs".into(), "CoMD".into()]),
            checkpoint: Some(path.clone()),
            ..tiny()
        };
        let first = ablate_fences(&opts).expect("checkpointed ablation");
        let resumed = ablate_fences(&ExpOptions {
            resume: true,
            ..opts.clone()
        })
        .expect("resumed ablation");
        // The resume compacts the 8 reused rows into the file; a cell
        // that re-ran would append a ninth.
        let rows = std::fs::read_to_string(&path).unwrap().lines().count() - 1;
        std::fs::remove_file(&path).ok();
        assert_eq!(rows, 8, "every cell must be reused");
        assert_eq!(resumed.variants, first.variants);
    }

    #[test]
    fn sweep_structures_are_complete() {
        let opts = ExpOptions {
            filter: Some(vec!["bfs".into()]),
            ..tiny()
        };
        let s = fig12(&opts).expect("fig12");
        assert_eq!(s.points.len(), 4);
        assert_eq!(s.geomeans.len(), 4);
        assert_eq!(s.geomeans[0].len(), 4);
    }

    #[test]
    fn apply_tweak_parses_every_clause() {
        let mut cfg = EngineConfig::paper_default(ProtocolKind::Hmg);
        apply_tweak(
            "bw=150+l2mb=12+dirk=6+grain=4+gpus=2+zero-cost-fences\
             +write-policy=wb+downgrades=off+placement=il\
             +ecc=parity+checksums=off+scrub=250+double-bit=0.5\
             +peer-redundancy",
            &mut cfg,
        )
        .expect("valid tweak spec");
        assert!((cfg.fabric.inter_gpu_gbps - 150.0).abs() < 1e-9);
        assert_eq!(cfg.geometry.lines_per_block(), 4);
        assert_eq!(cfg.topo.num_gpus(), 2);
        assert!(cfg.zero_cost_fences);
        assert!(cfg.track_peer_redundancy);
        assert_eq!(cfg.l2_write_policy, hmg_gpu::WritePolicy::WriteBack);
        assert!(!cfg.sharer_downgrades);
        assert_eq!(cfg.placement, hmg_mem::PagePlacement::Interleaved);
        assert_eq!(cfg.ecc, hmg_gpu::EccMode::Parity);
        assert!(!cfg.checksums);
        assert_eq!(cfg.scrub_interval, hmg_sim::Cycle(250));
        assert!((cfg.ecc_double_bit_fraction - 0.5).abs() < 1e-9);
        apply_tweak("ecc=off", &mut cfg).expect("ecc off");
        assert_eq!(cfg.ecc, hmg_gpu::EccMode::None);
        apply_tweak("ecc=secded+checksums=on", &mut cfg).expect("secded");
        assert_eq!(cfg.ecc, hmg_gpu::EccMode::SecDed);
        assert!(cfg.checksums);
        apply_tweak("nack-thr=32+arbitration=phase", &mut cfg).expect("arbitration");
        assert_eq!(cfg.home_nack_threshold, Some(32));
        assert_eq!(cfg.arbitration, hmg_protocol::Arbitration::PhasePriority);
        apply_tweak("arbitration=nack", &mut cfg).expect("nack");
        assert_eq!(cfg.arbitration, hmg_protocol::Arbitration::NackRetry);
    }

    #[test]
    fn apply_tweak_rejects_garbage() {
        let mut cfg = EngineConfig::paper_default(ProtocolKind::Hmg);
        assert!(apply_tweak("bw=fast", &mut cfg).is_err());
        assert!(apply_tweak("grain=0", &mut cfg).is_err());
        assert!(apply_tweak("grain=3", &mut cfg).is_err());
        assert!(apply_tweak("warp-speed", &mut cfg).is_err());
        assert!(apply_tweak("ecc=hamming", &mut cfg).is_err());
        assert!(apply_tweak("checksums=maybe", &mut cfg).is_err());
        assert!(apply_tweak("scrub=soon", &mut cfg).is_err());
        assert!(apply_tweak("double-bit=1.5", &mut cfg).is_err());
        assert!(apply_tweak("arbitration=lottery", &mut cfg).is_err());
        assert!(apply_tweak("nack-thr=soon", &mut cfg).is_err());
        assert!(apply_tweak("", &mut cfg).is_ok(), "empty spec is a no-op");
    }

    #[test]
    fn tiny_cells_run_the_small_test_machine_with_a_floored_launch() {
        for p in ProtocolKind::ALL {
            let cell = tiny().plain_cell("CoMD", p);
            let trace = cell.trace().expect("trace");
            let cfg = cell.config(&trace).expect("config");
            let mut expected = EngineConfig::small_test(p);
            assert_eq!(expected.kernel_launch_overhead, hmg_sim::Cycle(100));
            expected.kernel_launch_overhead = hmg_sim::Cycle(200);
            expected.livelock_budget = Some(crate::runner::auto_livelock_budget(&expected, &trace));
            assert_eq!(format!("{cfg:?}"), format!("{expected:?}"), "{p}");
        }
    }

    #[test]
    fn cell_command_round_trips_through_cell_args() {
        let opts = tiny();
        let ctx = opts.cell("fig12/bfs/hmg".into(), "bfs", ProtocolKind::Hmg, "bw=100");
        let cmd = cell_command(&ctx, 1).expect("command");
        let (parsed, attempt) = parse_cell_args(&cmd.args[1..]).expect("parse back");
        assert_eq!(attempt, 1);
        assert_eq!(parsed.key, ctx.key);
        assert_eq!(parsed.workload, ctx.workload);
        assert_eq!(parsed.protocol, ctx.protocol);
        assert_eq!(parsed.tweak, ctx.tweak);
        assert_eq!(parsed.scale, ctx.scale);
        assert_eq!(parsed.seed, ctx.seed);
    }
}
