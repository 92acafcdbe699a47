//! The figure registry that regenerates every table and figure of the
//! paper's evaluation (Section VII).
//!
//! [`FIGURES`] holds one [`Figure`] per `experiments` command, in paper
//! order. An entry builds a [`Plan`] from [`ExpOptions`]: the sweep
//! cells it runs and a reducer from their results to one or more
//! [`Table`]s. [`Plan::run`] is the one driver: it runs the cells as
//! one supervised sweep ([`run_cells`]), collects the failure table, and
//! reduces ([`Figure::run`] builds an entry's plan and runs it).
//! [`Report::print`] is the one text renderer and
//! [`Figure::svgs`] the one SVG renderer. The `experiments` binary in
//! `hmg-bench` looks commands up with [`figure`], and EXPERIMENTS.md
//! records paper-measured comparisons.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use hmg_gpu::{EngineConfig, RunMetrics};
use hmg_protocol::ProtocolKind::{
    self, CarveLike, Hmg, Ideal, Nhcc, NoPeerCaching, SwHier, SwNonHier,
};
use hmg_protocol::WorkloadTrace;
use hmg_sim::{stats, FaultPlan, SimError};
use hmg_workloads::micro::{correlation_suite, MachineParams, Micro};
use hmg_workloads::suite::{by_abbrev, table3};
use hmg_workloads::{Scale, WorkloadSpec};

use crate::report::{f2, f3, pct, Table as TextTable};
use crate::runner::{run_isolated, SweepCheckpoint};
use crate::supervisor::{
    self, Attempt, BenchTally, CellCommand, CellReport, CellRun, CellStatus, Isolation,
    SupervisorConfig,
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

/// One cell's merged outcome.
pub type CellResult = Result<RunMetrics, SimError>;

/// Runs `cells` through the supervisor — the one executor of every
/// engine-running figure. `opts.checkpoint` is opened here, under an
/// identity hashed from every cell's snapshot identity; its
/// completed cells are reused with `opts.resume`, the rest execute
/// under the configured isolation with retry/backoff and timeout-kill,
/// completed cells are checkpointed as they finish, and each cell's
/// full metrics merge back in input order. A cell drained unrun after
/// a hard failure (no `--keep-going`) reads as a `skipped` error.
/// The returned tally counts the cells this call executed and their
/// events, plus the cells it reused.
///
/// # Errors
///
/// Only when the checkpoint cannot be opened (unwritable, or written by
/// a different sweep); a failed cell is an `Err` entry instead.
pub fn run_cells(
    opts: &ExpOptions,
    cells: &[CellCtx],
) -> Result<(Vec<CellResult>, BenchTally), SimError> {
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
    let mut merged: Vec<Option<CellResult>> = cells
        .iter()
        .map(|c| ckpt.and_then(|k| k.lookup(&c.key)).map(Ok))
        .collect();
    let reused = merged.iter().filter(|m| m.is_some()).count();
    let pending: Vec<&CellCtx> = cells
        .iter()
        .zip(&merged)
        .filter(|(_, m)| m.is_none())
        .map(|(c, _)| c)
        .collect();
    let sup = opts.supervisor_config();
    let resumed_cells = AtomicU64::new(0);
    let events = AtomicU64::new(0);
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
                    events.fetch_add(m.events, Ordering::Relaxed);
                    if resumed_from.is_some() {
                        resumed_cells.fetch_add(1, Ordering::Relaxed);
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
    let resumed = resumed_cells.load(Ordering::Relaxed);
    if resumed > 0 {
        println!("[snapshot] resumed_cells={resumed}");
    }
    let tally = BenchTally {
        events: events.into_inner(),
        reused: reused as u64,
        ..report.tally()
    };
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
    let results = merged
        .into_iter()
        .map(|m| m.unwrap_or_else(|| Err(cell_error(CellStatus::Skipped))))
        .collect();
    Ok((results, tally))
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
    results: &[CellResult],
) -> Result<Vec<RunFailure>, SimError> {
    let failures: Vec<RunFailure> = cells
        .iter()
        .zip(results)
        .enumerate()
        .filter_map(|(i, (cell, r))| {
            let error = r.as_ref().err()?.clone();
            let (workload, protocol) = cell_label(cell);
            Some(RunFailure {
                cell: i,
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
fn print_failures<'a>(failures: impl Iterator<Item = &'a RunFailure>) {
    let failures: Vec<&RunFailure> = failures.collect();
    if failures.is_empty() {
        return;
    }
    println!("-- {} failed run(s); partial result --", failures.len());
    let mut t = TextTable::new(vec![
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

/// One failed run inside a `--keep-going` sweep.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Index of the failed cell in its sweep.
    pub cell: usize,
    /// Workload abbreviation (`point/workload` in sensitivity sweeps).
    pub workload: String,
    /// Protocol configuration that failed.
    pub protocol: ProtocolKind,
    /// The full error, including cycle/agent/address context and the
    /// machine-state dump.
    pub error: SimError,
}

// ---------------------------------------------------------------------
// The one result type, its renderers, and the one driver
// ---------------------------------------------------------------------

/// How a column renders a value. A missing value prints `n/a` (no data,
/// or an aggregate over zero surviving workloads), except where noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// An integer (cycles, counts).
    F0,
    /// One decimal.
    F1,
    /// Two decimals.
    F2,
    /// Two decimals; a missing value in a data row prints `0` (Figs.
    /// 9–10: a workload with no invalidations of that kind).
    F2OrZero,
    /// A fraction as a percentage; charts plot it in percent.
    Pct,
    /// MB, printed in GB from 1000 MB up (Table III).
    Footprint,
    /// An index into the Table III suite, printed as its abbreviation.
    Abbrev,
    /// `hi * 2^32 + lo`, printed `hi/lo` (characterize's p50/p99 miss
    /// latency, whose power-of-two buckets pack exactly).
    Pair,
}

impl Fmt {
    /// Renders one value of a data row.
    pub fn render(self, v: Option<f64>) -> String {
        let Some(v) = v else {
            let missing = if self == Fmt::F2OrZero { "0" } else { "n/a" };
            return missing.to_string();
        };
        match self {
            Fmt::F0 => format!("{v:.0}"),
            Fmt::F1 => format!("{v:.1}"),
            Fmt::F2 | Fmt::F2OrZero => f2(v),
            Fmt::Pct => pct(v),
            Fmt::Footprint if v >= 1000.0 => format!("{:.2} GB", v / 1024.0),
            Fmt::Footprint => format!("{v:.0} MB"),
            Fmt::Abbrev => table3()[v as usize].abbrev.to_string(),
            Fmt::Pair => format!("{}/{}", v as u64 >> 32, v as u64 & 0xffff_ffff),
        }
    }
}

/// A result table: what every figure reduces to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Printed as `== title ==`.
    pub title: String,
    /// Header of the row-label column (a line chart's x axis).
    pub header: String,
    /// Column labels and formats.
    pub columns: Vec<(String, Fmt)>,
    /// Row labels, each with one value per column.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
    /// Aggregate rows after the data rows (`GeoMean`, `Avg`).
    pub totals: Vec<(String, Vec<Option<f64>>)>,
    /// Lines printed after the table and its failures.
    pub notes: Vec<String>,
    /// The cells whose failures print under this table, when a figure
    /// prints one table per workload; `None` means every cell.
    pub cells: Option<Range<usize>>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, header: &str, columns: &[(&str, Fmt)]) -> Table {
        Table {
            title: title.into(),
            header: header.to_string(),
            columns: columns.iter().map(|&(l, f)| (l.to_string(), f)).collect(),
            ..Table::default()
        }
    }

    /// Appends an aggregate row of `f` over each column's values; with
    /// no data rows — zero surviving workloads — each is `None`, not 0.
    pub fn total(&mut self, label: &str, f: fn(&[f64]) -> f64) {
        let survivors = !self.rows.is_empty();
        let aggregate = |i| {
            let xs: Vec<f64> = self.rows.iter().filter_map(|(_, v)| v[i]).collect();
            survivors.then(|| f(&xs))
        };
        let values = (0..self.columns.len()).map(aggregate).collect();
        self.totals.push((label.to_string(), values));
    }

    /// Data rows, then aggregate rows.
    fn all_rows(&self) -> impl Iterator<Item = &(String, Vec<Option<f64>>)> {
        self.rows.iter().chain(&self.totals)
    }

    /// The value in row `row` and column `column`, by label.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let i = self.columns.iter().position(|(l, _)| l == column)?;
        self.all_rows().find(|(l, _)| l == row)?.1[i]
    }
}

/// What one figure run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The figure's tables, in print order.
    pub tables: Vec<Table>,
    /// Cells that failed under `--keep-going` (empty otherwise).
    pub failures: Vec<RunFailure>,
    /// The sweeps this run executed, for `BENCH_sweep.json`.
    pub tally: BenchTally,
}

impl Report {
    /// The text renderer: each table, the failures of its cells, then
    /// its notes.
    pub fn print(&self) {
        for t in &self.tables {
            println!("== {} ==", t.title);
            if !t.columns.is_empty() {
                let labels = t.columns.iter().map(|(l, _)| l);
                let mut text =
                    TextTable::new(std::iter::once(&t.header).chain(labels).cloned().collect());
                for (i, (label, values)) in t.all_rows().enumerate() {
                    // A missing aggregate always prints `n/a`.
                    let total = i >= t.rows.len();
                    let cells = t.columns.iter().zip(values).map(|((_, f), &v)| match v {
                        None if total => "n/a".to_string(),
                        v => f.render(v),
                    });
                    text.row(std::iter::once(label.clone()).chain(cells).collect());
                }
                println!("{}", text.render());
            }
            let span = t.cells.clone().unwrap_or(0..usize::MAX);
            print_failures(self.failures.iter().filter(|f| span.contains(&f.cell)));
            t.notes.iter().for_each(|n| println!("{n}"));
        }
    }
}

type Reduce = Box<dyn FnOnce(&[CellResult], &BenchTally) -> Vec<Table>>;

/// A figure's work: the cells it runs as one sweep, and the reducer
/// from their results (and the executed cells' tally) to its tables.
pub struct Plan {
    cells: Vec<CellCtx>,
    reduce: Reduce,
    /// Work done while planning (Table III's trace sweep).
    tally: BenchTally,
}

impl Plan {
    fn new(
        cells: Vec<CellCtx>,
        reduce: impl FnOnce(&[CellResult], &BenchTally) -> Vec<Table> + 'static,
    ) -> Plan {
        let tally = BenchTally::default();
        Plan {
            cells,
            reduce: Box::new(reduce),
            tally,
        }
    }

    /// This plan, with `f` applied to its tables.
    fn then(self, f: impl FnOnce(&mut [Table]) + 'static) -> Plan {
        let reduce = self.reduce;
        let reduce: Reduce = Box::new(move |r, t| {
            let mut tables = reduce(r, t);
            f(&mut tables);
            tables
        });
        Plan { reduce, ..self }
    }

    /// The one driver: runs the cells as one supervised sweep (if there
    /// are any), takes the failure table, and reduces.
    ///
    /// # Errors
    ///
    /// When the checkpoint cannot be opened, or, without `--keep-going`,
    /// the first failed cell's error.
    pub fn run(self, opts: &ExpOptions) -> Result<Report, SimError> {
        let (results, mut tally) = if self.cells.is_empty() {
            Default::default()
        } else {
            run_cells(opts, &self.cells)?
        };
        let failures = failure_table(opts, &self.cells, &results)?;
        let tables = (self.reduce)(&results, &tally);
        tally += self.tally;
        Ok(Report {
            tables,
            failures,
            tally,
        })
    }
}

/// How a figure's first table is drawn with `--svg`; a missing value
/// plots as zero.
#[derive(Debug)]
enum Chart {
    None,
    /// Speedup bars, titled so: a series per column, a group per row.
    Speedup(&'static str),
    /// A line per column over the rows (geomean speedup per point).
    Lines(&'static str),
    /// Fig. 7's log-log scatter of column 1 against column 0.
    Scatter(&'static str),
    /// Single-series bars named `series`, with an optional y label: of
    /// column `i` for the `i`th `(file, title, subtitle)`.
    Profile(
        &'static str,
        Option<&'static str>,
        &'static [(&'static str, &'static str, &'static str)],
    ),
}

type PlanFn = fn(&ExpOptions) -> Result<Plan, SimError>;

/// One `experiments` figure command.
#[derive(Debug)]
pub struct Figure {
    /// Command name.
    pub name: &'static str,
    /// Other names the command answers to.
    pub aliases: &'static [&'static str],
    /// Whether `experiments all` runs it.
    pub in_all: bool,
    chart: Chart,
    plan: PlanFn,
}

/// A paper figure, run by `experiments all`.
const fn paper(name: &'static str, chart: Chart, plan: PlanFn) -> Figure {
    let aliases = &[];
    Figure {
        name,
        aliases,
        in_all: true,
        chart,
        plan,
    }
}

/// A check or drill-down that `experiments all` skips.
const fn extra(name: &'static str, chart: Chart, plan: PlanFn) -> Figure {
    Figure {
        in_all: false,
        ..paper(name, chart, plan)
    }
}

impl Figure {
    /// Builds the figure's plan and runs it.
    ///
    /// # Errors
    ///
    /// See [`Plan::run`]; also a plan that cannot be built (an unknown
    /// workload to characterize, a failed Table III trace).
    pub fn run(&self, opts: &ExpOptions) -> Result<Report, SimError> {
        (self.plan)(opts)?.run(opts)
    }

    /// The SVG renderer: the figure's charts as `(file stem, document)`.
    pub fn svgs(&self, report: &Report) -> Vec<(String, String)> {
        let Some(t) = report.tables.first() else {
            return Vec::new();
        };
        let column = |(i, (_, f)): (usize, &(String, Fmt))| -> Vec<f64> {
            let scale = if *f == Fmt::Pct { 100.0 } else { 1.0 };
            let rows = t.all_rows();
            rows.map(|(_, v)| v[i].unwrap_or(0.0) * scale).collect()
        };
        let columns: Vec<Vec<f64>> = t.columns.iter().enumerate().map(column).collect();
        let labels = || t.all_rows().map(|(l, _)| l.clone());
        let bars = |title: &str, cols: &[usize]| {
            let group = |(r, l)| (l, cols.iter().map(|&i| columns[i][r]).collect::<Vec<_>>());
            let groups = labels().enumerate().map(group);
            groups.fold(hmg_plot::GroupedBars::new(title), |c, (l, v)| c.group(l, v))
        };
        let name = self.name.to_string();
        match self.chart {
            Chart::None => Vec::new(),
            Chart::Speedup(title) => {
                let series = t.columns.iter().map(|(l, _)| l.clone()).collect();
                let chart = bars(title, &(0..columns.len()).collect::<Vec<_>>());
                let chart = chart.subtitle("speedup over the no-peer-caching baseline");
                let chart = chart.series(series).y_label("speedup").reference_line(1.0);
                vec![(name, chart.label_last_group().to_svg())]
            }
            Chart::Profile(series, y_label, charts) => {
                let chart = |(i, &(file, title, subtitle)): (usize, &(&str, &str, &str))| {
                    let chart = bars(title, &[i])
                        .subtitle(subtitle)
                        .series(vec![series.into()]);
                    let chart = y_label.into_iter().fold(chart, |c, y| c.y_label(y));
                    (file.to_string(), chart.label_last_group().to_svg())
                };
                charts.iter().enumerate().map(chart).collect()
            }
            Chart::Lines(title) => {
                let chart = hmg_plot::LineChart::new(title).x_points(labels().collect());
                let chart = chart.subtitle(format!("geomean speedup vs {}", t.header));
                let lines = t.columns.iter().zip(columns);
                let chart = lines.fold(chart, |c, ((l, _), v)| c.line(l.clone(), v));
                vec![(name, chart.y_label("geomean speedup").to_svg())]
            }
            Chart::Scatter(title) => {
                let (r, err) = fit(&columns[0], &columns[1]);
                let (x, y) = ("analytically predicted cycles", "simulated cycles");
                let chart = hmg_plot::LogLogScatter::new(title, x, y);
                let chart =
                    chart.subtitle(format!("r(log10) = {r:.3}, mean abs rel err = {err:.3}"));
                let points = labels().zip(columns[0].iter().zip(&columns[1]));
                let chart = points.fold(chart, |c, (l, (&x, &y))| c.point(l, x, y));
                vec![(name, chart.to_svg())]
            }
        }
    }
}

/// Figures are equal when their command names are.
impl PartialEq for Figure {
    fn eq(&self, other: &Figure) -> bool {
        self.name == other.name
    }
}

/// The figure a command name or alias names.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES
        .iter()
        .find(|f| f.name == name || f.aliases.contains(&name))
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// Every `experiments` figure command, in paper order. `experiments all`
/// runs the entries with `in_all` set: all but the single-GPU check, the
/// CARVE comparison, the scale study and the characterization.
pub static FIGURES: [Figure; 19] = [
    paper("table3", Chart::None, table_iii),
    paper("fig2", Chart::Speedup(FIG2), fig2),
    paper("fig3", FIG3_CHART, fig3),
    paper(
        "fig7",
        Chart::Scatter("Fig. 7: simulator correlation"),
        fig7,
    ),
    paper("fig8", Chart::Speedup(FIG8_CHART), fig8),
    Figure {
        aliases: &["fig9", "fig10", "fig11"],
        ..paper("fig9-11", FIG9_11_CHART, fig9_11)
    },
    paper("fig12", Chart::Lines(FIG12), fig12),
    paper("fig13", Chart::Lines(FIG13), fig13),
    paper("fig14", Chart::Lines(FIG14), fig14),
    paper("grain", Chart::Lines("Directory granularity sweep"), grain),
    paper("cost", Chart::None, cost),
    extra("single-gpu", Chart::None, single_gpu),
    extra("carve", Chart::Speedup(CARVE_CHART), carve),
    extra(
        "scale-study",
        Chart::Lines("Scaling to larger systems"),
        scale_study,
    ),
    extra("characterize", Chart::None, characterize),
    paper("ablate-fence", Chart::None, ablate_fence),
    paper("ablate-placement", Chart::None, ablate_placement),
    paper("ablate-writeback", Chart::None, ablate_writeback),
    paper("ablate-downgrade", Chart::None, ablate_downgrade),
];

const FIG2: &str = "Fig. 2: motivating multi-GPU comparison";
const FIG8_CHART: &str = "Fig. 8: five coherence configurations";
const FIG12: &str = "Fig. 12: inter-GPU bandwidth sensitivity";
const FIG13: &str = "Fig. 13: L2 capacity sensitivity";
const FIG14: &str = "Fig. 14: directory capacity sensitivity";
const CARVE_CHART: &str = "CARVE-like broadcast coherence vs NHCC/HMG";
const FIG3_CHART: Chart = Chart::Profile(
    "redundant share",
    Some("% of inter-GPU loads"),
    &[(
        "fig3",
        "Fig. 3: inter-GPU loads redundant within the GPU",
        "measured on the no-peer-caching baseline",
    )],
);
const FIG9_11_CHART: Chart = Chart::Profile(
    "HMG",
    None,
    &[
        (
            "fig9",
            "Fig. 9: lines invalidated per store",
            "stores that triggered invalidations",
        ),
        (
            "fig10",
            "Fig. 10: lines invalidated per directory eviction",
            "evictions that triggered invalidations",
        ),
        (
            "fig11",
            "Fig. 11: invalidation-message bandwidth",
            "GB/s across both network tiers",
        ),
    ],
);

/// Fig. 2: the motivating subset — non-hierarchical software and
/// hardware coherence, and idealized caching.
fn fig2(o: &ExpOptions) -> Result<Plan, SimError> {
    Ok(speedup_suite(o, FIG2, &[SwNonHier, Nhcc, Ideal], ""))
}

/// Fig. 8: all five configurations on the Table II machine, with the
/// headline.
fn fig8(o: &ExpOptions) -> Result<Plan, SimError> {
    let title = "Fig. 8: 4-GPU x 4-GPM, five coherence configurations";
    let plan = speedup_suite(o, title, &ProtocolKind::FIG8, "");
    Ok(plan.then(|t| t[0].notes = headline_notes(&t[0])))
}

/// Fig. 12: inter-GPU bandwidth, 100–400 GB/s per link.
fn fig12(o: &ExpOptions) -> Result<Plan, SimError> {
    let points = grid(&[100, 200, 300, 400], "GB/s", "bw");
    Ok(point_sweep(o, FIG12, "inter-GPU BW", points, &SWEEP, false))
}

/// Fig. 13: L2 capacity, 6/12/24 MB per GPU.
fn fig13(o: &ExpOptions) -> Result<Plan, SimError> {
    let points = grid(&[6, 12, 24], "MB/GPU", "l2mb");
    Ok(point_sweep(o, FIG13, "L2 per GPU", points, &SWEEP, false))
}

/// Fig. 14: directory capacity, 3K/6K/12K entries per GPM.
fn fig14(o: &ExpOptions) -> Result<Plan, SimError> {
    let points = grid(&[3, 6, 12], "K/GPM", "dirk");
    Ok(point_sweep(o, FIG14, "dir entries", points, &SWEEP, false))
}

/// §VII-B (not pictured): lines per directory entry at constant
/// coverage — the entry count shrinks as the grain grows.
fn grain(o: &ExpOptions) -> Result<Plan, SimError> {
    let title = "§VII-B: directory granularity sweep";
    let points = grid(&[1, 2, 4, 8], "x128B", "grain");
    Ok(point_sweep(o, title, "lines/entry", points, &[Hmg], false))
}

/// §VII-C: the directory's hardware cost.
fn cost(_: &ExpOptions) -> Result<Plan, SimError> {
    let (bits, bytes, frac) = storage_cost();
    let mut t = Table::new("§VII-C: HMG directory hardware cost", "", &[]);
    t.notes = vec![
        format!("bits per entry:      {bits} (48 tag + 1 state + 6 sharers)"),
        format!(
            "bytes per GPM:       {bytes} ({:.0} KB)",
            bytes as f64 / 1024.0
        ),
        format!("fraction of L2 data: {}", pct(frac)),
    ];
    Ok(Plan::new(Vec::new(), move |_, _| vec![t]))
}

/// §VII-A: on one GPU, the protocols should be close.
fn single_gpu(o: &ExpOptions) -> Result<Plan, SimError> {
    let title = "§VII-A: single-GPU (1x4 GPM) check";
    let o = &exclude_persistent_kernels(o);
    Ok(speedup_suite(o, title, &ProtocolKind::FIG8, "gpus=1"))
}

/// The CARVE-like broadcast-filtered protocol \[14\] against NHCC and
/// HMG: Section II-A's case for precise, hierarchical sharer tracking.
fn carve(o: &ExpOptions) -> Result<Plan, SimError> {
    let title = "Prior work: CARVE-like broadcast coherence vs NHCC/HMG";
    Ok(speedup_suite(o, title, &[Nhcc, CarveLike, Hmg, Ideal], ""))
}

/// §VII-D: 2 to 8 GPUs of 4 GPMs, the directory per GPM held at Table
/// II. A bigger machine changes the baseline too, so each point has its
/// own.
fn scale_study(o: &ExpOptions) -> Result<Plan, SimError> {
    let title = "§VII-D: scaling to larger systems";
    let o = &exclude_persistent_kernels(o);
    let points = grid(&[2, 4, 8], " GPUs", "gpus");
    Ok(point_sweep(o, title, "system size", points, &SWEEP, true))
}

/// Release fences that are acked and drained, against free ones.
fn ablate_fence(o: &ExpOptions) -> Result<Plan, SimError> {
    let variants = [
        ("acked fences (paper)", ""),
        ("zero-cost fences", "zero-cost-fences"),
    ];
    Ok(ablation(o, "release fence cost (HMG)", variants))
}

/// First-touch against interleaved page placement.
fn ablate_placement(o: &ExpOptions) -> Result<Plan, SimError> {
    let variants = [
        ("first-touch (paper)", "placement=ft"),
        ("interleaved", "placement=il"),
    ];
    Ok(ablation(o, "page placement (HMG)", variants))
}

/// §IV-B's write-back option against the evaluated write-through.
fn ablate_writeback(o: &ExpOptions) -> Result<Plan, SimError> {
    let wt = ("write-through (paper)", "write-policy=wt");
    let wb = ("write-back (§IV-B option)", "write-policy=wb");
    Ok(ablation(o, "L2 write policy (HMG)", [wt, wb]))
}

/// §IV-B's optional sharer-downgrade messages.
fn ablate_downgrade(o: &ExpOptions) -> Result<Plan, SimError> {
    let off = ("silent clean evictions (paper)", "downgrades=off");
    let on = ("downgrade messages", "downgrades=on");
    Ok(ablation(o, "sharer downgrades (HMG)", [off, on]))
}

// ---------------------------------------------------------------------
// Cell builders and reducers
// ---------------------------------------------------------------------

/// Speedups of `protocols` over the no-peer-caching baseline, one row
/// per workload whose every cell completed, then their `GeoMean`; the
/// serialized `tweak` applies to every cell, baseline included.
pub fn speedup_suite(
    opts: &ExpOptions,
    title: &str,
    protocols: &[ProtocolKind],
    tweak: &str,
) -> Plan {
    let specs = opts.specs();
    let mut cells = Vec::new();
    for s in &specs {
        for p in std::iter::once(NoPeerCaching).chain(protocols.iter().copied()) {
            cells.push(opts.cell(format!("{}/{}", s.abbrev, p.name()), s.abbrev, p, tweak));
        }
    }
    let columns: Vec<(&str, Fmt)> = protocols.iter().map(|p| (p.name(), Fmt::F2)).collect();
    let mut t = Table::new(title, "workload", &columns);
    let per = protocols.len() + 1;
    Plan::new(cells, move |results, _| {
        for (spec, chunk) in specs.iter().zip(results.chunks(per)) {
            // Only workloads whose every cell completed get a row.
            if let Some(cycles) = chunk.iter().map(done_cycles).collect::<Option<Vec<f64>>>() {
                let speedups = cycles[1..].iter().map(|c| Some(cycles[0] / c));
                t.rows.push((spec.abbrev.to_string(), speedups.collect()));
            }
        }
        t.total("GeoMean", stats::geomean);
        vec![t]
    })
}

/// The completed cycle count of a merged cell, if it completed.
fn done_cycles(r: &CellResult) -> Option<f64> {
    r.as_ref().ok().map(|m| m.total_cycles.as_u64() as f64)
}

/// Drops persistent-kernel workloads from the selection: their resident
/// grids are sized for the full Table II machine.
fn exclude_persistent_kernels(opts: &ExpOptions) -> ExpOptions {
    let keep = opts
        .specs()
        .into_iter()
        .filter(|s| !s.uses_persistent_kernel());
    let filter = Some(keep.map(|s| s.abbrev.to_string()).collect());
    ExpOptions {
        filter,
        ..opts.clone()
    }
}

/// The four configurations the sensitivity figures plot.
const SWEEP: [ProtocolKind; 4] = [Nhcc, SwHier, Hmg, Ideal];

/// Sweep points `{v}{unit}`, each applying the tweak `{clause}={v}`.
fn grid(values: &[u32], unit: &str, clause: &str) -> Vec<(String, String)> {
    let point = |v| (format!("{v}{unit}"), format!("{clause}={v}"));
    values.iter().map(point).collect()
}

/// A sensitivity sweep over `(label, tweak)` points: every `(point,
/// workload, protocol)` cell and the no-peer-caching baseline each is
/// normalized to, reduced to a row of geomean speedups per point. With
/// `per_point_baseline` the baseline runs at every point. Without it,
/// the baseline runs **once, on the Table II configuration**, the way
/// the paper's Figs. 12–14 are normalized ("baseline is no caching with
/// configurations of Table II"). Each geomean is over the workloads
/// whose baseline and protocol cells both completed.
fn point_sweep(
    opts: &ExpOptions,
    title: &str,
    parameter: &str,
    points: Vec<(String, String)>,
    protocols: &[ProtocolKind],
    per_point_baseline: bool,
) -> Plan {
    let specs = opts.specs();
    let key = |label: &str, w: &str, p: ProtocolKind| format!("{label}/{w}/{}", p.name());
    let mut cells: Vec<CellCtx> = Vec::new();
    for s in specs.iter().filter(|_| !per_point_baseline) {
        let key = key("table2", s.abbrev, NoPeerCaching);
        cells.push(opts.cell(key, s.abbrev, NoPeerCaching, ""));
    }
    for (label, tweak) in &points {
        for s in &specs {
            let own_base = per_point_baseline.then_some(NoPeerCaching);
            for p in own_base.into_iter().chain(protocols.iter().copied()) {
                cells.push(opts.cell(key(label, s.abbrev, p), s.abbrev, p, tweak));
            }
        }
    }
    let keys: Vec<String> = cells.iter().map(|c| c.key.clone()).collect();
    let columns: Vec<(&str, Fmt)> = protocols.iter().map(|p| (p.name(), Fmt::F2)).collect();
    let mut t = Table::new(title, parameter, &columns);
    let protocols = protocols.to_vec();
    Plan::new(cells, move |results, _| {
        let done = keys
            .iter()
            .zip(results)
            .filter_map(|(k, r)| Some((k.as_str(), done_cycles(r)?)));
        let cycles: std::collections::HashMap<&str, f64> = done.collect();
        for (label, _) in points {
            let base = if per_point_baseline { &label } else { "table2" };
            let speedup = |w: &str, p| {
                let c = cycles.get(key(&label, w, p).as_str())?;
                Some(cycles.get(key(base, w, NoPeerCaching).as_str())? / c)
            };
            let geomean = |&p: &ProtocolKind| {
                let s: Vec<f64> = specs.iter().filter_map(|s| speedup(s.abbrev, p)).collect();
                (!s.is_empty()).then(|| stats::geomean(&s))
            };
            let row = protocols.iter().map(geomean).collect();
            t.rows.push((label.clone(), row));
        }
        vec![t]
    })
}

/// A two-variant HMG ablation as one sweep: each variant's tweak applies
/// to its HMG cells and to the baseline they are normalized to.
fn ablation(opts: &ExpOptions, name: &str, variants: [(&str, &str); 2]) -> Plan {
    let points = variants
        .map(|(l, t)| (l.to_string(), t.to_string()))
        .to_vec();
    let title = format!("Ablation: {name}");
    let plan = point_sweep(opts, &title, "variant", points, &[Hmg], true);
    plan.then(|t| t[0].columns[0].0 = "geomean speedup".to_string())
}

/// Table III (the workload inventory) with generated-trace sizes. No
/// engine runs here: the traces are generated in-process on the
/// supervisor pool while planning, and a generator that crashes fails
/// the table with a typed error.
fn table_iii(opts: &ExpOptions) -> Result<Plan, SimError> {
    let specs = opts.specs();
    let isolation = Isolation::Thread;
    let sup = SupervisorConfig {
        isolation,
        ..opts.supervisor_config()
    };
    let sizes = |s: &WorkloadSpec, _| {
        let trace = s.generate(opts.scale, opts.seed);
        Attempt::Ok([trace.num_accesses() as f64, trace.num_kernels() as f64])
    };
    let report = supervisor::supervise(&specs, |s| s.abbrev.to_string(), &sup, sizes);
    println!("{}", report.summary_line(0, 0));
    let tally = report.tally();
    let outcome = |c: CellReport<[f64; 2]>| c.outcome.ok_or_else(|| cell_error(c.status));
    let sizes = report
        .cells
        .into_iter()
        .map(outcome)
        .collect::<Result<Vec<_>, _>>()?;
    let columns = [
        ("abbrev", Fmt::Abbrev),
        ("paper footprint", Fmt::Footprint),
        ("generated accesses", Fmt::F0),
        ("kernels", Fmt::F0),
    ];
    let mut t = Table::new("Table III: benchmarks", "benchmark", &columns);
    let suite = table3();
    for (s, [accesses, kernels]) in specs.iter().zip(sizes) {
        let index = suite
            .iter()
            .position(|x| x.abbrev == s.abbrev)
            .map(|i| i as f64);
        let row = vec![
            index,
            Some(s.paper_footprint_mb),
            Some(accesses),
            Some(kernels),
        ];
        t.rows.push((s.name.to_string(), row));
    }
    let plan = Plan::new(Vec::new(), move |_, _| vec![t]);
    Ok(Plan { tally, ..plan })
}

/// Fig. 3: per workload, the fraction of inter-GPU loads whose line
/// another GPM of the same GPU had already accessed (`n/a` without
/// inter-GPU loads), measured on the no-peer-caching baseline, where
/// every remote load crosses the inter-GPU network.
fn fig3(opts: &ExpOptions) -> Result<Plan, SimError> {
    let cells = opts.suite_cells(NoPeerCaching, "peer-redundancy");
    let workloads: Vec<String> = cells.iter().map(|c| c.workload.clone()).collect();
    let title = "Fig. 3: % of inter-GPU loads redundant within the GPU";
    let mut t = Table::new(title, "workload", &[("redundant", Fmt::Pct)]);
    Ok(Plan::new(cells, move |results, _| {
        for (w, m) in done(workloads, results) {
            t.rows.push((w, vec![m.peer_redundancy()]));
        }
        t.total("Avg", stats::mean);
        vec![t]
    }))
}

/// The completed cells' labels with their metrics, in input order.
fn done<L>(labels: Vec<L>, results: &[CellResult]) -> impl Iterator<Item = (L, &RunMetrics)> {
    labels
        .into_iter()
        .zip(results)
        .filter_map(|(l, r)| Some((l, r.as_ref().ok()?)))
}

/// Fig. 7's fit of simulated against predicted cycles: the Pearson
/// correlation of their log10s and the mean absolute relative error.
fn fit(predicted: &[f64], simulated: &[f64]) -> (f64, f64) {
    let log10 = |xs: &[f64]| xs.iter().map(|x| x.log10()).collect::<Vec<f64>>();
    let r = stats::pearson(&log10(predicted), &log10(simulated));
    (r, stats::mean_abs_rel_err(simulated, predicted))
}

/// Fig. 7: the simulator against an analytical model on the correlation
/// microbenchmarks. The micros assume the Table II machine's 16-GPM
/// shape, so each is an HMG cell at [`Scale::Small`] with no fault plan,
/// and `opts` supplies only the worker pool, isolation, checkpoint and
/// `--keep-going`. The simulator speed counts the cells this run
/// executed, not checkpoint-reused ones.
fn fig7(opts: &ExpOptions) -> Result<Plan, SimError> {
    let machine = ExpOptions {
        scale: Scale::Small,
        faults: None,
        ..opts.clone()
    };
    let cfg = EngineConfig::paper_default(Hmg);
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
    let suite = correlation_suite();
    let cell = |m: &Micro| machine.cell(m.name.clone(), &m.name, Hmg, "");
    let cells = suite.iter().map(cell).collect();
    // The micros' traces are not needed past here; keep their names and
    // predictions only.
    let predict = |m: &Micro| (m.name.clone(), (m.predict)(&params));
    let predicted: Vec<(String, f64)> = suite.iter().map(predict).collect();
    let columns = [
        ("predicted", Fmt::F0),
        ("simulated", Fmt::F0),
        ("ratio", Fmt::F2),
    ];
    let title = "Fig. 7: simulator correlation vs analytical model";
    let mut t = Table::new(title, "microbenchmark", &columns);
    Ok(Plan::new(cells, move |results, tally| {
        for ((name, p), m) in done(predicted, results) {
            let s = m.total_cycles.as_u64() as f64;
            t.rows.push((name, vec![Some(p), Some(s), Some(s / p)]));
        }
        let column = |i: usize| t.rows.iter().filter_map(|(_, v)| v[i]).collect::<Vec<_>>();
        let (r, err) = fit(&column(0), &column(1));
        let speed = match tally.cells {
            0 => "n/a".to_string(),
            _ => format!("{:.1}M events/s", tally.events_per_sec() / 1e6),
        };
        t.notes = vec![
            format!("correlation (log10): r = {}", f3(r)),
            format!("mean abs rel err:    {}", f3(err)),
            format!("simulator speed:     {speed}"),
        ];
        vec![t]
    }))
}

/// Figs. 9–11: per workload, HMG's lines invalidated per invalidating
/// store (Fig. 9) and per directory eviction (Fig. 10), `0` where there
/// were none, and its invalidation-message bandwidth (Fig. 11); then
/// their averages over the workloads where each is defined (`0.00` when
/// none is).
fn fig9_11(opts: &ExpOptions) -> Result<Plan, SimError> {
    let cells = opts.suite_cells(Hmg, "");
    let workloads: Vec<String> = cells.iter().map(|c| c.workload.clone()).collect();
    // The scale's machine clock; nothing these cells apply changes it.
    let freq = crate::runner::machine_config(opts.scale, Hmg)
        .fabric
        .freq_ghz;
    let columns = [
        ("lines/store-inv", Fmt::F2OrZero),
        ("lines/dir-evict", Fmt::F2OrZero),
        ("inv GB/s", Fmt::F2),
    ];
    let mut t = Table::new("Figs. 9-11: HMG invalidation costs", "workload", &columns);
    Ok(Plan::new(cells, move |results, _| {
        for (w, m) in done(workloads, results) {
            let bw = Some(m.inv_bandwidth_gbps(freq));
            let row = vec![m.lines_per_store_inv(), m.lines_per_eviction_inv(), bw];
            t.rows.push((w, row));
        }
        t.total("Avg", stats::mean);
        vec![t]
    }))
}

/// §VII-C: directory storage arithmetic for the Table II machine — bits
/// per entry, bytes per GPM, and that as a fraction of an L2 slice.
pub fn storage_cost() -> (u32, u64, f64) {
    let cfg = EngineConfig::paper_default(Hmg);
    let dir = hmg_mem::Directory::new(cfg.dir, cfg.topo);
    let cost = dir.storage_cost(48);
    let l2_slice_bytes = cfg.l2.lines as u64 * cfg.geometry.line_bytes() as u64;
    let frac = cost.total_bytes as f64 / l2_slice_bytes as f64;
    (cost.bits_per_entry, cost.total_bytes, frac)
}

/// Each selected workload (default `bfs` and `RNN_FW`) under every
/// protocol, one table each: a traffic/locality drill-down companion to
/// Fig. 8. All workloads run as one sweep, so one checkpoint covers
/// them.
fn characterize(opts: &ExpOptions) -> Result<Plan, SimError> {
    let default = || vec!["bfs".to_string(), "RNN_FW".to_string()];
    let workloads = opts.filter.clone().unwrap_or_else(default);
    if let Some(w) = workloads.iter().find(|w| by_abbrev(w).is_none()) {
        return Err(SimError::config(format!("unknown workload `{w}`")));
    }
    let per_workload = |w: &String| ProtocolKind::ALL.map(|p| opts.plain_cell(w, p));
    let cells = workloads.iter().flat_map(per_workload).collect();
    let columns = [
        ("cycles", Fmt::F0),
        ("L1 hit", Fmt::Pct),
        ("L2 serve", Fmt::Pct),
        ("DRAM/load", Fmt::F2),
        ("inter MB", Fmt::F1),
        ("invs", Fmt::F0),
        ("p50/p99 lat", Fmt::Pair),
    ];
    let per = ProtocolKind::ALL.len();
    Ok(Plan::new(cells, move |results, _| {
        let table = |(i, (w, chunk)): (usize, (&String, &[CellResult]))| {
            let mut t = Table::new(format!("Characterization: {w}"), "protocol", &columns);
            let names = ProtocolKind::ALL.map(|p| p.name().to_string()).to_vec();
            t.rows = done(names, chunk)
                .map(|(p, m)| (p, characterization(m)))
                .collect();
            t.cells = Some(i * per..(i + 1) * per);
            t
        };
        workloads
            .iter()
            .zip(results.chunks(per))
            .enumerate()
            .map(table)
            .collect()
    }))
}

/// One protocol's characterization row.
fn characterization(m: &RunMetrics) -> Vec<Option<f64>> {
    let per_load = |n: u64| {
        if m.loads == 0 {
            0.0
        } else {
            n as f64 / m.loads as f64
        }
    };
    let inter = hmg_interconnect::MsgClass::ALL.map(|c| m.fabric.inter_bytes(c));
    let latency = m.miss_latency_percentile(0.5) << 32 | m.miss_latency_percentile(0.99);
    let row = [
        m.total_cycles.as_u64() as f64,
        m.l1_hit_rate(),
        per_load(m.local_l2_hits + m.gpu_home_hits + m.sys_home_hits),
        per_load(m.dram_accesses),
        inter.iter().sum::<u64>() as f64 / 1e6,
        (m.invs_from_stores + m.invs_from_evictions) as f64,
        latency as f64,
    ];
    row.map(Some).to_vec()
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

/// The [`Headline`] of a Fig. 8 table's `GeoMean` row; `None` when no
/// workload completed (the geomeans are then undefined).
pub fn headline(fig8: &Table) -> Option<Headline> {
    let geomean = |p: ProtocolKind| fig8.value("GeoMean", p.name());
    let hmg = geomean(Hmg)?;
    let vs = |p| Some(hmg / geomean(p)? - 1.0);
    Some(Headline {
        vs_sw_nonhier: vs(SwNonHier)?,
        vs_sw_hier: vs(SwHier)?,
        vs_nhcc: vs(Nhcc)?,
        of_ideal: hmg / geomean(Ideal)?,
    })
}

/// Fig. 8's notes: the measured headline, then the paper's.
fn headline_notes(fig8: &Table) -> Vec<String> {
    let measured = match headline(fig8) {
        Some(h) => format!(
            "headline: HMG vs SW-nonhier {:+.0}%, vs SW-hier {:+.0}%, vs NHCC {:+.0}%, \
             {:.0}% of ideal",
            h.vs_sw_nonhier * 100.0,
            h.vs_sw_hier * 100.0,
            h.vs_nhcc * 100.0,
            h.of_ideal * 100.0
        ),
        None => "headline: n/a (no workload completed)".to_string(),
    };
    let paper = "paper:    HMG vs SW-coherence +26%, vs NHCC +18%, 97% of ideal";
    vec![measured, paper.to_string(), String::new()]
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

    /// The one table of the registry entry `name`, and its failures.
    fn run(name: &str, opts: &ExpOptions) -> (Table, Vec<RunFailure>) {
        let r = figure(name).expect("registered").run(opts).expect(name);
        let [t] = <[Table; 1]>::try_from(r.tables).expect("one table");
        (t, r.failures)
    }

    /// A speedup table's geomean for protocol `p`.
    fn geomean(t: &Table, p: ProtocolKind) -> f64 {
        t.value("GeoMean", p.name()).expect("workloads completed")
    }

    #[test]
    fn fig8_runs_on_tiny_subset() {
        let (t, _) = run("fig8", &tiny());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.columns.len(), 5);
        for v in t.rows.iter().flat_map(|(_, row)| row) {
            let v = v.expect("every cell completed");
            assert!(v > 0.1 && v < 100.0, "speedup {v} out of range");
        }
        assert!(geomean(&t, Ideal) >= geomean(&t, Hmg) * 0.7);
    }

    #[test]
    fn fig2_is_a_subset_of_protocols() {
        assert_eq!(run("fig2", &tiny()).0.columns.len(), 3);
    }

    #[test]
    fn fig3_reports_redundancy() {
        let (t, failures) = run("fig3", &tiny());
        assert_eq!(t.rows.len(), 3);
        assert!(failures.is_empty());
        let average = t.value("Avg", "redundant").expect("workloads completed");
        assert!((0.0..=1.0).contains(&average));
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
        let (t, _) = run("fig8", &tiny());
        let h = headline(&t).expect("workloads completed");
        assert!(h.vs_sw_nonhier > -0.9 && h.vs_sw_hier > -0.9 && h.vs_nhcc > -0.9);
        assert!(h.of_ideal > 0.1 && h.of_ideal <= 1.5);
        // Each ratio is over its own named baseline.
        let over = |p| geomean(&t, Hmg) / geomean(&t, p) - 1.0;
        assert_eq!(h.vs_sw_nonhier, over(SwNonHier));
        assert_eq!(h.vs_sw_hier, over(SwHier));
        assert_eq!(h.vs_nhcc, over(Nhcc));
    }

    #[test]
    fn headline_is_undefined_when_no_workload_completed() {
        // Every run failed under --keep-going: the geomeans are over
        // nothing, so they print `n/a` (not 0.00), and the headline must
        // say so instead of 0/0 = NaN.
        let columns = ProtocolKind::FIG8.map(|p| (p.name(), Fmt::F2));
        let mut empty = Table::new("Fig. 8", "workload", &columns);
        empty.total("GeoMean", stats::geomean);
        assert_eq!(empty.value("GeoMean", "hmg"), None);
        assert_eq!(Fmt::F2.render(None), "n/a");
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
        let plain = speedup_suite(&opts, "plain", &[Hmg], "").run(&opts);
        let b = geomean(&plain.expect("plain suite").tables[0], Hmg);
        // The 200 GB/s point of fig12 leaves the machine at its default
        // bandwidth, so it must reproduce the plain suite's speedup.
        let a = run("fig12", &opts)
            .0
            .value("200GB/s", "hmg")
            .expect("point");
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
            let (t, _) = run("fig8", &opts);
            let (hmg, sw) = (geomean(&t, Hmg), geomean(&t, SwNonHier));
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
        let (c, failures) = run("characterize", &opts);
        assert_eq!(c.rows.len(), ProtocolKind::ALL.len());
        assert!(failures.is_empty());
        for (p, row) in &c.rows {
            assert!(row[0].is_some_and(|cycles| cycles > 0.0), "{p}");
            assert!(row[1].is_some_and(|l1| (0.0..=1.0).contains(&l1)), "{p}");
        }
        let filter = Some(vec!["nope".into()]);
        let unknown = figure("characterize")
            .unwrap()
            .run(&ExpOptions { filter, ..opts });
        let err = unknown.expect_err("unknown workload");
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
        let fig8 = figure("fig8").expect("registered");
        let full = fig8.run(&opts).expect("full sweep");

        // Simulate an interrupted sweep: drop some completed cells from
        // the checkpoint, then resume. The resumed sweep re-runs only
        // the missing cells and must reproduce the full report.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().filter(|l| !l.contains("lstm/")).collect();
        std::fs::write(&path, kept.join("\n") + "\n").unwrap();
        let resume = ExpOptions {
            resume: true,
            ..opts.clone()
        };
        let resumed = fig8.run(&resume).expect("resumed sweep");
        assert_eq!(
            resumed.tables, full.tables,
            "resumed report must be identical"
        );
        assert_eq!(resumed.tally.reused, 6, "bfs's six cells were reused");

        // A second resume with the now-complete file reuses every cell.
        let resumed_again = fig8.run(&resume).expect("second resume");
        assert_eq!(resumed_again.tables, full.tables);
        assert_eq!(resumed_again.tally.cells, 0, "nothing re-ran");
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
        let first = run("ablate-fence", &opts);
        let resumed = run(
            "ablate-fence",
            &ExpOptions {
                resume: true,
                ..opts.clone()
            },
        );
        // The resume compacts the 8 reused rows into the file; a cell
        // that re-ran would append a ninth.
        let rows = std::fs::read_to_string(&path).unwrap().lines().count() - 1;
        std::fs::remove_file(&path).ok();
        assert_eq!(rows, 8, "every cell must be reused");
        assert_eq!(resumed.0, first.0);
    }

    #[test]
    fn sweep_structures_are_complete() {
        let opts = ExpOptions {
            filter: Some(vec!["bfs".into()]),
            ..tiny()
        };
        let (s, _) = run("fig12", &opts);
        assert_eq!((s.rows.len(), s.columns.len()), (4, 4));
        assert!(s.rows.iter().all(|(_, v)| v.iter().all(Option::is_some)));
    }

    #[test]
    fn every_engine_figure_reports_its_failures_under_keep_going() {
        // A lethal fault under --keep-going: every entry whose cells take
        // the fault plan reports its failed cells instead of dropping
        // them. Table III and the cost arithmetic run no engine, and
        // Fig. 7 always runs its micros fault-free.
        let opts = ExpOptions {
            seed: 4,
            filter: Some(vec!["cuSolver".into(), "bfs".into()]),
            faults: Some(FaultPlan::parse("drop-store=1").unwrap()),
            keep_going: true,
            ..tiny()
        };
        let mut exempt = Vec::new();
        for f in &FIGURES {
            let plan = (f.plan)(&opts).expect(f.name);
            if plan.cells.iter().all(|c| c.faults.is_none()) {
                exempt.push(f.name);
                continue;
            }
            let r = plan.run(&opts).expect(f.name);
            assert!(!r.failures.is_empty(), "{}: failures dropped", f.name);
        }
        assert_eq!(exempt, ["table3", "fig7", "cost"]);
        let all = FIGURES.iter().filter(|f| f.in_all).map(|f| f.name);
        assert_eq!(
            all.collect::<Vec<_>>().join(" "),
            "table3 fig2 fig3 fig7 fig8 fig9-11 fig12 fig13 fig14 grain cost \
             ablate-fence ablate-placement ablate-writeback ablate-downgrade",
            "`all` runs the paper figures in paper order"
        );
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
