//! Resilient parallel sweep supervisor.
//!
//! Every experiment grid in this repo (the Fig. 8/12–14 speedup
//! sweeps, the Fig. 3/7/9–11, Table III and characterization drivers,
//! the litmus sweeps of `hmg-check`, the fault and fail-in-place
//! sweeps) is a set of *independent* simulation cells.
//! [`run_isolated`](crate::runner::run_isolated) already contains
//! panics, but an in-process cell can still take the whole sweep down
//! with it: an unbounded hang wedges the worker forever, an OOM kill
//! or `abort()` ends the process, and a multi-hour `--scale full`
//! sweep loses everything not yet checkpointed.
//!
//! The supervisor closes that gap:
//!
//! * **Process isolation** ([`Isolation::Process`]): each cell runs in
//!   a child process (a re-exec of `current_exe()` in the hidden
//!   `__run-cell` mode), so a crashing or OOM-killed cell becomes a
//!   `crashed` row in the failure table instead of ending the sweep.
//! * **Timeout-kill**: a per-cell wall-clock budget; a hung child is
//!   killed and reported as `timeout` with its stderr tail.
//! * **Retry with backoff**: `crashed`/`timeout` outcomes may be
//!   transient (a machine hiccup, a memory spike) and are retried with
//!   deterministic exponential backoff; after the attempt cap the cell
//!   is **quarantined** and the sweep moves on. Typed simulation
//!   errors (a detected deadlock, a protocol violation) are
//!   deterministic and are *not* retried.
//! * **Drain-and-stop**: without `keep_going`, the first failure stops
//!   new cells from being claimed while in-flight cells drain cleanly;
//!   unclaimed cells are reported as `skipped`.
//! * **Thread fallback** ([`Isolation::Thread`]): the same supervisor
//!   loop with in-process execution (panic containment only — no kill
//!   is possible, so timeouts are not enforced). This is the mode
//!   library tests use, since re-exec'ing a test binary is meaningless.
//!
//! Both modes return a cell's full [`RunMetrics`]: a child prints them
//! as hex of their `snapshot_codec!` bytes on its marker line
//! ([`ok_marker`]), and the parent decodes them back bit-exactly.
//!
//! Under either mode a panicking attempt is caught here and classified
//! `crashed` (`cell panicked: <message>`), so no cell can unwind
//! through the pool.
//!
//! Results merge in deterministic input order regardless of worker
//! interleaving, and every cell records its wall time so sweeps emit a
//! perf trajectory (`BENCH_sweep.json` from [`SweepReport::tally`]).

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use hmg_gpu::RunMetrics;
use hmg_sim::SimError;

use crate::runner::{metrics_from_hex, metrics_to_hex};

/// How cells are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// Each cell attempt runs in a child process (crash + hang proof).
    Process,
    /// Each cell attempt runs on a worker thread (panic containment
    /// only; hangs cannot be killed). Used by library tests and as the
    /// in-process fallback.
    Thread,
}

impl Isolation {
    /// Parses a CLI value.
    pub fn parse(s: &str) -> Option<Isolation> {
        match s {
            "process" => Some(Isolation::Process),
            "thread" => Some(Isolation::Thread),
            _ => None,
        }
    }

    /// CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            Isolation::Process => "process",
            Isolation::Thread => "thread",
        }
    }
}

/// Supervisor policy for one sweep.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads (0 = all available cores).
    pub jobs: usize,
    /// Per-cell wall-clock budget; `None` = unbounded. Only
    /// enforceable under [`Isolation::Process`].
    pub cell_timeout: Option<Duration>,
    /// Extra attempts after the first for `crashed`/`timeout` cells.
    pub retries: u32,
    /// Execution mode.
    pub isolation: Isolation,
    /// Keep claiming cells after a failure (otherwise drain-and-stop).
    pub keep_going: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            jobs: 0,
            cell_timeout: None,
            retries: 2,
            isolation: Isolation::Thread,
            keep_going: false,
        }
    }
}

impl SupervisorConfig {
    /// The worker count this config resolves to on this machine,
    /// bounded by the cell count.
    pub fn resolved_jobs(&self, cells: usize) -> usize {
        let avail = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        let jobs = if self.jobs == 0 { avail } else { self.jobs };
        jobs.clamp(1, cells.max(1))
    }
}

/// Outcome of one *attempt* at a cell, as classified by the executor.
#[derive(Debug)]
pub enum Attempt<R> {
    /// The attempt completed and produced a result.
    Ok(R),
    /// The attempt completed with a typed, deterministic simulation
    /// error (deadlock, protocol violation, bad config) — not retried.
    Fault(SimError),
    /// The attempt died without producing a result (panic, abort,
    /// signal, unparseable child output) — retried, then quarantined.
    Crashed(String),
    /// The attempt exceeded the wall-clock budget and was killed —
    /// retried, then quarantined.
    Timeout(String),
}

/// Final disposition of one cell (the sweep failure taxonomy).
#[derive(Debug, Clone)]
pub enum CellStatus {
    /// Completed with a result.
    Ok,
    /// Typed simulation error (deterministic; never retried).
    Failed(SimError),
    /// Died without a result on its last attempt.
    Crashed(String),
    /// Killed by the per-cell wall-clock budget on its last attempt.
    Timeout(String),
    /// Never claimed: the sweep drained-and-stopped after an earlier
    /// hard failure (re-run on `--resume`).
    Skipped,
}

impl CellStatus {
    /// Short taxonomy name (`ok`/`failed`/`crashed`/`timeout`/`skipped`).
    pub fn name(&self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed(_) => "failed",
            CellStatus::Crashed(_) => "crashed",
            CellStatus::Timeout(_) => "timeout",
            CellStatus::Skipped => "skipped",
        }
    }

    /// The failure detail, if any.
    pub fn error(&self) -> Option<String> {
        match self {
            CellStatus::Ok => None,
            CellStatus::Failed(e) => Some(e.to_string()),
            CellStatus::Crashed(m) | CellStatus::Timeout(m) => Some(m.clone()),
            CellStatus::Skipped => Some("skipped after an earlier failure".into()),
        }
    }
}

/// One cell's final report.
#[derive(Debug, Clone)]
pub struct CellReport<R> {
    /// Sweep-unique cell key (also the checkpoint key).
    pub key: String,
    /// Final disposition.
    pub status: CellStatus,
    /// Attempts consumed (0 for cells skipped after a hard failure).
    pub attempts: u32,
    /// The attempt cap was exhausted on crash/timeout outcomes; the
    /// cell is excluded from further retries.
    pub quarantined: bool,
    /// Wall-clock seconds spent on this cell across all attempts.
    pub wall_secs: f64,
    /// The result (`Ok` cells only).
    pub outcome: Option<R>,
}

impl<R> CellReport<R> {
    /// `true` when the cell finished with a result.
    pub fn is_ok(&self) -> bool {
        matches!(self.status, CellStatus::Ok)
    }
}

/// What a supervised sweep produced, in deterministic input order.
#[derive(Debug)]
pub struct SweepReport<R> {
    /// Per-cell reports, in the order cells were submitted.
    pub cells: Vec<CellReport<R>>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Worker threads used.
    pub jobs: usize,
}

impl<R> SweepReport<R> {
    /// `true` when every cell completed with a result.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(CellReport::is_ok)
    }

    /// Count of cells with the given taxonomy name.
    pub fn count(&self, name: &str) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status.name() == name)
            .count()
    }

    /// This sweep's perf tally: one sweep, its executed cells (reused
    /// and skipped ones excluded) and its wall time. Events are the
    /// caller's to add; the supervisor does not know its outcome type.
    pub fn tally(&self) -> BenchTally {
        BenchTally {
            sweeps: 1,
            cells: self.cells.iter().filter(|c| c.attempts > 0).count() as u64,
            sweep_wall_secs: self.wall_secs,
            ..BenchTally::default()
        }
    }

    /// One greppable summary line for sweep logs and CI.
    pub fn summary_line(&self, reused: usize, stale: usize) -> String {
        let quarantined = self.cells.iter().filter(|c| c.quarantined).count();
        format!(
            "[sweep] cells={} ok={} failed={} crashed={} timeout={} skipped={} \
             quarantined={quarantined} reused={reused} stale={stale} jobs={} wall={:.2}s",
            self.cells.len(),
            self.count("ok"),
            self.count("failed"),
            self.count("crashed"),
            self.count("timeout"),
            self.count("skipped"),
            self.jobs,
            self.wall_secs,
        )
    }
}

/// Deterministic exponential backoff before retry `attempt` (1-based
/// count of attempts already made). Pure function of the attempt
/// number so reruns behave identically.
pub fn backoff(attempt: u32) -> Duration {
    let ms = 25u64.saturating_mul(1u64 << attempt.min(6));
    Duration::from_millis(ms.min(2_000))
}

/// Runs `cells` through the supervisor loop: a work-stealing pool of
/// [`SupervisorConfig::resolved_jobs`] workers claims cells in input
/// order, executes each via `attempt` (which encapsulates the
/// isolation mode), retries transient failures with [`backoff`], and
/// merges reports in deterministic input order.
///
/// `attempt(cell, n)` performs attempt number `n` (1-based) and
/// classifies the outcome; it must be safe to call concurrently.
pub fn supervise<T, R, F>(
    cells: &[T],
    key_of: impl Fn(&T) -> String + Sync,
    cfg: &SupervisorConfig,
    attempt: F,
) -> SweepReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u32) -> Attempt<R> + Sync,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock sweep accounting only; never feeds simulated state"
    )]
    let t0 = std::time::Instant::now();
    let n = cells.len();
    let jobs = cfg.resolved_jobs(n);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<CellReport<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let key = key_of(&cells[i]);
                let report = if stop.load(Ordering::Relaxed) && !cfg.keep_going {
                    CellReport {
                        key,
                        status: CellStatus::Skipped,
                        attempts: 0,
                        quarantined: false,
                        wall_secs: 0.0,
                        outcome: None,
                    }
                } else {
                    let r = run_one(&cells[i], key, cfg, &attempt);
                    if !r.is_ok() && !cfg.keep_going {
                        stop.store(true, Ordering::Relaxed);
                    }
                    r
                };
                // A panic cannot happen while this lock is held (the
                // attempt already ran), so poisoning is unreachable;
                // recover defensively instead of double-panicking.
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(report);
            });
        }
    });

    let cells = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every claimed slot is filled before the scope ends")
        })
        .collect();
    SweepReport {
        cells,
        wall_secs: t0.elapsed().as_secs_f64(),
        jobs,
    }
}

/// Runs one cell to its final status: first attempt, then bounded
/// deterministic retries for transient (`crashed`/`timeout`) outcomes.
fn run_one<T, R, F>(cell: &T, key: String, cfg: &SupervisorConfig, attempt: &F) -> CellReport<R>
where
    F: Fn(&T, u32) -> Attempt<R>,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock cell accounting only; never feeds simulated state"
    )]
    let t0 = std::time::Instant::now();
    let max_attempts = 1 + cfg.retries;
    let mut attempts = 0;
    let mut last: Option<CellStatus> = None;
    while attempts < max_attempts {
        attempts += 1;
        // A panicking attempt is a crash like any other: it is retried,
        // then quarantined, and never unwinds through the pool.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt(cell, attempts)))
                .unwrap_or_else(|payload| {
                    Attempt::Crashed(format!(
                        "cell panicked: {}",
                        panic_message(payload.as_ref())
                    ))
                });
        match outcome {
            Attempt::Ok(r) => {
                return CellReport {
                    key,
                    status: CellStatus::Ok,
                    attempts,
                    quarantined: false,
                    wall_secs: t0.elapsed().as_secs_f64(),
                    outcome: Some(r),
                }
            }
            Attempt::Fault(e) => {
                // Deterministic: retrying would reproduce it exactly.
                return CellReport {
                    key,
                    status: CellStatus::Failed(e),
                    attempts,
                    quarantined: false,
                    wall_secs: t0.elapsed().as_secs_f64(),
                    outcome: None,
                };
            }
            Attempt::Crashed(m) => last = Some(CellStatus::Crashed(m)),
            Attempt::Timeout(m) => last = Some(CellStatus::Timeout(m)),
        }
        if attempts < max_attempts {
            std::thread::sleep(backoff(attempts));
        }
    }
    CellReport {
        key,
        status: last.unwrap_or(CellStatus::Skipped),
        attempts,
        quarantined: true,
        wall_secs: t0.elapsed().as_secs_f64(),
        outcome: None,
    }
}

// ---------------------------------------------------------------------
// Process-isolation executor
// ---------------------------------------------------------------------

/// How a child-process attempt reports back to the supervisor: the
/// *last* stdout line is a marker of this form; every preceding stdout
/// line is forwarded verbatim to the parent's stdout (greppable
/// `[fail-in-place]` accounting etc. survives isolation).
///
/// ```text
/// __hmg_cell_v2 ok [resumed=<cycle>] <RunMetrics as metrics_to_hex>
/// __hmg_cell_v2 err <first line of the SimError>
/// ```
pub const CELL_MARKER: &str = "__hmg_cell_v2";

/// A completed cell attempt: its full metrics, and the cycle it
/// resumed from (a snapshot an interrupted earlier attempt left), or
/// `None` for a cold start.
pub type CellRun = (RunMetrics, Option<u64>);

/// The marker line a `__run-cell` child prints on success.
pub fn ok_marker((metrics, resumed_from): &CellRun) -> String {
    let resumed = resumed_from
        .map(|c| format!("resumed={c} "))
        .unwrap_or_default();
    format!("{CELL_MARKER} ok {resumed}{}", metrics_to_hex(metrics))
}

/// Decodes the payload after `ok ` of an [`ok_marker`] line; `None` for
/// anything [`ok_marker`] could not have printed.
fn parse_ok_payload(payload: &str) -> Option<CellRun> {
    let mut toks = payload.split_whitespace();
    let mut tok = toks.next()?;
    let mut resumed_from = None;
    if let Some(c) = tok.strip_prefix("resumed=") {
        resumed_from = Some(c.parse().ok()?);
        tok = toks.next()?;
    }
    let metrics = metrics_from_hex(tok)?;
    toks.next().is_none().then_some((metrics, resumed_from))
}

/// Exit code a child uses for a typed simulation error (distinguishes
/// deterministic failures from crashes, which exit however they die).
pub const CELL_FAULT_EXIT: i32 = 2;

/// Child-process command for one cell attempt.
#[derive(Debug, Clone)]
pub struct CellCommand {
    /// Executable (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Full argument list (including the `__run-cell` mode selector).
    pub args: Vec<String>,
}

/// Runs one attempt in a child process: spawns `cmd`, polls for exit
/// with the wall-clock budget, kills on timeout, forwards pre-marker
/// stdout, and classifies the outcome. A marker that does not decode
/// is a crash: a result is never guessed from a damaged line.
pub fn process_attempt(cmd: &CellCommand, timeout: Option<Duration>) -> Attempt<CellRun> {
    let child = Command::new(&cmd.exe)
        .args(&cmd.args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => return Attempt::Crashed(format!("cannot spawn cell process: {e}")),
    };

    // Drain the pipes on helper threads so a chatty child never blocks
    // on a full pipe while the parent only polls for exit.
    let mut stdout_pipe = child.stdout.take();
    let mut stderr_pipe = child.stderr.take();
    let out_reader = std::thread::spawn(move || {
        let mut buf = String::new();
        if let Some(p) = stdout_pipe.as_mut() {
            let _ = p.read_to_string(&mut buf);
        }
        buf
    });
    let err_reader = std::thread::spawn(move || {
        let mut buf = String::new();
        if let Some(p) = stderr_pipe.as_mut() {
            let _ = p.read_to_string(&mut buf);
        }
        buf
    });

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timeout enforcement only; never feeds simulated state"
    )]
    let start = std::time::Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) => {
                if let Some(t) = timeout {
                    if start.elapsed() >= t {
                        let _ = child.kill();
                        let _ = child.wait();
                        break Err(t);
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Attempt::Crashed(format!("cell process wait failed: {e}"));
            }
        }
    };
    let stdout = out_reader.join().unwrap_or_default();
    let stderr = err_reader.join().unwrap_or_default();

    let status = match status {
        Ok(s) => s,
        Err(budget) => {
            forward_stdout(&stdout);
            return Attempt::Timeout(format!(
                "killed after exceeding the {:.1}s cell budget{}",
                budget.as_secs_f64(),
                stderr_tail(&stderr)
            ));
        }
    };

    // Split the marker line off; forward everything before it.
    let marker = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with(CELL_MARKER))
        .map(str::to_string);
    forward_stdout(&stdout);

    match marker {
        Some(line) => {
            let payload = line[CELL_MARKER.len()..].trim_start();
            if let Some(rest) = payload.strip_prefix("ok ") {
                match parse_ok_payload(rest) {
                    Some(run) => Attempt::Ok(run),
                    None => Attempt::Crashed(format!(
                        "malformed cell marker: undecodable ok payload ({} chars)",
                        rest.len()
                    )),
                }
            } else if let Some(rest) = payload.strip_prefix("err ") {
                Attempt::Fault(SimError::protocol(rest.to_string()))
            } else {
                Attempt::Crashed(format!("malformed cell marker: {line}"))
            }
        }
        None => Attempt::Crashed(format!(
            "cell process died without a result ({}){}",
            describe_exit(&status),
            stderr_tail(&stderr)
        )),
    }
}

/// Prints a child's non-marker stdout lines to the parent's stdout.
fn forward_stdout(stdout: &str) {
    for line in stdout.lines() {
        if !line.starts_with(CELL_MARKER) {
            println!("{line}");
        }
    }
}

/// Human description of an exit status, including signals on Unix.
fn describe_exit(status: &std::process::ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("killed by signal {sig}");
        }
    }
    match status.code() {
        Some(c) => format!("exit code {c}"),
        None => "unknown exit status".to_string(),
    }
}

/// The last few stderr lines, prefixed for attachment to an error.
fn stderr_tail(stderr: &str) -> String {
    const LINES: usize = 6;
    let lines: Vec<&str> = stderr.lines().collect();
    if lines.is_empty() {
        return String::new();
    }
    let tail = &lines[lines.len().saturating_sub(LINES)..];
    format!("; stderr tail: {}", tail.join(" | "))
}

// ---------------------------------------------------------------------
// Test-injection knobs (read by the cell runner, parent or child side)
// ---------------------------------------------------------------------

/// Environment knob: `HMG_CELL_CRASH=<key-substring>[@N]` makes the
/// matching cell abort while its attempt number is `<= N` (default:
/// every attempt). Drives the killed-child, quarantine, and
/// retry-heals tests plus the CI smoke job.
pub const ENV_CELL_CRASH: &str = "HMG_CELL_CRASH";

/// Environment knob: `HMG_CELL_HANG=<key-substring>` makes the
/// matching cell sleep forever — the timeout-kill test target. Only
/// meaningful under process isolation (a hung thread cannot be
/// killed).
pub const ENV_CELL_HANG: &str = "HMG_CELL_HANG";

/// Environment knob: `HMG_SNAPSHOT_KILL_AT=<key-substring>@<cycle>`
/// makes the *first* attempt of a matching snapshot-armed cell abort
/// its process — no unwinding, no destructors, a faithful SIGKILL
/// stand-in — at the first event boundary at or past `<cycle>`, after
/// any snapshot due at that boundary has been written. Later attempts
/// run unkilled, so the supervisor's retry exercises the resume path.
/// Only meaningful under process isolation (an in-process abort would
/// take the whole sweep down).
pub const ENV_SNAPSHOT_KILL: &str = "HMG_SNAPSHOT_KILL_AT";

/// Parses [`ENV_SNAPSHOT_KILL`] for `key`: the abort cycle, if the
/// knob is set and matches.
pub fn snapshot_kill_cycle(key: &str) -> Option<u64> {
    let spec = std::env::var(ENV_SNAPSHOT_KILL).ok()?;
    let (pat, cycle) = spec.rsplit_once('@')?;
    if !pat.is_empty() && key.contains(pat) {
        cycle.parse().ok()
    } else {
        None
    }
}

/// Best-effort stringification of a caught panic payload, for turning
/// an in-process panic into a `Crashed` message or a typed error.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Applies the injection knobs for `key` at `attempt`; called by the
/// cell runner before simulating. Panics (killing a child process, or
/// surfacing as a caught crash in thread mode) or hangs on a match.
pub fn apply_test_knobs(key: &str, attempt: u32) {
    if let Ok(spec) = std::env::var(ENV_CELL_CRASH) {
        let (pat, upto) = match spec.split_once('@') {
            Some((p, n)) => (p.to_string(), n.parse().unwrap_or(u32::MAX)),
            None => (spec, u32::MAX),
        };
        if !pat.is_empty() && key.contains(&pat) && attempt <= upto {
            eprintln!("[test-knob] injected crash for cell {key} (attempt {attempt})");
            panic!("injected crash for cell {key} (attempt {attempt})");
        }
    }
    if let Ok(pat) = std::env::var(ENV_CELL_HANG) {
        if !pat.is_empty() && key.contains(&pat) {
            eprintln!("[test-knob] injected hang for cell {key}");
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sweep perf tally (the BENCH_sweep.json trajectory)
// ---------------------------------------------------------------------

/// Sweep-supervisor statistics of one sweep ([`SweepReport::tally`]) or,
/// summed with `+=`, of many: the perf trajectory `experiments all`
/// emits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BenchTally {
    /// Cells executed (reused checkpoint cells excluded).
    pub cells: u64,
    /// Sum of sweep wall-clock seconds (parallel sections only).
    pub sweep_wall_secs: f64,
    /// Simulation events completed inside supervised cells.
    pub events: u64,
    /// Supervised sweeps run.
    pub sweeps: u64,
    /// Cells reused from a checkpoint instead of executed.
    pub reused: u64,
}

impl BenchTally {
    /// Cells per second of sweep wall time.
    pub fn cells_per_sec(&self) -> f64 {
        self.cells as f64 / self.sweep_wall_secs.max(1e-9)
    }

    /// Simulation events per second of sweep wall time.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.sweep_wall_secs.max(1e-9)
    }

    /// Renders the tally as a `BENCH_sweep.json` document.
    pub fn to_json(&self, jobs: usize, total_wall_secs: f64) -> String {
        format!(
            "{{\n  \"jobs\": {jobs},\n  \"sweeps\": {},\n  \"cells\": {},\n  \
             \"events\": {},\n  \"sweep_wall_s\": {:.3},\n  \"total_wall_s\": {:.3},\n  \
             \"cells_per_sec\": {:.3},\n  \"events_per_sec\": {:.0}\n}}\n",
            self.sweeps,
            self.cells,
            self.events,
            self.sweep_wall_secs,
            total_wall_secs,
            self.cells_per_sec(),
            self.events_per_sec(),
        )
    }

    /// Writes the tally to `path` as a `BENCH_sweep.json` document and
    /// returns it — unless a cell was reused from a checkpoint: the
    /// tally then counts only the cells this process ran and would
    /// replace the full run's record, so the file is left as it is.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write_unless_resumed(
        &self,
        path: &Path,
        jobs: usize,
        total_wall_secs: f64,
    ) -> std::io::Result<Option<String>> {
        if self.reused > 0 {
            return Ok(None);
        }
        let json = self.to_json(jobs, total_wall_secs);
        std::fs::write(path, &json)?;
        Ok(Some(json))
    }
}

impl std::ops::AddAssign for BenchTally {
    fn add_assign(&mut self, o: BenchTally) {
        self.cells += o.cells;
        self.sweep_wall_secs += o.sweep_wall_secs;
        self.events += o.events;
        self.sweeps += o.sweeps;
        self.reused += o.reused;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn cfg(retries: u32, keep_going: bool) -> SupervisorConfig {
        SupervisorConfig {
            jobs: 4,
            retries,
            keep_going,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn merges_in_input_order() {
        let cells: Vec<u64> = (0..64).collect();
        let r = supervise(
            &cells,
            |c| format!("cell{c}"),
            &cfg(0, true),
            |&c, _| Attempt::Ok(c * 3),
        );
        assert!(r.all_ok());
        assert_eq!(r.jobs, 4);
        for (i, c) in r.cells.iter().enumerate() {
            assert_eq!(c.key, format!("cell{i}"));
            assert_eq!(c.outcome, Some(i as u64 * 3));
            assert_eq!(c.attempts, 1);
        }
    }

    #[test]
    fn transient_crash_heals_on_retry() {
        let tries = AtomicU32::new(0);
        let cells = ["a"];
        let r = supervise(
            &cells,
            |c| c.to_string(),
            &cfg(2, false),
            |_, attempt| {
                tries.fetch_add(1, Ordering::Relaxed);
                if attempt < 3 {
                    Attempt::Crashed("boom".into())
                } else {
                    Attempt::Ok(7u32)
                }
            },
        );
        assert!(r.all_ok());
        assert_eq!(r.cells[0].attempts, 3);
        assert!(!r.cells[0].quarantined);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn persistent_crash_is_quarantined_after_the_cap() {
        let cells = ["a"];
        let r = supervise(
            &cells,
            |c| c.to_string(),
            &cfg(2, true),
            |_, _| Attempt::<u32>::Crashed("boom".into()),
        );
        let c = &r.cells[0];
        assert_eq!(c.status.name(), "crashed");
        assert_eq!(c.attempts, 3, "1 try + 2 retries");
        assert!(c.quarantined);
        assert!(c.status.error().unwrap().contains("boom"));
    }

    #[test]
    fn typed_sim_errors_are_never_retried() {
        let tries = AtomicU32::new(0);
        let cells = ["a"];
        let r = supervise(
            &cells,
            |c| c.to_string(),
            &cfg(5, true),
            |_, _| {
                tries.fetch_add(1, Ordering::Relaxed);
                Attempt::<u32>::Fault(SimError::protocol("deterministic"))
            },
        );
        assert_eq!(tries.load(Ordering::Relaxed), 1, "no retry on typed errors");
        assert_eq!(r.cells[0].status.name(), "failed");
        assert!(!r.cells[0].quarantined);
    }

    #[test]
    fn drain_and_stop_skips_unclaimed_cells() {
        // One worker, many cells, first cell fails without keep_going:
        // the remaining cells must be skipped, not run.
        let ran = AtomicU32::new(0);
        let cells: Vec<u64> = (0..16).collect();
        let mut c = cfg(0, false);
        c.jobs = 1;
        let r = supervise(
            &cells,
            |c| format!("c{c}"),
            &c,
            |&i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    Attempt::<u64>::Fault(SimError::protocol("hard failure"))
                } else {
                    Attempt::Ok(i)
                }
            },
        );
        assert_eq!(ran.load(Ordering::Relaxed), 1, "only the failing cell ran");
        assert_eq!(r.cells[0].status.name(), "failed");
        assert!(r.cells[1..].iter().all(|c| c.status.name() == "skipped"));
    }

    #[test]
    fn keep_going_runs_everything_past_failures() {
        let cells: Vec<u64> = (0..8).collect();
        let r = supervise(
            &cells,
            |c| format!("c{c}"),
            &cfg(0, true),
            |&i, _| {
                if i % 2 == 0 {
                    Attempt::<u64>::Crashed("even cells crash".into())
                } else {
                    Attempt::Ok(i)
                }
            },
        );
        assert_eq!(r.count("ok"), 4);
        assert_eq!(r.count("crashed"), 4);
        assert_eq!(r.count("skipped"), 0);
    }

    #[test]
    fn panicking_attempts_become_crashes_without_unwinding() {
        // A panic neither unwinds out of the pool nor disturbs the other
        // cells: it is retried, then quarantined as `crashed`.
        let cells: Vec<u64> = (0..16).collect();
        let r = supervise(
            &cells,
            |c| format!("c{c}"),
            &cfg(1, true),
            |&i, _| {
                assert!(i != 3, "cell {i} exploded");
                Attempt::Ok(i)
            },
        );
        assert_eq!(r.count("ok"), 15);
        let c = &r.cells[3];
        assert_eq!(c.status.error().unwrap(), "cell panicked: cell 3 exploded");
        assert_eq!((c.attempts, c.quarantined), (2, true), "1 try + 1 retry");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        assert_eq!(backoff(1), backoff(1));
        assert!(backoff(1) < backoff(2));
        assert!(backoff(40) <= Duration::from_millis(2_000));
    }

    #[test]
    fn resolved_jobs_bounds() {
        let mut c = SupervisorConfig::default();
        assert!(c.resolved_jobs(100) >= 1);
        c.jobs = 3;
        assert_eq!(c.resolved_jobs(100), 3);
        assert_eq!(c.resolved_jobs(2), 2, "bounded by the cell count");
        assert_eq!(c.resolved_jobs(0), 1);
    }

    #[test]
    fn tally_accumulates_and_resets() {
        let sweep = |cells: &[&str]| {
            supervise(
                cells,
                |c| c.to_string(),
                &cfg(0, true),
                |_, _| Attempt::Ok(1u32),
            )
            .tally()
        };
        let mut t = sweep(&["a", "b"]);
        t.events += 500;
        assert_eq!(t.cells, 2);
        assert_eq!(t.events, 500);
        assert_eq!(t.sweeps, 1);
        assert!(t.cells_per_sec() > 0.0);
        // Each sweep's tally starts from zero; `+=` sums them.
        let second = sweep(&["c"]);
        assert_eq!((second.cells, second.events, second.sweeps), (1, 0, 1));
        t += second;
        assert_eq!((t.cells, t.events, t.sweeps), (3, 500, 2));
    }

    #[test]
    fn a_resumed_tally_leaves_the_sweep_record_alone() {
        let path = std::env::temp_dir().join(format!("hmg-bench-sweep-{}", std::process::id()));
        std::fs::write(&path, "full run").unwrap();
        let resumed = BenchTally {
            cells: 1,
            reused: 88,
            ..BenchTally::default()
        };
        assert_eq!(resumed.write_unless_resumed(&path, 2, 1.0).unwrap(), None);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "full run");
        let fresh = BenchTally {
            cells: 89,
            ..BenchTally::default()
        };
        let json = fresh.write_unless_resumed(&path, 2, 1.0).unwrap();
        assert_eq!(json, Some(std::fs::read_to_string(&path).unwrap()));
        assert!(json.is_some_and(|j| j.contains("\"cells\": 89")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn isolation_parses() {
        assert_eq!(Isolation::parse("process"), Some(Isolation::Process));
        assert_eq!(Isolation::parse("thread"), Some(Isolation::Thread));
        assert_eq!(Isolation::parse("vm"), None);
        assert_eq!(Isolation::Process.name(), "process");
    }

    /// A child that prints `stdout` and exits 0, run through the real
    /// process executor.
    #[cfg(unix)]
    fn fake_child(stdout: &str) -> Attempt<CellRun> {
        let cmd = CellCommand {
            exe: PathBuf::from("/bin/sh"),
            args: vec!["-c".into(), format!("printf '%s\\n' '{stdout}'")],
        };
        process_attempt(&cmd, None)
    }

    /// The marker carries a cell's full metrics across the process
    /// boundary bit-exactly; anything else on the line is a crash.
    #[cfg(unix)]
    #[test]
    fn process_attempt_decodes_full_metrics_from_the_marker() {
        let m = RunMetrics {
            total_cycles: hmg_sim::Cycle(7011),
            state_digest: 0xe1d7_f3f0_ef5b_3e4e,
            kernel_end_cycles: vec![2000, 7011],
            ..RunMetrics::default()
        };
        for resumed in [None, Some(1750)] {
            match fake_child(&ok_marker(&(m.clone(), resumed))) {
                Attempt::Ok((got, r)) => {
                    assert_eq!((got.fingerprint(), r), (m.fingerprint(), resumed))
                }
                other => panic!("expected a decoded result, got {other:?}"),
            }
        }
        let hex = metrics_to_hex(&m);
        let ok = |payload: &str| format!("{CELL_MARKER} ok {payload}");
        for (what, line) in [
            ("odd length", ok(&hex[1..])),
            ("non-hex", ok(&format!("zz{}", &hex[2..]))),
            ("truncated", ok(&hex[..hex.len() / 2])),
            ("trailing bytes", ok(&format!("{hex}00"))),
            ("trailing token", ok(&format!("{hex} extra"))),
            ("bad resume cycle", ok(&format!("resumed=soon {hex}"))),
            ("empty", ok("")),
            (
                "v1 marker",
                "__hmg_cell_v1 ok cycles=1 digest=00 events=1".into(),
            ),
        ] {
            match fake_child(&line) {
                Attempt::Crashed(_) => {}
                other => panic!("{what}: expected a crash, got {other:?}"),
            }
        }
    }

    #[test]
    fn process_attempt_classifies_a_missing_binary_as_crash() {
        let cmd = CellCommand {
            exe: PathBuf::from("/nonexistent/hmg-cell-binary"),
            args: vec![],
        };
        match process_attempt(&cmd, None) {
            Attempt::Crashed(m) => assert!(m.contains("spawn"), "{m}"),
            other => panic!("expected crash, got {other:?}"),
        }
    }
}
