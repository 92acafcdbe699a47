//! The parts of the one cell recipe (`experiments::CellCtx::config`):
//! the scale's machine, capacity scaling and the livelock watchdog;
//! plus the contained engine call and the sweep checkpoint.

use hmg_gpu::{Engine, EngineConfig, RunMetrics, SnapshotPolicy, SnapshotReport};
use hmg_protocol::{ProtocolKind, WorkloadTrace};
use hmg_sim::SimError;
use hmg_workloads::Scale;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The machine paired with `scale` (the small test machine for
/// `Tiny`, the Table II machine otherwise) running `protocol`.
pub(crate) fn machine_config(scale: Scale, protocol: ProtocolKind) -> EngineConfig {
    match scale {
        Scale::Tiny => EngineConfig::small_test(protocol),
        Scale::Small | Scale::Full => EngineConfig::paper_default(protocol),
    }
}

/// Runs one simulation with full failure isolation: typed errors come
/// back as `Err`, and any residual panic inside the engine (an
/// invariant `assert!`, an arithmetic underflow from a corrupted
/// counter) is caught and converted to a [`SimError`] rather than
/// taking down the whole sweep.
///
/// With `snapshots` set the run is preemptible: it resumes from the
/// most recent valid snapshot in `policy.path` (if any) and captures
/// new ones as the policy directs; a resumed run is bit-identical to an
/// uninterrupted one. Without it the returned report is empty.
pub fn run_isolated(
    cfg: EngineConfig,
    trace: &WorkloadTrace,
    snapshots: Option<&SnapshotPolicy>,
) -> Result<(RunMetrics, SnapshotReport), SimError> {
    contain_panics(|| {
        let engine = Engine::try_new(cfg)?;
        match snapshots {
            None => Ok((engine.try_run(trace)?, SnapshotReport::default())),
            Some(policy) => engine.try_run_preemptible(trace, policy),
        }
    })
}

/// Runs `f`, converting a panic inside it into a typed [`SimError`].
fn contain_panics<T>(f: impl FnOnce() -> Result<T, SimError>) -> Result<T, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(SimError::protocol(format!(
            "engine panicked: {}",
            crate::supervisor::panic_message(payload.as_ref())
        )))
    })
}

/// A livelock-watchdog budget scaled to the workload: the sum of every
/// programmed delay in the trace (a legitimate global quiet period in
/// the worst case), per-kernel launch and synchronization slack, and a
/// large fixed margin for queueing. Deliberately generous — the
/// watchdog exists to turn an *unbounded* hang into a typed diagnostic,
/// not to police tail latency.
pub fn auto_livelock_budget(cfg: &EngineConfig, trace: &WorkloadTrace) -> u64 {
    let per_kernel = cfg.kernel_launch_overhead.as_u64()
        + cfg.dram_latency.as_u64()
        + 4 * cfg.flag_latency.as_u64();
    trace.delay_cycles() + per_kernel * trace.kernels.len().max(1) as u64 + 2_000_000
}

/// Arms the engine's progress watchdog for a sweep run. `override_budget`
/// is the CLI knob: `None` arms the workload-scaled default budget,
/// `Some(0)` disarms the watchdog entirely, and any other value is used
/// verbatim.
pub fn arm_watchdog(cfg: &mut EngineConfig, trace: &WorkloadTrace, override_budget: Option<u64>) {
    cfg.livelock_budget = match override_budget {
        Some(0) => None,
        Some(n) => Some(n),
        None => Some(auto_livelock_budget(cfg, trace)),
    };
}

/// 64-bit FNV-1a — the std-only per-row checksum of the checkpoint
/// format, shared with the snapshot format.
pub use hmg_sim::snap::fnv1a64;

/// A run's metrics as lowercase hex of their `snapshot_codec!` bytes —
/// the bytes [`RunMetrics::fingerprint`] hashes. This one text form
/// carries a cell's full result across the `__run-cell` process
/// boundary and into checkpoint rows.
pub fn metrics_to_hex(m: &RunMetrics) -> String {
    use hmg_sim::SnapshotWrite;
    let mut w = hmg_sim::SnapWriter::new();
    m.write_snap(&mut w);
    w.into_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// Decodes [`metrics_to_hex`] output. `None` on odd length, a non-hex
/// digit, a truncated encoding, or trailing bytes — never a panic.
pub fn metrics_from_hex(hex: &str) -> Option<RunMetrics> {
    use hmg_sim::SnapshotRead;
    let digits = hex.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |d: u8| char::from(d).to_digit(16);
    let bytes: Vec<u8> = digits
        .chunks_exact(2)
        .map(|p| Some((nibble(p[0])? << 4 | nibble(p[1])?) as u8))
        .collect::<Option<_>>()?;
    let mut r = hmg_sim::SnapReader::new(&bytes);
    let m = RunMetrics::read_snap(&mut r).ok()?;
    r.is_exhausted().then_some(m)
}

/// Append-only checkpoint of a sweep's per-cell results, enabling
/// `--resume` to re-run only failed or missing cells after a crash or
/// interruption.
///
/// The on-disk format (v3) is a line-oriented text file where every
/// row carries an FNV-1a checksum of its payload, so torn or corrupt
/// rows are detected rather than silently parsed:
///
/// ```text
/// #hmg-sweep v3 <identity>
/// <fnv1a64 hex16>\t<cell key>\tok\t<RunMetrics as metrics_to_hex>
/// <fnv1a64 hex16>\t<cell key>\tfailed\t<first error line>
/// ```
///
/// An `ok` row carries the cell's full [`RunMetrics`], so a resumed
/// sweep reuses exactly what the cell returned. The identity line pins
/// the sweep's shape (every cell's key, workload, protocol, tweak,
/// scale, seed, fault plan and watchdog budget); resuming against a
/// file written by a different sweep is rejected rather than silently
/// mixing results. Only `ok` cells are reused on resume — failed
/// cells re-run, so a transient failure (an injected fault, a killed
/// cell process) heals on the next invocation and the final report is
/// identical to an uninterrupted sweep. If the file holds two `ok`
/// rows for the same key with conflicting results, both are dropped
/// and the cell re-runs (counted as `stale`). On resume the compacted
/// file is written to `<path>.tmp` and renamed over the original, so
/// an interrupt mid-rewrite can no longer lose completed cells.
#[derive(Debug)]
pub struct SweepCheckpoint {
    file: Mutex<File>,
    /// Reusable cells: key -> the row's verified metrics hex.
    done: HashMap<String, String>,
    corrupt_rows: usize,
    stale_rows: usize,
}

const CHECKPOINT_MAGIC: &str = "#hmg-sweep v3";

impl SweepCheckpoint {
    /// Opens (or creates) the checkpoint at `path`.
    ///
    /// With `resume` set, an existing file is validated against
    /// `identity` and its completed cells become reusable; without it,
    /// any existing file is truncated and the sweep starts fresh.
    pub fn open(path: &Path, identity: &str, resume: bool) -> Result<Self, SimError> {
        let expected = format!("{CHECKPOINT_MAGIC} {identity}");
        if !(resume && path.exists()) {
            let mut file = File::create(path).map_err(|e| {
                SimError::config(format!("cannot write checkpoint {}: {e}", path.display()))
            })?;
            writeln!(file, "{expected}")
                .map_err(|e| SimError::config(format!("checkpoint write error: {e}")))?;
            return Ok(SweepCheckpoint {
                file: Mutex::new(file),
                done: HashMap::new(),
                corrupt_rows: 0,
                stale_rows: 0,
            });
        }

        let reader = BufReader::new(File::open(path).map_err(|e| {
            SimError::config(format!("cannot read checkpoint {}: {e}", path.display()))
        })?);
        let mut lines = reader.lines();
        let header = lines
            .next()
            .transpose()
            .map_err(|e| SimError::config(format!("checkpoint read error: {e}")))?
            .unwrap_or_default();
        if header != expected {
            return Err(SimError::config(format!(
                "checkpoint {} belongs to a different sweep\n  file:     {header}\n  expected: {expected}",
                path.display()
            )));
        }
        let mut done: HashMap<String, String> = HashMap::new();
        // Keys whose rows disagreed with each other: every copy is
        // suspect, so none may be reused.
        let mut poisoned: Vec<String> = Vec::new();
        let mut corrupt_rows = 0usize;
        let mut stale_rows = 0usize;
        for line in lines {
            let line = line.map_err(|e| SimError::config(format!("checkpoint read error: {e}")))?;
            let Some(record) = parse_row(&line) else {
                corrupt_rows += 1; // torn/corrupt row from a crashed run
                continue;
            };
            let (key, cell) = match record {
                (key, Some(cell)) => (key, cell),
                (_, None) => continue, // failed cell: re-run on resume
            };
            if poisoned.iter().any(|k| k == &key) {
                continue;
            }
            match done.get(&key) {
                Some(prev) if *prev != cell => {
                    // Two completed rows disagree on the result: the
                    // sweep's inputs changed under the checkpoint.
                    // Trust neither; the cell re-runs.
                    done.remove(&key);
                    poisoned.push(key);
                    stale_rows += 1;
                }
                _ => {
                    done.insert(key, cell);
                }
            }
        }
        // Compact reusable cells into a fresh file, atomically: write
        // to `<path>.tmp` and rename over the original, so a crash
        // mid-rewrite leaves the old (still valid) file in place. The
        // handle keeps pointing at the renamed inode, so subsequent
        // appends land in the live file.
        let tmp = checkpoint_tmp_path(path);
        let mut file = File::create(&tmp).map_err(|e| {
            SimError::config(format!("cannot write checkpoint {}: {e}", tmp.display()))
        })?;
        writeln!(file, "{expected}")
            .and_then(|()| {
                let mut keys: Vec<&String> = done.keys().collect();
                keys.sort();
                for k in keys {
                    writeln!(file, "{}", ok_row(k, &done[k]))?;
                }
                file.flush()
            })
            .map_err(|e| SimError::config(format!("checkpoint write error: {e}")))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            SimError::config(format!("cannot replace checkpoint {}: {e}", path.display()))
        })?;
        Ok(SweepCheckpoint {
            file: Mutex::new(file),
            done,
            corrupt_rows,
            stale_rows,
        })
    }

    /// The completed result for `key`, if a prior run finished it.
    pub fn lookup(&self, key: &str) -> Option<RunMetrics> {
        self.done.get(key).and_then(|hex| metrics_from_hex(hex))
    }

    /// Number of cells reusable from the prior run.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Torn or checksum-invalid rows dropped while resuming.
    pub fn corrupt_rows(&self) -> usize {
        self.corrupt_rows
    }

    /// Cells dropped on resume because duplicate rows disagreed on the
    /// result (the sweep changed under the checkpoint); they re-run.
    pub fn stale_rows(&self) -> usize {
        self.stale_rows
    }

    /// Records a successful cell; flushed immediately so a crash loses
    /// at most the in-flight cells.
    pub fn record_ok(&self, key: &str, metrics: &RunMetrics) {
        self.append(&ok_row(&sanitize(key), &metrics_to_hex(metrics)));
    }

    /// Records a failed cell (kept for the report; re-run on resume).
    pub fn record_failure(&self, key: &str, error: &str) {
        let first_line = error.lines().next().unwrap_or("unknown error");
        let payload = format!("{}\tfailed\t{}", sanitize(key), sanitize(first_line));
        self.append(&checksummed(&payload));
    }

    fn append(&self, line: &str) {
        // A panic cannot unwind while this lock is held (formatting
        // happened before acquisition), so poisoning is unreachable;
        // recover instead of double-panicking and aborting the sweep.
        let mut f = self.file.lock().unwrap_or_else(|p| p.into_inner());
        // Checkpointing is best-effort durability; the sweep's own
        // result does not depend on the write landing.
        let _ = writeln!(f, "{line}");
        let _ = f.flush();
    }
}

/// The sibling tempfile a resume compaction writes before renaming
/// over the checkpoint (same directory, so the rename stays atomic).
pub fn checkpoint_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Formats a checksummed `ok` row for `key`.
fn ok_row(key: &str, hex: &str) -> String {
    checksummed(&format!("{key}\tok\t{hex}"))
}

/// Prefixes `payload` with its FNV-1a checksum.
fn checksummed(payload: &str) -> String {
    format!("{:016x}\t{payload}", fnv1a64(payload.as_bytes()))
}

/// Parses one checkpoint row. Returns `None` for torn or corrupt rows,
/// `Some((key, Some(hex)))` for verified `ok` rows whose metrics
/// decode, and `Some((key, None))` for verified `failed` rows.
fn parse_row(line: &str) -> Option<(String, Option<String>)> {
    let (sum, payload) = line.split_once('\t')?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    if sum != fnv1a64(payload.as_bytes()) {
        return None;
    }
    let mut parts = payload.splitn(3, '\t');
    let key = parts.next()?;
    match parts.next()? {
        "ok" => {
            let hex = parts.next()?;
            metrics_from_hex(hex)?;
            Some((key.to_string(), Some(hex.to_string())))
        }
        "failed" => Some((key.to_string(), None)),
        _ => None,
    }
}

fn sanitize(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

/// Shrinks a machine's cache/directory capacities — and the OS page
/// size — by `factor`, keeping associativities and line/block sizes.
/// Used by the experiment drivers so that a workload whose footprint was
/// scaled down by N runs on a machine whose capacities are scaled down
/// by the same N, preserving both the footprint-to-cache ratios and the
/// pages-per-region ratios (home-node distribution) that the paper's
/// results depend on (DESIGN.md).
///
/// Kernel launch overhead shrinks by `factor` too, but never below 200
/// cycles — and that floor applies even at `factor` 1.0, so the small
/// test machine's 100-cycle launch becomes 200 on every `Scale::Tiny`
/// cell.
pub fn scale_capacities(cfg: &mut EngineConfig, factor: f64) {
    assert!(factor >= 1.0, "capacity factor must be >= 1, got {factor}");
    let shrink = |c: hmg_mem::CacheConfig| {
        let sets = ((c.lines / c.ways) as f64 / factor).round().max(1.0) as u32;
        hmg_mem::CacheConfig::new(sets * c.ways, c.ways)
    };
    cfg.l1 = shrink(cfg.l1);
    cfg.l2 = shrink(cfg.l2);
    let dir_sets = ((cfg.dir.entries / cfg.dir.ways) as f64 / factor)
        .round()
        .max(1.0) as u32;
    cfg.dir = hmg_mem::DirectoryConfig::new(dir_sets * cfg.dir.ways, cfg.dir.ways);
    let block_bytes = (cfg.geometry.line_bytes() * cfg.geometry.lines_per_block()) as u64;
    let page = ((cfg.geometry.page_bytes() as f64 / factor) as u64)
        .next_multiple_of(block_bytes)
        .max(16 * 1024);
    cfg.geometry = hmg_mem::MemGeometry::new(
        cfg.geometry.line_bytes(),
        cfg.geometry.lines_per_block(),
        page,
    );
    // Kernel launch overhead amortizes over kernel duration on the real
    // machine; scaled-down kernels get proportionally scaled overhead.
    cfg.kernel_launch_overhead =
        hmg_sim::Cycle(((cfg.kernel_launch_overhead.as_u64() as f64 / factor) as u64).max(200));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmg_workloads::suite::by_abbrev;

    #[test]
    fn tiny_scale_uses_small_machine() {
        let gpus = |scale| machine_config(scale, ProtocolKind::Hmg).topo.num_gpus();
        assert_eq!(gpus(Scale::Tiny), 2);
        assert_eq!(gpus(Scale::Small), 4);
    }

    #[test]
    fn engine_panics_become_typed_errors() {
        let e = contain_panics(|| -> Result<(), SimError> { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(e.kind, hmg_sim::SimErrorKind::Protocol);
        assert_eq!(e.message, "engine panicked: boom 7");
        let ok = contain_panics(|| Ok::<_, SimError>(3));
        assert_eq!(ok.unwrap(), 3);
    }

    #[test]
    fn scale_capacities_identity_at_factor_one() {
        let base = EngineConfig::paper_default(ProtocolKind::Hmg);
        let mut scaled = base.clone();
        scale_capacities(&mut scaled, 1.0);
        assert_eq!(scaled.l1, base.l1);
        assert_eq!(scaled.l2, base.l2);
        assert_eq!(scaled.dir, base.dir);
        assert_eq!(scaled.geometry.page_bytes(), base.geometry.page_bytes());
        assert_eq!(scaled.kernel_launch_overhead, base.kernel_launch_overhead);
    }

    #[test]
    fn scale_capacities_shrinks_proportionally() {
        let mut cfg = EngineConfig::paper_default(ProtocolKind::Hmg);
        scale_capacities(&mut cfg, 16.0);
        // 1024-line L1 -> 64 lines; 24576-line L2 -> 1536; 12K dir -> 768.
        assert_eq!(cfg.l1.lines, 64);
        assert_eq!(cfg.l2.lines, 1536);
        assert_eq!(cfg.dir.entries, 768);
        // Associativities preserved.
        assert_eq!(cfg.l1.ways, 8);
        assert_eq!(cfg.l2.ways, 16);
        // Page shrinks and stays a multiple of the directory block.
        assert_eq!(cfg.geometry.page_bytes(), 128 * 1024);
        let block = (cfg.geometry.line_bytes() * cfg.geometry.lines_per_block()) as u64;
        assert_eq!(cfg.geometry.page_bytes() % block, 0);
        // Launch overhead scales with a floor.
        assert!(cfg.kernel_launch_overhead.as_u64() >= 187);
    }

    #[test]
    fn scale_capacities_has_floors() {
        let mut cfg = EngineConfig::paper_default(ProtocolKind::Hmg);
        scale_capacities(&mut cfg, 1e6);
        assert!(cfg.l1.lines >= cfg.l1.ways);
        assert!(cfg.l2.lines >= cfg.l2.ways);
        assert!(cfg.dir.entries >= cfg.dir.ways);
        assert!(cfg.geometry.page_bytes() >= 16 * 1024);
        assert!(cfg.kernel_launch_overhead.as_u64() >= 200);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn scale_capacities_rejects_expansion() {
        let mut cfg = EngineConfig::paper_default(ProtocolKind::Hmg);
        scale_capacities(&mut cfg, 0.5);
    }

    #[test]
    fn auto_budget_scales_with_trace_delays() {
        let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        let quiet = WorkloadTrace::new("quiet", vec![]);
        let base = auto_livelock_budget(&cfg, &quiet);
        let slow = WorkloadTrace::new(
            "slow",
            vec![hmg_protocol::Kernel::new(vec![hmg_protocol::Cta::new(
                vec![hmg_protocol::TraceOp::Delay(5_000_000)],
            )])],
        );
        assert!(auto_livelock_budget(&cfg, &slow) >= base + 5_000_000);
    }

    #[test]
    fn auto_budget_counts_every_delay_of_a_generated_trace() {
        use hmg_protocol::TraceOp;
        let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        let trace = by_abbrev("cuSolver").unwrap().generate(Scale::Tiny, 2020);
        let walked: u64 = trace
            .kernels
            .iter()
            .flat_map(|k| &k.ctas)
            .flat_map(|c| &c.ops)
            .map(|op| match op {
                TraceOp::Delay(d) => u64::from(d),
                _ => 0,
            })
            .sum();
        assert!(walked > 0);
        let quiet = WorkloadTrace::new("quiet", vec![]);
        let fixed = auto_livelock_budget(&cfg, &quiet)
            + (trace.kernels.len() as u64 - 1)
                * (cfg.kernel_launch_overhead.as_u64()
                    + cfg.dram_latency.as_u64()
                    + 4 * cfg.flag_latency.as_u64());
        assert_eq!(auto_livelock_budget(&cfg, &trace), walked + fixed);
        let accesses = trace
            .kernels
            .iter()
            .flat_map(|k| &k.ctas)
            .flat_map(|c| &c.ops)
            .filter(|op| matches!(op, TraceOp::Access(_)))
            .count();
        assert_eq!(trace.num_accesses(), accesses);
    }

    #[test]
    fn arm_watchdog_override_semantics() {
        let cfg0 = EngineConfig::small_test(ProtocolKind::Hmg);
        let trace = WorkloadTrace::new("t", vec![]);
        let mut cfg = cfg0.clone();
        arm_watchdog(&mut cfg, &trace, None);
        assert_eq!(
            cfg.livelock_budget,
            Some(auto_livelock_budget(&cfg0, &trace))
        );
        arm_watchdog(&mut cfg, &trace, Some(0));
        assert_eq!(cfg.livelock_budget, None, "zero disarms");
        arm_watchdog(&mut cfg, &trace, Some(123));
        assert_eq!(cfg.livelock_budget, Some(123));
    }

    /// Metrics whose cycles and digest identify them in the tests.
    fn metrics(cycles: u64, digest: u64) -> RunMetrics {
        RunMetrics {
            total_cycles: hmg_sim::Cycle(cycles),
            state_digest: digest,
            kernel_end_cycles: vec![cycles / 2, cycles],
            ..RunMetrics::default()
        }
    }

    fn cycles_of(m: Option<RunMetrics>) -> Option<u64> {
        m.map(|m| m.total_cycles.as_u64())
    }

    #[test]
    fn checkpoint_roundtrip_reuses_ok_cells_only() {
        let dir = std::env::temp_dir().join("hmg-ckpt-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let (hmg, nhcc) = (metrics(12345, 0xdead_beef), metrics(777, 0xcafe));
        {
            let c = SweepCheckpoint::open(&path, "fig8|tiny|seed=1", false).unwrap();
            assert_eq!(c.completed(), 0);
            c.record_ok("bfs/HMG", &hmg);
            c.record_ok("bfs/NHCC", &nhcc);
            c.record_failure("lstm/HMG", "deadlocked: st_pending\nmachine dump...");
        }
        let c = SweepCheckpoint::open(&path, "fig8|tiny|seed=1", true).unwrap();
        assert_eq!(c.completed(), 2, "failed cells must not be reused");
        let reused = |key| c.lookup(key).map(|m| m.fingerprint());
        assert_eq!(reused("bfs/HMG"), Some(hmg.fingerprint()));
        assert_eq!(reused("bfs/NHCC"), Some(nhcc.fingerprint()));
        assert_eq!(reused("lstm/HMG"), None);
        assert_eq!(c.corrupt_rows(), 0);
        assert_eq!(c.stale_rows(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rejects_foreign_identity() {
        let dir = std::env::temp_dir().join("hmg-ckpt-test-identity");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        SweepCheckpoint::open(&path, "fig8|tiny|seed=1", false).unwrap();
        let err = SweepCheckpoint::open(&path, "fig12|tiny|seed=1", true).unwrap_err();
        assert!(err.to_string().contains("different sweep"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_resume_starts_fresh() {
        let dir = std::env::temp_dir().join("hmg-ckpt-test-fresh");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        {
            let c = SweepCheckpoint::open(&path, "id", false).unwrap();
            c.record_ok("a/HMG", &metrics(1, 2));
        }
        let c = SweepCheckpoint::open(&path, "id", false).unwrap();
        assert_eq!(c.completed(), 0, "no --resume means a clean slate");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_survives_torn_tail_line() {
        let dir = std::env::temp_dir().join("hmg-ckpt-test-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        {
            let c = SweepCheckpoint::open(&path, "id", false).unwrap();
            c.record_ok("a/HMG", &metrics(42, 7));
        }
        // Simulate a crash mid-write: a truncated trailing record whose
        // checksum no longer matches the partial payload.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "0123456789abcdef\tb/HMG\tok").unwrap();
        }
        let c = SweepCheckpoint::open(&path, "id", true).unwrap();
        assert_eq!(c.completed(), 1);
        assert_eq!(cycles_of(c.lookup("a/HMG")), Some(42));
        assert_eq!(c.corrupt_rows(), 1, "the torn row must be counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rejects_corrupt_rows_and_keeps_valid_ones() {
        // Fuzz the row parser: bit-flipped checksums, truncated payloads,
        // missing fields, undecodable metrics, raw v2-style rows, and
        // binary garbage must all be dropped without losing the valid
        // rows.
        let dir = std::env::temp_dir().join("hmg-ckpt-test-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let hex = metrics_to_hex(&metrics(5, 5));
        {
            let c = SweepCheckpoint::open(&path, "id", false).unwrap();
            c.record_ok("good/HMG", &metrics(100, 0xabc));
            c.record_ok("also-good/NHCC", &metrics(200, 0xdef));
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            // A valid row with a wrong checksum.
            writeln!(f, "{:016x}\tflip/HMG\tok\t{hex}", 0u64).unwrap();
            writeln!(f, "not-hex\tx/HMG\tok\t{hex}").unwrap();
            writeln!(f, "v1-style/HMG\tok\t123").unwrap();
            writeln!(f, "{}", checksummed("short/HMG\tok")).unwrap();
            writeln!(
                f,
                "{}",
                checksummed("v2-style/HMG\tok\t5\t0000000000000005")
            )
            .unwrap();
            writeln!(
                f,
                "{}",
                checksummed(&format!("cut/HMG\tok\t{}", &hex[..40]))
            )
            .unwrap();
            writeln!(f, "{}", checksummed("weird/HMG\tmaybe\t5")).unwrap();
            writeln!(f, "\u{1}\u{2}\u{3}garbage").unwrap();
        }
        let c = SweepCheckpoint::open(&path, "id", true).unwrap();
        assert_eq!(c.completed(), 2, "only checksum-verified rows survive");
        assert_eq!(cycles_of(c.lookup("good/HMG")), Some(100));
        assert_eq!(cycles_of(c.lookup("also-good/NHCC")), Some(200));
        assert!(c.lookup("flip/HMG").is_none());
        assert_eq!(c.corrupt_rows(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_drops_conflicting_duplicates_as_stale() {
        // Two verified `ok` rows for the same key with different metrics
        // mean the sweep's inputs changed under the checkpoint: neither
        // copy can be trusted, the cell re-runs, and the conflict is
        // counted as stale.
        let dir = std::env::temp_dir().join("hmg-ckpt-test-stale");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        {
            let c = SweepCheckpoint::open(&path, "id", false).unwrap();
            c.record_ok("a/HMG", &metrics(10, 111));
            c.record_ok("b/HMG", &metrics(20, 222));
            c.record_ok("a/HMG", &metrics(10, 999)); // conflicting digest
            c.record_ok("a/HMG", &metrics(10, 111)); // must not resurrect the key
        }
        let c = SweepCheckpoint::open(&path, "id", true).unwrap();
        assert!(c.lookup("a/HMG").is_none(), "conflicting cell re-runs");
        assert_eq!(c.lookup("b/HMG").map(|m| m.state_digest), Some(222));
        assert_eq!(c.completed(), 1);
        assert_eq!(c.stale_rows(), 1);
        // Re-recording after the conflict heals the checkpoint.
        c.record_ok("a/HMG", &metrics(10, 111));
        drop(c);
        let c = SweepCheckpoint::open(&path, "id", true).unwrap();
        assert_eq!(c.lookup("a/HMG").map(|m| m.state_digest), Some(111));
        assert_eq!(c.stale_rows(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_resume_compacts_atomically_via_tempfile() {
        let dir = std::env::temp_dir().join("hmg-ckpt-test-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        {
            let c = SweepCheckpoint::open(&path, "id", false).unwrap();
            c.record_ok("a/HMG", &metrics(1, 2));
            c.record_failure("b/HMG", "boom");
        }
        // A stale tempfile from an interrupted compaction must not
        // confuse a later resume.
        std::fs::write(checkpoint_tmp_path(&path), "leftover junk").unwrap();
        let c = SweepCheckpoint::open(&path, "id", true).unwrap();
        assert_eq!(c.completed(), 1);
        // Appends after the rename must land in the live file, not a
        // dangling tempfile.
        c.record_ok("c/HMG", &metrics(3, 4));
        drop(c);
        assert!(
            !checkpoint_tmp_path(&path).exists(),
            "tempfile must be renamed away"
        );
        let c = SweepCheckpoint::open(&path, "id", true).unwrap();
        assert_eq!(c.completed(), 2);
        assert_eq!(cycles_of(c.lookup("c/HMG")), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_produce_metrics_and_speedup() {
        let opts = crate::experiments::ExpOptions {
            scale: Scale::Tiny,
            seed: 7,
            ..Default::default()
        };
        let run = |p| crate::experiments::run_cell(&opts.plain_cell("bfs", p)).unwrap();
        let base = run(ProtocolKind::NoPeerCaching).total_cycles.as_u64();
        let hmg = run(ProtocolKind::Hmg).total_cycles.as_u64();
        assert!(base > 0 && hmg > 0);
        let s = base as f64 / hmg as f64;
        assert!(s > 0.5, "speedup {s} implausible");
    }
}
