//! Running cells and checking their outputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use hmg::gpu::{Engine, RunMetrics, SnapshotPolicy};
use hmg::protocol::{ProtocolKind, WorkloadTrace};
use hmg::sim::SnapshotStore;

use crate::clock::{at_quiet_speed, reference_s, thread_cpu_s};
use crate::spans::Tracer;
use crate::workload::{Setup, PROTOCOLS, SNAPSHOT_INTERVAL};

/// One (workload, protocol) run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The protocol the cell ran.
    pub protocol: ProtocolKind,
    /// On-CPU seconds of the benchmark's thread inside the engine call.
    pub cpu_s: f64,
    /// CPU seconds of the reference workload run just before the call.
    pub reference_s: f64,
    /// The run's metrics, or the error or panic that ended it.
    pub result: Result<RunMetrics, String>,
    /// Snapshots the run captured.
    pub snapshots: u64,
}

impl Cell {
    /// The metrics of a cell that completed.
    pub fn metrics(&self) -> Option<&RunMetrics> {
        self.result.as_ref().ok()
    }

    /// `cpu_s` in seconds at the quiet host's speed, by the reference
    /// run just before the call.
    pub fn quiet_cpu_s(&self) -> f64 {
        at_quiet_speed(self.cpu_s, self.reference_s)
    }
}

/// The snapshot policy of one cell, with any snapshot a previous run
/// left behind removed so that the run starts cold instead of resuming.
pub(crate) fn snapshot_policy(
    dir: &Path,
    workload: &str,
    protocol: ProtocolKind,
) -> SnapshotPolicy {
    let path = dir.join(format!("{workload}-{}.snap", protocol.name()));
    SnapshotStore::new(&path).clear();
    let identity =
        hmg::runner::fnv1a64(format!("perfbench|{workload}|{}", protocol.name()).as_bytes());
    SnapshotPolicy::periodic(path, identity, SNAPSHOT_INTERVAL)
}

/// Runs one cell, converting a panic into a failed result.
pub(crate) fn run_cell(
    engine: &Engine,
    trace: &WorkloadTrace,
    policy: Option<&SnapshotPolicy>,
    tr: &mut Tracer,
) -> Cell {
    let protocol = engine.config().protocol;
    let reference_s = reference_s();
    let start = thread_cpu_s();
    let outcome = match policy {
        None => tr.span("gpu.try_run", |_| {
            catch_unwind(AssertUnwindSafe(|| engine.try_run(trace).map(|m| (m, 0))))
        }),
        Some(p) => tr.span("gpu.try_run_preemptible", |_| {
            catch_unwind(AssertUnwindSafe(|| {
                engine
                    .try_run_preemptible(trace, p)
                    .map(|(m, r)| (m, r.written))
            }))
        }),
    };
    let cpu_s = thread_cpu_s() - start;
    let (result, snapshots) = match outcome {
        Ok(Ok((m, written))) => (Ok(m), written),
        Ok(Err(e)) => (Err(e.to_string()), 0),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string payload".into());
            (Err(format!("engine panicked: {msg}")), 0)
        }
    };
    Cell {
        protocol,
        cpu_s,
        reference_s,
        result,
        snapshots,
    }
}

/// Runs every protocol's cell once, one after another.
pub fn run_pass(setup: &Setup, snap_dir: &Path, tr: &mut Tracer) -> Vec<Cell> {
    tr.span("bench.pass", |tr| {
        setup
            .engines
            .iter()
            .map(|engine| {
                let policy = setup.workload.snapshots().then(|| {
                    snapshot_policy(snap_dir, setup.workload.name(), engine.config().protocol)
                });
                let cell = run_cell(engine, &setup.trace, policy.as_ref(), tr);
                if let Some(p) = policy {
                    SnapshotStore::new(&p.path).clear();
                }
                cell
            })
            .collect()
    })
}

/// Checks one pass's outputs and returns each cell's failure, if any.
///
/// A cell fails when its run returned an error or panicked; when its
/// committed-memory digest differs from the digest the other protocols
/// agree on (from `reference`, when given, instead); when an executed
/// directory transition contradicted Table I; when a flip went
/// undetected or unaccounted; or when its simulated results differ from
/// the same cell in `first`, an earlier pass of the same inputs.
pub fn check_pass(
    cells: &[Cell],
    reference: Option<u64>,
    first: Option<&[Cell]>,
) -> Vec<Option<String>> {
    let agreed = reference.or_else(|| majority_digest(cells));
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let m = match &c.result {
                Ok(m) => m,
                Err(e) => return Some(e.clone()),
            };
            if agreed != Some(m.state_digest) {
                return Some(format!(
                    "state digest {:016x} differs from the agreed {}",
                    m.state_digest,
                    agreed.map_or("(none)".into(), |d| format!("{d:016x}"))
                ));
            }
            if m.table.mismatches != 0 {
                return Some(format!("{} Table I mismatches", m.table.mismatches));
            }
            let integ = &m.integrity;
            if integ.silent_corruptions != 0 || integ.flips() != integ.accounted() {
                return Some(format!("integrity books do not balance: {integ}"));
            }
            let earlier = first.and_then(|f| f.get(i)).and_then(Cell::metrics);
            if let Some(e) = earlier {
                if (e.total_cycles, e.events, e.state_digest)
                    != (m.total_cycles, m.events, m.state_digest)
                {
                    return Some("simulated results differ from the first pass".into());
                }
            }
            None
        })
        .collect()
}

/// The digest a strict majority of the completed cells share.
fn majority_digest(cells: &[Cell]) -> Option<u64> {
    let digests: Vec<u64> = cells
        .iter()
        .filter_map(|c| c.metrics())
        .map(|m| m.state_digest)
        .collect();
    digests
        .iter()
        .copied()
        .find(|d| 2 * digests.iter().filter(|x| *x == d).count() > cells.len())
}

/// The cell of `protocol` in a pass.
pub(crate) fn cell_of(cells: &[Cell], protocol: ProtocolKind) -> Option<&RunMetrics> {
    let i = PROTOCOLS.iter().position(|&p| p == protocol)?;
    cells.get(i).and_then(Cell::metrics)
}
