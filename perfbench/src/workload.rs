//! The four benchmark workloads and their set-up.

use hmg::gpu::{Engine, EngineConfig};
use hmg::protocol::{ProtocolKind, WorkloadTrace};
use hmg::sim::FaultPlan;
use hmg::workloads::suite::by_abbrev;
use hmg::workloads::{Scale, WorkloadSpec};

use crate::spans::Tracer;

/// The Fig. 8 configurations every workload runs: the baseline, the
/// flat and the hierarchical hardware protocols, and idealized caching.
pub(crate) const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::NoPeerCaching,
    ProtocolKind::Nhcc,
    ProtocolKind::Hmg,
    ProtocolKind::Ideal,
];

/// Cycles between periodic snapshots on `resilient-bfs`: the sweep
/// runner's default interval.
pub(crate) const SNAPSHOT_INTERVAL: u64 = hmg::experiments::DEFAULT_SNAPSHOT_INTERVAL;

/// A benchmark workload: a Table III trace plus the resilience features
/// it switches on. Each one loads a different set of layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RNN_FW: dense, L2-resident; the event queue, SM issue and L2
    /// probes do most of the work.
    RnnDense,
    /// bfs: irregular Zipf reads; the directory, DRAM and fabric dominate.
    GraphBfs,
    /// cuSolver: `.gpu`-scoped flag synchronization and panel stores;
    /// invalidations with writes beside the reads.
    SolverSync,
    /// bfs under a seeded plan of recovered faults with periodic
    /// snapshots: transport retransmission, scrubbing, snapshot capture.
    ResilientBfs,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::RnnDense,
        Workload::GraphBfs,
        Workload::SolverSync,
        Workload::ResilientBfs,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RnnDense => "rnn-dense",
            Workload::GraphBfs => "graph-bfs",
            Workload::SolverSync => "solver-sync",
            Workload::ResilientBfs => "resilient-bfs",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The Table III workload whose generated trace this one replays.
    pub(crate) fn abbrev(self) -> &'static str {
        match self {
            Workload::RnnDense => "RNN_FW",
            Workload::GraphBfs | Workload::ResilientBfs => "bfs",
            Workload::SolverSync => "cuSolver",
        }
    }

    /// The fault plan of this workload, seeded from the workload seed.
    /// Every fault in it is recovered: lost and corrupted messages are
    /// retransmitted, and line flips are corrected or refetched under
    /// SEC-DED (the write-through L2 holds no dirty line to poison), so
    /// committed memory must match the fault-free run.
    pub(crate) fn faults(self, seed: u64) -> FaultPlan {
        match self {
            Workload::ResilientBfs => FaultPlan::parse(&format!(
                "drop=0.0005,flip-msg=0.0005,flip-line=0.3,seed={seed}"
            ))
            .expect("the built-in fault plan parses"),
            _ => FaultPlan::default(),
        }
    }

    /// Whether cells capture periodic snapshots.
    pub(crate) fn snapshots(self) -> bool {
        self == Workload::ResilientBfs
    }
}

/// A workload's generated trace and one engine per protocol, in
/// [`PROTOCOLS`] order.
#[derive(Debug)]
pub struct Setup {
    /// The workload set up.
    pub workload: Workload,
    /// The generated trace; the engines receive nothing else.
    pub trace: WorkloadTrace,
    /// One engine per protocol, in [`PROTOCOLS`] order.
    pub engines: Vec<Engine>,
}

impl Setup {
    /// Generates the trace from `seed` and builds every engine.
    pub fn new(
        workload: Workload,
        scale: Scale,
        seed: u64,
        tr: &mut Tracer,
    ) -> Result<Setup, String> {
        let spec = spec_of(workload)?;
        let trace = tr.span("workloads.generate", |_| spec.generate(scale, seed));
        let engines = tr.span("gpu.try_new", |_| {
            PROTOCOLS
                .iter()
                .map(|&p| Engine::try_new(config(workload, &spec, scale, seed, p, &trace)))
                .collect::<Result<Vec<_>, _>>()
        });
        let engines = engines.map_err(|e| format!("{}: {e}", workload.name()))?;
        Ok(Setup {
            workload,
            trace,
            engines,
        })
    }
}

fn spec_of(workload: Workload) -> Result<WorkloadSpec, String> {
    by_abbrev(workload.abbrev())
        .ok_or_else(|| format!("unknown Table III workload {}", workload.abbrev()))
}

/// The engine configuration of one cell: the machine paired with
/// `scale` (Table II at `Small`), capacities shrunk with the trace's
/// footprint and the livelock watchdog armed, exactly as the sweep
/// runner builds it, plus the workload's fault plan. Caches start empty.
pub(crate) fn config(
    workload: Workload,
    spec: &WorkloadSpec,
    scale: Scale,
    seed: u64,
    protocol: ProtocolKind,
    trace: &WorkloadTrace,
) -> EngineConfig {
    let mut cfg = match scale {
        Scale::Tiny => EngineConfig::small_test(protocol),
        Scale::Small | Scale::Full => EngineConfig::paper_default(protocol),
    };
    cfg.faults = workload.faults(seed);
    hmg::runner::scale_capacities(&mut cfg, spec.capacity_factor(scale));
    hmg::runner::arm_watchdog(&mut cfg, trace, None);
    cfg
}

/// The committed-memory digest of the fault-free `graph-bfs` trace: the
/// value every `resilient-bfs` cell must converge to. Uses the cheapest
/// protocol, since the digest does not depend on the protocol.
pub(crate) fn fault_free_digest(
    scale: Scale,
    seed: u64,
    trace: &WorkloadTrace,
) -> Result<u64, String> {
    let spec = spec_of(Workload::GraphBfs)?;
    let cfg = config(
        Workload::GraphBfs,
        &spec,
        scale,
        seed,
        ProtocolKind::Ideal,
        trace,
    );
    let m = Engine::try_new(cfg)
        .and_then(|e| e.try_run(trace))
        .map_err(|e| format!("fault-free graph-bfs reference run failed: {e}"))?;
    Ok(m.state_digest)
}
