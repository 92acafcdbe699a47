//! The benchmark of the HMG simulator.
//!
//! One run sets up one workload from a seed, then replays its four Fig. 8
//! cells (no-peer-caching, nhcc, hmg, ideal) one after another in this
//! process, single-threaded: a closed loop with one client, where the
//! next cell starts when the previous one finishes. Whole passes repeat
//! until the run's time is spent. Every cell's output is checked.
//!
//! Without tracing a run reports the end-to-end metrics. With tracing it
//! records spans around the benchmark's own calls into each crate, replays
//! each layer's public functions with the workload's inputs, and reports
//! the per-layer metrics. The simulated metrics are exact for a seed; the
//! model behind them is not validated against hardware. Every host time
//! is on-CPU time of the benchmark's one thread; the end-to-end ones are
//! converted to seconds at a quiet host's speed with a reference workload
//! timed beside them ([`clock`]).

pub mod cell;
pub mod clock;
mod replay;
pub mod report;
pub mod spans;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use hmg::gpu::RunMetrics;
use hmg::protocol::{ProtocolKind, ProtocolSpec};
use hmg::workloads::Scale;

use crate::cell::{cell_of, check_pass, run_cell, run_pass, snapshot_policy, Cell};
use crate::clock::{at_quiet_speed, reference_s, thread_cpu_s};
use crate::replay::AccessStream;
use crate::report::{median, quartiles, Report};
use crate::spans::Tracer;
use crate::workload::{fault_free_digest, Setup, Workload};

/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, so one sample is at the mercy of host noise.
const SETUP_REPS: usize = 11;

/// Interleaved snapshot off/on pairs behind `sim.snap.overhead_pct`.
const SNAPSHOT_PAIRS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's generated inputs (and of its fault plan).
    pub seed: u64,
    /// Host seconds to spend on measured passes; at least one pass runs.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Trace scale; `Small` on the Table II machine is the benchmark.
    pub scale: Scale,
    /// Directory for snapshots, spans and layer summaries.
    pub out_dir: PathBuf,
}

/// Passes of one workload and the checks of their cells.
struct Passes {
    passes: Vec<Vec<Cell>>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    fn new() -> Passes {
        Passes {
            passes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks `cells` and keeps them.
    fn add(&mut self, workload: Workload, cells: Vec<Cell>, reference: Option<u64>) {
        let failures = check_pass(&cells, reference, self.passes.first().map(Vec::as_slice));
        for (c, f) in cells.iter().zip(&failures) {
            self.attempted += 1;
            if let Some(why) = f {
                self.failed += 1;
                eprintln!("[fail] {}/{}: {why}", workload.name(), c.protocol.name());
            }
        }
        self.passes.push(cells);
    }

    fn report(&self) -> Report {
        Report {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        }
    }
}

fn cpu_s(cells: &[Cell]) -> f64 {
    cells.iter().map(|c| c.cpu_s).sum()
}

/// The pass time a run reports: each cell's fastest run over the passes
/// by `time`, summed over the cells. Every pass does the same work (the
/// checks hold it to the first pass's events), so a slower run of a cell
/// is one the host disturbed more; the fastest is the least disturbed,
/// where a median still carries whatever share of the run the host was
/// busy.
fn best_s(passes: &[Vec<Cell>], time: impl Fn(&Cell) -> f64) -> f64 {
    (0..passes.first().map_or(0, Vec::len))
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.get(i))
                .map(&time)
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn completed(cells: &[Cell]) -> impl Iterator<Item = &RunMetrics> {
    cells.iter().filter_map(Cell::metrics)
}

fn sum(cells: &[Cell], f: impl Fn(&RunMetrics) -> u64) -> u64 {
    completed(cells).map(f).sum()
}

fn cycles(cells: &[Cell], p: ProtocolKind) -> f64 {
    cell_of(cells, p).map_or(f64::NAN, |m| m.total_cycles.as_u64() as f64)
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Returns a description when the workload cannot be set up or the
/// output directory cannot be written; failed cells are not errors but
/// count in the report.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut tr = Tracer::new(opts.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let reference = reference_s();
        let start = thread_cpu_s();
        setup = Some(Setup::new(opts.workload, opts.scale, opts.seed, &mut tr)?);
        setup_s.push(at_quiet_speed(thread_cpu_s() - start, reference));
    }
    let setup = setup.expect("at least one set-up ran");
    let reference = match opts.workload {
        Workload::ResilientBfs => Some(fault_free_digest(opts.scale, opts.seed, &setup.trace)?),
        _ => None,
    };
    if opts.trace {
        traced(opts, &setup, reference, tr)
    } else {
        end_to_end(opts, &setup, reference, median(&setup_s))
    }
}

/// Measured passes until `seconds` of wall-clock time is spent; one at
/// least. The passes are timed on the CPU clock, but the run's length is
/// what the caller waits for.
fn end_to_end(
    opts: &Options,
    setup: &Setup,
    reference: Option<u64>,
    setup_s: f64,
) -> Result<Report, String> {
    let mut p = Passes::new();
    let mut tr = Tracer::new(false);
    let start = Instant::now();
    loop {
        p.add(
            opts.workload,
            run_pass(setup, &opts.out_dir, &mut tr),
            reference,
        );
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / p.passes.len() as f64 > opts.seconds {
            break;
        }
    }
    let runs: Vec<f64> = p.passes.iter().map(|c| cpu_s(c)).collect();
    let first = &p.passes[0];
    let best = best_s(&p.passes, Cell::quiet_cpu_s);
    let references: Vec<f64> = p.passes.iter().flatten().map(|c| c.reference_s).collect();
    let hmg = cycles(first, ProtocolKind::Hmg);
    let mut r = p.report();
    r.push("quiet_cpu_s", best, "s");
    r.push(
        "events_per_quiet_cpu_s",
        sum(first, |m| m.events) as f64 / best,
        "events/s",
    );
    r.push("setup_s", setup_s, "s");
    r.push(
        "peak_rss_mb",
        (hmg::bench::peak_rss_kb() as f64 * 1024.0 - clock::REFERENCE_BYTES as f64)
            / (1 << 20) as f64,
        "MB",
    );
    r.push(
        "sim_cycles",
        sum(first, |m| m.total_cycles.as_u64()) as f64,
        "cycles",
    );
    r.push(
        "hmg_speedup",
        cycles(first, ProtocolKind::NoPeerCaching) / hmg,
        "x",
    );
    r.push(
        "hmg_of_ideal",
        cycles(first, ProtocolKind::Ideal) / hmg,
        "ratio",
    );
    r.push(
        "pass_share",
        (r.attempted - r.failed) as f64 / r.attempted as f64,
        "fraction",
    );
    eprintln!(
        "{}: {} passes of {} cells in {:.1} s; pass cpu_s {runs:.3?}, fastest cells {:.3} s; \
         median reference run {:.4} s",
        opts.workload.name(),
        p.passes.len(),
        first.len(),
        start.elapsed().as_secs_f64(),
        best_s(&p.passes, |c| c.cpu_s),
        median(&references)
    );
    Ok(r)
}

/// One untraced and one traced pass, then the layer replays on the
/// traced pass's hmg cell.
fn traced(
    opts: &Options,
    setup: &Setup,
    reference: Option<u64>,
    mut tr: Tracer,
) -> Result<Report, String> {
    let mut p = Passes::new();
    p.add(
        opts.workload,
        run_pass(setup, &opts.out_dir, &mut Tracer::new(false)),
        reference,
    );
    p.add(
        opts.workload,
        run_pass(setup, &opts.out_dir, &mut tr),
        reference,
    );
    let (untraced, cells) = (&p.passes[0], &p.passes[1]);
    let hmg_i = workload::PROTOCOLS
        .iter()
        .position(|&x| x == ProtocolKind::Hmg)
        .expect("hmg is benchmarked");
    let engine = &setup.engines[hmg_i];
    let cfg = engine.config();
    let h = cells[hmg_i].metrics().cloned().unwrap_or_default();

    let events = sum(cells, |m| m.events);
    let run_s = cpu_s(cells);
    let seed = opts.seed;
    let stream = AccessStream::new(&setup.trace, cfg.geometry, cfg.topo.num_gpms());
    let queue_ns = tr.span("sim.queue", |_| {
        replay::queue(h.events, h.max_loads_inflight, &h.miss_latency_hist, seed)
    });
    let cache_ns = tr.span("mem.cache", |_| {
        replay::cache(&stream, cfg.l2, cfg.topo.num_gpms())
    });
    let dir_ns = tr.span("mem.directory", |_| {
        replay::directory(&stream, cfg.dir, cfg.topo)
    });
    drop(stream);
    let fabric_ns = tr.span("interconnect.fabric", |_| {
        replay::fabric(&h.fabric, h.total_cycles.as_u64(), cfg, seed)
    });
    let spec = ProtocolSpec::of(true, cfg.arbitration);
    let spec_ns = tr.span("protocol.spec", |_| {
        replay::spec(&h.table.rows, h.table.checked, spec, seed)
    });
    let snap = if opts.workload.snapshots() {
        snapshot_pairs(opts, setup, hmg_i, &mut tr)
    } else {
        Vec::new()
    };

    // Each replayed layer's cost over the whole pass: its cost per
    // operation times the operations the pass's cells performed.
    let layer_ns = [
        ("sim.queue", queue_ns * 2.0 * events as f64),
        (
            "mem.cache",
            cache_ns * sum(cells, |m| m.loads + m.stores) as f64,
        ),
        (
            "mem.directory",
            dir_ns * sum(cells, |m| m.table.checked) as f64,
        ),
        (
            "interconnect.fabric",
            fabric_ns * sum(cells, |m| m.fabric.transport().messages) as f64,
        ),
        (
            "protocol.spec",
            spec_ns * sum(cells, |m| m.table.checked) as f64,
        ),
    ];
    let replayed_ns: f64 = layer_ns.iter().map(|(_, ns)| ns).sum();

    let mut merged = RunMetrics::default();
    for m in completed(cells) {
        for (a, b) in merged
            .miss_latency_hist
            .iter_mut()
            .zip(&m.miss_latency_hist)
        {
            *a += b;
        }
    }
    let invs = sum(cells, |m| m.invs_from_stores + m.invs_from_evictions);
    let lines_invalidated = sum(cells, |m| {
        m.lines_invalidated_by_stores + m.lines_invalidated_by_evictions
    });
    let messages = sum(cells, |m| m.fabric.transport().messages);
    let classes = hmg::interconnect::MsgClass::ALL;
    let generate_s: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "workloads.generate")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    let (ov_q1, ov_med, ov_q3) = quartiles(&snap.iter().map(|x| x.1).collect::<Vec<_>>());

    let mut r = p.report();
    r.push("workloads.generate_s", median(&generate_s), "s");
    r.push("gpu.run_s", run_s, "s");
    r.push("gpu.ns_per_event", run_s * 1e9 / events as f64, "ns");
    r.push("gpu.events", events as f64, "count");
    r.push("gpu.nacks", sum(cells, |m| m.nacks) as f64, "count");
    r.push(
        "gpu.miss_p50_cycles",
        merged.miss_latency_percentile(0.5) as f64,
        "cycles",
    );
    r.push(
        "gpu.miss_p99_cycles",
        merged.miss_latency_percentile(0.99) as f64,
        "cycles",
    );
    r.push("sim.queue.ns_per_op", queue_ns, "ns");
    r.push(
        "sim.snap.capture_s",
        median(&snap.iter().map(|x| x.0).collect::<Vec<_>>()),
        "s",
    );
    r.push("sim.snap.overhead_pct", ov_med, "%");
    r.push("sim.snap.overhead_pct_q1", ov_q1, "%");
    r.push("sim.snap.overhead_pct_q3", ov_q3, "%");
    r.push(
        "sim.snap.count",
        cells.iter().map(|c| c.snapshots).sum::<u64>() as f64,
        "count",
    );
    r.push(
        "sim.integrity.scrubbed",
        sum(cells, |m| m.integrity.scrubbed) as f64,
        "count",
    );
    r.push("mem.cache.ns_per_probe", cache_ns, "ns");
    r.push("mem.directory.ns_per_op", dir_ns, "ns");
    r.push("mem.l1_hits", sum(cells, |m| m.l1_hits) as f64, "count");
    r.push(
        "mem.l2_local_hits",
        sum(cells, |m| m.local_l2_hits) as f64,
        "count",
    );
    r.push(
        "mem.home_hits",
        sum(cells, |m| m.gpu_home_hits + m.sys_home_hits) as f64,
        "count",
    );
    r.push(
        "mem.dram_accesses",
        sum(cells, |m| m.dram_accesses) as f64,
        "count",
    );
    r.push("mem.directory.invs", invs as f64, "count");
    r.push(
        "mem.directory.inv_yield",
        lines_invalidated as f64 / invs.max(1) as f64,
        "ratio",
    );
    r.push("interconnect.fabric.ns_per_send", fabric_ns, "ns");
    r.push(
        "interconnect.intra_msgs",
        sum(cells, |m| {
            classes.iter().map(|&k| m.fabric.intra_msgs(k)).sum()
        }) as f64,
        "count",
    );
    r.push(
        "interconnect.inter_bytes",
        sum(cells, |m| {
            classes.iter().map(|&k| m.fabric.inter_bytes(k)).sum()
        }) as f64,
        "bytes",
    );
    r.push(
        "interconnect.transport.retry_ratio",
        sum(cells, |m| m.fabric.transport().retransmissions) as f64 / messages.max(1) as f64,
        "ratio",
    );
    r.push("protocol.spec.ns_per_row", spec_ns, "ns");
    r.push("layer.replay_share", replayed_ns / (run_s * 1e9), "ratio");
    for (layer, ns) in layer_ns {
        r.push(format!("{layer}.ns_per_event"), ns / events as f64, "ns");
    }
    r.push(
        "layer.unexplained_ns_per_event",
        (run_s * 1e9 - replayed_ns) / events as f64,
        "ns",
    );
    let selfs = tr.self_seconds();
    for layer in [
        "bench",
        "workloads",
        "gpu",
        "sim",
        "mem",
        "interconnect",
        "protocol",
    ] {
        r.push(
            format!("{layer}.self_s"),
            selfs.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    r.push("trace.overhead_s", run_s - cpu_s(untraced), "s");
    r.push("trace.spans", tr.spans().len() as f64, "count");
    let references: Vec<f64> = p.passes.iter().flatten().map(|c| c.reference_s).collect();
    r.push("bench.reference_s", median(&references), "s");

    let stem = format!("{}-{}", opts.workload.name(), opts.seed);
    write(
        &opts.out_dir.join(format!("spans-{stem}.json")),
        &tr.to_chrome_json(),
    )?;
    let layers: String = r
        .metrics
        .iter()
        .map(|m| format!("{}\t{}\n", m.name, m.value))
        .collect();
    write(&opts.out_dir.join(format!("layers-{stem}.tsv")), &layers)?;
    eprint!("{}", summary(opts, &r));
    Ok(r)
}

/// Interleaved off/on snapshot pairs on one cell: `(on − off seconds,
/// overhead percent)` per pair, alternating which side runs first.
fn snapshot_pairs(opts: &Options, setup: &Setup, cell: usize, tr: &mut Tracer) -> Vec<(f64, f64)> {
    let engine = &setup.engines[cell];
    let protocol = engine.config().protocol;
    let side = |on: bool, tr: &mut Tracer| {
        let policy = on.then(|| snapshot_policy(&opts.out_dir, "pairs", protocol));
        let c = tr.span("sim.snap.pair", |tr| {
            run_cell(engine, &setup.trace, policy.as_ref(), tr)
        });
        if let Some(p) = policy {
            hmg::sim::SnapshotStore::new(&p.path).clear();
        }
        c.cpu_s
    };
    (0..SNAPSHOT_PAIRS)
        .map(|i| {
            let (off, on) = if i % 2 == 0 {
                let off = side(false, tr);
                (off, side(true, tr))
            } else {
                let on = side(true, tr);
                (side(false, tr), on)
            };
            (on - off, (on / off - 1.0) * 100.0)
        })
        .collect()
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The ns-per-event costs the replays attribute to each layer.
const PER_EVENT: [&str; 6] = [
    "sim.queue.ns_per_event",
    "mem.cache.ns_per_event",
    "mem.directory.ns_per_event",
    "interconnect.fabric.ns_per_event",
    "protocol.spec.ns_per_event",
    "layer.unexplained_ns_per_event",
];

/// The traced run's summary. With the `graph-bfs` and `rnn-dense`
/// layer files of one seed both present, it also answers which layer
/// makes a `graph-bfs` event cost more than an `rnn-dense` event.
fn summary(opts: &Options, r: &Report) -> String {
    let mut s = format!(
        "== {} seed {}: {:.1} ns/event, replays explain {:.0}% of engine time ==\n",
        opts.workload.name(),
        opts.seed,
        r.get("gpu.ns_per_event").unwrap_or(0.0),
        100.0 * r.get("layer.replay_share").unwrap_or(0.0)
    );
    for name in PER_EVENT {
        s += &format!("  {name:<36} {:>8.2} ns\n", r.get(name).unwrap_or(0.0));
    }
    let read = |w: Workload| -> Option<Vec<(String, f64)>> {
        let path = opts
            .out_dir
            .join(format!("layers-{}-{}.tsv", w.name(), opts.seed));
        let text = std::fs::read_to_string(path).ok()?;
        Some(
            text.lines()
                .filter_map(|l| l.split_once('\t'))
                .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .collect(),
        )
    };
    if let (Some(bfs), Some(rnn)) = (read(Workload::GraphBfs), read(Workload::RnnDense)) {
        s += &compare(&bfs, &rnn);
    }
    s
}

/// Splits the per-event cost gap between `graph-bfs` and `rnn-dense`
/// over the replayed layers and names the layer that explains most of it.
fn compare(bfs: &[(String, f64)], rnn: &[(String, f64)]) -> String {
    let get =
        |v: &[(String, f64)], k: &str| v.iter().find(|(n, _)| n == k).map_or(0.0, |(_, x)| *x);
    let gap = get(bfs, "gpu.ns_per_event") - get(rnn, "gpu.ns_per_event");
    let mut s = format!(
        "== graph-bfs vs rnn-dense: {:.1} vs {:.1} ns/event, gap {gap:.1} ns ==\n",
        get(bfs, "gpu.ns_per_event"),
        get(rnn, "gpu.ns_per_event")
    );
    let mut best = ("", f64::MIN);
    for name in PER_EVENT {
        let d = get(bfs, name) - get(rnn, name);
        s += &format!(
            "  {name:<36} {d:>+8.2} ns ({:>+5.0}% of the gap)\n",
            100.0 * d / gap
        );
        if name != "layer.unexplained_ns_per_event" && d > best.1 {
            best = (name, d);
        }
    }
    let unexplained =
        get(bfs, "layer.unexplained_ns_per_event") - get(rnn, "layer.unexplained_ns_per_event");
    let explained = gap - unexplained;
    if gap > 0.0 && explained >= 0.5 * gap {
        s += &format!("  answer: {} explains most of the gap\n", best.0);
    } else {
        s += &format!(
            "  answer: the outside-in replays explain {:.0}% of the gap; the rest is in the \
             engine's own handlers, which only in-engine tracing can split\n",
            100.0 * explained / gap
        );
    }
    s
}
