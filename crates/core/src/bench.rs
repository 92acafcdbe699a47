//! The `experiments bench` hot-path benchmark harness.
//!
//! Runs the Fig. 8 cells single-threaded and in-process — no
//! supervisor, no worker pool — so the numbers isolate the DES hot
//! paths (event queue, engine state maps, fabric) from sweep
//! orchestration. Emits a schema-versioned `BENCH_hotpath.json` with
//! events/sec, cycles/sec, wall time, and peak RSS per protocol
//! configuration, giving this and every later PR a measured perf
//! trajectory (ROADMAP item 1).
//!
//! Every cell also reports its [`RunMetrics::state_digest`], the
//! behavioral oracle of the hot-path rewrite: a bench run whose digests
//! differ from the seed tree's is *wrong*, not just slow. Its
//! [`RunMetrics::fingerprint`] goes further and also pins timing and
//! traffic, so a speedup that claims identical behaviour shows it here.
//!
//! All stable fields (workload, protocol, events, cycles, digest,
//! fingerprint) are deterministic for a given seed; only the
//! timing-derived fields (`wall_s`, `*_per_sec`, `peak_rss_kb`) vary
//! between reruns. The bench smoke test relies on that split.
//!
//! [`RunMetrics::state_digest`]: hmg_gpu::RunMetrics::state_digest
//! [`RunMetrics::fingerprint`]: hmg_gpu::RunMetrics::fingerprint

use std::path::Path;

use hmg_protocol::ProtocolKind;
use hmg_sim::SimError;
use hmg_workloads::Scale;

use crate::experiments::ExpOptions;
use crate::report::Table;
use crate::runner::run_isolated;

/// Schema tag of `BENCH_hotpath.json`; bump when the shape changes.
pub const SCHEMA: &str = "hmg-bench-hotpath-v1";

/// Allowed throughput regression against a checked-in baseline before
/// the gate fails (20%, per the CI `bench-smoke` contract).
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// Allowed peak-RSS growth against a same-shape baseline before the gate
/// fails (10%, the `peak_rss_mb` bound of `BENCHMARK.json`).
pub const RSS_TOLERANCE: f64 = 0.10;

/// Timed runs per measurement; each reports its best wall time. One run
/// is hostage to whatever else the host does meanwhile, and the gate
/// compares against a baseline recorded the same way.
const TIMED_ROUNDS: usize = 3;

/// The Fig. 8 workloads the full bench times, in figure order.
const BENCH_WORKLOADS: [&str; 4] = ["RNN_FW", "bfs", "CoMD", "lstm"];

/// The reduced `--quick` matrix: two workloads with distinct sharing
/// patterns under the baseline, both hardware protocols' extremes.
const QUICK_WORKLOADS: [&str; 2] = ["bfs", "CoMD"];
const QUICK_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::NoPeerCaching,
    ProtocolKind::Nhcc,
    ProtocolKind::Hmg,
    ProtocolKind::Ideal,
];

/// One timed (workload, protocol) cell.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Workload abbreviation (Table III).
    pub workload: String,
    /// Protocol configuration timed.
    pub protocol: ProtocolKind,
    /// DES events executed.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed-memory state digest — the behavioral oracle.
    pub digest: u64,
    /// Behaviour fingerprint over every deterministic output of the run.
    pub fingerprint: u64,
    /// Wall-clock seconds of the fastest of the cell's timed engine runs
    /// (trace generation and configuration are excluded: this times the
    /// DES, not the setup).
    pub wall_s: f64,
    /// Peak resident set size in KB observed by the end of this cell
    /// (`VmHWM`; process-wide high-water mark, 0 where unsupported).
    pub peak_rss_kb: u64,
}

impl BenchCell {
    /// DES events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_s.max(1e-9)
    }
}

/// One cell timed back-to-back with snapshotting off and on at the
/// default capture interval — the measured cost of the preemptible-cell
/// machinery (DESIGN.md §14). The state digest is oracle-checked equal
/// between the two runs before the numbers are reported.
#[derive(Debug, Clone)]
pub struct SnapshotBench {
    /// Workload abbreviation of the measured cell.
    pub workload: String,
    /// Protocol configuration of the measured cell.
    pub protocol: ProtocolKind,
    /// Cycles between periodic captures in the snapshot-on run.
    pub interval: u64,
    /// Snapshots the snapshot-on run wrote.
    pub snapshots_written: u64,
    /// DES events of the cell (identical in both runs).
    pub events: u64,
    /// Wall seconds with snapshotting off.
    pub off_wall_s: f64,
    /// Wall seconds with snapshotting on.
    pub on_wall_s: f64,
}

impl SnapshotBench {
    /// Events/sec with snapshotting off.
    pub fn off_events_per_sec(&self) -> f64 {
        self.events as f64 / self.off_wall_s.max(1e-9)
    }

    /// Events/sec with snapshotting on.
    pub fn on_events_per_sec(&self) -> f64 {
        self.events as f64 / self.on_wall_s.max(1e-9)
    }

    /// Throughput overhead of snapshotting in percent (positive =
    /// snapshot-on is slower).
    pub fn overhead_pct(&self) -> f64 {
        (self.off_events_per_sec() / self.on_events_per_sec().max(1e-9) - 1.0) * 100.0
    }
}

/// The full bench result, serializable as `BENCH_hotpath.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `--quick` reduced matrix?
    pub quick: bool,
    /// Scale the cells ran at.
    pub scale: Scale,
    /// Workload-generation seed.
    pub seed: u64,
    /// Every timed cell, in (workload, protocol) order.
    pub cells: Vec<BenchCell>,
    /// The snapshot-overhead measurement.
    pub snapshot: Option<SnapshotBench>,
}

impl BenchReport {
    /// Total DES events across all cells.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Total simulated cycles across all cells.
    pub fn total_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }

    /// Total engine wall time across all cells.
    pub fn total_wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    /// Aggregate DES events per second — the headline hot-path number
    /// and the quantity the CI regression gate compares.
    pub fn total_events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.total_wall_s().max(1e-9)
    }

    /// Peak RSS over the whole bench (the last cell's high-water mark).
    pub fn peak_rss_kb(&self) -> u64 {
        self.cells.iter().map(|c| c.peak_rss_kb).max().unwrap_or(0)
    }

    /// Renders the report as the `BENCH_hotpath.json` document. One
    /// field per line; the timing-derived fields (`wall_s`,
    /// `events_per_sec`, `cycles_per_sec`, `peak_rss_kb`, and the
    /// `total_*` aggregates of those) are the only lines that differ
    /// between same-seed reruns.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if self.quick { "quick" } else { "full" }
        ));
        s.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"workload\": \"{}\",\n", c.workload));
            s.push_str(&format!("      \"protocol\": \"{}\",\n", c.protocol.name()));
            s.push_str(&format!("      \"events\": {},\n", c.events));
            s.push_str(&format!("      \"cycles\": {},\n", c.cycles));
            s.push_str(&format!("      \"digest\": \"{:016x}\",\n", c.digest));
            s.push_str(&format!(
                "      \"fingerprint\": \"{:016x}\",\n",
                c.fingerprint
            ));
            s.push_str(&format!("      \"wall_s\": {:.6},\n", c.wall_s));
            s.push_str(&format!(
                "      \"events_per_sec\": {:.0},\n",
                c.events_per_sec()
            ));
            s.push_str(&format!(
                "      \"cycles_per_sec\": {:.0},\n",
                c.cycles_per_sec()
            ));
            s.push_str(&format!("      \"peak_rss_kb\": {}\n", c.peak_rss_kb));
            s.push_str(if i + 1 == self.cells.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ],\n");
        if let Some(sn) = &self.snapshot {
            s.push_str("  \"snapshot\": {\n");
            s.push_str(&format!("    \"workload\": \"{}\",\n", sn.workload));
            s.push_str(&format!("    \"protocol\": \"{}\",\n", sn.protocol.name()));
            s.push_str(&format!("    \"interval\": {},\n", sn.interval));
            s.push_str(&format!(
                "    \"snapshots_written\": {},\n",
                sn.snapshots_written
            ));
            s.push_str(&format!("    \"events\": {},\n", sn.events));
            s.push_str(&format!("    \"off_wall_s\": {:.6},\n", sn.off_wall_s));
            s.push_str(&format!("    \"on_wall_s\": {:.6},\n", sn.on_wall_s));
            s.push_str(&format!(
                "    \"off_events_per_sec\": {:.0},\n",
                sn.off_events_per_sec()
            ));
            s.push_str(&format!(
                "    \"on_events_per_sec\": {:.0},\n",
                sn.on_events_per_sec()
            ));
            s.push_str(&format!("    \"overhead_pct\": {:.2}\n", sn.overhead_pct()));
            s.push_str("  },\n");
        }
        s.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        s.push_str(&format!("  \"total_cycles\": {},\n", self.total_cycles()));
        s.push_str(&format!(
            "  \"total_wall_s\": {:.6},\n",
            self.total_wall_s()
        ));
        s.push_str(&format!(
            "  \"total_events_per_sec\": {:.0},\n",
            self.total_events_per_sec()
        ));
        s.push_str(&format!("  \"peak_rss_kb\": {}\n", self.peak_rss_kb()));
        s.push_str("}\n");
        s
    }

    /// Renders the report as a table.
    pub fn print(&self) {
        println!(
            "== Hot-path bench ({}, scale {}, seed {}) ==",
            if self.quick { "quick" } else { "full" },
            self.scale.name(),
            self.seed
        );
        let mut t = Table::new(vec![
            "cell".into(),
            "events".into(),
            "cycles".into(),
            "wall s".into(),
            "Mev/s".into(),
            "digest".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                format!("{}/{}", c.workload, c.protocol.name()),
                c.events.to_string(),
                c.cycles.to_string(),
                format!("{:.3}", c.wall_s),
                format!("{:.2}", c.events_per_sec() / 1e6),
                format!("{:016x}", c.digest),
            ]);
        }
        println!("{}", t.render());
        println!(
            "total: {} events in {:.3}s = {:.2}M events/s, peak RSS {} KB",
            self.total_events(),
            self.total_wall_s(),
            self.total_events_per_sec() / 1e6,
            self.peak_rss_kb()
        );
        if let Some(sn) = &self.snapshot {
            println!(
                "snapshot overhead ({}/{}, every {} cycles): {} snapshots, \
                 {:.2}M ev/s off vs {:.2}M ev/s on = {:+.2}%",
                sn.workload,
                sn.protocol.name(),
                sn.interval,
                sn.snapshots_written,
                sn.off_events_per_sec() / 1e6,
                sn.on_events_per_sec() / 1e6,
                sn.overhead_pct()
            );
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in KB, or 0 where
/// `/proc/self/status` is unavailable (non-Linux hosts).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Runs the bench matrix single-threaded and returns the report.
///
/// `opts` supplies scale, seed, and an optional workload filter;
/// `quick` selects the reduced matrix the CI smoke job runs.
///
/// # Errors
///
/// Returns the first cell's typed [`SimError`] — a bench with a failing
/// cell has no meaningful throughput number.
pub fn run_bench(opts: &ExpOptions, quick: bool) -> Result<BenchReport, SimError> {
    let workloads: Vec<String> = match &opts.filter {
        Some(list) => list.clone(),
        None if quick => QUICK_WORKLOADS.iter().map(|s| s.to_string()).collect(),
        None => BENCH_WORKLOADS.iter().map(|s| s.to_string()).collect(),
    };
    let protocols: &[ProtocolKind] = if quick {
        &QUICK_PROTOCOLS
    } else {
        &ProtocolKind::ALL
    };
    let mut cells = Vec::with_capacity(workloads.len() * protocols.len());
    for workload in &workloads {
        // Trace generation is untimed setup: the bench measures the DES.
        // The trace does not depend on the protocol.
        let trace = opts.plain_cell(workload, protocols[0]).trace()?;
        for &protocol in protocols {
            let cfg = opts.plain_cell(workload, protocol).config(&trace)?;
            let mut wall_s = f64::INFINITY;
            let mut first = None;
            for _ in 0..TIMED_ROUNDS {
                // audit:allow(entropy): wall-clock benchmarking only; never
                // feeds simulated state.
                let start = std::time::Instant::now();
                let (m, _) = run_isolated(cfg.clone(), &trace, None)?;
                wall_s = wall_s.min(start.elapsed().as_secs_f64());
                let fp = m.fingerprint();
                let want = first.get_or_insert(m).fingerprint();
                if fp != want {
                    return Err(SimError::protocol(format!(
                        "bench cell {workload}/{} is not deterministic: \
                         fingerprint {fp:016x} vs {want:016x}",
                        protocol.name()
                    )));
                }
            }
            let m = first.expect("every cell runs at least once");
            cells.push(BenchCell {
                workload: workload.clone(),
                protocol,
                events: m.events,
                cycles: m.total_cycles.as_u64(),
                digest: m.state_digest,
                fingerprint: m.fingerprint(),
                wall_s,
                peak_rss_kb: peak_rss_kb(),
            });
        }
    }
    let snapshot = Some(snapshot_overhead(opts, &workloads[0], protocols)?);
    Ok(BenchReport {
        quick,
        scale: opts.scale,
        seed: opts.seed,
        cells,
        snapshot,
    })
}

/// Times one representative cell back-to-back with snapshotting off
/// and on at [`crate::experiments::DEFAULT_SNAPSHOT_INTERVAL`], and
/// oracle-checks the two runs digest-identical before reporting.
fn snapshot_overhead(
    opts: &ExpOptions,
    workload: &str,
    protocols: &[ProtocolKind],
) -> Result<SnapshotBench, SimError> {
    let protocol = protocols
        .iter()
        .copied()
        .find(|&p| p == ProtocolKind::Hmg)
        .unwrap_or(protocols[0]);
    let cell = opts.plain_cell(workload, protocol);
    let trace = cell.trace()?;
    let cfg = cell.config(&trace)?;

    let interval = crate::experiments::DEFAULT_SNAPSHOT_INTERVAL;
    let dir = std::env::temp_dir().join(format!("hmg-bench-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| SimError::config(format!("cannot create snapshot dir: {e}")))?;
    let path = dir.join("overhead.snap");
    let store = hmg_sim::SnapshotStore::new(&path);
    let identity =
        crate::runner::fnv1a64(format!("bench|{workload}|{}", protocol.name()).as_bytes());
    let policy = hmg_gpu::SnapshotPolicy::periodic(&path, identity, interval);

    // Interleaved best-of-3 pairs: a single off/on pair is hostage to
    // whatever else the host runs during one of the two arms, and the
    // overhead ratio is the artifact CI and the docs quote. Taking each
    // arm's best wall time discards load spikes while the interleaving
    // keeps slow drift from biasing one side.
    let mut off_wall_s = f64::INFINITY;
    let mut on_wall_s = f64::INFINITY;
    let mut off = None;
    let mut written = 0;
    for _ in 0..TIMED_ROUNDS {
        // audit:allow(entropy): wall-clock benchmarking only; never
        // feeds simulated state.
        let start = std::time::Instant::now();
        let (m, _) = run_isolated(cfg.clone(), &trace, None)?;
        off_wall_s = off_wall_s.min(start.elapsed().as_secs_f64());

        // A stale store would turn the timed run into a (shorter)
        // resumed run; start each arm cold.
        for slot in store.slots() {
            let _ = std::fs::remove_file(&slot);
        }
        // audit:allow(entropy): wall-clock benchmarking only; never
        // feeds simulated state.
        let start = std::time::Instant::now();
        let (on, report) = run_isolated(cfg.clone(), &trace, Some(&policy))?;
        on_wall_s = on_wall_s.min(start.elapsed().as_secs_f64());
        written = report.written;

        if on.state_digest != m.state_digest || on.events != m.events {
            return Err(SimError::protocol(format!(
                "snapshot-on bench run diverged from snapshot-off: \
                 digest {:016x} vs {:016x}, events {} vs {}",
                on.state_digest, m.state_digest, on.events, m.events
            )));
        }
        off = Some(m);
    }
    for slot in store.slots() {
        let _ = std::fs::remove_file(&slot);
    }
    let off = off.expect("three timed rounds ran");
    Ok(SnapshotBench {
        workload: workload.to_string(),
        protocol,
        interval,
        snapshots_written: written,
        events: off.events,
        off_wall_s,
        on_wall_s,
    })
}

/// The value of `line` when it holds the one-per-line JSON field
/// `"name": value`, with quotes and the trailing comma stripped.
fn json_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let rest = line
        .trim()
        .strip_prefix('"')?
        .strip_prefix(name)?
        .strip_prefix("\":")?;
    Some(rest.trim().trim_end_matches(',').trim_matches('"'))
}

/// The first value of field `name` in a `BENCH_hotpath.json` document.
fn first_field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    json.lines().find_map(|l| json_field(l, name))
}

/// The last value of field `name`: the document-level aggregate of a
/// field the cells also carry.
fn last_field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    json.lines().rev().find_map(|l| json_field(l, name))
}

/// Extracts `"total_events_per_sec"` from a `BENCH_hotpath.json`
/// document (used to compare against a checked-in baseline).
pub fn parse_total_events_per_sec(json: &str) -> Option<f64> {
    first_field(json, "total_events_per_sec")?.parse().ok()
}

/// `(workload/protocol, fingerprint)` of every cell of a
/// `BENCH_hotpath.json` document, in document order.
fn cell_fingerprints(json: &str) -> Vec<(String, String)> {
    let (mut workload, mut protocol) = ("", "");
    let mut cells = Vec::new();
    for line in json.lines() {
        if let Some(v) = json_field(line, "workload") {
            workload = v;
        } else if let Some(v) = json_field(line, "protocol") {
            protocol = v;
        } else if let Some(fp) = json_field(line, "fingerprint") {
            cells.push((format!("{workload}/{protocol}"), fp.to_string()));
        }
    }
    cells
}

/// Compares `report` against the checked-in baseline at `path`: the
/// throughput must stay within [`REGRESSION_TOLERANCE`] of the
/// baseline's, and — when the baseline ran the same mode, scale and
/// seed — every cell the two share must keep its behaviour fingerprint
/// and the peak RSS must stay within [`RSS_TOLERANCE`] of the
/// baseline's. Otherwise those two checks are skipped, and the ok
/// message says so.
///
/// # Errors
///
/// Returns a description of every failure when the baseline is
/// missing/unparseable, throughput regressed, a cell's fingerprint
/// drifted (each drifted cell is named), or peak RSS grew.
pub fn regression_gate(report: &BenchReport, path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline = parse_total_events_per_sec(&text)
        .ok_or_else(|| format!("no total_events_per_sec in baseline {}", path.display()))?;
    let current = report.total_events_per_sec();
    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    let mut errors = Vec::new();
    if current < floor {
        errors.push(format!(
            "hot-path throughput regressed: {current:.0} events/s < {floor:.0} \
             (baseline {baseline:.0} - {:.0}% tolerance)",
            REGRESSION_TOLERANCE * 100.0
        ));
    }
    let json = report.to_json();
    let shape = |j: &str| ["mode", "scale", "seed"].map(|f| first_field(j, f).map(str::to_string));
    let behaviour = if shape(&text) == shape(&json) {
        let base = cell_fingerprints(&text);
        let (mut shared, mut drifted) = (0, Vec::new());
        for (cell, fp) in cell_fingerprints(&json) {
            if let Some((_, want)) = base.iter().find(|(c, _)| *c == cell) {
                shared += 1;
                if *want != fp {
                    drifted.push(format!("{cell}: {fp} != baseline {want}"));
                }
            }
        }
        if !drifted.is_empty() {
            errors.push(format!(
                "behaviour fingerprint drifted in {} cell(s):\n  {}",
                drifted.len(),
                drifted.join("\n  ")
            ));
        }
        // A baseline recorded where RSS is unavailable reads 0 and gates nothing.
        let base_kb = last_field(&text, "peak_rss_kb").map_or(Ok(0), str::parse::<u64>);
        let base_kb = base_kb.map_err(|e| format!("bad peak_rss_kb in baseline: {e}"))?;
        let kb = report.peak_rss_kb();
        let ceiling = base_kb as f64 * (1.0 + RSS_TOLERANCE);
        if base_kb > 0 && kb as f64 > ceiling {
            errors.push(format!(
                "peak RSS grew: {kb} KB > {ceiling:.0} KB \
                 (baseline {base_kb} KB + {:.0}% tolerance)",
                RSS_TOLERANCE * 100.0
            ));
        }
        format!("{shared} cell fingerprints match; peak RSS {kb} KB vs baseline {base_kb} KB")
    } else {
        "fingerprint check skipped and peak RSS unchecked: the baseline's mode, scale or seed \
         differs"
            .to_string()
    };
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    Ok(format!(
        "bench gate ok: {current:.0} events/s vs baseline {baseline:.0} \
         ({:+.1}%); {behaviour}",
        (current / baseline - 1.0) * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_quick_report() -> BenchReport {
        let opts = ExpOptions {
            scale: Scale::Tiny,
            seed: 17,
            filter: Some(vec!["bfs".into()]),
            ..ExpOptions::default()
        };
        run_bench(&opts, true).expect("bench runs clean")
    }

    #[test]
    fn bench_reports_positive_throughput_and_digests() {
        let r = tiny_quick_report();
        assert_eq!(r.cells.len(), QUICK_PROTOCOLS.len());
        for c in &r.cells {
            assert!(c.events > 0, "{}/{}", c.workload, c.protocol.name());
            assert!(c.cycles > 0);
            assert!(c.wall_s > 0.0);
            assert!(c.events_per_sec() > 0.0);
        }
        // Digest is protocol-independent — the oracle the rewrite is
        // validated against must agree across every config.
        let d0 = r.cells[0].digest;
        assert!(r.cells.iter().all(|c| c.digest == d0));
        assert!(r.total_events_per_sec() > 0.0);
    }

    #[test]
    fn json_is_schema_versioned_and_round_trips_the_gate_number() {
        let r = tiny_quick_report();
        let json = r.to_json();
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        assert!(json.contains("\"mode\": \"quick\""));
        let parsed = parse_total_events_per_sec(&json).expect("gate number present");
        assert!((parsed - r.total_events_per_sec()).abs() <= 1.0);
    }

    #[test]
    fn stable_fields_are_deterministic_across_reruns() {
        let (a, b) = (tiny_quick_report(), tiny_quick_report());
        let strip = |j: &str| -> String {
            j.lines()
                .filter(|l| {
                    let t = l.trim();
                    !(t.starts_with("\"wall_s\"")
                        || t.starts_with("\"events_per_sec\"")
                        || t.starts_with("\"cycles_per_sec\"")
                        || t.starts_with("\"peak_rss_kb\"")
                        || t.starts_with("\"total_wall_s\"")
                        || t.starts_with("\"total_events_per_sec\"")
                        || t.starts_with("\"off_wall_s\"")
                        || t.starts_with("\"on_wall_s\"")
                        || t.starts_with("\"off_events_per_sec\"")
                        || t.starts_with("\"on_events_per_sec\"")
                        || t.starts_with("\"overhead_pct\""))
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&a.to_json()), strip(&b.to_json()));
    }

    #[test]
    fn regression_gate_passes_and_fails_correctly() {
        let r = tiny_quick_report();
        let dir = std::env::temp_dir().join("hmg-bench-gate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");

        // Baseline == current run: the gate passes.
        std::fs::write(&path, r.to_json()).unwrap();
        regression_gate(&r, &path).expect("identical baseline passes");

        // Same shape, but the run peaks over 10% above the baseline's RSS.
        let with_rss = |kb: u64| {
            let mut r = r.clone();
            r.cells.iter_mut().for_each(|c| c.peak_rss_kb = kb);
            r
        };
        std::fs::write(&path, with_rss(40_000).to_json()).unwrap();
        let ok = regression_gate(&with_rss(44_000), &path).expect("+10% RSS passes");
        assert!(
            ok.contains("peak RSS 44000 KB vs baseline 40000 KB"),
            "{ok}"
        );
        let err = regression_gate(&with_rss(44_001), &path).expect_err("RSS growth fails");
        assert!(err.contains("peak RSS grew"), "{err}");

        // Baseline far above current: the gate fails.
        let inflated = format!(
            "{{\n  \"total_events_per_sec\": {:.0}\n}}\n",
            r.total_events_per_sec() * 10.0
        );
        std::fs::write(&path, inflated).unwrap();
        let err = regression_gate(&r, &path).expect_err("10x baseline fails");
        assert!(err.contains("regressed"), "{err}");

        // Missing baseline: a loud error, not a silent pass.
        assert!(regression_gate(&r, &dir.join("nope.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn regression_gate_names_drifted_fingerprints_of_the_same_seed_only() {
        let r = tiny_quick_report();
        let dir = std::env::temp_dir().join("hmg-bench-gate-drift");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let fp = r.cells[0].fingerprint;
        let drifted = r
            .to_json()
            .replacen(&format!("{fp:016x}"), &format!("{:016x}", !fp), 1);
        std::fs::write(&path, &drifted).unwrap();
        let err = regression_gate(&r, &path).expect_err("a drifted cell fails");
        let cell = format!("{}/{}", r.cells[0].workload, r.cells[0].protocol.name());
        assert!(
            err.contains("drifted in 1 cell(s)") && err.contains(&cell),
            "{err}"
        );

        // Another seed's fingerprints are not comparable: skipped, and said so.
        let seed = |s: u64| format!("\"seed\": {s},");
        std::fs::write(&path, drifted.replacen(&seed(r.seed), &seed(r.seed + 1), 1)).unwrap();
        let ok = regression_gate(&r, &path).expect("seed mismatch skips fingerprints");
        assert!(
            ok.contains("fingerprint check skipped") && ok.contains("peak RSS unchecked"),
            "{ok}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
