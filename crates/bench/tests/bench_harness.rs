//! Smoke tests for `experiments bench` against the real binary: the
//! quick matrix must complete, write a schema-versioned
//! `BENCH_hotpath.json`, report positive throughput, and reproduce
//! byte-identical stable fields on a same-seed rerun (only the timing
//! fields may differ between runs).

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hmg-bench-smoke-{}-{name}", std::process::id()))
}

/// Runs `bench --quick` at tiny scale, writing the report to `out`.
fn quick_bench(out: &PathBuf) -> Output {
    Command::new(BIN)
        .args([
            "bench", "--quick", "--scale", "tiny", "--seed", "9", "--out",
        ])
        .arg(out)
        .output()
        .expect("experiments binary runs")
}

/// The wall-clock-dependent report fields; everything else in the JSON
/// must be bit-for-bit reproducible across same-seed reruns.
const TIMING_FIELDS: &[&str] = &[
    "\"wall_s\"",
    "\"events_per_sec\"",
    "\"cycles_per_sec\"",
    "\"peak_rss_kb\"",
    "\"total_wall_s\"",
    "\"total_events_per_sec\"",
    "\"off_wall_s\"",
    "\"on_wall_s\"",
    "\"off_events_per_sec\"",
    "\"on_events_per_sec\"",
    "\"overhead_pct\"",
];

/// Strips the timing lines, keeping only the deterministic fields.
fn stable_lines(json: &str) -> Vec<String> {
    json.lines()
        .filter(|l| {
            let key = l.trim_start();
            !TIMING_FIELDS.iter().any(|f| key.starts_with(f))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn quick_bench_writes_a_schema_versioned_report() {
    let out = tmp("schema.json");
    let run = quick_bench(&out);
    assert!(
        run.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let json = std::fs::read_to_string(&out).expect("report written");
    std::fs::remove_file(&out).ok();

    // Schema-versioned, and every per-cell field present.
    assert!(
        json.contains("\"schema\": \"hmg-bench-hotpath-v1\""),
        "{json}"
    );
    for field in [
        "\"workload\"",
        "\"protocol\"",
        "\"events\"",
        "\"cycles\"",
        "\"digest\"",
        "\"fingerprint\"",
        "\"wall_s\"",
        "\"events_per_sec\"",
        "\"total_events_per_sec\"",
        "\"peak_rss_kb\"",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }

    // Throughput must be a positive number — scraped the same way the
    // regression gate scrapes a checked-in baseline.
    let eps = hmg::bench::parse_total_events_per_sec(&json)
        .expect("total_events_per_sec parses back out of the report");
    assert!(eps > 0.0, "non-positive throughput: {eps}");

    // The quick matrix: 2 workloads x 4 protocols, plus the snapshot
    // overhead block's own workload field.
    assert_eq!(json.matches("\"workload\"").count(), 9, "{json}");
    // The console summary advertises where the report went.
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
}

#[test]
fn same_seed_reruns_are_identical_modulo_timing() {
    let out_a = tmp("rerun-a.json");
    let out_b = tmp("rerun-b.json");
    assert!(quick_bench(&out_a).status.success());
    assert!(quick_bench(&out_b).status.success());

    let a = std::fs::read_to_string(&out_a).expect("first report");
    let b = std::fs::read_to_string(&out_b).expect("second report");
    std::fs::remove_file(&out_a).ok();
    std::fs::remove_file(&out_b).ok();

    // Events, cycles, digests and fingerprints are simulation outputs
    // and must not wobble run-to-run; only wall-clock-derived lines may
    // differ.
    assert_eq!(
        stable_lines(&a),
        stable_lines(&b),
        "stable report fields changed across same-seed reruns"
    );
}

#[test]
fn baseline_gate_accepts_own_report_and_rejects_fast_baselines() {
    let out = tmp("gate.json");
    assert!(quick_bench(&out).status.success());

    // A report gated against itself always passes (0% regression). The
    // report is written before the gate reads the baseline, so pointing
    // `--baseline` at the run's own `--out` compares the run with
    // itself; gating against a separate earlier run would compare two
    // wall-clock measurements and fail whenever the host is loaded.
    let own = tmp("gate-own.json");
    let same = Command::new(BIN)
        .args([
            "bench", "--quick", "--scale", "tiny", "--seed", "9", "--out",
        ])
        .arg(&own)
        .arg("--baseline")
        .arg(&own)
        .output()
        .expect("experiments binary runs");
    assert!(
        same.status.success(),
        "self-baseline gate failed: {}",
        String::from_utf8_lossy(&same.stderr)
    );
    let msg = String::from_utf8_lossy(&same.stdout);
    assert!(
        msg.contains("bench gate ok") && msg.contains("0.0%)"),
        "{msg}"
    );
    std::fs::remove_file(&own).ok();

    // An impossibly fast baseline must trip the regression gate.
    let fast = tmp("gate-fast.json");
    std::fs::write(&fast, "{\n  \"total_events_per_sec\": 1e15\n}\n").unwrap();
    let tripped = Command::new(BIN)
        .args([
            "bench", "--quick", "--scale", "tiny", "--seed", "9", "--out",
        ])
        .arg(tmp("gate-tripped.json"))
        .arg("--baseline")
        .arg(&fast)
        .output()
        .expect("experiments binary runs");
    assert!(
        !tripped.status.success(),
        "gate accepted a 1e15 events/sec baseline"
    );
    let err = String::from_utf8_lossy(&tripped.stderr);
    assert!(err.contains("regressed"), "{err}");

    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&fast).ok();
    std::fs::remove_file(tmp("gate-tripped.json")).ok();
}
