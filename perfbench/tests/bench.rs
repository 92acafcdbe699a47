//! The benchmark's own tests, at tiny scale.

use std::path::PathBuf;

use hmg::workloads::Scale;
use hmg_perfbench::cell::{check_pass, run_pass};
use hmg_perfbench::report::Report;
use hmg_perfbench::spans::Tracer;
use hmg_perfbench::workload::{Setup, Workload};
use hmg_perfbench::{run, Options};

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn tiny(workload: Workload, trace: bool, test: &str) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: out_dir(test),
    };
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    // The entries are flat objects, so the first `]` closes the list.
    body[..body.find(']').expect("closed list")]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed name")].to_string())
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn tiny_runs_print_every_listed_metric_and_pass_their_checks() {
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for w in Workload::ALL {
        let r = tiny(w, false, "every-metric");
        assert_eq!(names(&r), end_to_end, "{}", w.name());
        assert!(
            r.correct && r.failed == 0 && r.attempted == 4,
            "{}: {r:?}",
            w.name()
        );
        assert!(
            r.metrics.iter().all(|m| m.value > 0.0),
            "{}: a zero metric",
            w.name()
        );
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));

        let t = tiny(w, true, "every-metric");
        assert_eq!(names(&t), per_layer, "{}", w.name());
        assert!(t.correct, "{}: {t:?}", w.name());
    }
}

#[test]
fn simulated_fields_repeat_exactly_for_a_seed() {
    let exact = ["sim_cycles", "hmg_speedup", "hmg_of_ideal", "pass_share"];
    let a = tiny(Workload::SolverSync, false, "repeat-a");
    let b = tiny(Workload::SolverSync, false, "repeat-b");
    for name in exact {
        assert_eq!(a.get(name), b.get(name), "{name}");
    }
    let counts = [
        "gpu.events",
        "mem.l1_hits",
        "mem.directory.invs",
        "interconnect.inter_bytes",
    ];
    let a = tiny(Workload::ResilientBfs, true, "repeat-a");
    let b = tiny(Workload::ResilientBfs, true, "repeat-b");
    for name in counts
        .into_iter()
        .chain(["sim.snap.count", "sim.integrity.scrubbed"])
    {
        assert_eq!(a.get(name), b.get(name), "{name}");
    }
}

#[test]
fn a_seeded_digest_mismatch_fails_its_cell() {
    let setup =
        Setup::new(Workload::GraphBfs, Scale::Tiny, 7, &mut Tracer::new(false)).expect("set-up");
    let dir = out_dir("mismatch");
    let mut cells = run_pass(&setup, &dir, &mut Tracer::new(false));
    assert!(check_pass(&cells, None, None).iter().all(Option::is_none));

    let good = cells[2].metrics().expect("hmg completed").state_digest;
    if let Ok(m) = &mut cells[2].result {
        m.state_digest ^= 1;
    }
    let failures = check_pass(&cells, None, None);
    let failed: Vec<usize> = (0..4).filter(|&i| failures[i].is_some()).collect();
    assert_eq!(failed, vec![2], "{failures:?}");
    assert!(failures[2].as_ref().unwrap().contains("state digest"));

    // Against an external reference (resilient-bfs checks the fault-free
    // digest), every cell that disagrees with it fails.
    let all = check_pass(&cells, Some(good ^ 2), None);
    assert!(all.iter().all(Option::is_some));
}
