//! Whole-stack determinism: identical seeds must reproduce identical
//! simulations bit-for-bit, across every protocol — the property that
//! makes every figure in EXPERIMENTS.md reproducible.

use hmg::experiments::{fig8, run_cell, CellCtx, ExpOptions};
use hmg::prelude::*;
use hmg::workloads::suite::by_abbrev;

/// The untweaked, fault-free tiny-scale experiment cell for `workload`
/// under `p` at `seed`.
fn cell(workload: &str, p: ProtocolKind, seed: u64) -> CellCtx {
    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed,
        ..ExpOptions::default()
    };
    opts.plain_cell(workload, p)
}

fn run(workload: &str, p: ProtocolKind, seed: u64) -> RunMetrics {
    run_cell(&cell(workload, p, seed)).expect("clean cell")
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let spec = by_abbrev("bfs").expect("bfs in suite");
    let t1 = spec.generate(Scale::Tiny, 99);
    let t2 = spec.generate(Scale::Tiny, 99);
    assert_eq!(t1, t2, "trace generation must be deterministic");
    for p in ProtocolKind::ALL {
        let a = run("bfs", p, 99);
        let b = run("bfs", p, 99);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{p}");
    }
}

#[test]
fn state_digest_is_seed_stable_across_protocols() {
    // Guards the ordered-map conversions in sim state (engine MSHRs,
    // carve/flag/touch maps, fabric sequence numbers, page homes): a
    // same-seed re-run must reproduce the committed-memory digest and
    // the per-row directory-transition coverage bit for bit, and no
    // executed transition may contradict the static Table I.
    for p in ProtocolKind::ALL {
        let a = run("CoMD", p, 23);
        let b = run("CoMD", p, 23);
        assert_eq!(a.state_digest, b.state_digest, "{p}: memory state");
        assert_eq!(a.table, b.table, "{p}: transition coverage");
        assert_eq!(a.table.mismatches, 0, "{p}: table conformance");
    }
}

#[test]
fn different_seeds_differ() {
    let spec = by_abbrev("bfs").expect("bfs in suite");
    let t1 = spec.generate(Scale::Tiny, 1);
    let t2 = spec.generate(Scale::Tiny, 2);
    assert_ne!(t1, t2, "different seeds must change the trace");
}

#[test]
fn every_workload_is_deterministic_under_hmg() {
    for spec in hmg::workloads::suite::table3() {
        let a = run(spec.abbrev, ProtocolKind::Hmg, 5);
        let b = run(spec.abbrev, ProtocolKind::Hmg, 5);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{} must be deterministic",
            spec.abbrev
        );
    }
}

#[test]
fn identical_fault_plans_reproduce_identical_runs() {
    // The probabilistic faults (delay, duplication) draw from a fault
    // RNG seeded by the plan, in deterministic event order: the same
    // seed and plan must reproduce the run bit-for-bit.
    let plan =
        FaultPlan::parse("delay=0.35/140,dup=0.35,flag-delay=60,degrade=500..40000/2.5,seed=77")
            .expect("valid plan");
    for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc] {
        let faulty = CellCtx {
            faults: Some(plan.clone()),
            ..cell("bfs", p, 17)
        };
        let run = || run_cell(&faulty).expect("faulty-but-tolerated run completes");
        let a = run();
        let b = run();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{p}: same seed + same plan"
        );
    }
}

#[test]
fn fault_seed_changes_faulty_timings() {
    // CoMD's tiny trace forwards plenty of stores across GPMs, so the
    // delay fault has messages to pick from.
    let run = |seed: u64| {
        let faulty = CellCtx {
            faults: Some(FaultPlan::parse(&format!("delay=0.5/400,seed={seed}")).unwrap()),
            ..cell("CoMD", ProtocolKind::Hmg, 17)
        };
        run_cell(&faulty).unwrap()
    };
    // Different fault seeds pick different messages to delay; at 50%
    // probability with a large penalty the total time must move.
    assert_ne!(
        run(1).total_cycles,
        run(2).total_cycles,
        "fault RNG must be driven by the plan seed"
    );
}

#[test]
fn soft_error_sweeps_are_seed_stable() {
    // Corruption injection (flip-msg / flip-line / flip-dir) draws from
    // the same salted fault-RNG streams as the other probabilistic
    // faults: a same-seed re-run must reproduce the run — including
    // every IntegrityStats counter and the committed-memory digest —
    // bit for bit. And with double-bit faults disabled every flip is
    // correctable in place, so the digest must also equal the
    // fault-free run's: recovery leaves no trace in memory state.
    let plan = FaultPlan::parse("flip-msg=0.05,flip-line=0.6,flip-dir=0.6,seed=21").expect("plan");
    for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc] {
        let run = |faults: Option<FaultPlan>| {
            let c = CellCtx {
                faults,
                tweak: "double-bit=0".into(),
                ..cell("CoMD", p, 17)
            };
            run_cell(&c).expect("corruption is recovered, not fatal")
        };
        let clean = run(None);
        let a = run(Some(plan.clone()));
        let b = run(Some(plan.clone()));
        assert_eq!(a.fingerprint(), b.fingerprint(), "{p}: same seed + plan");
        assert_eq!(a.integrity, b.integrity, "{p}: integrity counters");
        assert_eq!(a.state_digest, b.state_digest, "{p}: memory state");
        assert!(a.integrity.flips() > 0, "{p}: the plan must inject");
        assert_eq!(a.integrity.silent_corruptions, 0, "{p}: nothing silent");
        assert_eq!(
            a.state_digest, clean.state_digest,
            "{p}: correctable-only recovery must not perturb memory"
        );
    }
}

#[test]
fn keep_going_sweeps_are_deterministic() {
    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed: 4,
        filter: Some(vec!["CoMD".into(), "bfs".into()]),
        faults: Some(FaultPlan::parse("delay=0.2/90,dup=0.2,seed=5").unwrap()),
        keep_going: true,
        ..ExpOptions::default()
    };
    let a = fig8(&opts).expect("keep-going sweep yields a partial report");
    let b = fig8(&opts).expect("keep-going sweep yields a partial report");
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.workloads, b.workloads);
    assert_eq!(a.failures.len(), b.failures.len());
}

#[test]
fn experiment_drivers_are_deterministic() {
    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed: 3,
        filter: Some(vec!["CoMD".into(), "bfs".into()]),
        ..ExpOptions::default()
    };
    let a = fig8(&opts).expect("fig8");
    let b = fig8(&opts).expect("fig8");
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.geomeans, b.geomeans);
}

#[test]
fn gpm_offline_reconfiguration_is_deterministic() {
    // A permanent mid-run GPM loss triggers the full reconfiguration
    // path — CTA aborts, page re-homing, directory rebuild, conservative
    // scrub. All of it must be a pure function of (trace, plan): two
    // runs agree on the final memory digest and on every ReconfigStats
    // counter, bit for bit.
    for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc] {
        let faulty = CellCtx {
            faults: Some(FaultPlan::parse("gpm-offline=1.1@1000").expect("valid plan")),
            ..cell("CoMD", p, 17)
        };
        let run = || run_cell(&faulty).expect("the survivors complete the run");
        let a = run();
        let b = run();
        assert_eq!(a.fingerprint(), b.fingerprint(), "{p}");
        assert_eq!(a.state_digest, b.state_digest, "{p}: memory state");
        assert_eq!(a.reconfig, b.reconfig, "{p}: reconfiguration counters");
        assert_eq!(a.reconfig.epochs, 1, "{p}: the fault must activate");
    }
}

#[test]
fn faulty_sweeps_resume_deterministically_from_a_checkpoint() {
    // `--faults gpm-offline=... --checkpoint F` then `--resume`: the
    // resumed sweep reuses completed cells and must reproduce the fresh
    // sweep's numbers exactly.
    let ckpt = std::env::temp_dir().join(format!("hmg-fip-ckpt-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let mk = |checkpoint: Option<std::path::PathBuf>, resume: bool| ExpOptions {
        scale: Scale::Tiny,
        seed: 4,
        filter: Some(vec!["CoMD".into(), "bfs".into()]),
        faults: Some(FaultPlan::parse("gpm-offline=0.1@1000").unwrap()),
        checkpoint,
        resume,
        ..ExpOptions::default()
    };
    let fresh = fig8(&mk(None, false)).expect("fresh sweep");
    let first = fig8(&mk(Some(ckpt.clone()), false)).expect("checkpointed sweep");
    let resumed = fig8(&mk(Some(ckpt.clone()), true)).expect("resumed sweep");
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!(fresh.rows, first.rows);
    assert_eq!(first.rows, resumed.rows, "resume must not change results");
    assert_eq!(first.geomeans, resumed.geomeans);
}

/// Golden [`RunMetrics::fingerprint`] for one tiny cell per recovery
/// path: fail-in-place reconfiguration, soft-error repair (line and
/// directory flips under each ECC mode) and message-fault recovery.
/// `fig8_cells_match_fingerprint_goldens` pins only fault-free cells,
/// so without these a change that moved a fault run's timing would go
/// unnoticed. Each cell also names the `[fail-in-place]` or
/// `[integrity]` counters that must read nonzero, which shows it
/// reaches its recovery branch.
#[test]
fn recovery_cells_match_fingerprint_goldens() {
    // workload protocol fault-plan tweak(- for none) golden counters...
    // The second cell's loads merged behind fills at the dead GPM
    // re-issue from the MSHR drain.
    const CELLS: &str = "
        overfeat nhcc gpu-offline=0@300 - 5d6bf62efb83a91e reconfig.drained_txns
        CoMD hmg gpm-offline=1.1@1000 - ad953acc9f268d50 reconfig.drained_txns
        overfeat hmg gpu-offline=0@2500 - a63604c7dde856df reconfig.rehomed_blocks reconfig.scrubbed_lines
        cuSolver hmg gpm-offline=0.1@1000 - 314afbb8e0d7c76f reconfig.aborted_ctas
        cuSolver hmg link-down=0-1@500 - 411abef850c462df reconfig.reconfig_epochs
        cuSolver nhcc flip-line=0.5,flip-dir=0.5,seed=3 - fba34567cac302e6 integrity.corrected integrity.rebuilt_dir_entries
        cuSolver hmg flip-line=0.5,flip-dir=0.5,seed=3 ecc=parity da537df9114389e8 integrity.refetched_lines
        cuSolver hmg flip-line=0.9,seed=3 write-policy=wb+double-bit=1 0a00c52b3144246e integrity.poisoned integrity.aborted_ctas
        bfs hmg drop=0.05,flip-msg=0.02,seed=5 - c884941a77ddcbed integrity.checksum_retransmits
        cuSolver hmg delay=0.3/120,dup=0.3,reorder-inv=3/500,flag-delay=200,seed=13 - ace84e015902d82e
        cuSolver nhcc flip-line=0.5,flip-dir=0.5,seed=3 ecc=off d20b9b204daaf380 integrity.silent_corruptions";
    let mut drifted = Vec::new();
    for row in CELLS.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = row.split_whitespace().collect();
        let p = ProtocolKind::from_name(f[1]).expect("protocol name");
        let tweak = if f[3] == "-" { "" } else { f[3] };
        let c = CellCtx {
            faults: Some(FaultPlan::parse(f[2]).expect("valid plan")),
            tweak: tweak.into(),
            ..cell(f[0], p, 4)
        };
        let what = format!("{}/{p} [{}] [{tweak}]", f[0], f[2]);
        let m = run_cell(&c).unwrap_or_else(|e| panic!("{what}: {e}"));
        let (reconfig, integrity) = (m.reconfig.to_string(), m.integrity.to_string());
        for counter in &f[5..] {
            let (stats, name) = match counter.split_once('.') {
                Some(("reconfig", name)) => (&reconfig, name),
                Some(("integrity", name)) => (&integrity, name),
                _ => panic!("bad counter {counter}"),
            };
            let value = stats
                .split(' ')
                .find_map(|kv| kv.strip_prefix(&format!("{name}=")));
            assert!(
                value.is_some_and(|v| v != "0"),
                "{what}: {counter} is {value:?}"
            );
        }
        let got = m.fingerprint();
        let golden = u64::from_str_radix(f[4], 16).expect("hex golden");
        if got != golden {
            drifted.push(format!("{what}: {got:#018x} != golden {golden:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "behaviour fingerprint drifted:\n{}",
        drifted.join("\n")
    );
}
