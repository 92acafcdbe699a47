//! End-to-end supervisor tests against the real `experiments` binary:
//! crash isolation, timeout-kill, quarantine, exit-code semantics, and
//! `--resume` equality of every cell's full metrics.
//!
//! The crashing and hanging cells are injected with the documented env
//! knobs (`HMG_CELL_CRASH` / `HMG_CELL_HANG`), scoped to each spawned
//! child so concurrently running tests never see them.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hmg-supervisor-{}-{name}", std::process::id()))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The checksummed `ok` rows of a checkpoint file, order-insensitive.
/// Each row embeds the cell key and the cell's full `RunMetrics`, so
/// set equality *is* result equality.
fn ok_rows(path: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(path)
        .expect("checkpoint file readable")
        .lines()
        .filter(|l| l.contains("\tok\t"))
        .map(str::to_string)
        .collect()
}

/// A two-workload fig8 sweep (12 cells) under full process isolation.
fn sweep(ckpt: &Path, resume: bool, knobs: bool) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "fig8",
        "--scale",
        "tiny",
        "--seed",
        "4",
        "--workloads",
        "bfs,lstm",
        "--keep-going",
        "--jobs",
        "4",
        "--retries",
        "1",
        "--cell-timeout",
        "5",
        "--checkpoint",
    ])
    .arg(ckpt);
    if resume {
        cmd.arg("--resume");
    }
    if knobs {
        // lstm/hmg crashes on every attempt; bfs/ideal hangs until the
        // supervisor's timeout kills it.
        cmd.env("HMG_CELL_CRASH", "lstm/hmg");
        cmd.env("HMG_CELL_HANG", "bfs/ideal");
    } else {
        cmd.env_remove("HMG_CELL_CRASH");
        cmd.env_remove("HMG_CELL_HANG");
    }
    cmd.output().expect("experiments binary runs")
}

/// ISSUE acceptance criterion: a sweep containing one crashing cell and
/// one hung cell completes on all remaining cells and reports both;
/// `--resume` re-runs only the two bad cells and reproduces
/// `state_digest`-identical results for the rest.
#[test]
fn crashed_and_hung_cells_are_reported_then_resume_heals() {
    let ckpt = tmp("accept.ckpt");
    let fresh = tmp("accept-fresh.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&fresh);

    // Faulty sweep: 10 of 12 cells complete, the bad two are retried,
    // quarantined, and named in the failure table; --keep-going keeps
    // the exit code green.
    let faulty = sweep(&ckpt, false, true);
    let (out, err) = (stdout(&faulty), stderr(&faulty));
    assert!(
        faulty.status.success(),
        "--keep-going must exit 0:\n{out}\n{err}"
    );
    assert!(
        out.contains("crashed=1") && out.contains("timeout=1") && out.contains("quarantined=2"),
        "summary must count the crash and the timeout:\n{out}"
    );
    assert!(
        out.contains("cell crashed:"),
        "failure table must name the crashed cell:\n{out}"
    );
    assert!(
        out.contains("cell timed out:"),
        "failure table must name the hung cell:\n{out}"
    );
    assert_eq!(ok_rows(&ckpt).len(), 10, "the other 10 cells completed");

    // Resume without the knobs: only the two bad cells re-run.
    let healed = sweep(&ckpt, true, false);
    let out = stdout(&healed);
    assert!(healed.status.success(), "healed resume exits 0:\n{out}");
    assert!(
        out.contains("reused=10"),
        "resume must reuse the 10 completed cells:\n{out}"
    );
    assert!(
        out.contains("crashed=0") && out.contains("timeout=0"),
        "no failures remain after the knobs are lifted:\n{out}"
    );

    // An uninterrupted sweep must produce the identical checkpoint
    // rows: same keys, same cycles, same state digests.
    let uninterrupted = sweep(&fresh, false, false);
    assert!(uninterrupted.status.success());
    assert_eq!(
        ok_rows(&ckpt),
        ok_rows(&fresh),
        "resumed results must be state_digest-identical to an uninterrupted run"
    );

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&fresh);
}

/// A corruption sweep (soft-error flip faults armed through the same
/// `--faults` plumbing, serialized to worker processes via `to_spec`)
/// behaves like any other faulty sweep: a crash-interrupted run resumes
/// to checkpoint rows identical to an uninterrupted one, and no cell
/// reports silent corruption.
#[test]
fn corruption_sweeps_resume_digest_identical() {
    let flips = "flip-msg=0.02,flip-line=0.4,flip-dir=0.4,seed=9";
    let run = |ckpt: &Path, resume: bool, crash: bool| {
        let mut cmd = Command::new(BIN);
        cmd.args([
            "fig8",
            "--scale",
            "tiny",
            "--seed",
            "4",
            "--workloads",
            "bfs,lstm",
            "--keep-going",
            "--jobs",
            "4",
            "--faults",
            flips,
            "--checkpoint",
        ])
        .arg(ckpt);
        if resume {
            cmd.arg("--resume");
        }
        if crash {
            cmd.env("HMG_CELL_CRASH", "lstm/hmg");
        } else {
            cmd.env_remove("HMG_CELL_CRASH");
        }
        cmd.env_remove("HMG_CELL_HANG");
        cmd.output().expect("experiments binary runs")
    };

    let ckpt = tmp("flips.ckpt");
    let fresh = tmp("flips-fresh.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&fresh);

    let interrupted = run(&ckpt, false, true);
    let out = stdout(&interrupted);
    assert!(interrupted.status.success(), "--keep-going exits 0:\n{out}");
    assert_eq!(ok_rows(&ckpt).len(), 11, "11 of 12 cells completed");

    let healed = run(&ckpt, true, false);
    let out = stdout(&healed);
    assert!(healed.status.success(), "healed resume exits 0:\n{out}");
    assert!(
        out.contains("reused=11"),
        "resume must reuse the completed cells:\n{out}"
    );

    let uninterrupted = run(&fresh, false, false);
    let out = stdout(&uninterrupted);
    assert!(uninterrupted.status.success(), "{out}");
    assert_eq!(
        ok_rows(&ckpt),
        ok_rows(&fresh),
        "resumed corruption sweep must match an uninterrupted one"
    );
    assert!(
        !out.contains("silently"),
        "no cell may report silent corruption:\n{out}"
    );

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&fresh);
}

/// A hard failure without `--keep-going` fails the run. Under `all` it
/// also keeps the previous `BENCH_sweep.json`: the failed sweeps'
/// tallies never come back, so the run's own tally would undercount.
#[test]
fn hard_failure_without_keep_going_exits_nonzero() {
    let dir = tmp("all-cwd");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("BENCH_sweep.json"), "full run").expect("seed record");
    let out = Command::new(BIN)
        .args(["all", "--scale", "tiny", "--seed", "4"])
        .args(["--workloads", "bfs", "--jobs", "2", "--retries", "0"])
        .current_dir(&dir)
        .env("HMG_CELL_CRASH", "bfs/hmg")
        .env_remove("HMG_CELL_HANG")
        .output()
        .expect("experiments binary runs");
    let err = stderr(&out);
    assert!(
        !out.status.success(),
        "a quarantined cell without --keep-going must fail the run"
    );
    assert!(
        err.contains("[sweep failed]"),
        "the hard failure is reported:\n{err}"
    );
    assert!(err.contains("[kept BENCH_sweep.json] a figure"), "{err}");
    let kept = std::fs::read_to_string(dir.join("BENCH_sweep.json"));
    assert_eq!(kept.expect("record kept"), "full run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thread_isolation_shares_the_cli_surface() {
    let out = Command::new(BIN)
        .args([
            "fig8",
            "--scale",
            "tiny",
            "--seed",
            "4",
            "--workloads",
            "lstm",
            "--isolation",
            "thread",
            "--jobs",
            "2",
        ])
        .env_remove("HMG_CELL_CRASH")
        .env_remove("HMG_CELL_HANG")
        .output()
        .expect("experiments binary runs");
    let text = stdout(&out);
    assert!(out.status.success(), "{text}\n{}", stderr(&out));
    assert!(
        text.contains("[sweep]") && text.contains("jobs=2"),
        "the supervisor summary reports the in-process pool:\n{text}"
    );
}

/// The hidden worker mode runs one cell and reports the outcome marker
/// (success on stdout; parse errors with the dedicated fault exit).
#[test]
fn run_cell_mode_emits_the_outcome_marker() {
    let out = Command::new(BIN)
        .args([
            "__run-cell",
            "--key",
            "smoke/hmg",
            "--workload",
            "bfs",
            "--protocol",
            "hmg",
            "--scale",
            "tiny",
            "--seed",
            "4",
        ])
        .env_remove("HMG_CELL_CRASH")
        .env_remove("HMG_CELL_HANG")
        .output()
        .expect("experiments binary runs");
    let text = stdout(&out);
    assert!(out.status.success(), "{text}\n{}", stderr(&out));
    assert!(
        text.lines()
            .last()
            .unwrap_or("")
            .starts_with("__hmg_cell_v2 ok "),
        "the cell marker is the last stdout line:\n{text}"
    );

    let bad = Command::new(BIN)
        .args(["__run-cell", "--workload", "no-such-workload"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(
        bad.status.code(),
        Some(2),
        "a faulted cell exits with CELL_FAULT_EXIT"
    );
    assert!(
        stdout(&bad).contains("__hmg_cell_v2 err"),
        "the error marker is reported:\n{}",
        stdout(&bad)
    );
}

/// The drivers that read more than cycles (Fig. 3, Figs. 9–11, the
/// characterization) run on the same executor as the speedup sweeps:
/// a workload that deadlocks under a dropped store becomes a row of
/// the failure table with `--keep-going`, and a typed `[sweep failed]`
/// error without it. Neither path may unwind the process with a panic.
#[test]
fn in_process_drivers_report_deadlocks_instead_of_panicking() {
    for driver in ["fig3", "fig9-11", "characterize"] {
        let run = |keep_going: bool| {
            let mut cmd = Command::new(BIN);
            cmd.args([
                driver,
                "--scale",
                "tiny",
                "--seed",
                "4",
                "--workloads",
                "cuSolver,bfs",
                "--faults",
                "drop-store=1",
            ]);
            if keep_going {
                cmd.arg("--keep-going");
            }
            cmd.env_remove("HMG_CELL_CRASH")
                .env_remove("HMG_CELL_HANG")
                .output()
                .expect("experiments binary runs")
        };

        let kept = run(true);
        let (out, err) = (stdout(&kept), stderr(&kept));
        assert!(
            kept.status.success(),
            "{driver} --keep-going must exit 0:\n{out}\n{err}"
        );
        assert!(
            out.contains("failed run(s); partial result") && out.contains("deadlocked"),
            "{driver} must print the failure table with the deadlock:\n{out}"
        );
        assert!(!err.contains("panicked"), "{driver} panicked:\n{err}");

        let failed = run(false);
        let err = stderr(&failed);
        assert_eq!(
            failed.status.code(),
            Some(1),
            "{driver} without --keep-going must fail the run:\n{err}"
        );
        assert!(
            err.contains("[sweep failed]") && err.contains("deadlocked"),
            "{driver} reports the typed failure:\n{err}"
        );
        assert!(
            !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
            "{driver} must not unwind:\n{err}"
        );
    }
}

/// Runs `experiments <driver>` on a tiny two-workload sweep that keeps
/// going past a crash without retrying it, with `HMG_CELL_CRASH` set to
/// `crash` (or unset).
fn tiny_sweep(driver: &str, extra: &[&str], crash: Option<&str>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args([driver, "--scale", "tiny", "--seed", "4"])
        .args(["--workloads", "bfs,CoMD", "--jobs", "2", "--keep-going"])
        .args(["--retries", "0"])
        .args(extra)
        .env_remove("HMG_CELL_HANG");
    match crash {
        Some(pat) => cmd.env("HMG_CELL_CRASH", pat),
        None => cmd.env_remove("HMG_CELL_CRASH"),
    };
    cmd.output().expect("experiments binary runs")
}

/// Stdout without the `[sweep]` summary lines, which carry wall time
/// and reuse counts.
fn tables(out: &Output) -> String {
    let text = stdout(out);
    let kept: Vec<&str> = text.lines().filter(|l| !l.starts_with("[sweep]")).collect();
    kept.join("\n")
}

/// Every engine-running driver executes its cells through the one
/// executor: under process isolation (the CLI default) an injected
/// crash kills a child process, and never unwinds a panic in the
/// sweep's own process.
#[test]
fn figure_driver_cells_run_in_child_processes() {
    for (driver, cell) in [
        ("fig3", "bfs/no-peer-caching"),
        ("fig7", "inter-gpu-bound-250"),
        ("fig9-11", "bfs/hmg"),
        ("characterize", "bfs/hmg"),
    ] {
        let out = tiny_sweep(driver, &[], Some(cell));
        let text = stdout(&out);
        assert!(out.status.success(), "{driver}:\n{text}\n{}", stderr(&out));
        assert!(
            text.contains("crashed=1") && text.contains("cell process died without a result"),
            "{driver}: the crash must kill a child process:\n{text}"
        );
        assert!(!text.contains("cell panicked"), "{driver}:\n{text}");
    }
}

/// A Figs. 9–11 sweep that lost a cell to a crash, resumed from its
/// checkpoint, prints the same table as an uninterrupted run, and its
/// rows — each a cell's full metrics from a child process — equal the
/// rows a thread-isolated run writes.
#[test]
fn crashed_sweep_resumes_to_the_thread_isolated_result() {
    let (ckpt, fresh) = (tmp("inv.ckpt"), tmp("inv-fresh.ckpt"));
    let path = |p: &PathBuf| p.to_str().expect("utf-8 temp path").to_string();
    let (ckpt_arg, fresh_arg) = (path(&ckpt), path(&fresh));

    let crashed = tiny_sweep("fig9-11", &["--checkpoint", &ckpt_arg], Some("bfs/hmg"));
    assert!(stdout(&crashed).contains("cell crashed: cell process died"));
    let resumed = tiny_sweep("fig9-11", &["--checkpoint", &ckpt_arg, "--resume"], None);
    let text = stdout(&resumed);
    assert!(
        text.contains("reused=1") && text.contains("crashed=0"),
        "resume reuses the completed cell and heals the crashed one:\n{text}"
    );

    let thread = ["--isolation", "thread", "--checkpoint", &fresh_arg];
    let clean = tiny_sweep("fig9-11", &thread, None);
    assert!(resumed.status.success() && clean.status.success());
    assert_eq!(tables(&resumed), tables(&clean));
    assert_eq!(ok_rows(&ckpt).len(), 2);
    assert_eq!(
        ok_rows(&ckpt),
        ok_rows(&fresh),
        "process and thread metrics agree"
    );
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&fresh);
}
