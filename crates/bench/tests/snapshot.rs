//! End-to-end preemptible-cell tests against the real `experiments`
//! binary: a cell killed mid-run (process abort, no unwinding) is
//! retried by the supervisor and resumes from its latest snapshot,
//! producing metrics identical to an uninterrupted sweep's; corrupted snapshots are refused loudly and the cell still
//! completes from scratch.
//!
//! The mid-run kill is injected with the documented
//! `HMG_SNAPSHOT_KILL_AT` env knob (first attempt only — the retry
//! must survive), scoped to each spawned child so concurrently running
//! tests never see it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// Interval chosen so a tiny bfs cell (~6k cycles) captures several
/// snapshots before the kill point.
const INTERVAL: &str = "500";

/// Mid-interval kill point: between the captures at ~1500 and ~2000,
/// so the resumed attempt must re-execute a partial interval exactly.
const KILL: &str = "bfs/hmg@1750";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hmg-snaptest-{}-{name}", std::process::id()))
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

/// A one-workload fig8 sweep under process isolation, optionally with
/// snapshotting and the mid-run kill knob, optionally under the
/// flip-line + link-down fault plan.
fn sweep(ckpt: &Path, snapdir: Option<&Path>, kill: bool, faults: bool) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "fig8",
        "--scale",
        "tiny",
        "--seed",
        "4",
        "--workloads",
        "bfs",
        "--keep-going",
        "--jobs",
        "2",
        "--retries",
        "1",
        "--isolation",
        "process",
        "--checkpoint",
    ])
    .arg(ckpt);
    if let Some(d) = snapdir {
        cmd.arg("--snapshot-dir").arg(d);
        cmd.args(["--snapshot-interval", INTERVAL]);
    }
    if faults {
        cmd.args(["--faults", "flip-line=0.4,link-down=0-1@400,seed=9"]);
    }
    if kill {
        cmd.env("HMG_SNAPSHOT_KILL_AT", KILL);
    } else {
        cmd.env_remove("HMG_SNAPSHOT_KILL_AT");
    }
    cmd.env_remove("HMG_CELL_CRASH");
    cmd.env_remove("HMG_CELL_HANG");
    cmd.output().expect("experiments binary runs")
}

/// The ISSUE acceptance criterion, end to end: kill a cell's process
/// mid-run, let the supervisor retry it, and prove the resumed sweep
/// is `state_digest`-identical to an uninterrupted one — with and
/// without an active fault plan.
#[test]
fn killed_cell_resumes_mid_run_digest_identical() {
    for faults in [false, true] {
        let tag = if faults { "faulty" } else { "clean" };
        let killed = tmp(&format!("kill-{tag}.ckpt"));
        let fresh = tmp(&format!("fresh-{tag}.ckpt"));
        let snapdir = tmp(&format!("snaps-{tag}"));
        let _ = std::fs::remove_file(&killed);
        let _ = std::fs::remove_file(&fresh);
        let _ = std::fs::remove_dir_all(&snapdir);

        let interrupted = sweep(&killed, Some(&snapdir), true, faults);
        let (out, err) = (stdout(&interrupted), stderr(&interrupted));
        assert!(
            interrupted.status.success(),
            "{tag}: killed sweep exits 0 after retry:\n{out}\n{err}"
        );
        assert!(
            out.contains("resumed from cycle"),
            "{tag}: the retried cell must resume mid-run:\n{out}"
        );
        assert!(
            out.contains("[snapshot] resumed_cells=1"),
            "{tag}: the summary must count the resumed cell:\n{out}"
        );

        let uninterrupted = sweep(&fresh, None, false, faults);
        assert!(uninterrupted.status.success(), "{}", stdout(&uninterrupted));
        let rows = ok_rows(&killed);
        assert!(!rows.is_empty(), "{tag}: cells completed");
        assert_eq!(
            rows,
            ok_rows(&fresh),
            "{tag}: a killed-and-resumed sweep must match an uninterrupted \
             one in every metric"
        );

        let _ = std::fs::remove_file(&killed);
        let _ = std::fs::remove_file(&fresh);
        let _ = std::fs::remove_dir_all(&snapdir);
    }
}

/// Runs one `__run-cell` child with a snapshot store and returns its
/// full stdout (the marker line is last).
fn run_cell(snap: &Path) -> Output {
    Command::new(BIN)
        .args([
            "__run-cell",
            "--key",
            "snapsmoke/hmg",
            "--workload",
            "bfs",
            "--protocol",
            "hmg",
            "--scale",
            "tiny",
            "--seed",
            "4",
            "--snapshot-interval",
            INTERVAL,
            "--snapshot-path",
        ])
        .arg(snap)
        .env_remove("HMG_SNAPSHOT_KILL_AT")
        .env_remove("HMG_CELL_CRASH")
        .env_remove("HMG_CELL_HANG")
        .output()
        .expect("experiments binary runs")
}

/// The marker line, which carries the cell's full metrics.
fn metrics_of(out: &Output) -> String {
    let text = stdout(out);
    let marker = text.lines().last().unwrap_or_default();
    assert!(marker.starts_with("__hmg_cell_v2 ok "), "{text}");
    marker.to_string()
}

/// Seeded corruption: flipping a byte in every snapshot slot makes the
/// next run refuse them with a typed, printed reason — and still
/// complete from scratch with identical metrics. No silent
/// acceptance, no crash.
#[test]
fn corrupted_snapshots_are_refused_loudly_and_cell_completes() {
    let dir = tmp("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cell.snap");

    let first = run_cell(&snap);
    let out = stdout(&first);
    assert!(first.status.success(), "{out}\n{}", stderr(&first));
    assert!(
        !out.contains("resumed"),
        "first run is a cold start:\n{out}"
    );

    // Flip one byte in the middle of every slot the run left behind.
    let mut flipped = 0;
    for suffix in ["a", "b"] {
        let slot = dir.join(format!("cell.snap.{suffix}"));
        if let Ok(mut bytes) = std::fs::read(&slot) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&slot, &bytes).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped > 0, "the run must have written snapshots");

    let second = run_cell(&snap);
    let out = stdout(&second);
    assert!(second.status.success(), "{out}\n{}", stderr(&second));
    assert!(
        out.contains("[snapshot]") && out.contains("refused"),
        "every corrupt slot must be refused loudly:\n{out}"
    );
    assert!(
        !out.contains("resumed"),
        "a corrupt store must fall back to scratch:\n{out}"
    );
    assert_eq!(
        metrics_of(&first),
        metrics_of(&second),
        "the fallback run must reproduce the cold-start metrics"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
