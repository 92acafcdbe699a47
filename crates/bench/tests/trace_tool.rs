//! `trace-tool simulate` runs a generated trace on the machine its
//! experiment cell runs on, so both report the same cycles.

use hmg::experiments::{run_cell, ExpOptions};
use hmg::prelude::*;

fn trace_tool(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(args)
        .output()
        .expect("trace-tool runs");
    assert!(out.status.success(), "trace-tool {args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn simulate_reports_the_experiment_cell_cycles() {
    let path = std::env::temp_dir().join(format!("hmg-trace-tool-{}", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    trace_tool(&["gen", "CoMD", "--scale", "tiny", "--seed", "4", "-o", path]);
    let report = trace_tool(&["simulate", path, "--scale", "tiny", "--protocol", "hmg"]);
    let _ = std::fs::remove_file(path);
    let row = report
        .lines()
        .find(|l| l.starts_with("hmg "))
        .expect("hmg row");
    let cycles: u64 = row.split_whitespace().nth(1).unwrap().parse().unwrap();

    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed: 4,
        ..ExpOptions::default()
    };
    let cell = run_cell(&opts.plain_cell("CoMD", ProtocolKind::Hmg)).expect("clean cell");
    assert_eq!(cycles, cell.total_cycles.as_u64());
}
