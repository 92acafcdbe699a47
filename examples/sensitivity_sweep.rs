//! Sensitivity sweep over one machine parameter for one workload — the
//! per-workload version of the paper's Figs. 12–14, run by the same
//! drivers and normalized the same way (to the no-peer-caching baseline
//! on the Table II configuration).
//!
//! ```text
//! cargo run --release --example sensitivity_sweep [workload] [bw|l2|dir] [tiny|small]
//! ```

use hmg::experiments::{figure, ExpOptions};
use hmg::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("RNN_FW");
    let axis = args.get(1).map(String::as_str).unwrap_or("bw");
    let opts = ExpOptions {
        scale: match args.get(2).map(String::as_str) {
            Some("tiny") => Scale::Tiny,
            _ => Scale::Small,
        },
        filter: Some(vec![workload.to_string()]),
        ..ExpOptions::default()
    };
    if opts.specs().is_empty() {
        eprintln!("unknown workload `{workload}`");
        std::process::exit(1);
    }
    let (name, parameter) = match axis {
        "l2" => ("fig13", "L2 capacity"),
        "dir" => ("fig14", "directory capacity"),
        _ => ("fig12", "inter-GPU bandwidth"),
    };
    match figure(name).expect("registered").run(&opts) {
        Ok(mut r) => {
            r.tables[0].title = format!("{workload}: {parameter} sensitivity");
            r.print();
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}
