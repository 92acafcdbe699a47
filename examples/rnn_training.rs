//! A recurrent-network training step across 4 GPUs: the forward pass,
//! the data-gradient pass, and the weight-gradient pass of an RNN layer
//! (the paper's RNN_FW / RNN_DGRAD / RNN_WGRAD traces), run back to
//! back under each coherence configuration.
//!
//! This is the workload family the paper's introduction motivates:
//! persistent RNNs broadcast the timestep state between every pair of
//! consecutive kernels, so protocols that cache remote-GPU data — and
//! especially ones that coalesce the broadcast inside each GPU — pull
//! far ahead (Fig. 8, right side).
//!
//! ```text
//! cargo run --release --example rnn_training [tiny|small|full]
//! ```

use hmg::experiments::{run_cells, ExpOptions};
use hmg::prelude::*;
use hmg::report::{f2, Table};
use hmg::workloads::suite::by_abbrev;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::from_name(&s))
        .unwrap_or_default();
    let passes = ["RNN_FW", "RNN_DGRAD", "RNN_WGRAD"];
    println!(
        "RNN training step: {} (scale {scale:?})\n",
        passes.join(" -> ")
    );

    let opts = ExpOptions {
        scale,
        ..ExpOptions::default()
    };
    let cells: Vec<_> = passes
        .iter()
        .flat_map(|pass| ProtocolKind::ALL.map(|p| opts.plain_cell(pass, p)))
        .collect();
    let runs: Vec<RunMetrics> = run_cells(&opts, &cells)
        .and_then(|rs| rs.into_iter().collect())
        .expect("fault-free cells run clean");
    let mut total: Vec<(ProtocolKind, u64)> = ProtocolKind::ALL.iter().map(|&p| (p, 0)).collect();

    for (pass, pass_runs) in passes.iter().zip(runs.chunks(ProtocolKind::ALL.len())) {
        let spec = by_abbrev(pass).expect("RNN pass in suite");
        let mut t = Table::new(vec![
            "protocol".into(),
            "cycles".into(),
            "speedup".into(),
            "inter-GPU MB".into(),
        ]);
        let base = &pass_runs[0]; // NoPeerCaching is first in ProtocolKind::ALL
        for (slot, m) in total.iter_mut().zip(pass_runs) {
            let p = slot.0;
            slot.1 += m.total_cycles.as_u64();
            let inter_mb = hmg::interconnect::MsgClass::ALL
                .iter()
                .map(|&c| m.fabric.inter_bytes(c))
                .sum::<u64>() as f64
                / 1e6;
            t.row(vec![
                p.name().into(),
                m.total_cycles.as_u64().to_string(),
                f2(base.total_cycles.as_u64() as f64 / m.total_cycles.as_u64() as f64),
                format!("{inter_mb:.1}"),
            ]);
        }
        println!("== {pass}: {} ==", spec.name);
        println!("{}", t.render());
    }

    println!("== whole training step ==");
    let mut t = Table::new(vec![
        "protocol".into(),
        "total cycles".into(),
        "speedup".into(),
    ]);
    let base = total[0].1; // NoPeerCaching is first in ProtocolKind::ALL
    for (p, cyc) in &total {
        t.row(vec![
            p.name().into(),
            cyc.to_string(),
            f2(base as f64 / *cyc as f64),
        ]);
    }
    println!("{}", t.render());
}
