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

    let mut runner = Runner::new(scale);
    let mut total: Vec<(ProtocolKind, u64)> = ProtocolKind::ALL.iter().map(|&p| (p, 0)).collect();

    for pass in passes {
        let spec = by_abbrev(pass).expect("RNN pass in suite");
        let trace = spec.generate(scale, 2020);
        let factor = spec.capacity_factor(scale);
        let mut t = Table::new(vec![
            "protocol".into(),
            "cycles".into(),
            "speedup".into(),
            "inter-GPU MB".into(),
        ]);
        let base = runner.run_with(&trace, ProtocolKind::NoPeerCaching, |c| {
            hmg::runner::scale_capacities(c, factor)
        });
        for slot in total.iter_mut() {
            let p = slot.0;
            let m = runner.run_with(&trace, p, |c| hmg::runner::scale_capacities(c, factor));
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
