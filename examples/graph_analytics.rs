//! Graph analytics on a multi-GPU system: bfs and mst (the LoneStar
//! road-network workloads of Table III), with the coherence-activity
//! profile the paper analyzes in §VII-A — including why `mst` is the
//! one workload where HMG's block-granular invalidations can cost more
//! than software coherence.
//!
//! ```text
//! cargo run --release --example graph_analytics [tiny|small|full]
//! ```

use hmg::prelude::*;
use hmg::report::{f2, pct, Table};
use hmg::workloads::suite::by_abbrev;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::from_name(&s))
        .unwrap_or_default();
    let mut runner = Runner::new(scale);

    for name in ["bfs", "mst"] {
        let spec = by_abbrev(name).expect("graph workload");
        let trace = spec.generate(scale, 2020);
        let factor = spec.capacity_factor(scale);
        println!(
            "== {} — {} iterations over {:.0} MB ==",
            spec.name,
            trace.num_kernels(),
            trace.footprint_bytes() as f64 / 1e6
        );

        // Fig. 3-style redundancy on the baseline.
        let m = runner.run_with(&trace, ProtocolKind::NoPeerCaching, |c| {
            hmg::runner::scale_capacities(c, factor);
            c.track_peer_redundancy = true;
        });
        if let Some(r) = m.peer_redundancy() {
            println!(
                "inter-GPU load redundancy within a GPU (Fig. 3): {}",
                pct(r)
            );
        }
        let base_cycles = m.total_cycles.as_u64();

        let mut t = Table::new(vec![
            "protocol".into(),
            "speedup".into(),
            "invs".into(),
            "lines/store-inv".into(),
            "inv GB/s".into(),
        ]);
        for p in ProtocolKind::ALL {
            let m = runner.run_with(&trace, p, |c| hmg::runner::scale_capacities(c, factor));
            t.row(vec![
                p.name().into(),
                f2(base_cycles as f64 / m.total_cycles.as_u64() as f64),
                (m.invs_from_stores + m.invs_from_evictions).to_string(),
                m.lines_per_store_inv()
                    .map(f2)
                    .unwrap_or_else(|| "-".into()),
                f2(m.inv_bandwidth_gbps(1.3)),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "mst's conflicting fine-grained updates cause false sharing at the\n\
         4-line directory granularity, which is why the paper reports HMG\n\
         can trail hierarchical software coherence on it (§VII-A)."
    );
}
