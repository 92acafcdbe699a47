//! Graph analytics on a multi-GPU system: bfs and mst (the LoneStar
//! road-network workloads of Table III), with the coherence-activity
//! profile the paper analyzes in §VII-A — including why `mst` is the
//! one workload where HMG's block-granular invalidations can cost more
//! than software coherence.
//!
//! ```text
//! cargo run --release --example graph_analytics [tiny|small|full]
//! ```

use hmg::experiments::{run_cells, CellCtx, ExpOptions};
use hmg::prelude::*;
use hmg::report::{f2, pct, Table};
use hmg::workloads::suite::by_abbrev;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::from_name(&s))
        .unwrap_or_default();
    let opts = ExpOptions {
        scale,
        ..ExpOptions::default()
    };
    let workloads = ["bfs", "mst"];
    let mut cells: Vec<CellCtx> = workloads
        .iter()
        .flat_map(|name| ProtocolKind::ALL.map(|p| opts.plain_cell(name, p)))
        .collect();
    // The baseline also tracks Fig. 3's redundancy: counters only, so
    // its cycles stay the speedup baseline.
    for c in cells
        .iter_mut()
        .filter(|c| c.protocol == ProtocolKind::NoPeerCaching)
    {
        c.tweak = "peer-redundancy".into();
    }
    let runs: Vec<RunMetrics> = run_cells(&opts, &cells)
        .and_then(|rs| rs.into_iter().collect())
        .expect("fault-free cells run clean");

    for (name, runs) in workloads.iter().zip(runs.chunks(ProtocolKind::ALL.len())) {
        let spec = by_abbrev(name).expect("graph workload");
        let trace = spec.generate(scale, opts.seed);
        println!(
            "== {} — {} iterations over {:.0} MB ==",
            spec.name,
            trace.num_kernels(),
            trace.footprint_bytes() as f64 / 1e6
        );

        let m = &runs[0]; // NoPeerCaching is first in ProtocolKind::ALL
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
        for (p, m) in ProtocolKind::ALL.into_iter().zip(runs) {
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
