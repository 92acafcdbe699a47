//! Quickstart: simulate one workload under every coherence configuration
//! and print the performance and coherence-activity breakdown.
//!
//! ```text
//! cargo run --release --example quickstart [workload] [tiny|small|full]
//! ```

use hmg::experiments::{run_cells, ExpOptions};
use hmg::prelude::*;
use hmg::report::{f2, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let abbrev = args.first().map(String::as_str).unwrap_or("bfs");
    let scale = args
        .get(1)
        .and_then(|s| Scale::from_name(s))
        .unwrap_or_default();

    let spec = hmg::workloads::suite::by_abbrev(abbrev).unwrap_or_else(|| {
        eprintln!("unknown workload `{abbrev}`; known:");
        for s in hmg::workloads::suite::table3() {
            eprintln!("  {}", s.abbrev);
        }
        std::process::exit(1);
    });

    let opts = ExpOptions {
        scale,
        ..ExpOptions::default()
    };
    println!("workload: {} ({})", spec.name, spec.abbrev);
    let trace = spec.generate(scale, opts.seed);
    println!(
        "trace: {} kernels, {} CTAs, {} accesses, {:.1} MB footprint\n",
        trace.num_kernels(),
        trace.num_ctas(),
        trace.num_accesses(),
        trace.footprint_bytes() as f64 / (1024.0 * 1024.0)
    );

    let factor = spec.capacity_factor(scale);
    println!("capacity scale factor: {factor:.1}x (see DESIGN.md)\n");
    let cells: Vec<_> = ProtocolKind::ALL
        .iter()
        .map(|&p| opts.plain_cell(spec.abbrev, p))
        .collect();
    let runs: Vec<RunMetrics> = run_cells(&opts, &cells)
        .and_then(|rs| rs.into_iter().collect())
        .expect("fault-free cells run clean");
    let mut t = Table::new(
        [
            "protocol", "cycles", "speedup", "l1-hit", "l2-hit", "gpuhome", "syshome", "dram",
            "inter-GB", "invs", "u-dram", "u-inter", "u-intra", "lat", "mlp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let base = &runs[0]; // NoPeerCaching is first in ProtocolKind::ALL
    for (p, m) in ProtocolKind::ALL.into_iter().zip(&runs) {
        let inter_gb: u64 = hmg::interconnect::MsgClass::ALL
            .iter()
            .map(|&c| m.fabric.inter_bytes(c))
            .sum();
        t.row(vec![
            p.name().to_string(),
            m.total_cycles.as_u64().to_string(),
            f2(base.total_cycles.as_u64() as f64 / m.total_cycles.as_u64() as f64),
            format!("{:.0}%", m.l1_hit_rate() * 100.0),
            m.local_l2_hits.to_string(),
            m.gpu_home_hits.to_string(),
            m.sys_home_hits.to_string(),
            m.dram_accesses.to_string(),
            format!("{:.2}", inter_gb as f64 / 1e9),
            (m.invs_from_stores + m.invs_from_evictions).to_string(),
            format!("{:.0}%", m.max_dram_util * 100.0),
            format!("{:.0}%", m.max_inter_util * 100.0),
            format!("{:.0}%", m.max_intra_util * 100.0),
            format!("{:.0}", m.avg_miss_latency()),
            m.max_loads_inflight.to_string(),
        ]);
    }
    println!("{}", t.render());
}
