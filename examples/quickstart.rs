//! Quickstart: simulate one workload under every coherence configuration
//! and print the performance and coherence-activity breakdown.
//!
//! ```text
//! cargo run --release --example quickstart [workload] [tiny|small|full]
//! ```

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

    println!("workload: {} ({})", spec.name, spec.abbrev);
    let trace = spec.generate(scale, 2020);
    println!(
        "trace: {} kernels, {} CTAs, {} accesses, {:.1} MB footprint\n",
        trace.num_kernels(),
        trace.num_ctas(),
        trace.num_accesses(),
        trace.footprint_bytes() as f64 / (1024.0 * 1024.0)
    );

    let mut runner = Runner::new(scale);
    let factor = spec.capacity_factor(scale);
    println!("capacity scale factor: {factor:.1}x (see DESIGN.md)\n");
    let mut t = Table::new(
        [
            "protocol", "cycles", "speedup", "l1-hit", "l2-hit", "gpuhome", "syshome", "dram",
            "inter-GB", "invs", "u-dram", "u-inter", "u-intra", "lat", "mlp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    // Diagnostic overrides: HMG_INTER_X / HMG_INTRA_X multiply link
    // bandwidths; HMG_LAUNCH overrides kernel launch overhead cycles.
    let inter_x: f64 = std::env::var("HMG_INTER_X")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let intra_x: f64 = std::env::var("HMG_INTRA_X")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let launch: Option<u64> = std::env::var("HMG_LAUNCH")
        .ok()
        .and_then(|v| v.parse().ok());
    let interleaved = std::env::var_os("HMG_INTERLEAVED").is_some();
    let scaled = |r: &mut Runner, p: ProtocolKind| {
        r.run_with(&trace, p, |cfg| {
            hmg::runner::scale_capacities(cfg, factor);
            cfg.fabric.inter_gpu_gbps *= inter_x;
            cfg.fabric.intra_gpu_gbps *= intra_x;
            if interleaved {
                cfg.placement = hmg::mem::PagePlacement::Interleaved;
            }
            if let Some(l) = launch {
                cfg.kernel_launch_overhead = hmg::sim::Cycle(l);
            }
        })
    };
    let base = scaled(&mut runner, ProtocolKind::NoPeerCaching);
    for p in ProtocolKind::ALL {
        let m = scaled(&mut runner, p);
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
