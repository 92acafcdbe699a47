//! Structural invariants each protocol must respect, observed through
//! run metrics on real workload traces.

use hmg::experiments::{run_cell, CellCtx, ExpOptions};
use hmg::prelude::*;

/// The untweaked tiny-scale experiment cell for `workload` under `p`.
fn cell(p: ProtocolKind, workload: &str) -> CellCtx {
    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed: 11,
        ..ExpOptions::default()
    };
    opts.plain_cell(workload, p)
}

fn run(p: ProtocolKind, workload: &str) -> RunMetrics {
    run_cell(&cell(p, workload)).expect("clean cell")
}

#[test]
fn flat_protocols_never_hit_a_gpu_home() {
    for p in [
        ProtocolKind::NoPeerCaching,
        ProtocolKind::SwNonHier,
        ProtocolKind::Nhcc,
        ProtocolKind::CarveLike,
    ] {
        for w in ["bfs", "lstm", "CoMD"] {
            let m = run(p, w);
            assert_eq!(m.gpu_home_hits, 0, "{p}/{w}: flat routing has no GPU home");
        }
    }
}

#[test]
fn hierarchical_protocols_use_gpu_homes() {
    // Software-hierarchical coherence wipes its L2s at every kernel
    // boundary, so at tiny scale its GPU-home hits can round to zero;
    // the hardware-coherent and ideal configurations must coalesce on
    // at least one of the broadcast-heavy workloads.
    for p in [ProtocolKind::Hmg, ProtocolKind::Ideal] {
        let hits: u64 = ["lstm", "RNN_FW", "GoogLeNet", "bfs"]
            .iter()
            .map(|w| run(p, w).gpu_home_hits)
            .sum();
        assert!(hits > 0, "{p}: broadcast traffic must coalesce somewhere");
    }
}

#[test]
fn software_protocols_send_no_hardware_invalidations() {
    for p in [
        ProtocolKind::NoPeerCaching,
        ProtocolKind::SwNonHier,
        ProtocolKind::SwHier,
        ProtocolKind::Ideal,
    ] {
        for w in ["bfs", "mst", "RNN_FW"] {
            let m = run(p, w);
            assert_eq!(m.invs_from_stores, 0, "{p}/{w}");
            assert_eq!(m.invs_from_evictions, 0, "{p}/{w}");
            assert_eq!(
                m.fabric.total_bytes(hmg::interconnect::MsgClass::Inv),
                0,
                "{p}/{w}: no invalidation bytes on the wire"
            );
        }
    }
}

#[test]
fn hardware_protocols_invalidate_on_read_write_sharing() {
    for p in [
        ProtocolKind::Nhcc,
        ProtocolKind::Hmg,
        ProtocolKind::CarveLike,
    ] {
        let m = run(p, "mst");
        assert!(
            m.invs_from_stores > 0,
            "{p}: mst's conflicting updates must trigger invalidations"
        );
        assert!(m.fabric.total_bytes(hmg::interconnect::MsgClass::Inv) > 0);
    }
}

#[test]
fn hardware_protocols_do_not_bulk_invalidate_l2() {
    // HW acquires touch only the L1; software coherence wipes L2s too.
    // Compare bulk-invalidated line counts on a multi-kernel workload.
    let hw = run(ProtocolKind::Hmg, "CoMD");
    let sw = run(ProtocolKind::SwNonHier, "CoMD");
    assert!(
        sw.lines_bulk_invalidated > hw.lines_bulk_invalidated,
        "software coherence must bulk-invalidate more (sw={} hw={})",
        sw.lines_bulk_invalidated,
        hw.lines_bulk_invalidated
    );
    let ideal = run(ProtocolKind::Ideal, "CoMD");
    assert_eq!(ideal.lines_bulk_invalidated, 0, "ideal never invalidates");
}

#[test]
fn ideal_pays_release_fences_like_everyone_else() {
    let ideal = run(ProtocolKind::Ideal, "CoMD");
    assert!(ideal.fences > 0, "kernel-end drains apply to ideal too");
}

#[test]
fn write_through_reaches_dram_under_every_protocol() {
    for p in ProtocolKind::ALL {
        let m = run(p, "CoMD");
        assert!(m.dram_bytes > 0, "{p}");
        assert!(m.stores > 0, "{p}");
    }
}

#[test]
fn inter_gpu_traffic_ordering_matches_the_hierarchy_story() {
    // On a broadcast-heavy workload, hierarchical routing must not move
    // more data across GPUs than flat routing, and caching protocols
    // must not exceed the no-caching baseline.
    let data = |m: &RunMetrics| {
        m.fabric.inter_bytes(hmg::interconnect::MsgClass::Data)
            + m.fabric.inter_bytes(hmg::interconnect::MsgClass::Request)
    };
    let base = data(&run(ProtocolKind::NoPeerCaching, "RNN_FW"));
    let flat = data(&run(ProtocolKind::Nhcc, "RNN_FW"));
    let hier = data(&run(ProtocolKind::Hmg, "RNN_FW"));
    assert!(flat <= base, "caching must reduce inter-GPU traffic");
    assert!(hier <= flat, "hierarchy must reduce it further (or tie)");
}

#[test]
fn fig3_tracking_is_well_formed() {
    let tracked = CellCtx {
        tweak: "peer-redundancy".into(),
        ..cell(ProtocolKind::NoPeerCaching, "RNN_FW")
    };
    let m = run_cell(&tracked).expect("clean cell");
    assert!(
        m.inter_gpu_loads_peer_redundant <= m.inter_gpu_loads,
        "numerator bounded by denominator"
    );
    if let Some(r) = m.peer_redundancy() {
        assert!((0.0..=1.0).contains(&r));
    }
}

#[test]
fn directory_stats_only_move_under_hw_protocols() {
    let sw = run(ProtocolKind::SwHier, "bfs");
    assert_eq!(sw.stores_triggering_invs, 0);
    assert_eq!(sw.evictions_triggering_invs, 0);
    let hw = run(ProtocolKind::Hmg, "bfs");
    let _ = hw; // HW may or may not evict at tiny scale; presence checked
                // in hardware_protocols_invalidate_on_read_write_sharing.
}
