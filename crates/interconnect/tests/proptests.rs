//! Randomized property tests for the interconnect: per-port FIFO
//! delivery, byte conservation, bandwidth lower bounds, and topology
//! round trips. Driven by the in-repo SplitMix64 [`Rng`] rather than an
//! external property-testing crate so the workspace builds offline.
#![expect(
    clippy::disallowed_types,
    reason = "std hash collections are the test oracles here, never simulator state"
)]

use hmg_interconnect::{Fabric, FabricConfig, GpmId, Link, MsgClass, Topology};
use hmg_sim::{Cycle, Rng};

const CASES: u64 = 64;

/// Deliveries over one port never reorder, for any offered schedule
/// of send times and sizes.
#[test]
fn link_is_fifo() {
    for case in 0..CASES {
        let mut r = Rng::new(0xF1F0 + case);
        let n = r.gen_range(1, 200) as usize;
        let mut sends: Vec<(u64, u32)> = (0..n)
            .map(|_| (r.gen_range(0, 10_000), r.gen_range(1, 4096) as u32))
            .collect();
        let bpc = r.gen_range(1, 512) as u32;
        let lat = r.gen_range(0, 1000);
        let mut link = Link::new(bpc as f64, Cycle(lat));
        sends.sort_by_key(|&(t, _)| t);
        let mut prev = Cycle::ZERO;
        for (t, bytes) in sends {
            let arrival = link.send(Cycle(t), bytes);
            assert!(arrival >= prev, "FIFO violated");
            assert!(arrival >= Cycle(t + lat), "faster than latency");
            prev = arrival;
        }
    }
}

/// A port can never move data faster than its bandwidth: the last
/// arrival is bounded below by total bytes over bandwidth.
#[test]
fn link_respects_bandwidth() {
    for case in 0..CASES {
        let mut r = Rng::new(0xBA2D + case);
        let n = r.gen_range(1, 100) as usize;
        let sizes: Vec<u32> = (0..n).map(|_| r.gen_range(1, 4096) as u32).collect();
        let bpc = r.gen_range(1, 256) as u32;
        let mut link = Link::new(bpc as f64, Cycle(0));
        let mut last = Cycle::ZERO;
        for &b in &sizes {
            last = link.send(Cycle::ZERO, b);
        }
        let total: u64 = sizes.iter().map(|&b| b as u64).sum();
        let min_cycles = (total as f64 / bpc as f64).floor() as u64;
        assert!(last.as_u64() >= min_cycles, "{last} < {min_cycles}");
        assert_eq!(link.bytes_sent(), total);
    }
}

/// Fabric byte accounting conserves: per-class totals equal the sum
/// of what was sent, with inter-tier bytes counted only for
/// cross-GPU messages.
#[test]
fn fabric_accounting_conserves() {
    for case in 0..CASES {
        let mut r = Rng::new(0xACC0 + case);
        let n = r.gen_range(1, 150) as usize;
        let msgs: Vec<(u16, u16, u32)> = (0..n)
            .map(|_| {
                (
                    r.gen_range(0, 16) as u16,
                    r.gen_range(0, 16) as u16,
                    r.gen_range(1, 2048) as u32,
                )
            })
            .collect();
        let topo = Topology::new(4, 4);
        let mut fabric = Fabric::new(topo, FabricConfig::paper_default());
        let mut intra_expected = 0u64;
        let mut inter_expected = 0u64;
        for &(s, d, bytes) in &msgs {
            let (src, dst) = (GpmId(s), GpmId(d));
            fabric.send(Cycle::ZERO, src, dst, bytes, MsgClass::Data);
            if src != dst {
                intra_expected += bytes as u64;
                if !topo.same_gpu(src, dst) {
                    inter_expected += bytes as u64;
                }
            }
        }
        assert_eq!(fabric.stats().intra_bytes(MsgClass::Data), intra_expected);
        assert_eq!(fabric.stats().inter_bytes(MsgClass::Data), inter_expected);
        for class in [MsgClass::Request, MsgClass::Inv, MsgClass::Ctrl] {
            assert_eq!(fabric.stats().total_bytes(class), 0);
        }
    }
}

/// Cross-GPU messages are never faster than same-GPU messages of the
/// same size on an idle fabric.
#[test]
fn inter_gpu_is_never_faster() {
    for case in 0..CASES {
        let mut r = Rng::new(0x1E7A + case);
        let bytes = r.gen_range(1, 4096) as u32;
        let topo = Topology::new(2, 2);
        let mut f1 = Fabric::new(topo, FabricConfig::paper_default());
        let mut f2 = Fabric::new(topo, FabricConfig::paper_default());
        let intra = f1.send(Cycle::ZERO, GpmId(0), GpmId(1), bytes, MsgClass::Data);
        let inter = f2.send(Cycle::ZERO, GpmId(0), GpmId(2), bytes, MsgClass::Data);
        assert!(inter >= intra);
    }
}

/// Topology coordinate round trips hold for arbitrary shapes.
#[test]
fn topology_roundtrips() {
    for case in 0..CASES {
        let mut r = Rng::new(0x7090 + case);
        let gpus = r.gen_range(1, 12) as u16;
        let gpms = r.gen_range(1, 8) as u16;
        let t = Topology::new(gpus, gpms);
        assert_eq!(t.num_gpms(), gpus * gpms);
        for gpm in t.all_gpms() {
            let gpu = t.gpu_of(gpm);
            let local = t.local_index(gpm);
            assert_eq!(t.gpm(gpu, local), gpm);
            assert!(local < gpms);
            assert!(gpu.0 < gpus);
        }
        // Every GPU's block partitions the GPM space.
        let mut seen = std::collections::HashSet::new();
        for gpu in t.all_gpus() {
            for gpm in t.gpms_of(gpu) {
                assert!(seen.insert(gpm), "GPM listed twice");
                assert_eq!(t.gpu_of(gpm), gpu);
            }
        }
        assert_eq!(seen.len() as u16, t.num_gpms());
    }
}
