//! Randomized property tests for the memory substrate: the cache, the
//! coherence directory, and the address math. Driven by the in-repo
//! SplitMix64 [`Rng`] rather than an external property-testing crate so
//! the workspace builds offline.
#![expect(
    clippy::disallowed_types,
    reason = "std hash collections are the test oracles here, never simulator state"
)]

use hmg_interconnect::{GpmId, GpuId, Topology};
use hmg_mem::addr::{Addr, BlockAddr, LineAddr};
use hmg_mem::{Cache, CacheConfig, Directory, DirectoryConfig, MemGeometry, Sharer, SharerSet};
use hmg_sim::Rng;

const CASES: u64 = 64;

/// Geometry round trips: every address's line contains it, every
/// line's block contains it, pages align.
#[test]
fn geometry_roundtrips() {
    let mut r = Rng::new(0x6E0);
    for _ in 0..512 {
        let raw = r.gen_range(0, 1 << 45);
        let g = MemGeometry::paper_default();
        let a = Addr(raw);
        let line = g.line_of(a);
        assert!(g.line_base(line).0 <= raw);
        assert!(raw < g.line_base(line).0 + g.line_bytes() as u64);
        let block = g.block_of(line);
        assert!(g.lines_of_block(block).any(|l| l == line));
        assert_eq!(g.block_of_addr(a), block);
        assert_eq!(g.page_of(a), g.page_of_line(line));
    }
}

/// A cache never exceeds its capacity, and everything reported
/// resident is actually retrievable.
#[test]
fn cache_capacity_and_residency() {
    for case in 0..CASES {
        let mut r = Rng::new(0xCAC4 + case);
        let n = r.gen_range(1, 600) as usize;
        let lines: Vec<u64> = (0..n).map(|_| r.gen_range(0, 4096)).collect();
        let ways = r.gen_range(1, 8) as u32;
        let capacity = 64 * ways; // 64 sets
        let mut c: Cache<u64> = Cache::new(CacheConfig::new(capacity, ways));
        for (i, &l) in lines.iter().enumerate() {
            c.insert(LineAddr(l), i as u64);
            assert!(c.len() <= capacity as usize);
        }
        for (l, _) in c.iter() {
            assert!(c.peek(l).is_some());
            assert!(lines.contains(&l.0), "resident line was never inserted");
        }
    }
}

/// Insert-then-get returns the last metadata written, unless the
/// line was evicted — and evictions only happen on insertions into
/// the same set.
#[test]
fn cache_last_write_wins() {
    for case in 0..CASES {
        let mut r = Rng::new(0x1457 + case);
        let n = r.gen_range(1, 300) as usize;
        let ops: Vec<(u64, u64)> = (0..n)
            .map(|_| (r.gen_range(0, 256), r.gen_range(0, 1000)))
            .collect();
        let mut c: Cache<u64> = Cache::new(CacheConfig::new(1024, 4));
        let mut model = std::collections::HashMap::new();
        for &(line, meta) in &ops {
            c.insert(LineAddr(line), meta);
            model.insert(line, meta);
        }
        // 256 distinct lines always fit a 1024-line cache: nothing may
        // have been evicted, so cache and model agree exactly.
        for (&line, &meta) in &model {
            assert_eq!(c.peek(LineAddr(line)), Some(&meta));
        }
    }
}

/// invalidate_where(p) removes exactly the lines satisfying `p`.
#[test]
fn cache_selective_invalidation() {
    for case in 0..CASES {
        let mut r = Rng::new(0x5E1E + case);
        let n = r.gen_range(1, 200) as usize;
        let lines: Vec<u64> = (0..n).map(|_| r.gen_range(0, 512)).collect();
        let cutoff = r.gen_range(0, 512);
        let mut c: Cache<u64> = Cache::new(CacheConfig::new(1024, 4));
        for &l in &lines {
            c.insert(LineAddr(l), l);
        }
        let before = c.len();
        let removed = c.invalidate_where(|l, _| l.0 < cutoff);
        assert_eq!(before, c.len() + removed as usize);
        for (l, _) in c.iter() {
            assert!(l.0 >= cutoff);
        }
    }
}

/// SharerSet behaves as a set over the sharer universe.
#[test]
fn sharer_set_is_a_set() {
    for case in 0..CASES {
        let mut r = Rng::new(0x5A2E + case);
        let n_gpms = r.gen_range(0, 20) as usize;
        let n_gpus = r.gen_range(0, 8) as usize;
        let gpms: Vec<u16> = (0..n_gpms).map(|_| r.gen_range(0, 16) as u16).collect();
        let gpus: Vec<u16> = (0..n_gpus).map(|_| r.gen_range(0, 4) as u16).collect();
        let topo = Topology::new(4, 4);
        let mut s = SharerSet::new();
        let mut model = std::collections::HashSet::new();
        for &g in &gpms {
            s.insert(&topo, Sharer::Gpm(GpmId(g)));
            model.insert(Sharer::Gpm(GpmId(g)));
        }
        for &g in &gpus {
            s.insert(&topo, Sharer::Gpu(GpuId(g)));
            model.insert(Sharer::Gpu(GpuId(g)));
        }
        assert_eq!(s.len() as usize, model.len());
        for m in &model {
            assert!(s.contains(&topo, *m));
        }
        let listed: std::collections::HashSet<_> = s.iter(&topo).into_iter().collect();
        assert_eq!(listed, model);
    }
}

/// The directory never exceeds its configured entry count, and any
/// block it reports valid was allocated and not since removed.
#[test]
fn directory_capacity_invariant() {
    for case in 0..CASES {
        let mut r = Rng::new(0xD12C + case);
        let n = r.gen_range(1, 500) as usize;
        let blocks: Vec<u64> = (0..n).map(|_| r.gen_range(0, 10_000)).collect();
        let topo = Topology::new(4, 4);
        let cfg = DirectoryConfig::new(64, 4);
        let mut d = Directory::new(cfg, topo);
        for &b in &blocks {
            let (set, evicted) = d.allocate(BlockAddr(b));
            set.insert(&topo, Sharer::Gpu(GpuId((b % 4) as u16)));
            if let Some((vb, _)) = evicted {
                // The evicted block is gone.
                assert!(vb != BlockAddr(b));
            }
            assert!(d.len() <= cfg.entries as usize);
        }
        // Everything resident was inserted at some point.
        for &b in &blocks {
            if let Some(s) = d.lookup(BlockAddr(b)) {
                assert!(!s.is_empty());
            }
        }
    }
}

/// Allocate-then-remove leaves the directory empty of that block and
/// returns the sharers that were registered.
#[test]
fn directory_remove_returns_registered_sharers() {
    for case in 0..CASES {
        let mut r = Rng::new(0x2E40 + case);
        let block = r.gen_range(0, 1000);
        let n = r.gen_range(1, 6) as usize;
        let sharers: Vec<u16> = (0..n).map(|_| r.gen_range(0, 16) as u16).collect();
        let topo = Topology::new(4, 4);
        let mut d = Directory::new(DirectoryConfig::new(256, 4), topo);
        {
            let (set, _) = d.allocate(BlockAddr(block));
            for &s in &sharers {
                set.insert(&topo, Sharer::Gpm(GpmId(s)));
            }
        }
        let got = d.remove(BlockAddr(block)).expect("present");
        let distinct: std::collections::HashSet<_> = sharers.iter().collect();
        assert_eq!(got.len() as usize, distinct.len());
        assert!(d.lookup(BlockAddr(block)).is_none());
    }
}
