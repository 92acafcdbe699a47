//! Outside-in layer replays: one crate's public functions driven alone
//! with an input shaped by a finished cell, and timed.
//!
//! A replay measures what a layer costs per operation on this
//! workload's addresses, latencies and message mix, without touching the
//! engine. Multiplying by the cell's own operation count estimates the
//! layer's share of the engine's time; whatever that leaves unexplained
//! sits in code the replays do not reach (the engine's event handlers).

use std::hint::black_box;

use hmg::gpu::EngineConfig;
use hmg::interconnect::{Fabric, FabricStats, GpmId, GpuId, MsgClass, Topology};
use hmg::mem::{
    BlockAddr, Cache, CacheConfig, Directory, DirectoryConfig, LineAddr, MemGeometry, Sharer,
};
use hmg::protocol::{row_of, GuardCtx, ProtocolSpec, TraceOp, WorkloadTrace, NUM_ROWS};
use hmg::sim::{Cycle, EventQueue, Rng};

use crate::clock::thread_cpu_s;

/// On-CPU nanoseconds per operation of `ops` operations timed from
/// `start`, a [`thread_cpu_s`] reading (0 when none ran). Every replay
/// returns this.
fn ns_per_op(start: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        (thread_cpu_s() - start) * 1e9 / ops as f64
    }
}

/// Size of the pre-drawn sample rings the replays cycle through, so that
/// no random draw falls inside a timed loop.
const RING: usize = 1 << 16;

/// Draws `RING` indices distributed like `weights` (all zero when the
/// weights are).
fn weighted_ring(weights: &[u64], rng: &mut Rng) -> Vec<usize> {
    let total: u64 = weights.iter().sum();
    (0..RING)
        .map(|_| {
            if total == 0 {
                return 0;
            }
            let mut pick = rng.gen_range(0, total);
            weights
                .iter()
                .position(|&n| {
                    let hit = pick < n;
                    pick = pick.saturating_sub(n);
                    hit
                })
                .unwrap_or(0)
        })
        .collect()
}

/// `EventQueue` push/pop replay: `events` pops, each followed by a push
/// due a miss latency later, over a queue holding `depth` events. The
/// latencies are drawn from the cell's log2 miss-latency histogram.
pub fn queue(events: u64, depth: u64, hist: &[u64; 24], seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let offsets: Vec<u64> = weighted_ring(hist, &mut rng)
        .into_iter()
        .map(|bucket| rng.gen_range(1 << bucket, 2 << bucket))
        .collect();
    let depth = depth.max(1);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut k = 0usize;
    let mut next = || {
        k = (k + 1) & (RING - 1);
        offsets[k]
    };
    let start = thread_cpu_s();
    for i in 0..depth {
        q.push(Cycle(next()), i as u32);
    }
    let mut sink = 0u64;
    for _ in 0..events {
        let Some((t, e)) = q.pop() else { break };
        sink = sink.wrapping_add(u64::from(e));
        q.push(Cycle(t.0 + next()), e);
    }
    black_box(sink);
    ns_per_op(start, depth + 2 * events)
}

/// The trace's accesses in CTA order, each tagged with the GPM the
/// contiguous CTA scheduler places its CTA on.
#[derive(Debug, Default)]
pub struct AccessStream {
    /// Line of each access.
    pub lines: Vec<LineAddr>,
    /// Directory block of each access.
    pub blocks: Vec<BlockAddr>,
    /// GPM of each access in the low bits, and [`STORE_BIT`].
    pub tags: Vec<u16>,
}

/// Set in an [`AccessStream`] tag when the access writes.
pub const STORE_BIT: u16 = 1 << 15;

impl AccessStream {
    /// Extracts the accesses of `trace`.
    pub fn new(trace: &WorkloadTrace, geometry: MemGeometry, gpms: u16) -> AccessStream {
        let mut s = AccessStream::default();
        for kernel in &trace.kernels {
            let n = kernel.ctas.len().max(1);
            for (c, cta) in kernel.ctas.iter().enumerate() {
                let gpm = (c * usize::from(gpms) / n) as u16;
                for op in &cta.ops {
                    if let TraceOp::Access(a) = op {
                        let line = geometry.line_of(a.addr);
                        s.lines.push(line);
                        s.blocks.push(geometry.block_of(line));
                        s.tags
                            .push(gpm | if a.kind.writes() { STORE_BIT } else { 0 });
                    }
                }
            }
        }
        s
    }
}

/// `Cache::get`/`insert` replay: every access probes its GPM's L2 slice
/// and fills it on a miss.
pub fn cache(stream: &AccessStream, l2: CacheConfig, gpms: u16) -> f64 {
    let mut slices: Vec<Cache<u64>> = (0..gpms).map(|_| Cache::new(l2)).collect();
    let start = thread_cpu_s();
    for (&line, &tag) in stream.lines.iter().zip(&stream.tags) {
        let slice = &mut slices[usize::from(tag & !STORE_BIT)];
        if slice.get(line).is_none() {
            black_box(slice.insert(line, 0));
        }
    }
    ns_per_op(start, stream.lines.len() as u64)
}

/// `Directory::allocate`/`lookup_mut` replay at each block's home GPM:
/// a load records its GPM as a sharer, a store leaves the writer as the
/// only sharer of a tracked block.
pub fn directory(stream: &AccessStream, dir: DirectoryConfig, topo: Topology) -> f64 {
    let n = u64::from(topo.num_gpms());
    let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(dir, topo)).collect();
    let start = thread_cpu_s();
    for (&block, &tag) in stream.blocks.iter().zip(&stream.tags) {
        let home = &mut dirs[(block.0 % n) as usize];
        let me = Sharer::Gpm(GpmId(tag & !STORE_BIT));
        if tag & STORE_BIT != 0 {
            if let Some(sharers) = home.lookup_mut(block) {
                sharers.clear();
                sharers.insert(&topo, me);
            }
        } else {
            let (sharers, victim) = home.allocate(block);
            sharers.insert(&topo, me);
            black_box(victim);
        }
    }
    ns_per_op(start, stream.blocks.len() as u64)
}

/// `Fabric::send` replay of a cell's message mix: per class, as many
/// intra-GPU-only and inter-GPU messages of the cell's mean size as the
/// cell sent, shuffled and offered evenly over the cell's cycles, on a
/// fabric carrying the cell's fault plan.
pub fn fabric(stats: &FabricStats, cycles: u64, cfg: &EngineConfig, seed: u64) -> f64 {
    let topo = cfg.topo;
    let (gpus, per_gpu) = (topo.num_gpus(), topo.gpms_per_gpu());
    let mut rng = Rng::new(seed);
    let mut pick = |n: u16| rng.gen_range(0, u64::from(n)) as u16;
    let mut msgs: Vec<(GpmId, GpmId, u32, MsgClass)> = Vec::new();
    for class in MsgClass::ALL {
        let inter = stats.inter_msgs(class);
        let intra = stats.intra_msgs(class).saturating_sub(inter);
        let inter_bytes = stats.inter_bytes(class) / inter.max(1);
        let intra_bytes = stats
            .intra_bytes(class)
            .saturating_sub(stats.inter_bytes(class))
            / intra.max(1);
        if per_gpu > 1 {
            for _ in 0..intra {
                let g = GpuId(pick(gpus));
                let a = pick(per_gpu);
                let b = (a + 1 + pick(per_gpu - 1)) % per_gpu;
                msgs.push((topo.gpm(g, a), topo.gpm(g, b), intra_bytes as u32, class));
            }
        }
        if gpus > 1 {
            for _ in 0..inter {
                let a = pick(gpus);
                let b = (a + 1 + pick(gpus - 1)) % gpus;
                let src = topo.gpm(GpuId(a), pick(per_gpu));
                let dst = topo.gpm(GpuId(b), pick(per_gpu));
                msgs.push((src, dst, inter_bytes as u32, class));
            }
        }
    }
    Rng::new(seed ^ 1).shuffle(&mut msgs);
    let mut net = Fabric::new(topo, cfg.fabric);
    net.apply_faults(&cfg.faults);
    net.set_checksums(cfg.checksums);
    let n = msgs.len().max(1) as u64;
    let start = thread_cpu_s();
    for (i, &(src, dst, bytes, class)) in msgs.iter().enumerate() {
        let now = Cycle(i as u64 * cycles / n);
        black_box(net.send(now, src, dst, bytes, class));
    }
    ns_per_op(start, msgs.len() as u64)
}

/// `ProtocolSpec::row` replay: `checked` lookups, drawn from the cell's
/// executed-row counts.
pub fn spec(rows: &[u64; NUM_ROWS], checked: u64, spec: ProtocolSpec, seed: u64) -> f64 {
    if rows.iter().all(|&n| n == 0) {
        return 0.0;
    }
    let cells: Vec<_> = weighted_ring(rows, &mut Rng::new(seed))
        .into_iter()
        .map(row_of)
        .collect();
    let start = thread_cpu_s();
    for i in 0..checked as usize {
        let (state, event) = cells[i & (RING - 1)];
        black_box(spec.row(black_box(state), black_box(event), GuardCtx::FREE));
    }
    ns_per_op(start, checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmg::protocol::Arbitration;

    #[test]
    fn replays_report_a_cost_only_when_they_ran() {
        let mut hist = [0u64; 24];
        hist[7] = 10;
        assert!(queue(1000, 8, &hist, 1) > 0.0);

        let hmg = ProtocolSpec::of(true, Arbitration::NackRetry);
        let mut rows = [0u64; NUM_ROWS];
        rows[3] = 5;
        assert!(spec(&rows, 100, hmg, 1) > 0.0);
        assert_eq!(spec(&[0; NUM_ROWS], 100, hmg, 1), 0.0);
        assert_eq!(spec(&rows, 0, hmg, 1), 0.0);
    }
}
