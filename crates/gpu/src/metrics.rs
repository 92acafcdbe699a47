//! Metrics collected by a simulation run — the raw material for every
//! figure in the evaluation.

use hmg_interconnect::FabricStats;
use hmg_protocol::TableConformance;
use hmg_sim::{Cycle, IntegrityStats, ReconfigStats};

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Simulated execution time of the whole trace.
    pub total_cycles: Cycle,
    /// Events the DES processed (simulation-size metric, Fig. 7 runtime).
    pub events: u64,

    // Access counts.
    /// Loads/atomics issued by SMs.
    pub loads: u64,
    /// Stores issued by SMs.
    pub stores: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Hits in the requester's own L2 slice.
    pub local_l2_hits: u64,
    /// Hits at a GPU home node (hierarchical protocols only).
    pub gpu_home_hits: u64,
    /// Hits at the system home node.
    pub sys_home_hits: u64,
    /// Requests served by DRAM.
    pub dram_accesses: u64,
    /// Loads that crossed the inter-GPU network.
    pub inter_gpu_loads: u64,
    /// Of those, loads to lines previously accessed by *another GPM of
    /// the same GPU* (the Fig. 3 numerator).
    pub inter_gpu_loads_peer_redundant: u64,

    // Coherence activity.
    /// Invalidation messages caused by stores/atomics.
    pub invs_from_stores: u64,
    /// Invalidation messages caused by directory evictions.
    pub invs_from_evictions: u64,
    /// Stores that triggered at least one invalidation (Fig. 9 denominator).
    pub stores_triggering_invs: u64,
    /// Directory evictions that triggered invalidations (Fig. 10 denominator).
    pub evictions_triggering_invs: u64,
    /// L2 cache lines actually removed by store-caused invalidations.
    pub lines_invalidated_by_stores: u64,
    /// L2 cache lines actually removed by eviction-caused invalidations.
    pub lines_invalidated_by_evictions: u64,
    /// Cache lines dropped by software bulk invalidations at acquires.
    pub lines_bulk_invalidated: u64,
    /// L2 fills refused because they carried a version older than an
    /// already-processed invalidation (or the resident copy) — the
    /// inv-versus-in-flight-fill race the per-block fill floor closes.
    pub stale_fills_dropped: u64,
    /// Release fences executed.
    pub fences: u64,
    /// Dirty-line writebacks (write-back policy only).
    pub writebacks: u64,
    /// Sharer-downgrade messages sent (optional §IV-B mechanism).
    pub downgrades: u64,

    // Recovery and degradation.
    /// Requests rejected by a busy directory home and re-issued by the
    /// requester after an exponential backoff (NACK flow control).
    pub nacks: u64,
    /// Requests a busy directory home held and replayed after a fixed
    /// quantum instead of NACKing (phase-priority arbitration).
    pub deferred_reqs: u64,
    /// Directory entries that overflowed the sharer cap and degraded
    /// from precise tracking to conservative broadcast mode.
    pub dir_broadcast_fallbacks: u64,
    /// Invalidation rounds that used the conservative broadcast target
    /// list because the directory entry had degraded.
    pub broadcast_invs: u64,
    /// Fail-in-place reconfiguration accounting (permanent faults:
    /// link-down, gpm-offline, gpu-offline). All-zero on fault-free
    /// runs.
    pub reconfig: ReconfigStats,
    /// Soft-error accounting (flip-msg/flip-line/flip-dir injection,
    /// checksum/ECC detection and recovery). All-zero on fault-free
    /// runs; `silent_corruptions` must stay zero whenever checksums and
    /// ECC are enabled — every injected flip is either recovered or
    /// contained (poison + CTA abort), never consumed silently.
    pub integrity: IntegrityStats,
    /// Runtime conformance of executed directory transitions against
    /// the static Table I (`hmg_protocol::spec` rows): per-row coverage,
    /// transitions checked, and mismatches. A nonzero mismatch count
    /// means the engine drifted from the table; debug builds assert
    /// instead.
    pub table: TableConformance,
    /// FNV-1a digest of the final committed memory state, over
    /// `(line, version)` pairs in ascending line order. Two runs that
    /// converge to the same per-line memory state report the same
    /// digest, regardless of the faults recovered along the way.
    pub state_digest: u64,

    /// Fabric traffic, by tier and class.
    pub fabric: FabricStats,
    /// Bytes written to / read from DRAM across all partitions.
    pub dram_bytes: u64,
    /// Coherence-checker observations for the configured probe line:
    /// `(flat SM index, observed version)` per load, in completion order.
    pub probe: Vec<(u32, u64)>,
    /// Highest per-GPM DRAM-port utilization (bottleneck diagnosis).
    pub max_dram_util: f64,
    /// Highest per-GPU inter-GPU egress utilization.
    pub max_inter_util: f64,
    /// Highest per-GPM intra-GPU port utilization (egress or ingress).
    pub max_intra_util: f64,
    /// Sum of load/atomic miss latencies (issue to completion), cycles.
    pub miss_latency_sum: u64,
    /// Number of completed misses.
    pub miss_count: u64,
    /// Peak concurrent in-flight loads (MLP actually achieved).
    pub max_loads_inflight: u64,
    /// Cycle at which each kernel completed (monotone; last entry equals
    /// `total_cycles` up to the final drain).
    pub kernel_end_cycles: Vec<u64>,
    /// Log2-bucketed histogram of load/atomic miss latencies: bucket `i`
    /// counts misses with latency in `[2^i, 2^(i+1))`.
    pub miss_latency_hist: [u64; 24],
}

impl RunMetrics {
    /// Fraction of inter-GPU loads whose line another GPM of the same GPU
    /// had already touched (Fig. 3). `None` if no inter-GPU loads occurred
    /// or tracking was disabled.
    pub fn peer_redundancy(&self) -> Option<f64> {
        if self.inter_gpu_loads == 0 {
            None
        } else {
            Some(self.inter_gpu_loads_peer_redundant as f64 / self.inter_gpu_loads as f64)
        }
    }

    /// Average L2 lines invalidated per invalidation-triggering store
    /// (Fig. 9). `None` if no store triggered invalidations.
    pub fn lines_per_store_inv(&self) -> Option<f64> {
        if self.stores_triggering_invs == 0 {
            None
        } else {
            Some(self.lines_invalidated_by_stores as f64 / self.stores_triggering_invs as f64)
        }
    }

    /// Average L2 lines invalidated per invalidation-triggering directory
    /// eviction (Fig. 10). `None` if none occurred.
    pub fn lines_per_eviction_inv(&self) -> Option<f64> {
        if self.evictions_triggering_invs == 0 {
            None
        } else {
            Some(self.lines_invalidated_by_evictions as f64 / self.evictions_triggering_invs as f64)
        }
    }

    /// Total invalidation-message bandwidth in GB/s at `freq_ghz`
    /// (Fig. 11), counting both network tiers.
    pub fn inv_bandwidth_gbps(&self, freq_ghz: f64) -> f64 {
        let bytes = self.fabric.total_bytes(hmg_interconnect::MsgClass::Inv);
        FabricStats::gbps(bytes, self.total_cycles, freq_ghz)
    }

    /// Average load/atomic miss latency in cycles. 0 if no misses.
    pub fn avg_miss_latency(&self) -> f64 {
        if self.miss_count == 0 {
            0.0
        } else {
            self.miss_latency_sum as f64 / self.miss_count as f64
        }
    }

    /// Approximate latency percentile (0.0–1.0) from the log2 histogram;
    /// returns the upper bound of the bucket containing the quantile.
    /// 0 if no misses recorded.
    pub fn miss_latency_percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let total: u64 = self.miss_latency_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (q * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.miss_latency_hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << self.miss_latency_hist.len()
    }

    /// Average cycles per kernel (excluding an empty trace).
    pub fn avg_kernel_cycles(&self) -> f64 {
        if self.kernel_end_cycles.is_empty() {
            return 0.0;
        }
        let mut prev = 0;
        let mut sum = 0u64;
        for &e in &self.kernel_end_cycles {
            sum += e - prev;
            prev = e;
        }
        sum as f64 / self.kernel_end_cycles.len() as f64
    }

    /// L1 hit rate over all loads. 0 if no loads.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.loads as f64
        }
    }

    /// Behaviour fingerprint: FNV-1a over the run's snapshot encoding,
    /// so it covers every field the codec below lists — cycles, events,
    /// every counter, fabric and table stats, the miss-latency
    /// histogram, kernel end cycles, and [`RunMetrics::state_digest`].
    /// Unlike the digest it moves when timing or traffic moves, which
    /// makes it the gate for refactors that must not change behaviour.
    pub fn fingerprint(&self) -> u64 {
        use hmg_sim::SnapshotWrite;
        let mut w = hmg_sim::SnapWriter::new();
        self.write_snap(&mut w);
        hmg_sim::snap::fnv1a64(&w.into_bytes())
    }
}

// Serialized in declaration order; every field participates so a
// resumed run's final RunMetrics is bit-identical to an uninterrupted
// run's.
hmg_sim::snapshot_codec!(RunMetrics {
    total_cycles,
    events,
    loads,
    stores,
    l1_hits,
    local_l2_hits,
    gpu_home_hits,
    sys_home_hits,
    dram_accesses,
    inter_gpu_loads,
    inter_gpu_loads_peer_redundant,
    invs_from_stores,
    invs_from_evictions,
    stores_triggering_invs,
    evictions_triggering_invs,
    lines_invalidated_by_stores,
    lines_invalidated_by_evictions,
    lines_bulk_invalidated,
    stale_fills_dropped,
    fences,
    writebacks,
    downgrades,
    nacks,
    deferred_reqs,
    dir_broadcast_fallbacks,
    broadcast_invs,
    reconfig,
    integrity,
    table,
    state_digest,
    fabric,
    dram_bytes,
    probe,
    max_dram_util,
    max_inter_util,
    max_intra_util,
    miss_latency_sum,
    miss_count,
    max_loads_inflight,
    kernel_end_cycles,
    miss_latency_hist,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_runs() {
        let m = RunMetrics::default();
        assert_eq!(m.peer_redundancy(), None);
        assert_eq!(m.lines_per_store_inv(), None);
        assert_eq!(m.lines_per_eviction_inv(), None);
        assert_eq!(m.l1_hit_rate(), 0.0);
        assert_eq!(m.inv_bandwidth_gbps(1.3), 0.0);
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let mut m = RunMetrics::default();
        // 8 misses in [256,512), 2 in [4096,8192).
        m.miss_latency_hist[8] = 8;
        m.miss_latency_hist[12] = 2;
        assert_eq!(m.miss_latency_percentile(0.5), 512);
        assert_eq!(m.miss_latency_percentile(0.95), 8192);
        assert_eq!(RunMetrics::default().miss_latency_percentile(0.5), 0);
    }

    #[test]
    fn fingerprint_moves_with_timing_not_just_the_digest() {
        let base = RunMetrics {
            total_cycles: Cycle(7011),
            state_digest: 42,
            ..RunMetrics::default()
        };
        // Same final state, one miss landing in a slower bucket.
        let mut later = base.clone();
        later.miss_latency_hist[9] += 1;
        assert_ne!(later.fingerprint(), base.fingerprint());
    }

    #[test]
    fn kernel_cycle_averages() {
        let m = RunMetrics {
            kernel_end_cycles: vec![100, 250, 400],
            ..RunMetrics::default()
        };
        assert!((m.avg_kernel_cycles() - 133.33).abs() < 0.34);
        assert_eq!(RunMetrics::default().avg_kernel_cycles(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let m = RunMetrics {
            loads: 100,
            l1_hits: 40,
            inter_gpu_loads: 10,
            inter_gpu_loads_peer_redundant: 7,
            stores_triggering_invs: 4,
            lines_invalidated_by_stores: 10,
            evictions_triggering_invs: 2,
            lines_invalidated_by_evictions: 8,
            ..RunMetrics::default()
        };
        assert_eq!(m.l1_hit_rate(), 0.4);
        assert_eq!(m.peer_redundancy(), Some(0.7));
        assert_eq!(m.lines_per_store_inv(), Some(2.5));
        assert_eq!(m.lines_per_eviction_inv(), Some(4.0));
    }
}
