//! A bandwidth/latency-modeled local DRAM partition.
//!
//! Each GPM owns one partition of its GPU's DRAM (Table II: 1 TB/s and
//! 32 GB per GPU, so 250 GB/s per GPM in the 4-GPM configuration).

use hmg_interconnect::Link;
use hmg_sim::Cycle;

/// One GPM's DRAM partition: a single port with finite bandwidth and a
/// fixed access latency.
///
/// # Example
///
/// ```
/// use hmg_mem::Dram;
/// use hmg_sim::Cycle;
///
/// let mut d = Dram::new(192.0, Cycle(300)); // ~250 GB/s at 1.3 GHz
/// let done = d.access(Cycle(0), 128);
/// assert!(done >= Cycle(300));
/// assert_eq!(d.bytes_transferred(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    port: Link,
    reads: u64,
    writes: u64,
}

impl Dram {
    /// Creates a partition moving `bytes_per_cycle` with `latency` cycles
    /// of access time.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive.
    pub fn new(bytes_per_cycle: f64, latency: Cycle) -> Self {
        Dram {
            port: Link::new(bytes_per_cycle, latency),
            reads: 0,
            writes: 0,
        }
    }

    /// Performs a read of `bytes`; returns the completion time.
    pub fn access(&mut self, now: Cycle, bytes: u32) -> Cycle {
        self.reads += 1;
        self.port.send(now, bytes)
    }

    /// Performs a write of `bytes`; returns the completion time.
    pub fn write(&mut self, now: Cycle, bytes: u32) -> Cycle {
        self.writes += 1;
        self.port.send(now, bytes)
    }

    /// Total bytes moved in either direction.
    pub fn bytes_transferred(&self) -> u64 {
        self.port.bytes_sent()
    }

    /// Number of read accesses.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write accesses.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Port utilization over `elapsed` cycles.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        self.port.utilization(elapsed)
    }
}

hmg_sim::snapshot_codec!(Dram {
    port,
    reads,
    writes
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_includes_latency_and_serialization() {
        let mut d = Dram::new(64.0, Cycle(200));
        // 128 B / 64 Bpc = 2 cycles + 200 latency.
        assert_eq!(d.access(Cycle(0), 128), Cycle(202));
    }

    #[test]
    fn bandwidth_throttles_bursts() {
        let mut d = Dram::new(1.0, Cycle(0));
        d.access(Cycle(0), 100);
        let done = d.access(Cycle(0), 100);
        assert_eq!(done, Cycle(200));
    }

    #[test]
    fn read_write_counters() {
        let mut d = Dram::new(64.0, Cycle(1));
        d.access(Cycle(0), 128);
        d.write(Cycle(0), 32);
        d.write(Cycle(0), 32);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 2);
        assert_eq!(d.bytes_transferred(), 192);
    }

    #[test]
    fn snapshot_round_trip_preserves_port_backlog() {
        use hmg_sim::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
        let mut d = Dram::new(3.0, Cycle(200));
        d.access(Cycle(0), 1); // fractional occupancy: 1/3 cycle
        d.write(Cycle(0), 1);
        let mut w = SnapWriter::new();
        d.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = Dram::read_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.reads(), 1);
        assert_eq!(back.writes(), 1);
        assert_eq!(back.bytes_transferred(), 2);
        // The fractional next-free position must survive exactly: the
        // next access completes at the same cycle on both.
        assert_eq!(d.access(Cycle(0), 1), back.access(Cycle(0), 1));
    }
}
