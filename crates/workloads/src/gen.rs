//! Building blocks for trace generation: a page-granular address space,
//! line-addressable regions, and a CTA op builder.

use hmg_mem::Addr;
use hmg_protocol::{Access, AccessKind, Scope, TraceOp};
use hmg_sim::Rng;

/// Cache-line size the generators emit accesses at.
pub const LINE: u64 = 128;
/// Page size regions are aligned to, so first-touch placement assigns
/// whole regions cleanly.
pub const PAGE: u64 = 2 * 1024 * 1024;

/// A contiguous, page-aligned span of global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    bytes: u64,
}

impl Region {
    /// First byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of cache lines in the region.
    pub fn lines(&self) -> u64 {
        self.bytes / LINE
    }

    /// Byte address of the `i`-th line (wrapping around the region).
    ///
    /// # Panics
    ///
    /// Panics if the region is empty.
    pub fn line(&self, i: u64) -> Addr {
        assert!(self.lines() > 0, "empty region");
        Addr(self.base + (i % self.lines()) * LINE)
    }

    /// The `i`-th of `n` equal line-aligned tiles.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n == 0`.
    pub fn tile(&self, i: u64, n: u64) -> Region {
        assert!(n > 0 && i < n, "tile {i} of {n}");
        let lines = self.lines();
        let per = lines / n;
        let lo = i * per;
        let hi = if i == n - 1 { lines } else { (i + 1) * per };
        Region {
            base: self.base + lo * LINE,
            bytes: (hi - lo) * LINE,
        }
    }
}

/// Allocates page-aligned regions from a flat address space.
#[derive(Debug, Default)]
pub struct AddrSpace {
    next: u64,
}

impl AddrSpace {
    /// A fresh, empty address space starting at address 0.
    pub fn new() -> Self {
        AddrSpace::default()
    }

    /// Allocates `bytes` at a page-aligned base. The region's usable size
    /// is `bytes` rounded up to whole cache lines (so small hot regions
    /// keep their intended size); the allocator still advances by whole
    /// pages so distinct regions never share a page.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let usable = bytes.div_ceil(LINE).max(1) * LINE;
        let r = Region {
            base: self.next,
            bytes: usable,
        };
        self.next += usable.div_ceil(PAGE).max(1) * PAGE;
        r
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

/// Builds one CTA's op list.
#[derive(Debug, Default)]
pub struct CtaBuilder {
    ops: Vec<TraceOp>,
}

impl CtaBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        CtaBuilder::default()
    }

    /// Appends a plain load of line `i` of `r`.
    pub fn load(&mut self, r: Region, i: u64) -> &mut Self {
        self.ops.push(TraceOp::Access(Access::load(r.line(i))));
        self
    }

    /// Appends a plain store to line `i` of `r`.
    pub fn store(&mut self, r: Region, i: u64) -> &mut Self {
        self.ops.push(TraceOp::Access(Access::store(r.line(i))));
        self
    }

    /// Appends a scoped access.
    pub fn access(&mut self, r: Region, i: u64, kind: AccessKind, scope: Scope) -> &mut Self {
        self.ops
            .push(TraceOp::Access(Access::new(r.line(i), kind, scope)));
        self
    }

    /// Appends `n` sequential loads starting at line `start` of `r`,
    /// with `delay` compute cycles between consecutive accesses.
    pub fn stream_loads(&mut self, r: Region, start: u64, n: u64, delay: u32) -> &mut Self {
        for k in 0..n {
            self.load(r, start + k);
            self.delay(delay);
        }
        self
    }

    /// Appends `n` sequential stores starting at line `start` of `r`.
    pub fn stream_stores(&mut self, r: Region, start: u64, n: u64, delay: u32) -> &mut Self {
        for k in 0..n {
            self.store(r, start + k);
            self.delay(delay);
        }
        self
    }

    /// Appends `n` uniformly random loads over `r`.
    pub fn random_loads(&mut self, r: Region, n: u64, rng: &mut Rng, delay: u32) -> &mut Self {
        for _ in 0..n {
            self.load(r, rng.gen_range(0, r.lines()));
            self.delay(delay);
        }
        self
    }

    /// Appends `n` Zipf-distributed loads over `r` with exponent `s`.
    pub fn zipf_loads(
        &mut self,
        r: Region,
        n: u64,
        s: f64,
        rng: &mut Rng,
        delay: u32,
    ) -> &mut Self {
        for _ in 0..n {
            self.load(r, rng.gen_zipf(r.lines(), s));
            self.delay(delay);
        }
        self
    }

    /// Appends a compute delay (skipped when zero).
    pub fn delay(&mut self, cycles: u32) -> &mut Self {
        if cycles > 0 {
            self.ops.push(TraceOp::Delay(cycles));
        }
        self
    }

    /// Appends a scoped acquire.
    pub fn acquire(&mut self, scope: Scope) -> &mut Self {
        self.ops.push(TraceOp::Acquire(scope));
        self
    }

    /// Appends a scoped release.
    pub fn release(&mut self, scope: Scope) -> &mut Self {
        self.ops.push(TraceOp::Release(scope));
        self
    }

    /// Appends a flag set.
    pub fn set_flag(&mut self, flag: u32) -> &mut Self {
        self.ops.push(TraceOp::SetFlag(flag));
        self
    }

    /// Appends a flag wait.
    pub fn wait_flag(&mut self, flag: u32, count: u32) -> &mut Self {
        self.ops.push(TraceOp::WaitFlag { flag, count });
        self
    }

    /// Finishes the CTA.
    pub fn build(self) -> hmg_protocol::Cta {
        hmg_protocol::Cta::new(self.ops)
    }

    /// Finishes the CTA, spreading `tail`'s ops evenly through this
    /// builder's ops. Real kernels emit their output stores as results
    /// are produced, not in a burst at CTA exit; bursty final writes
    /// would otherwise serialize every kernel boundary on the hot DRAM
    /// partitions.
    pub fn build_interleaved(self, tail: CtaBuilder) -> hmg_protocol::Cta {
        if tail.ops.is_empty() {
            return self.build();
        }
        if self.ops.is_empty() {
            return tail.build();
        }
        let stride = self.ops.len().div_ceil(tail.ops.len()).max(1);
        let mut merged = Vec::with_capacity(self.ops.len() + tail.ops.len());
        let mut t = tail.ops.into_iter();
        for (i, op) in self.ops.into_iter().enumerate() {
            merged.push(op);
            if (i + 1) % stride == 0 {
                if let Some(w) = t.next() {
                    merged.push(w);
                }
            }
        }
        merged.extend(t);
        hmg_protocol::Cta::new(merged)
    }

    /// Ops accumulated so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops have been added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut a = AddrSpace::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(PAGE + 1);
        assert_eq!(r1.base() % PAGE, 0);
        // Usable size is line-rounded; the allocator still advances by
        // whole pages.
        assert_eq!(r1.bytes(), LINE);
        assert_eq!(r2.base(), PAGE);
        assert_eq!(r2.bytes(), PAGE + LINE);
        assert_eq!(a.allocated(), 3 * PAGE);
    }

    #[test]
    fn region_line_addresses() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        assert_eq!(r.lines(), PAGE / LINE);
        assert_eq!(r.line(0), Addr(0));
        assert_eq!(r.line(1), Addr(128));
        // Wraps.
        assert_eq!(r.line(r.lines()), Addr(0));
    }

    #[test]
    fn tiles_partition_the_region() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        let n = 7;
        let mut covered = 0;
        for i in 0..n {
            covered += r.tile(i, n).lines();
        }
        assert_eq!(covered, r.lines());
        // Adjacent tiles touch.
        let t0 = r.tile(0, n);
        let t1 = r.tile(1, n);
        assert_eq!(t0.base() + t0.bytes(), t1.base());
    }

    #[test]
    fn builder_emits_expected_ops() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        let mut b = CtaBuilder::new();
        b.stream_loads(r, 0, 3, 5).store(r, 1).set_flag(2);
        assert!(!b.is_empty());
        let cta = b.build();
        assert_eq!(cta.num_accesses(), 4);
        assert!(matches!(cta.ops.get(1), Some(TraceOp::Delay(5))));
        assert!(matches!(cta.ops.iter().last(), Some(TraceOp::SetFlag(2))));
    }

    #[test]
    fn random_and_zipf_loads_stay_in_region() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        let mut rng = Rng::new(1);
        let mut b = CtaBuilder::new();
        b.random_loads(r, 100, &mut rng, 0)
            .zipf_loads(r, 100, 0.8, &mut rng, 0);
        for op in &b.ops {
            if let TraceOp::Access(acc) = op {
                assert!(acc.addr.0 >= r.base() && acc.addr.0 < r.base() + r.bytes());
            }
        }
    }
}
