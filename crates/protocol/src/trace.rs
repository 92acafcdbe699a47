//! The trace format the workload generators produce and the GPU engine
//! replays.
//!
//! A workload is a sequence of kernels; each kernel is a grid of CTAs;
//! each CTA is a straight-line list of [`TraceOp`]s. Kernels launch in
//! dependency order (the inter-kernel communication pattern the emerging
//! workloads of Section II-B rely on); kernel boundaries carry the
//! implicit `.sys` acquire/release the memory model attaches to kernel
//! launch and completion (Section II-D).
//!
//! Fine-grained synchronization *within* a kernel is expressed with
//! counting flags ([`TraceOp::SetFlag`] / [`TraceOp::WaitFlag`]) plus
//! explicit scoped acquire/release ops — modeling the `.gpu`-scoped
//! synchronization that `cuSolver`, `namd2.10` and `mst` use (Section VI)
//! without simulating spin loops, which the paper's own simulator also
//! cannot model faithfully.

use hmg_sim::Addr;

use crate::op::{Access, AccessKind};
use crate::scope::Scope;

/// One step of a CTA's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A warp-coalesced memory access.
    Access(Access),
    /// Compute time between memory operations, in cycles.
    Delay(u32),
    /// A scoped acquire (invalidates caches per the protocol's rules).
    Acquire(Scope),
    /// A scoped release (drains writes/invalidations per the protocol).
    Release(Scope),
    /// Increments counting flag `flag` (visible to every CTA).
    SetFlag(u32),
    /// Blocks until flag `flag` has been set at least `count` times.
    WaitFlag {
        /// Flag identifier.
        flag: u32,
        /// Required count.
        count: u32,
    },
}

/// One CTA: a straight-line op list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cta {
    /// The operations, in program order.
    pub ops: Ops,
}

impl Cta {
    /// Creates a CTA from its ops.
    pub fn new(ops: Vec<TraceOp>) -> Self {
        Cta {
            ops: Ops::pack(&ops),
        }
    }

    /// Number of memory accesses in this CTA.
    pub fn num_accesses(&self) -> usize {
        self.ops.num_accesses()
    }
}

// The packed op word. The low `TAG_BITS` bits say which op the word
// holds; the payload fills the 29 bits above them (see `Ops::encode`).
const TAG_BITS: u32 = 3;
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;
const TAG_ACCESS: u32 = 0;
const TAG_DELAY: u32 = 1;
const TAG_ACQUIRE: u32 = 2;
const TAG_RELEASE: u32 = 3;
const TAG_SET_FLAG: u32 = 4;
const TAG_WAIT_FLAG: u32 = 5;
const TAG_ESCAPE: u32 = 6;
/// `Delay` and `SetFlag` values, and escape indices, at or above this do
/// not fit the payload.
const PAYLOAD_LIMIT: u32 = 1 << (32 - TAG_BITS);
/// An access word holds the kind in 2 bits and the scope in 2 bits above
/// the tag, then the byte address divided by `ADDR_ALIGN` in the top 25
/// bits. Those bits are the address's own bits 7..32, so the address is
/// stored in place with its (zero) low bits replaced by the tag, kind
/// and scope; only accesses at a multiple of `ADDR_ALIGN` fit a word.
const ADDR_ALIGN: u64 = 1 << (TAG_BITS + 4);
/// Accesses at or above this address do not fit a word.
const ADDR_LIMIT: u64 = 1 << 32;
/// A `WaitFlag` word holds the flag in 15 bits above the tag and the
/// count in the top 14 bits.
const COUNT_SHIFT: u32 = TAG_BITS + 15;
/// `WaitFlag` flags at or above this do not fit a word.
const FLAG_LIMIT: u32 = 1 << (COUNT_SHIFT - TAG_BITS);
/// `WaitFlag` counts at or above this do not fit a word.
const COUNT_LIMIT: u32 = 1 << (32 - COUNT_SHIFT);

/// A CTA's ops, packed one `u32` word per op.
///
/// Every op that fits is stored inline in its word. What does not fit
/// goes to a per-CTA escape list, and its word holds the escape index:
/// an access at an address that is not a multiple of 128 or is 2^32 or
/// more, a `Delay` or `SetFlag` of 2^29 or more, and a `WaitFlag` whose
/// flag is 2^15 or more or whose count is 2^14 or more. The encoding is
/// canonical (an op is escaped exactly when it does not fit), so the
/// derived `Eq` is equality of the decoded op lists. The list is
/// immutable once built, and keeps its delay-cycle sum, access count and
/// highest access address so callers never re-walk it for them.
///
/// # Example
///
/// ```
/// use hmg_protocol::{Access, Cta, TraceOp};
/// use hmg_sim::Addr;
///
/// let ops = vec![TraceOp::Access(Access::load(Addr(128))), TraceOp::Delay(7)];
/// let cta = Cta::new(ops.clone());
/// assert_eq!(cta.ops.len(), 2);
/// assert_eq!(cta.ops.get(1), Some(TraceOp::Delay(7)));
/// assert_eq!(cta.ops.iter().collect::<Vec<_>>(), ops);
/// assert_eq!(cta.ops.delay_cycles(), 7);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Ops {
    words: Box<[u32]>,
    escapes: Box<[TraceOp]>,
    delay_cycles: u64,
    accesses: usize,
    /// Highest byte address accessed; 0 when `accesses` is 0.
    max_addr: u64,
}

impl Ops {
    /// Number of ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the list holds no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The op at position `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<TraceOp> {
        self.words.get(i).map(|&w| self.decode(w))
    }

    /// Iterates the ops in program order.
    pub fn iter(&self) -> OpsIter<'_> {
        OpsIter {
            words: self.words.iter(),
            ops: self,
        }
    }

    /// Number of [`TraceOp::Access`] ops.
    pub fn num_accesses(&self) -> usize {
        self.accesses
    }

    /// Sum of every [`TraceOp::Delay`] in the list, in cycles.
    pub fn delay_cycles(&self) -> u64 {
        self.delay_cycles
    }

    /// The highest byte address any [`TraceOp::Access`] touches, or
    /// `None` when the list holds no access.
    fn max_addr(&self) -> Option<u64> {
        (self.accesses > 0).then_some(self.max_addr)
    }

    /// Number of ops held in the escape list.
    pub fn num_escapes(&self) -> usize {
        self.escapes.len()
    }

    fn pack(ops: &[TraceOp]) -> Ops {
        let mut words = Vec::with_capacity(ops.len());
        let mut escapes = Vec::new();
        let (mut delay_cycles, mut accesses, mut max_addr) = (0u64, 0usize, 0u64);
        for &op in ops {
            match op {
                TraceOp::Access(a) => {
                    accesses += 1;
                    max_addr = max_addr.max(a.addr.0);
                }
                TraceOp::Delay(d) => delay_cycles += u64::from(d),
                _ => {}
            }
            words.push(Ops::encode(op, &mut escapes));
        }
        Ops {
            words: words.into_boxed_slice(),
            escapes: escapes.into_boxed_slice(),
            delay_cycles,
            accesses,
            max_addr,
        }
    }

    fn encode(op: TraceOp, escapes: &mut Vec<TraceOp>) -> u32 {
        let scope_bits = |s: Scope| -> u32 {
            match s {
                Scope::Cta => 0,
                Scope::Gpu => 1,
                Scope::Sys => 2,
            }
        };
        match op {
            TraceOp::Access(a) if a.addr.0 < ADDR_LIMIT && a.addr.0 % ADDR_ALIGN == 0 => {
                let kind: u32 = match a.kind {
                    AccessKind::Load => 0,
                    AccessKind::Store => 1,
                    AccessKind::Atomic => 2,
                };
                TAG_ACCESS
                    | kind << TAG_BITS
                    | scope_bits(a.scope) << (TAG_BITS + 2)
                    | a.addr.0 as u32
            }
            TraceOp::Delay(d) if d < PAYLOAD_LIMIT => TAG_DELAY | d << TAG_BITS,
            TraceOp::Acquire(s) => TAG_ACQUIRE | scope_bits(s) << TAG_BITS,
            TraceOp::Release(s) => TAG_RELEASE | scope_bits(s) << TAG_BITS,
            TraceOp::SetFlag(f) if f < PAYLOAD_LIMIT => TAG_SET_FLAG | f << TAG_BITS,
            TraceOp::WaitFlag { flag, count } if flag < FLAG_LIMIT && count < COUNT_LIMIT => {
                TAG_WAIT_FLAG | flag << TAG_BITS | count << COUNT_SHIFT
            }
            TraceOp::Access(_)
            | TraceOp::Delay(_)
            | TraceOp::SetFlag(_)
            | TraceOp::WaitFlag { .. } => {
                assert!(
                    escapes.len() < PAYLOAD_LIMIT as usize,
                    "a CTA holds at most 2^29 escaped ops"
                );
                let index = escapes.len() as u32;
                escapes.push(op);
                TAG_ESCAPE | index << TAG_BITS
            }
        }
    }

    #[inline]
    fn decode(&self, w: u32) -> TraceOp {
        const KINDS: [AccessKind; 4] = [
            AccessKind::Load,
            AccessKind::Store,
            AccessKind::Atomic,
            AccessKind::Atomic,
        ];
        const SCOPES: [Scope; 4] = [Scope::Cta, Scope::Gpu, Scope::Sys, Scope::Sys];
        let scope = |bits: u32| SCOPES[(bits & 3) as usize];
        let body = w >> TAG_BITS;
        match w & TAG_MASK {
            TAG_ACCESS => TraceOp::Access(Access::new(
                Addr(u64::from(w) & !(ADDR_ALIGN - 1)),
                KINDS[(body & 3) as usize],
                scope(body >> 2),
            )),
            TAG_DELAY => TraceOp::Delay(body),
            TAG_ACQUIRE => TraceOp::Acquire(scope(body)),
            TAG_RELEASE => TraceOp::Release(scope(body)),
            TAG_SET_FLAG => TraceOp::SetFlag(body),
            TAG_WAIT_FLAG => TraceOp::WaitFlag {
                flag: body & (FLAG_LIMIT - 1),
                count: w >> COUNT_SHIFT,
            },
            _ => self.escapes[body as usize],
        }
    }
}

impl std::fmt::Debug for Ops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Ops {
    type Item = TraceOp;
    type IntoIter = OpsIter<'a>;

    fn into_iter(self) -> OpsIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Ops`] list, decoding each op by value.
#[derive(Debug, Clone)]
pub struct OpsIter<'a> {
    words: std::slice::Iter<'a, u32>,
    ops: &'a Ops,
}

impl Iterator for OpsIter<'_> {
    type Item = TraceOp;

    #[inline]
    fn next(&mut self) -> Option<TraceOp> {
        self.words.next().map(|&w| self.ops.decode(w))
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<TraceOp> {
        self.words.nth(n).map(|&w| self.ops.decode(w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
    }
}

impl ExactSizeIterator for OpsIter<'_> {}

/// One kernel launch: a grid of CTAs, executed between implicit `.sys`
/// synchronization points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Kernel {
    /// The CTAs of the grid; index is the CTA id used for scheduling.
    pub ctas: Vec<Cta>,
}

impl Kernel {
    /// Creates a kernel from its CTAs.
    pub fn new(ctas: Vec<Cta>) -> Self {
        Kernel { ctas }
    }

    /// Number of CTAs in the grid.
    pub fn num_ctas(&self) -> usize {
        self.ctas.len()
    }

    /// Total memory accesses across the grid.
    pub fn num_accesses(&self) -> usize {
        self.ctas.iter().map(Cta::num_accesses).sum()
    }
}

/// A complete workload trace.
///
/// # Example
///
/// ```
/// use hmg_protocol::{WorkloadTrace, Kernel, Cta, TraceOp, Access};
/// use hmg_sim::Addr;
///
/// let cta = Cta::new(vec![TraceOp::Access(Access::load(Addr(0)))]);
/// let trace = WorkloadTrace::new("demo", vec![Kernel::new(vec![cta])]);
/// assert_eq!(trace.num_kernels(), 1);
/// assert_eq!(trace.num_accesses(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadTrace {
    /// Workload name (Table III abbreviation).
    pub name: String,
    /// Kernels in launch (dependency) order.
    pub kernels: Vec<Kernel>,
}

impl WorkloadTrace {
    /// Creates a trace.
    pub fn new(name: impl Into<String>, kernels: Vec<Kernel>) -> Self {
        WorkloadTrace {
            name: name.into(),
            kernels,
        }
    }

    /// Number of kernels.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Total CTAs across all kernels.
    pub fn num_ctas(&self) -> usize {
        self.kernels.iter().map(Kernel::num_ctas).sum()
    }

    /// Total memory accesses across all kernels.
    pub fn num_accesses(&self) -> usize {
        self.kernels.iter().map(Kernel::num_accesses).sum()
    }

    /// Sum of every programmed [`TraceOp::Delay`] across all kernels, in
    /// cycles.
    pub fn delay_cycles(&self) -> u64 {
        self.kernels
            .iter()
            .flat_map(|k| &k.ctas)
            .map(|c| c.ops.delay_cycles())
            .sum()
    }

    /// The highest byte address any access touches, or `None` for a
    /// trace with no accesses.
    pub fn max_addr(&self) -> Option<u64> {
        self.kernels
            .iter()
            .flat_map(|k| &k.ctas)
            .filter_map(|c| c.ops.max_addr())
            .max()
    }

    /// The highest byte address referenced plus one — the trace's
    /// nominal footprint. Returns 0 for a trace with no accesses.
    pub fn footprint_bytes(&self) -> u64 {
        self.max_addr().map_or(0, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmg_sim::Rng;

    fn access(addr: u64) -> TraceOp {
        TraceOp::Access(Access::load(Addr(addr)))
    }

    #[test]
    fn counting_helpers() {
        let cta1 = Cta::new(vec![access(0), TraceOp::Delay(5), access(128)]);
        let cta2 = Cta::new(vec![access(256)]);
        let k1 = Kernel::new(vec![cta1, cta2]);
        let k2 = Kernel::new(vec![Cta::new(vec![TraceOp::Acquire(Scope::Gpu)])]);
        let t = WorkloadTrace::new("t", vec![k1, k2]);
        assert_eq!(t.num_kernels(), 2);
        assert_eq!(t.num_ctas(), 3);
        assert_eq!(t.num_accesses(), 3);
    }

    #[test]
    fn footprint_tracks_highest_address() {
        let t = WorkloadTrace::new(
            "t",
            vec![Kernel::new(vec![Cta::new(vec![access(100), access(5000)])])],
        );
        assert_eq!(t.footprint_bytes(), 5001);
        assert_eq!(t.max_addr(), Some(5000));
        let empty = WorkloadTrace::new("e", vec![]);
        assert_eq!(empty.footprint_bytes(), 0);
        assert_eq!(empty.max_addr(), None);

        // Escaped addresses count, CTAs without accesses do not, and an
        // access at address 0 is still an access.
        let one = |ops: Vec<TraceOp>| Kernel::new(vec![Cta::new(ops)]);
        let escaped = WorkloadTrace::new(
            "x",
            vec![
                one(vec![TraceOp::Delay(1)]),
                one(vec![access(1 << 45), access(128)]),
            ],
        );
        assert_eq!(escaped.max_addr(), Some(1 << 45));
        let zero = WorkloadTrace::new("z", vec![one(vec![access(0)])]);
        assert_eq!((zero.max_addr(), zero.footprint_bytes()), (Some(0), 1));
    }

    #[test]
    fn trace_ops_model_all_sync_forms() {
        let ops = vec![
            TraceOp::Access(Access::new(Addr(0), AccessKind::Store, Scope::Cta)),
            TraceOp::Release(Scope::Gpu),
            TraceOp::SetFlag(3),
            TraceOp::WaitFlag { flag: 3, count: 2 },
            TraceOp::Acquire(Scope::Gpu),
        ];
        let cta = Cta::new(ops);
        assert_eq!(cta.num_accesses(), 1);
        assert_eq!(cta.ops.len(), 5);
    }

    /// One op of every variant and every field, biased toward the values
    /// on either side of the inline/escape boundaries.
    fn arb_op(rng: &mut Rng) -> TraceOp {
        const ADDRS: [u64; 9] = [
            0,
            64,
            128,
            ADDR_LIMIT - ADDR_ALIGN,
            ADDR_LIMIT - 1,
            ADDR_LIMIT,
            ADDR_LIMIT + ADDR_ALIGN,
            1 << 57,
            u64::MAX,
        ];
        const PAYLOADS: [u32; 6] = [
            0,
            1,
            PAYLOAD_LIMIT - 1,
            PAYLOAD_LIMIT,
            u32::MAX - 1,
            u32::MAX,
        ];
        const FLAGS: [u32; 5] = [0, FLAG_LIMIT - 1, FLAG_LIMIT, FLAG_LIMIT + 1, u32::MAX];
        const COUNTS: [u32; 5] = [0, COUNT_LIMIT - 1, COUNT_LIMIT, COUNT_LIMIT + 1, u32::MAX];
        let scope = *rng.choose(&Scope::ALL);
        let u32_of = |rng: &mut Rng, edges: &[u32]| {
            if rng.gen_bool(0.5) {
                *rng.choose(edges)
            } else {
                rng.next_u64() as u32 >> rng.gen_range(0, 32)
            }
        };
        match rng.gen_range(0, 6) {
            0 => {
                let addr = if rng.gen_bool(0.5) {
                    *rng.choose(&ADDRS)
                } else {
                    let a = rng.next_u64() >> rng.gen_range(0, 64);
                    if rng.gen_bool(0.5) {
                        a & !(ADDR_ALIGN - 1)
                    } else {
                        a
                    }
                };
                let kind = *rng.choose(&[AccessKind::Load, AccessKind::Store, AccessKind::Atomic]);
                TraceOp::Access(Access::new(Addr(addr), kind, scope))
            }
            1 => TraceOp::Delay(u32_of(rng, &PAYLOADS)),
            2 => TraceOp::Acquire(scope),
            3 => TraceOp::Release(scope),
            4 => TraceOp::SetFlag(u32_of(rng, &PAYLOADS)),
            _ => TraceOp::WaitFlag {
                flag: u32_of(rng, &FLAGS),
                count: u32_of(rng, &COUNTS),
            },
        }
    }

    #[test]
    fn packing_round_trips_every_op_and_keeps_eq_exact() {
        use crate::tracefile::{read_trace, write_trace};
        let mut rng = Rng::new(0x7ace);
        let mut kernels = Vec::new();
        for _ in 0..200 {
            let n = rng.gen_range(0, 40) as usize;
            let v: Vec<TraceOp> = (0..n).map(|_| arb_op(&mut rng)).collect();
            let cta = Cta::new(v.clone());
            assert_eq!(cta.ops.iter().collect::<Vec<_>>(), v);
            assert_eq!((&cta.ops).into_iter().len(), n);
            for (i, op) in v.iter().enumerate() {
                assert_eq!(cta.ops.get(i), Some(*op));
                assert_eq!(cta.ops.iter().nth(i), Some(*op));
            }
            assert_eq!(cta.ops.get(n), None);
            let delays: u64 = v
                .iter()
                .map(|op| match op {
                    TraceOp::Delay(d) => u64::from(*d),
                    _ => 0,
                })
                .sum();
            assert_eq!(cta.ops.delay_cycles(), delays);
            let accesses = v
                .iter()
                .filter(|op| matches!(op, TraceOp::Access(_)))
                .count();
            assert_eq!(cta.num_accesses(), accesses);

            // Cta equality is Vec equality: against a copy, and against a
            // copy with one op replaced.
            assert_eq!(Cta::new(v.clone()), cta);
            if n > 0 {
                let mut w = v.clone();
                let i = rng.gen_range(0, n as u64) as usize;
                w[i] = arb_op(&mut rng);
                assert_eq!(Cta::new(w.clone()) == cta, w == v, "{w:?} vs {v:?}");
            }
            kernels.push(Kernel::new(vec![cta]));
        }
        let trace = WorkloadTrace::new("packing", kernels);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).unwrap();
        assert_eq!(read_trace(&bytes[..]).unwrap(), trace);
    }

    #[test]
    fn escape_boundaries_are_exact() {
        let inline = [
            TraceOp::Access(Access::atomic(Addr(ADDR_LIMIT - ADDR_ALIGN), Scope::Sys)),
            TraceOp::Access(Access::new(Addr(0), AccessKind::Store, Scope::Gpu)),
            TraceOp::Delay(PAYLOAD_LIMIT - 1),
            TraceOp::SetFlag(PAYLOAD_LIMIT - 1),
            TraceOp::WaitFlag {
                flag: FLAG_LIMIT - 1,
                count: COUNT_LIMIT - 1,
            },
            TraceOp::Acquire(Scope::Sys),
            TraceOp::Release(Scope::Gpu),
        ];
        let escaped = [
            TraceOp::Access(Access::load(Addr(ADDR_LIMIT))),
            TraceOp::Access(Access::load(Addr(ADDR_LIMIT - 1))),
            TraceOp::Access(Access::load(Addr(ADDR_ALIGN + 1))),
            TraceOp::Access(Access::new(Addr(64), AccessKind::Store, Scope::Cta)),
            TraceOp::Access(Access::new(Addr(u64::MAX), AccessKind::Store, Scope::Gpu)),
            TraceOp::Delay(PAYLOAD_LIMIT),
            TraceOp::Delay(u32::MAX),
            TraceOp::SetFlag(PAYLOAD_LIMIT),
            TraceOp::WaitFlag {
                flag: FLAG_LIMIT,
                count: 0,
            },
            TraceOp::WaitFlag {
                flag: 0,
                count: COUNT_LIMIT,
            },
            TraceOp::WaitFlag {
                flag: u32::MAX,
                count: u32::MAX,
            },
        ];
        assert_eq!(ADDR_ALIGN, 128);
        assert_eq!(ADDR_LIMIT, 1 << 32);
        assert_eq!(PAYLOAD_LIMIT, 1 << 29);
        assert_eq!(FLAG_LIMIT, 1 << 15);
        assert_eq!(COUNT_LIMIT, 1 << 14);
        let cta = Cta::new(inline.to_vec());
        assert_eq!(cta.ops.num_escapes(), 0);
        assert_eq!(cta.ops.iter().collect::<Vec<_>>(), inline);
        let cta = Cta::new(escaped.to_vec());
        assert_eq!(cta.ops.num_escapes(), escaped.len());
        assert_eq!(cta.ops.iter().collect::<Vec<_>>(), escaped);
    }

    #[test]
    fn inline_ops_cost_four_bytes_each() {
        let v: Vec<TraceOp> = (0..1000u64)
            .map(|i| TraceOp::Access(Access::load(Addr(i * 128))))
            .collect();
        let cta = Cta::new(v);
        assert_eq!(std::mem::size_of_val(&*cta.ops.words), 4 * 1000);
        assert!(cta.ops.escapes.is_empty());
    }
}
