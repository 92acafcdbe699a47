//! Deterministic time-ordered event queue.
//!
//! The production [`EventQueue`] is a *calendar queue*: a ring of
//! one-cycle buckets sized to cover every latency the timing model
//! schedules on the hot path (fabric hops at 90/360 cycles, DRAM,
//! kernel launch, scrub periods, transport timeouts with backoff), plus
//! a small overflow list for far-future timers such as watchdog
//! budgets. `push`/`pop` are O(1) amortized instead of the O(log n) of
//! a binary heap, and same-cycle FIFO order falls out of bucket append
//! order with no tie-breaking sequence numbers at all — see DESIGN.md
//! §13 for the bucket math and the determinism argument.
//!
//! [`ReferenceEventQueue`] retains the original heap implementation as
//! the oracle for the differential test (`tests/event_queue_diff.rs`).

use std::cmp::Ordering;
#[expect(
    clippy::disallowed_types,
    reason = "reference oracle only; the production queue below is the calendar ring"
)]
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// log2 of the calendar ring size. 2^15 = 32768 one-cycle buckets
/// covers every periodic latency in the timing model — fabric hops
/// (90/360), DRAM (350), kernel launch (3000), scrub periods (5000),
/// and transport timeouts at maximum backoff (500 << 6 = 32000) — so
/// the overflow list only ever sees one-shot far-future timers.
/// (A smaller 2^13 ring was measured slower: deep-backoff retries then
/// overflow to the far list and its migrations cost more than the
/// extra 224 KB of bucket table.)
const RING_BITS: u32 = 15;
const RING_SLOTS: usize = 1 << RING_BITS;
const RING_MASK: usize = RING_SLOTS - 1;
/// Bitmap words covering the ring (one bit per bucket).
const OCC_WORDS: usize = RING_SLOTS / 64;
/// Second-level bitmap words (one bit per occupancy word).
const SUM_WORDS: usize = OCC_WORDS / 64;

/// Sentinel index terminating a bucket's chain.
const NIL: u32 = u32::MAX;

/// One slab-allocated event: the payload plus the index of the next
/// event in the same bucket. Freed nodes keep their slot (payload
/// `None`) and are recycled through the free list, so a steady-state
/// simulation performs no per-event allocation at all.
struct Node<E> {
    next: u32,
    payload: Option<E>,
}

/// A deterministic discrete-event queue (calendar/bucket queue).
///
/// Events are popped in nondecreasing time order; events scheduled for
/// the same cycle pop in the order they were pushed. This determinism
/// is what makes whole-system simulations reproducible from a seed.
///
/// # Example
///
/// ```
/// use hmg_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(7), 'x');
/// q.push(Cycle(7), 'y');
/// q.push(Cycle(3), 'z');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['z', 'x', 'y']);
/// assert_eq!(q.events_processed(), 3);
/// ```
pub struct EventQueue<E> {
    /// One FIFO bucket per cycle in the window
    /// `[win_base, win_base + RING_SLOTS)`, as `(head, tail)` indices
    /// into `nodes` (`NIL` when empty); bucket index is
    /// `cycle & RING_MASK`, so a bucket's cycle is recoverable from its
    /// circular distance to `win_base` and entries need no timestamps.
    slots: Vec<(u32, u32)>,
    /// Slab of chained events; `free` holds the recyclable indices.
    nodes: Vec<Node<E>>,
    free: Vec<u32>,
    /// Occupancy bitmap: bit `s` set iff `slots[s]` is non-empty.
    occ: Box<[u64; OCC_WORDS]>,
    /// Summary bitmap: bit `w` set iff `occ[w]` is non-zero.
    sum: Box<[u64; SUM_WORDS]>,
    /// Events currently in the ring.
    ring_len: usize,
    /// Base of the ring window. Equals `now` except transiently inside
    /// `pop` when the window jumps forward to the earliest far event.
    win_base: Cycle,
    /// Far-future overflow, in push (= FIFO) order.
    far: Vec<(Cycle, E)>,
    /// Scratch buffer for `migrate_far`, retained so migrations never
    /// reallocate.
    far_scratch: Vec<(Cycle, E)>,
    /// Earliest cycle in `far` (`u64::MAX` when empty).
    far_min: Cycle,
    popped: u64,
    now: Cycle,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at `Cycle::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            slots: vec![(NIL, NIL); RING_SLOTS],
            nodes: Vec::new(),
            free: Vec::new(),
            occ: Box::new([0; OCC_WORDS]),
            sum: Box::new([0; SUM_WORDS]),
            ring_len: 0,
            win_base: Cycle::ZERO,
            far: Vec::new(),
            far_scratch: Vec::new(),
            far_min: Cycle(u64::MAX),
            popped: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past would silently corrupt causality.
    // `push`, `pop` and `ring_insert` are forced inline into the engine
    // loop so the payload moves between the slab and the handler in
    // registers rather than through stack copies across out-of-line
    // calls (DESIGN.md §13); the cold window-jump paths stay out of line.
    #[inline(always)]
    pub fn push(&mut self, at: Cycle, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        if at.0 - self.win_base.0 < RING_SLOTS as u64 {
            self.ring_insert(at, payload);
        } else {
            // Beyond the window: park on the overflow list. It is
            // migrated into the ring (in push order, preserving FIFO)
            // as soon as the window advances far enough.
            self.far_min = self.far_min.min(at);
            self.far.push((at, payload));
        }
    }

    /// Removes and returns the earliest event, advancing the queue's clock.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.ring_len == 0 {
            if self.far.is_empty() {
                return None;
            }
            // Ring drained with only far-future timers left: jump the
            // window to the earliest one and pull everything now due.
            self.win_base = self.far_min;
            self.migrate_far();
        }
        let start = self.win_base.0 as usize & RING_MASK;
        // Fast path: most pops drain the current bucket (same-cycle
        // FIFO chains and back-to-back cycles), so probe it directly
        // before paying for the two-level bitmap scan.
        #[expect(
            clippy::expect_used,
            reason = "ring_len > 0 here, and every ring insert sets the occupancy bit for its bucket"
        )]
        let s = if self.slots[start].0 != NIL {
            start
        } else {
            self.next_occupied(start)
                .expect("ring_len > 0 implies an occupied bucket")
        };
        let dist = (s.wrapping_sub(start) & RING_MASK) as u64;
        let at = Cycle(self.win_base.0 + dist);
        let head = self.slots[s].0 as usize;
        let node = &mut self.nodes[head];
        #[expect(
            clippy::expect_used,
            reason = "the occupancy bit is cleared the moment a bucket drains, so a scanned \
                      bucket's head node is live (its payload is `Some` until this very take)"
        )]
        let payload = node.payload.take().expect("occupied bucket is non-empty");
        let next = node.next;
        self.free.push(head as u32);
        self.slots[s].0 = next;
        if next == NIL {
            self.slots[s].1 = NIL;
            self.clear_bit(s);
        }
        self.ring_len -= 1;
        self.popped += 1;
        self.now = at;
        self.win_base = at;
        // The window just advanced; any far event that slid inside it
        // must enter the ring before the caller can push a same-cycle
        // successor behind it, or FIFO order would invert.
        if self.far_min.0 - at.0 < RING_SLOTS as u64 {
            self.migrate_far();
        }
        Some((at, payload))
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (a simulation-size metric).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    #[inline(always)]
    fn ring_insert(&mut self, at: Cycle, payload: E) {
        let idx = match self.free.pop() {
            Some(i) => {
                let n = &mut self.nodes[i as usize];
                n.next = NIL;
                n.payload = Some(payload);
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(Node {
                    next: NIL,
                    payload: Some(payload),
                });
                i
            }
        };
        let s = at.0 as usize & RING_MASK;
        let (head, tail) = self.slots[s];
        if head == NIL {
            self.slots[s] = (idx, idx);
            self.set_bit(s);
        } else {
            self.nodes[tail as usize].next = idx;
            self.slots[s].1 = idx;
        }
        self.ring_len += 1;
    }

    /// Moves every far event inside the current window into the ring,
    /// preserving push order so same-cycle FIFO survives the migration.
    fn migrate_far(&mut self) {
        let limit = self.win_base.0.saturating_add(RING_SLOTS as u64);
        let mut min = Cycle(u64::MAX);
        let mut pending = std::mem::take(&mut self.far_scratch);
        std::mem::swap(&mut self.far, &mut pending);
        for (at, payload) in pending.drain(..) {
            if at.0 < limit {
                self.ring_insert(at, payload);
            } else {
                min = min.min(at);
                self.far.push((at, payload));
            }
        }
        self.far_scratch = pending;
        self.far_min = min;
    }

    fn set_bit(&mut self, s: usize) {
        let w = s >> 6;
        self.occ[w] |= 1 << (s & 63);
        self.sum[w >> 6] |= 1 << (w & 63);
    }

    fn clear_bit(&mut self, s: usize) {
        let w = s >> 6;
        self.occ[w] &= !(1 << (s & 63));
        if self.occ[w] == 0 {
            self.sum[w >> 6] &= !(1 << (w & 63));
        }
    }

    /// Nearest occupied bucket at or after `start` in circular order.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        self.scan(start, RING_SLOTS).or_else(|| self.scan(0, start))
    }

    /// Visits every pending event without disturbing the queue: ring
    /// events in nondecreasing time order (same-cycle events in FIFO
    /// order), then far-future events in push order. This is exactly
    /// the order [`EventQueue`] snapshots serialize, chosen so that
    /// re-`push`ing the visited sequence into a fresh queue positioned
    /// at [`EventQueue::now`] rebuilds an observably identical queue.
    pub fn for_each_pending(&self, mut f: impl FnMut(Cycle, &E)) {
        let start = self.win_base.0 as usize & RING_MASK;
        let mut seen = 0usize;
        let mut s = start;
        while seen < self.ring_len {
            #[expect(
                clippy::expect_used,
                reason = "seen < ring_len, so an occupied bucket exists and its bit is set"
            )]
            let b = if self.slots[s].0 != NIL {
                s
            } else {
                self.next_occupied(s)
                    .expect("ring_len > seen implies an occupied bucket")
            };
            let dist = (b.wrapping_sub(start) & RING_MASK) as u64;
            let at = Cycle(self.win_base.0 + dist);
            let mut n = self.slots[b].0;
            while n != NIL {
                let node = &self.nodes[n as usize];
                #[expect(
                    clippy::expect_used,
                    reason = "chained nodes are live; the payload is only taken when the node is \
                              unlinked"
                )]
                f(at, node.payload.as_ref().expect("occupied chain node"));
                seen += 1;
                n = node.next;
            }
            s = (b + 1) & RING_MASK;
        }
        for (at, e) in &self.far {
            f(*at, e);
        }
    }

    /// First occupied bucket in `[lo, hi)`, via the two-level bitmap.
    fn scan(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mut w = lo >> 6;
        let mut word = self.occ[w] & (!0u64 << (lo & 63));
        loop {
            if word != 0 {
                let s = (w << 6) + word.trailing_zeros() as usize;
                return (s < hi).then_some(s);
            }
            // Hop to the next non-empty occupancy word via the summary.
            w += 1;
            let mut c = w >> 6;
            if c >= SUM_WORDS {
                return None;
            }
            let mut sw = self.sum[c] & (!0u64 << (w & 63));
            while sw == 0 {
                c += 1;
                if c >= SUM_WORDS {
                    return None;
                }
                sw = self.sum[c];
            }
            w = (c << 6) + sw.trailing_zeros() as usize;
            if (w << 6) >= hi {
                return None;
            }
            word = self.occ[w];
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

// Snapshots serialize the queue as (now, popped, ring events in
// time-then-FIFO order, far events in push order). Restoring re-pushes
// that sequence into a fresh queue positioned at `now`: ring buckets
// refill in the same FIFO chain order, the far list rebuilds verbatim
// (including `far_min`), and slab/free-list layout — the only thing
// that differs — is unobservable through the queue API. This is valid
// because snapshots are only taken at event boundaries, where
// `now == win_base` and every far event lies at or beyond
// `win_base + RING_SLOTS` (see `migrate_far`).
impl<E: crate::snap::SnapshotWrite> crate::snap::SnapshotWrite for EventQueue<E> {
    fn write_snap(&self, w: &mut crate::snap::SnapWriter) {
        assert!(
            self.now == self.win_base,
            "snapshot outside an event boundary"
        );
        w.put_u64(self.now.0);
        w.put_u64(self.popped);
        w.put_u64(self.ring_len as u64);
        let mut ring = 0usize;
        self.for_each_pending(|at, e| {
            if ring < self.ring_len {
                w.put_u64(at.0);
                e.write_snap(w);
            }
            ring += 1;
        });
        w.put_u64(self.far.len() as u64);
        let mut idx = 0usize;
        self.for_each_pending(|at, e| {
            if idx >= self.ring_len {
                w.put_u64(at.0);
                e.write_snap(w);
            }
            idx += 1;
        });
    }
}

impl<E: crate::snap::SnapshotRead> crate::snap::SnapshotRead for EventQueue<E> {
    fn read_snap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        use crate::snap::SnapError;
        let now = Cycle(r.get_u64()?);
        let popped = r.get_u64()?;
        let mut q = EventQueue::new();
        q.now = now;
        q.win_base = now;
        q.popped = popped;
        let ring = r.get_len(9)?;
        let mut prev = now;
        for _ in 0..ring {
            let at = Cycle(r.get_u64()?);
            if at < prev || at.0 - now.0 >= RING_SLOTS as u64 {
                return Err(SnapError::Malformed(format!(
                    "ring event at {at} outside window of {now}"
                )));
            }
            prev = at;
            q.push(at, E::read_snap(r)?);
        }
        let far = r.get_len(9)?;
        for _ in 0..far {
            let at = Cycle(r.get_u64()?);
            if at.0.saturating_sub(now.0) < RING_SLOTS as u64 {
                return Err(SnapError::Malformed(format!(
                    "far event at {at} inside window of {now}"
                )));
            }
            q.push(at, E::read_snap(r)?);
        }
        Ok(q)
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("now", &self.now)
            .field("processed", &self.popped)
            .finish()
    }
}

/// An entry in the reference queue: ordered by time, then by insertion
/// sequence so that same-cycle events pop in FIFO order regardless of
/// heap internals.
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original binary-heap event queue, retained verbatim as the
/// differential-test oracle for [`EventQueue`]
/// (`tests/event_queue_diff.rs`): any push/pop sequence must produce
/// the identical pop order on both. Not used on the simulation hot
/// path.
pub struct ReferenceEventQueue<E> {
    #[expect(
        clippy::disallowed_types,
        reason = "this *is* the retained reference heap the differential test compares the \
                  calendar queue against"
    )]
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    now: Cycle,
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue positioned at `Cycle::ZERO`.
    pub fn new() -> Self {
        ReferenceEventQueue {
            #[expect(
                clippy::disallowed_types,
                reason = "constructing the reference oracle's heap; never on the simulation hot path"
            )]
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event.
    pub fn push(&mut self, at: Cycle, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, advancing the queue's clock.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        self.popped += 1;
        Some((e.at, e.payload))
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        ReferenceEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.push(Cycle(8), ());
        q.pop();
        assert_eq!(q.now(), Cycle(8));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), ());
        q.pop();
        q.push(Cycle(5), ());
    }

    #[test]
    fn len_and_processed_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn events_processed_counts_every_pop() {
        // The checker's schedule-perturbation accounting relies on this
        // counter being a faithful pop count, never reset by drains.
        let mut q = EventQueue::new();
        assert_eq!(q.events_processed(), 0);
        for i in 0..5 {
            q.push(Cycle(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 5);
        q.push(Cycle(9), 9);
        q.pop();
        assert_eq!(q.events_processed(), 6, "counter persists across drains");
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(Cycle(10), "b"); // same-cycle re-entry is legal
        q.push(Cycle(12), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn far_future_timers_survive_the_ring_window() {
        // Watchdog-style timers land beyond the 32768-cycle ring and
        // must migrate back in without losing order.
        let mut q = EventQueue::new();
        let far = RING_SLOTS as u64 * 3 + 17;
        q.push(Cycle(far), "watchdog");
        q.push(Cycle(far), "watchdog2"); // same-cycle far tie
        q.push(Cycle(90), "hop");
        assert_eq!(q.pop(), Some((Cycle(90), "hop")));
        assert_eq!(q.pop(), Some((Cycle(far), "watchdog")));
        assert_eq!(q.pop(), Some((Cycle(far), "watchdog2")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), Cycle(far));
    }

    #[test]
    fn migrated_far_event_keeps_fifo_against_later_ring_push() {
        // A far event migrates into the window as soon as the window
        // advances; a push to the same cycle issued *after* that
        // advance must pop behind it.
        let mut q = EventQueue::new();
        let t = RING_SLOTS as u64 + 100;
        q.push(Cycle(t), "early"); // far at push time
        q.push(Cycle(200), "step");
        assert_eq!(q.pop().unwrap().1, "step");
        q.push(Cycle(t), "late"); // now in-window: same slot, later seq
        assert_eq!(q.pop(), Some((Cycle(t), "early")));
        assert_eq!(q.pop(), Some((Cycle(t), "late")));
    }

    #[test]
    fn window_wraps_cleanly_across_ring_boundaries() {
        // March time across several full ring lengths with events that
        // straddle the wrap point of the bucket index.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for k in 0..5u64 {
            let base = k * (RING_SLOTS as u64 - 3);
            for d in [0u64, 1, 90, 360] {
                q.push(Cycle(base + d), (k, d));
                expect.push((Cycle(base + d), (k, d)));
            }
            // Drain this cluster before scheduling the next (keeps
            // every push legal: at >= now).
            expect.sort_by_key(|&(c, _)| c);
            for want in expect.drain(..) {
                assert_eq!(q.pop(), Some(want));
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order_and_counters() {
        use crate::snap::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
        let mut q = EventQueue::new();
        let mut x = 0x9e37_79b9u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..3_000u64 {
            let now = q.now();
            let delta = match rng() % 6 {
                0 => 0,
                1 => 0, // stack same-cycle FIFO chains
                2 => 90,
                3 => 360,
                4 => rng() % 500,
                _ => RING_SLOTS as u64 + rng() % 10_000,
            };
            q.push(now + Cycle(delta), i);
            if rng() % 3 == 0 {
                q.pop();
            }
        }
        let mut w = SnapWriter::new();
        q.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q2 = EventQueue::<u64>::read_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(q2.now(), q.now());
        assert_eq!(q2.len(), q.len());
        assert_eq!(q2.events_processed(), q.events_processed());
        loop {
            let (a, b) = (q.pop(), q2.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q2.events_processed(), q.events_processed());
    }

    #[test]
    fn snapshot_refuses_events_outside_their_region() {
        use crate::snap::{SnapError, SnapReader, SnapWriter, SnapshotRead};
        // A "far" event inside the ring window is impossible at an
        // event boundary and must be refused, not silently re-routed.
        let mut w = SnapWriter::new();
        w.put_u64(100); // now
        w.put_u64(0); // popped
        w.put_u64(0); // ring count
        w.put_u64(1); // far count
        w.put_u64(150); // within the window: malformed
        w.put_u64(7);
        let bytes = w.into_bytes();
        assert!(matches!(
            EventQueue::<u64>::read_snap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn for_each_pending_visits_in_serialization_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), "b");
        q.push(Cycle(5), "c");
        q.push(Cycle(1), "a");
        q.push(Cycle(RING_SLOTS as u64 + 9), "far2");
        q.push(Cycle(RING_SLOTS as u64 + 2), "far1");
        let mut seen = Vec::new();
        q.for_each_pending(|at, e| seen.push((at, *e)));
        assert_eq!(
            seen,
            vec![
                (Cycle(1), "a"),
                (Cycle(5), "b"),
                (Cycle(5), "c"),
                (Cycle(RING_SLOTS as u64 + 9), "far2"),
                (Cycle(RING_SLOTS as u64 + 2), "far1"),
            ]
        );
    }

    #[test]
    fn reference_queue_matches_on_a_mixed_sequence() {
        let mut a = EventQueue::new();
        let mut b = ReferenceEventQueue::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..2_000u64 {
            let now = a.now();
            let delta = match rng() % 5 {
                0 => 0,
                1 => 90,
                2 => 360,
                3 => rng() % 500,
                _ => RING_SLOTS as u64 + rng() % 10_000,
            };
            a.push(now + Cycle(delta), i);
            b.push(now + Cycle(delta), i);
            if rng() % 3 == 0 {
                assert_eq!(a.pop(), b.pop());
            }
        }
        loop {
            let (pa, pb) = (a.pop(), b.pop());
            assert_eq!(pa, pb);
            if pa.is_none() {
                break;
            }
        }
    }
}
