//! Self-contained deterministic pseudo-random number generation.
//!
//! The workload generators and page-placement hashes must be bit-for-bit
//! reproducible across toolchain and dependency upgrades, so the simulator
//! carries its own SplitMix64 implementation instead of depending on an
//! external RNG crate (see DESIGN.md §5).

/// A SplitMix64 pseudo-random number generator.
///
/// SplitMix64 passes BigCrush, has a full 2^64 period, and is trivially
/// seedable, which is all the workload generators need.
///
/// # Example
///
/// ```
/// use hmg_sim::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let v = a.gen_range(10, 20);
/// assert!((10..20).contains(&v));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.gen_range(0, slice.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples an approximately Zipf-distributed index in `[0, n)` with
    /// exponent `s`, via inverse-CDF on a power-law envelope.
    ///
    /// The graph workloads (bfs, mst) use this to model power-law vertex
    /// degree distributions, which the paper identifies as the source of
    /// their fine-grained conflicting accesses.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n > 0, "zipf over empty domain");
        if n == 1 {
            return 0;
        }
        // Inverse-CDF of the continuous power-law on [1, n+1):
        //   x = ((n+1)^(1-s) - 1) * u + 1, then invert.
        let one_minus_s = 1.0 - s;
        let u = self.gen_f64();
        let x = if one_minus_s.abs() < 1e-9 {
            // s == 1: CDF is logarithmic.
            ((n + 1) as f64).powf(u)
        } else {
            let top = ((n + 1) as f64).powf(one_minus_s);
            ((top - 1.0) * u + 1.0).powf(1.0 / one_minus_s)
        };
        ((x as u64).saturating_sub(1)).min(n - 1)
    }
}

// `Rng::new(seed)` stores the seed verbatim, so serializing the current
// state and re-seeding from it resumes the stream at the exact position
// — the property the snapshot/restore subsystem relies on for every
// salted fault/scrub stream.
crate::snapshot_codec!(Rng { state });

/// A cheap stateless 64-bit mix function, used for address-to-home-node
/// hashing so that home assignment is uniform but deterministic.
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let v = r.gen_range(5, 17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::new(11);
        for _ in 0..10_000 {
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_respects_probability_roughly() {
        let mut r = Rng::new(5);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_in_bounds_and_skewed() {
        let mut r = Rng::new(13);
        let n = 1000;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..100_000 {
            let v = r.gen_zipf(n, 0.9);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        // Head must be much hotter than the tail for a skewed distribution.
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[n as usize - 10..].iter().sum();
        assert!(head > tail * 5, "head={head} tail={tail}");
    }

    #[test]
    fn zipf_single_element_domain() {
        let mut r = Rng::new(1);
        assert_eq!(r.gen_zipf(1, 1.0), 0);
    }

    #[test]
    fn hash64_spreads_low_entropy_inputs() {
        let mut buckets = [0u32; 16];
        for i in 0..16_000u64 {
            buckets[(hash64(i) % 16) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn choose_returns_member() {
        let mut r = Rng::new(21);
        let xs = [1, 2, 3];
        for _ in 0..100 {
            assert!(xs.contains(r.choose(&xs)));
        }
    }
}
