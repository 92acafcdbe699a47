//! Counters and statistics helpers used across the evaluation.

use std::fmt;

/// A named monotone event counter.
///
/// # Example
///
/// ```
/// use hmg_sim::stats::Counter;
///
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running mean over an online stream of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// The mean of all samples pushed so far, or 0.0 if none.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// Arithmetic mean of a slice; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of a slice of positive values; the paper reports speedup
/// geomeans across the workload suite (Figs. 2, 8, 12–14).
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Pearson correlation coefficient between two equal-length series.
///
/// Used for the Fig. 7 simulator-correlation experiment. Returns 0.0 when
/// either series has zero variance or fewer than two points.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson over mismatched lengths");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Mean absolute relative error of `measured` against `reference`,
/// mirroring the "average absolute error" reported for Fig. 7.
///
/// # Panics
///
/// Panics if the slices have different lengths or a reference value is 0.
pub fn mean_abs_rel_err(measured: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(measured.len(), reference.len());
    if measured.is_empty() {
        return 0.0;
    }
    let total: f64 = measured
        .iter()
        .zip(reference)
        .map(|(&m, &r)| {
            assert!(r != 0.0, "reference value must be nonzero");
            ((m - r) / r).abs()
        })
        .sum();
    total / measured.len() as f64
}

/// Cost accounting for fail-in-place reconfiguration epochs (permanent
/// faults: [`crate::fault::LinkDown`], [`crate::fault::GpmOffline`],
/// [`crate::fault::GpuOffline`]).
///
/// Every field is a pure function of (plan, trace, seed): the
/// reconfiguration protocol is deterministic, so two runs of the same
/// plan must report bit-identical stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconfigStats {
    /// Reconfiguration epochs entered (one per activated permanent fault).
    pub epochs: u64,
    /// In-flight transactions against a failed component that were
    /// drained at delivery: dropped (dead endpoint) or re-issued toward
    /// the re-homed destination.
    pub drained_txns: u64,
    /// Directory entries that lived on a failed GPM and were re-homed
    /// onto survivors with conservatively rebuilt (broadcast) sharers.
    pub rehomed_blocks: u64,
    /// Pages whose system home was re-hashed onto a surviving GPM.
    pub rehomed_pages: u64,
    /// Pages serving in degraded no-peer-caching mode (their DRAM
    /// partition failed).
    pub degraded_pages: u64,
    /// Modeled failure-detection downtime: the delivery-timeout
    /// escalation the reliable transport charges before declaring a
    /// component dead (`fail_escalation_attempts` backed-off timeouts).
    pub downtime_cycles: u64,
    /// CTAs aborted because their GPM went offline.
    pub aborted_ctas: u64,
    /// Stale peer copies scrubbed by the conservative broadcast
    /// invalidation rebuild.
    pub scrubbed_lines: u64,
}

impl ReconfigStats {
    /// `true` if no reconfiguration happened.
    pub fn is_zero(&self) -> bool {
        *self == ReconfigStats::default()
    }
}

impl fmt::Display for ReconfigStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reconfig_epochs={} drained_txns={} rehomed_blocks={} rehomed_pages={} \
             degraded_pages={} downtime_cycles={} aborted_ctas={} scrubbed_lines={}",
            self.epochs,
            self.drained_txns,
            self.rehomed_blocks,
            self.rehomed_pages,
            self.degraded_pages,
            self.downtime_cycles,
            self.aborted_ctas,
            self.scrubbed_lines
        )
    }
}

/// End-to-end data-integrity accounting for soft-error injection
/// ([`crate::fault::MsgFlip`], [`crate::fault::LineFlip`],
/// [`crate::fault::DirFlip`]).
///
/// The detection stack (link checksums, parity/SEC-DED ECC, poison
/// propagation, background scrubbing) must leave every injected flip
/// *detected-and-recovered* or *detected-and-contained*. The books
/// balance exactly:
///
/// ```text
/// flips_msg + flips_line + flips_dir ==
///     checksum_retransmits + corrected + refetched_lines
///     + rebuilt_dir_entries + poisoned + silent_corruptions
/// ```
///
/// and `silent_corruptions == 0` whenever checksums and ECC are
/// enabled (the tier-1 invariant). Every field is a pure function of
/// (plan, trace, seed), so two runs of the same plan report
/// bit-identical stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// In-flight message corruptions injected on the fabric.
    pub flips_msg: u64,
    /// Resident L2 line corruptions injected.
    pub flips_line: u64,
    /// Directory entry corruptions injected.
    pub flips_dir: u64,
    /// Corrupt deliveries caught by the per-message checksum and
    /// re-requested through the reliable-transport retry path.
    pub checksum_retransmits: u64,
    /// Single-bit errors fixed in place by SEC-DED (at access time or
    /// by the scrubber), on L2 lines and directory entries.
    pub corrected: u64,
    /// Detected-uncorrectable *clean* L2 lines whose copy was discarded
    /// so the next access refetches from owner/DRAM via the ordinary
    /// miss path (includes faulty copies destroyed by invalidation,
    /// eviction, or overwrite before the error was ever consumed).
    pub refetched_lines: u64,
    /// Detected-uncorrectable directory entries rebuilt through the
    /// sticky-broadcast + survivor-L2-scrub path.
    pub rebuilt_dir_entries: u64,
    /// Detected-uncorrectable *dirty* L2 lines: the only up-to-date
    /// copy is lost, so the value is poisoned and contained instead of
    /// served.
    pub poisoned: u64,
    /// CTAs aborted (with flag salvage) after consuming a poisoned
    /// value.
    pub aborted_ctas: u64,
    /// Faults retired by the periodic background scrubber (rather than
    /// at access time), plus survivor-L2 copies scrubbed during
    /// directory entry rebuilds. Overlaps `corrected`/`refetched_lines`
    /// by design: it attributes *where* recovery happened.
    pub scrubbed: u64,
    /// Flips that were never detected or contained — wrong data the
    /// system could have served. Must be zero whenever checksums and
    /// ECC are enabled; nonzero only when detection is deliberately
    /// disabled (the adversarial proof that the injector is real).
    pub silent_corruptions: u64,
}

impl IntegrityStats {
    /// `true` if no flip was injected and nothing was recovered.
    pub fn is_zero(&self) -> bool {
        *self == IntegrityStats::default()
    }

    /// Total flips injected across all three targets.
    pub fn flips(&self) -> u64 {
        self.flips_msg + self.flips_line + self.flips_dir
    }

    /// Total flips accounted for by a detection/recovery/containment
    /// outcome. Equals [`IntegrityStats::flips`] when the books
    /// balance.
    pub fn accounted(&self) -> u64 {
        self.checksum_retransmits
            + self.corrected
            + self.refetched_lines
            + self.rebuilt_dir_entries
            + self.poisoned
            + self.silent_corruptions
    }
}

impl fmt::Display for IntegrityStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flips_msg={} flips_line={} flips_dir={} checksum_retransmits={} corrected={} \
             refetched_lines={} rebuilt_dir_entries={} poisoned={} aborted_ctas={} scrubbed={} \
             silent_corruptions={}",
            self.flips_msg,
            self.flips_line,
            self.flips_dir,
            self.checksum_retransmits,
            self.corrected,
            self.refetched_lines,
            self.rebuilt_dir_entries,
            self.poisoned,
            self.aborted_ctas,
            self.scrubbed,
            self.silent_corruptions
        )
    }
}

crate::snapshot_codec!(ReconfigStats {
    epochs,
    drained_txns,
    rehomed_blocks,
    rehomed_pages,
    degraded_pages,
    downtime_cycles,
    aborted_ctas,
    scrubbed_lines,
});

crate::snapshot_codec!(IntegrityStats {
    flips_msg,
    flips_line,
    flips_dir,
    checksum_retransmits,
    corrected,
    refetched_lines,
    rebuilt_dir_entries,
    poisoned,
    aborted_ctas,
    scrubbed,
    silent_corruptions,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn running_mean_matches_batch_mean() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let mut rm = RunningMean::new();
        for &x in &xs {
            rm.push(x);
        }
        assert_eq!(rm.count(), 4);
        assert!((rm.mean() - mean(&xs)).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(RunningMean::new().mean(), 0.0);
    }

    #[test]
    fn geomean_simple() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let dn = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &dn) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn integrity_stats_balance_and_zero() {
        let z = IntegrityStats::default();
        assert!(z.is_zero());
        assert_eq!(z.flips(), 0);
        assert_eq!(z.accounted(), 0);
        let s = IntegrityStats {
            flips_msg: 3,
            flips_line: 4,
            flips_dir: 2,
            checksum_retransmits: 3,
            corrected: 3,
            refetched_lines: 2,
            rebuilt_dir_entries: 1,
            poisoned: 0,
            aborted_ctas: 0,
            scrubbed: 2,
            silent_corruptions: 0,
        };
        assert!(!s.is_zero());
        assert_eq!(s.flips(), 9);
        assert_eq!(s.accounted(), 9);
        // Every counter appears in the one-line display (greppable, and
        // the stats-registration lint requires it).
        let line = s.to_string();
        for field in [
            "flips_msg=3",
            "flips_line=4",
            "flips_dir=2",
            "checksum_retransmits=3",
            "corrected=3",
            "refetched_lines=2",
            "rebuilt_dir_entries=1",
            "poisoned=0",
            "aborted_ctas=0",
            "scrubbed=2",
            "silent_corruptions=0",
        ] {
            assert!(line.contains(field), "{line} missing {field}");
        }
    }

    #[test]
    fn mean_abs_rel_err_basic() {
        let e = mean_abs_rel_err(&[110.0, 90.0], &[100.0, 100.0]);
        assert!((e - 0.1).abs() < 1e-12);
        assert_eq!(mean_abs_rel_err(&[], &[]), 0.0);
    }
}
