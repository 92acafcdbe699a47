#![warn(missing_docs)]

//! # hmg-check: exhaustive litmus enumeration + axiomatic oracle
//!
//! The paper's central correctness claim is that NHCC/HMG preserve the
//! scoped, non-multi-copy-atomic GPU memory model while eliminating
//! transient states and invalidation acknowledgments (PAPER.md §IV–V).
//! This crate checks that claim mechanically instead of by hand-picked
//! litmus tests:
//!
//! 1. [`enumerate`] generates *every* small concurrent program over a
//!    bounded shape (2–3 threads on distinct GPMs, ≤2 addresses,
//!    ≤3 scoped ops per thread), canonicalized modulo the symmetries
//!    the machine actually has (address renaming; placements are *not*
//!    symmetric because homes are hashed).
//! 2. [`harness`] runs each canonical class through the real engine
//!    under a deterministic schedule-perturbation sweep (reusing
//!    `FaultPlan` delay/duplication as the interleaving driver), in
//!    both a concurrent and a phased kernel mapping.
//! 3. [`oracle`] independently derives the outcomes the memory model
//!    allows and asserts `observed ⊆ allowed` — no golden files; any
//!    disagreement is reported as a minimized repro with the fault
//!    spec that reproduces it.
//!
//! See docs/CHECKING.md for the rule-by-rule cross-reference to the
//! paper and the failure-reproduction workflow.
//!
//! ```
//! use hmg_check::{run_check, CheckConfig};
//!
//! let report = run_check(&CheckConfig {
//!     budget: 32,
//!     ..CheckConfig::default()
//! });
//! assert!(report.violations.is_empty());
//! assert!(report.runs <= 32);
//! ```

pub mod enumerate;
pub mod harness;
pub mod oracle;
pub mod program;

use std::collections::HashSet;
use std::fmt;

use hmg::prelude::ProtocolKind;
use hmg::supervisor::{self, Attempt, CellStatus, Isolation, SupervisorConfig};

use enumerate::Enumerator;
use harness::{check_program, cost_of, minimize, Violation};
use program::Program;

/// Checker configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Total engine-run budget for the sweep (minimization of any
    /// failures found may spend extra runs on top).
    pub budget: u64,
    /// Sweep seed: feeds every perturbation plan's RNG stream.
    pub seed: u64,
    /// Protocols under check.
    pub protocols: Vec<ProtocolKind>,
    /// Deliberately inject the `skip-hier-fwd` protocol bug (an HMG
    /// GPU home dropping system-home invalidation forwards) — the
    /// checker's own self-test: the sweep must then report violations.
    pub inject: bool,
    /// Greedily minimize the first violation found.
    pub minimize: bool,
    /// Kill the first-tier link `(a, b)` at the given cycle in every
    /// run of the sweep (`--faults link-down=A-B@CYCLE`): the litmus
    /// outcomes must stay within the memory-model oracle's allowed set
    /// even while every affected message detours over the second tier.
    pub link_down: Option<(u16, u16, u64)>,
    /// Per-hop in-flight message corruption probability armed on every
    /// plan of the sweep (`--faults flip-msg=PROB`). Checksum detection
    /// and retransmission must keep every outcome within the oracle's
    /// allowed set; any silently consumed flip fails the sweep.
    pub flip_msg: Option<f64>,
    /// Per-scrub-period resident-L2-line corruption probability
    /// (`--faults flip-line=PROB`), recovered through ECC.
    pub flip_line: Option<f64>,
    /// Per-scrub-period directory-entry corruption probability
    /// (`--faults flip-dir=PROB`), recovered through ECC or a
    /// sticky-broadcast rebuild.
    pub flip_dir: Option<f64>,
    /// Sweep with home flow control armed (threshold 0) under the given
    /// busy-home arbitration discipline (`--protocol` with a `-phase`
    /// variant, or `--tweak arbitration=...`). `None` (default) leaves
    /// flow control off — the unguarded spec rows only. The litmus
    /// outcomes must stay inside the oracle's allowed set either way:
    /// arbitration may reorder requests but never change legality.
    pub arbitration: Option<hmg::protocol::Arbitration>,
    /// Worker threads for the class sweep (0 = one per core).
    pub jobs: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            budget: 2000,
            seed: 1,
            protocols: vec![ProtocolKind::Nhcc, ProtocolKind::Hmg],
            inject: false,
            minimize: true,
            link_down: None,
            flip_msg: None,
            flip_line: None,
            flip_dir: None,
            arbitration: None,
            jobs: 0,
        }
    }
}

/// What a sweep covered and found.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Raw programs drawn from the enumerator (before canonicalization).
    pub programs_enumerated: u64,
    /// Distinct canonical classes seen among write-containing programs.
    pub canonical_classes: u64,
    /// Classes actually swept within the budget.
    pub classes_checked: u64,
    /// Engine runs spent (sweep + minimization).
    pub runs: u64,
    /// Probe observations judged by the oracle.
    pub outcomes_checked: u64,
    /// Soft errors injected across the sweep (flip-msg/line/dir).
    pub flips_injected: u64,
    /// Injected flips consumed without detection; nonzero fails the
    /// sweep (each one is also reported as an INTEGRITY violation).
    pub silent_corruptions: u64,
    /// Confirmed `observed ⊄ allowed` disagreements.
    pub violations: Vec<Violation>,
    /// Whether the bounded space was fully covered before the budget
    /// ran out.
    pub exhausted: bool,
    /// Canonical class keys whose checker panicked (supervisor-caught);
    /// a crashed class is *unchecked*, so it fails the sweep.
    pub crashed_classes: Vec<String>,
}

impl CheckReport {
    /// `true` when the sweep found no disagreement and no class crashed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.crashed_classes.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "hmg-check: bounded litmus sweep vs axiomatic oracle")?;
        writeln!(f, "  programs enumerated : {}", self.programs_enumerated)?;
        writeln!(
            f,
            "  canonical classes   : {} seen, {} checked",
            self.canonical_classes, self.classes_checked
        )?;
        writeln!(f, "  engine runs         : {}", self.runs)?;
        writeln!(f, "  outcomes checked    : {}", self.outcomes_checked)?;
        if self.flips_injected > 0 || self.silent_corruptions > 0 {
            writeln!(
                f,
                "  soft errors         : {} injected, {} silent",
                self.flips_injected, self.silent_corruptions
            )?;
        }
        writeln!(
            f,
            "  space exhausted     : {}",
            if self.exhausted { "yes" } else { "no (budget)" }
        )?;
        writeln!(f, "  violations          : {}", self.violations.len())?;
        const SHOWN: usize = 10;
        for v in self.violations.iter().take(SHOWN) {
            write!(f, "{v}")?;
        }
        if self.violations.len() > SHOWN {
            writeln!(f, "  ... and {} more", self.violations.len() - SHOWN)?;
        }
        if !self.crashed_classes.is_empty() {
            writeln!(f, "  crashed classes     : {}", self.crashed_classes.len())?;
            for c in &self.crashed_classes {
                writeln!(f, "    {c}")?;
            }
        }
        Ok(())
    }
}

/// Runs the budgeted sweep: enumerate, canonicalize, deduplicate,
/// check classes in parallel, and minimize the first failure.
pub fn run_check(cfg: &CheckConfig) -> CheckReport {
    let mut report = CheckReport::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut batch: Vec<Program> = Vec::new();
    let mut allocated = 0u64;
    let mut enumerator = Enumerator::new();
    report.exhausted = true;
    for p in &mut enumerator {
        report.programs_enumerated += 1;
        if !p.has_write() {
            continue; // loads of an unwritten line trivially observe 0
        }
        let c = p.canonical();
        if !seen.insert(c.key()) {
            continue;
        }
        report.canonical_classes += 1;
        let cost = cost_of(&c, cfg);
        if allocated + cost > cfg.budget {
            report.exhausted = false;
            break;
        }
        allocated += cost;
        batch.push(c);
    }
    report.classes_checked = batch.len() as u64;

    // Classes sweep under the supervisor (thread isolation: litmus
    // cells are tiny, process re-exec would dominate). A panicking
    // class is quarantined and reported instead of aborting the sweep.
    let sup = SupervisorConfig {
        jobs: cfg.jobs,
        cell_timeout: None,
        retries: 0,
        isolation: Isolation::Thread,
        keep_going: true,
    };
    let sweep = supervisor::supervise(
        &batch,
        |p: &Program| p.key(),
        &sup,
        |p, _attempt| Attempt::Ok(check_program(p, cfg)),
    );
    for cell in sweep.cells {
        match cell.status {
            CellStatus::Ok => {
                if let Some(r) = cell.outcome {
                    report.runs += r.runs;
                    report.outcomes_checked += r.outcomes;
                    report.flips_injected += r.flips;
                    report.silent_corruptions += r.silent;
                    report.violations.extend(r.violations);
                }
            }
            CellStatus::Crashed(m) => report.crashed_classes.push(format!("{}: {m}", cell.key)),
            // retries=0 + keep_going: failed/timeout/skipped cannot
            // occur in thread mode, but route them the same way.
            CellStatus::Failed(e) => report.crashed_classes.push(format!("{}: {e}", cell.key)),
            CellStatus::Timeout(m) => report.crashed_classes.push(format!("{}: {m}", cell.key)),
            CellStatus::Skipped => report
                .crashed_classes
                .push(format!("{}: skipped", cell.key)),
        }
    }

    if cfg.minimize {
        if let Some(first) = report.violations.first() {
            let key = first.program.clone();
            if let Some(p) = batch.iter().find(|p| p.key() == key) {
                let min = minimize(p, cfg, &mut report.runs);
                if min.key() != key {
                    for v in report.violations.iter_mut().filter(|v| v.program == key) {
                        v.minimized = Some(min.key());
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_finds_no_violations() {
        // A real (if small) slice of the space: every checked class of
        // the canonical cross-GPU two-op shape must agree with the
        // oracle under every protocol, mapping, and perturbation.
        let cfg = CheckConfig {
            budget: 320,
            ..CheckConfig::default()
        };
        let report = run_check(&cfg);
        assert!(report.passed(), "{report}");
        assert!(report.runs <= cfg.budget);
        assert!(report.classes_checked >= 10, "{report}");
        assert!(report.outcomes_checked > 0);
        assert!(!report.exhausted, "the bounded space dwarfs this budget");
        assert!(report.programs_enumerated >= report.canonical_classes);
    }

    #[test]
    fn report_is_deterministic_for_a_seed() {
        let cfg = CheckConfig {
            budget: 160,
            ..CheckConfig::default()
        };
        let a = run_check(&cfg);
        let b = run_check(&cfg);
        assert_eq!(a.programs_enumerated, b.programs_enumerated);
        assert_eq!(a.classes_checked, b.classes_checked);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.outcomes_checked, b.outcomes_checked);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    #[test]
    fn injected_protocol_bug_is_caught_within_the_smoke_budget() {
        // Acceptance gate: dropping one hierarchical invalidation
        // forward must be caught by the default (CI smoke) budget.
        let cfg = CheckConfig {
            inject: true,
            ..CheckConfig::default()
        };
        let report = run_check(&cfg);
        assert!(!report.passed(), "the checker must catch the bug");
        assert!(report
            .violations
            .iter()
            .all(|v| v.protocol == ProtocolKind::Hmg));
        // The repro is actionable: it names a program and a fault spec.
        let v = &report.violations[0];
        assert!(v.plan.contains("skip-hier-fwd"), "{v}");
        assert!(!v.rules.is_empty());
    }
}
