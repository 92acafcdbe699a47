//! `hmg-audit`: static verification of the HMG/NHCC protocol stack and
//! a determinism/panic-hygiene lint pass.
//!
//! Three engines, all static (no simulation):
//!
//! * [`waitsfor`] — builds the virtual-channel waits-for graph from
//!   `protocol/msg.rs` and the engine/transport blocking behaviors and
//!   proves its unbounded part acyclic (deadlock freedom).
//! * [`model`] — first a cheap pre-pass, run on every audit
//!   ([`model::check_cells`]), proving every `(state, event)` cell of
//!   every spec variant defined exactly when the paper defines it and
//!   every emitted message class consumed; then, opt-in via
//!   [`AuditOptions::model`] (it is exhaustive but not free), a
//!   Murphi-style explicit-state model checker that walks every
//!   configuration a small abstract multi-GPU system can reach under
//!   the guarded-action rows of `hmg_protocol::spec` and proves
//!   single-writer safety, sharer conservation, no stuck states, and
//!   waits-for acyclicity per protocol variant, with shortest
//!   counterexample traces on violation.
//! * [`lint`] — lexical source-hygiene rules: deterministic iteration,
//!   no smuggled entropy, no panics on hot paths, stats registration,
//!   no tree-based collections back on the rewritten DES hot path, no
//!   shadow DirState/DirEvent transition tables outside the spec.
//!
//! The shape of the rows themselves (conservation, variant
//! containment, arbitration rows never transitioning) is pinned by the
//! unit tests of `hmg_protocol::spec`.
//!
//! Each engine supports **seeded violations** ([`Inject`]) so the audit
//! can prove it actually detects what it claims to detect: CI runs the
//! clean audit (must exit 0) and one injected run per violation class
//! (must exit 1 with a `file:line` diagnostic).
//!
//! The runtime complement lives in `hmg_protocol::conformance`: the
//! engine replays every directory transition against the same spec
//! rows this crate verifies, and reports per-row coverage in
//! `RunMetrics::table`.

pub mod findings;
pub mod lint;
pub mod model;
pub mod waitsfor;

use std::path::{Path, PathBuf};

pub use findings::Finding;
use hmg_protocol::{DirEvent, DirState, ProtocolSpec, SpecVariant};

/// A seeded violation class for the audit's self-test mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Forget one spec cell (`(Valid, Replace)` under NHCC).
    IncompleteRow,
    /// Add ack-style invalidation edges, closing a waits-for cycle.
    WaitsForCycle,
    /// Smuggle a `SystemTime::now()` into a simulator-state crate.
    Entropy,
    /// Smuggle an iteration-order-sensitive `HashMap` into sim state.
    UnorderedMap,
    /// Smuggle a tree-based collection back into a DES hot-path file.
    HotPathStruct,
    /// Smuggle a hand-rolled DirState/DirEvent match (a shadow
    /// transition table) into engine territory.
    DirMatch,
    /// Drop the `ForwardInv` action from the HMG `(Valid, Invalidation)`
    /// spec row — a protocol bug only the model checker can see: the
    /// spec stays complete, but a remote sharer's copy is never
    /// invalidated.
    SpecDropForward,
}

impl Inject {
    /// CLI names of every violation class.
    pub const NAMES: &'static [&'static str] = &[
        "incomplete-row",
        "waitsfor-cycle",
        "entropy",
        "unordered-map",
        "hot-path-struct",
        "dir-match",
        "spec-drop-forward",
    ];

    /// All classes, matching [`Self::NAMES`] order.
    pub const ALL: [Inject; 7] = [
        Inject::IncompleteRow,
        Inject::WaitsForCycle,
        Inject::Entropy,
        Inject::UnorderedMap,
        Inject::HotPathStruct,
        Inject::DirMatch,
        Inject::SpecDropForward,
    ];

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Inject> {
        Self::NAMES
            .iter()
            .position(|&n| n == s)
            .map(|i| Self::ALL[i])
    }

    /// The rule id the injection must trip.
    pub fn expected_rule(self) -> &'static str {
        match self {
            Inject::IncompleteRow => "incomplete-row",
            Inject::WaitsForCycle => "waitsfor-cycle",
            Inject::Entropy => "entropy",
            Inject::UnorderedMap => "unordered-map",
            Inject::HotPathStruct => "hot-path-struct",
            Inject::DirMatch => "dir-match",
            Inject::SpecDropForward => "model-violation",
        }
    }
}

/// What to audit and how.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Workspace root (the directory holding `crates/`).
    pub root: PathBuf,
    /// Optional seeded violation for self-testing the audit.
    pub inject: Option<Inject>,
    /// Run the explicit-state model checker over the spec variants.
    /// Off by default: it is exhaustive (thousands of configurations
    /// per variant) and the cell pre-pass, waits-for, and lint engines
    /// cover every commit.
    pub model: bool,
    /// BFS depth bound for the model checker; `None` explores the full
    /// reachable space (the invariants are then *proved*, not sampled).
    pub model_depth: Option<u32>,
    /// Restrict the model checker to one spec variant (by
    /// [`SpecVariant`] name); `None` checks all four.
    pub protocol: Option<SpecVariant>,
}

impl AuditOptions {
    /// The default audit over `root`: all static engines, no model
    /// checking, no seeded violation.
    pub fn new(root: PathBuf) -> AuditOptions {
        AuditOptions {
            root,
            inject: None,
            model: false,
            model_depth: None,
            protocol: None,
        }
    }
}

/// The outcome of one audit run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Every violation found, in engine order.
    pub findings: Vec<Finding>,
    /// Spec cells checked (state x event x variant).
    pub cells_checked: usize,
    /// Waits-for edges checked.
    pub edges_checked: usize,
    /// Source files linted.
    pub files_scanned: usize,
    /// Per-variant model-checking results (empty unless the model
    /// checker ran); their `[model]` reports belong in the audit output.
    pub model_runs: Vec<model::ModelRun>,
}

impl AuditReport {
    /// `true` when the audit found nothing.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary line.
    pub fn summary(&self) -> String {
        let model = if self.model_runs.is_empty() {
            String::new()
        } else {
            format!(
                ", {} model states",
                self.model_runs.iter().map(|r| r.reachable).sum::<u64>()
            )
        };
        format!(
            "hmg-audit: {} table cells, {} waits-for edges, {} source files{} -> {} finding(s)",
            self.cells_checked,
            self.edges_checked,
            self.files_scanned,
            model,
            self.findings.len()
        )
    }
}

/// Runs the full audit.
pub fn run_audit(opts: &AuditOptions) -> AuditReport {
    let root: &Path = &opts.root;
    let mut findings = Vec::new();

    // Spec completeness pre-pass.
    let forgotten = (opts.inject == Some(Inject::IncompleteRow)).then_some((
        SpecVariant::Nhcc,
        DirState::Valid,
        DirEvent::Replace,
    ));
    let (cells_checked, cell_findings) = model::check_cells(root, |v, s, e| {
        Some((v, s, e)) != forgotten && ProtocolSpec::for_variant(v).legal(s, e)
    });
    findings.extend(cell_findings);

    // Waits-for deadlock analysis.
    let mut model = waitsfor::ChannelModel::from_code();
    if opts.inject == Some(Inject::WaitsForCycle) {
        model = model.with_ack_style_invalidation();
    }
    let edges_checked = model.edges().len();
    findings.extend(waitsfor::verify(root, &model));

    // Source-hygiene lints.
    let extra = match opts.inject {
        Some(Inject::Entropy) => vec![lint::synthetic_entropy_file()],
        Some(Inject::UnorderedMap) => vec![lint::synthetic_unordered_map_file()],
        Some(Inject::HotPathStruct) => vec![lint::synthetic_hot_path_file()],
        Some(Inject::DirMatch) => vec![lint::synthetic_dir_match_file()],
        _ => Vec::new(),
    };
    let (lint_findings, files_scanned) = lint::run(root, &extra);
    findings.extend(lint_findings);

    // Explicit-state model checking: opt-in, or forced by the
    // spec-drop-forward injection (the one bug class only reachability
    // can see — the broken spec is still complete).
    let mut model_runs = Vec::new();
    if opts.model || opts.inject == Some(Inject::SpecDropForward) {
        if opts.inject == Some(Inject::SpecDropForward) {
            // The forward matters only under HMG, so the injection pins
            // the hierarchical variant regardless of `--protocol`.
            let broken = ProtocolSpec::for_variant(SpecVariant::Hmg).with_forward_dropped();
            model_runs.push(model::check_variant(broken, opts.model_depth));
        } else {
            model_runs = model::check_all(opts.protocol, opts.model_depth);
        }
        for run in &model_runs {
            for v in &run.violations {
                // Anchor at the spec's Invalidation rows: that is where
                // a protocol-semantics fix lands.
                let line = findings::locate(root, Path::new(model::SPEC_RS), "static ROWS");
                findings.push(Finding::new(
                    "model-violation",
                    model::SPEC_RS,
                    line,
                    format!(
                        "[{}] {} invariant violated under variant `{}`: {} \
                         (counterexample trace in the [model] report, {} steps)",
                        run.variant.name(),
                        v.invariant,
                        run.variant.name(),
                        v.detail,
                        v.trace.len()
                    ),
                ));
            }
        }
    }

    AuditReport {
        findings,
        cells_checked,
        edges_checked,
        files_scanned,
        model_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn clean_audit_passes() {
        let report = run_audit(&AuditOptions::new(root()));
        assert!(report.passed(), "{:#?}", report.findings);
        // 2 states x 6 events x 4 spec variants.
        assert_eq!(report.cells_checked, 48);
        assert!(report.edges_checked >= 10);
        assert!(report.files_scanned > 20);
        assert!(report.model_runs.is_empty(), "model is opt-in");
    }

    #[test]
    fn clean_audit_with_model_proves_every_variant() {
        let report = run_audit(&AuditOptions {
            model: true,
            ..AuditOptions::new(root())
        });
        assert!(report.passed(), "{:#?}", report.findings);
        assert_eq!(report.model_runs.len(), SpecVariant::ALL.len());
        for run in &report.model_runs {
            assert!(run.passed() && !run.truncated, "{}", run.report());
        }
        assert!(report.summary().contains("model states"));
    }

    #[test]
    fn model_protocol_filter_checks_one_variant() {
        let report = run_audit(&AuditOptions {
            model: true,
            protocol: Some(SpecVariant::HmgPhase),
            model_depth: Some(4),
            ..AuditOptions::new(root())
        });
        assert_eq!(report.model_runs.len(), 1);
        assert_eq!(report.model_runs[0].variant, SpecVariant::HmgPhase);
        assert!(report.model_runs[0].truncated);
    }

    #[test]
    fn every_seeded_violation_class_is_caught_with_a_location() {
        for inject in Inject::ALL {
            let report = run_audit(&AuditOptions {
                inject: Some(inject),
                ..AuditOptions::new(root())
            });
            assert!(!report.passed(), "{inject:?} was not detected");
            let hit = report
                .findings
                .iter()
                .find(|f| f.rule == inject.expected_rule())
                .unwrap_or_else(|| panic!("{inject:?}: no {} finding", inject.expected_rule()));
            assert!(hit.line >= 1);
            assert!(
                !hit.file.as_os_str().is_empty(),
                "{inject:?} finding lacks a file"
            );
            // The diagnostic renders as file:line so it is jumpable.
            let shown = hit.to_string();
            assert!(
                shown.contains(&format!(":{}: [", hit.line)),
                "{inject:?}: {shown}"
            );
        }
    }

    #[test]
    fn inject_names_round_trip() {
        for (i, name) in Inject::NAMES.iter().enumerate() {
            assert_eq!(Inject::parse(name), Some(Inject::ALL[i]));
        }
        assert_eq!(Inject::parse("no-such-class"), None);
    }
}
