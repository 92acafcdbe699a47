//! Runtime conformance checking against the static transition table.
//!
//! `hmg-audit` proves properties of the [`crate::spec`] rows *offline*;
//! this module closes the loop at *runtime*: the GPU engine reports
//! every directory transition it actually executes, and
//! [`TableConformance`] checks what the engine did — the state it left
//! the entry in, whether it tracked the sender, and the invalidations it
//! sent — against [`SpecRow::effect`](crate::SpecRow::effect) of the
//! unconditional spec row for that cell, while accumulating per-row
//! coverage. The engine passes the entry it sampled before mutating the
//! directory, and the row is looked up here, not taken from the engine,
//! so the check stays independent of the row the engine executed. A
//! mismatch means the timed engine has drifted from the table the paper
//! specifies — the engine debug-asserts on it, and release builds count
//! it so CI can fail the run.
//!
//! Observations are sharer bitmasks ([`Sharers`]), so this crate stays
//! free of simulator dependencies and invalidation targets compare
//! exactly, vacuous (empty) ones included.

use crate::spec::{
    row_index, row_of, Arbitration, DirEvent, DirState, GuardCtx, ProtocolSpec, Sharers, Targets,
    NUM_ROWS,
};

/// The spec whose unconditional rows a run under `hmg` must follow.
/// Arbitration only adds guarded rows that never transition, so the
/// NACK variant stands for both disciplines.
fn spec(hmg: bool) -> ProtocolSpec {
    ProtocolSpec::of(hmg, Arbitration::NackRetry)
}

/// What the engine actually did for one directory transition, and the
/// entry and sender it did it for.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// The entry before the transition (empty when Invalid).
    pub prior: Sharers,
    /// The sender's sharer bit, or `None` for local accesses,
    /// replacements and invalidations.
    pub sender: Option<u64>,
    /// The stable state the entry ended in.
    pub next: DirState,
    /// Whether the sender was recorded as a sharer (an insert was
    /// performed; re-inserting an already-tracked sharer counts).
    pub added_sharer: bool,
    /// The sharers sent invalidations, or `None` when the target list
    /// came from a conservative broadcast substitution.
    pub invalidated: Option<u64>,
}

/// Per-row coverage and conformance counters for directory transitions.
///
/// Embedded in the engine's `RunMetrics`; merged across runs by the
/// tier-1 table-coverage test to prove every legal row is exercised.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableConformance {
    /// Times each `(DirState, DirEvent)` cell was executed, indexed by
    /// [`row_index`].
    pub rows: [u64; NUM_ROWS],
    /// Total transitions checked.
    pub checked: u64,
    /// Transitions whose observed effect contradicted the table.
    pub mismatches: u64,
}

impl TableConformance {
    /// Fresh, all-zero tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed transition and checks it against the table.
    ///
    /// Returns `Err` with a human-readable diagnosis when the observed
    /// effect contradicts the spec row (the mismatch is counted
    /// either way, so release builds still surface it via
    /// [`TableConformance::mismatches`]).
    pub fn observe(
        &mut self,
        state: DirState,
        event: DirEvent,
        hmg: bool,
        obs: Observed,
    ) -> Result<(), String> {
        self.rows[row_index(state, event)] += 1;
        self.checked += 1;
        let fail = |what: String| {
            format!(
                "({:?}, {:?}) hmg={hmg}: {what} (observed {obs:?})",
                state, event
            )
        };
        let Some(row) = spec(hmg).row(state, event, GuardCtx::FREE) else {
            self.mismatches += 1;
            return Err(fail(
                "engine executed a cell the table leaves undefined".into(),
            ));
        };
        let want = row.effect(obs.prior, obs.sender);
        // A broadcast substitution is only checked for being one: its
        // members depend on the topology, which this crate never sees.
        let sent_ok = match (want.targets, obs.invalidated) {
            (Targets::Exact(bits), Some(sent)) => bits == sent,
            (Targets::AllBut(_), None) => true,
            _ => false,
        };
        if obs.next != want.next || obs.added_sharer != want.add_sender || !sent_ok {
            self.mismatches += 1;
            return Err(fail(format!(
                "table implies next={:?} add_sharer={} invalidations {:?}",
                want.next, want.add_sender, want.targets
            )));
        }
        Ok(())
    }

    /// Accumulates another tracker's counters into this one.
    pub fn merge(&mut self, other: &TableConformance) {
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            *a += b;
        }
        self.checked += other.checked;
        self.mismatches += other.mismatches;
    }

    /// Rows that are legal under `hmg` (i.e. defined by the table) but
    /// were never executed.
    pub fn uncovered_rows(&self, hmg: bool) -> Vec<(DirState, DirEvent)> {
        spec(hmg)
            .legal_rows()
            .into_iter()
            .filter(|&(s, e)| self.rows[row_index(s, e)] == 0)
            .collect()
    }

    /// Multi-line per-row coverage report, in table order.
    pub fn report(&self) -> String {
        let mut out = String::from("directory transition coverage (hits per table cell):\n");
        for i in 0..NUM_ROWS {
            let (s, e) = row_of(i);
            let legal = spec(true).legal(s, e);
            out.push_str(&format!(
                "  {:<1} x {:<12} {:>10}{}\n",
                s.letter(),
                e.label(),
                self.rows[i],
                if legal { "" } else { "  (N/A)" }
            ));
        }
        out.push_str(&format!(
            "  checked={} mismatches={}\n",
            self.checked, self.mismatches
        ));
        out
    }
}

hmg_sim::snapshot_codec!(TableConformance {
    rows,
    checked,
    mismatches
});

#[cfg(test)]
mod tests {
    use super::*;
    use DirEvent::*;
    use DirState::*;

    /// A transition that touched nothing: stayed in `state`, added no
    /// sharer, invalidated nobody.
    fn quiet(state: DirState) -> Observed {
        Observed {
            prior: Sharers::default(),
            sender: None,
            next: state,
            added_sharer: false,
            invalidated: Some(0),
        }
    }

    #[test]
    fn quiet_local_load_conforms() {
        let mut t = TableConformance::new();
        t.observe(Valid, LocalLoad, false, quiet(Valid)).unwrap();
        assert_eq!(t.checked, 1);
        assert_eq!(t.mismatches, 0);
        assert_eq!(t.rows[row_index(Valid, LocalLoad)], 1);
    }

    #[test]
    fn wrong_next_state_is_a_mismatch() {
        let mut t = TableConformance::new();
        let err = t
            .observe(Valid, LocalStore, false, quiet(Valid))
            .unwrap_err();
        assert!(err.contains("next=Invalid"), "{err}");
        assert_eq!(t.mismatches, 1);
    }

    #[test]
    fn remote_store_invalidates_exactly_the_others() {
        let mut t = TableConformance::new();
        // Sharers {0, 1, 2}, sender 1 among them: expect invs to 0 and 2.
        let ok = Observed {
            prior: Sharers::exact(0b111),
            sender: Some(0b010),
            next: Valid,
            added_sharer: true,
            invalidated: Some(0b101),
        };
        t.observe(Valid, RemoteStore, false, ok).unwrap();
        for sent in [0b111, 0b100, 0b110] {
            let bad = Observed {
                invalidated: Some(sent),
                ..ok
            };
            let err = t.observe(Valid, RemoteStore, false, bad).unwrap_err();
            assert!(err.contains("invalidations Exact(5)"), "{err}");
        }
        let untracked = Observed {
            added_sharer: false,
            ..ok
        };
        let err = t.observe(Valid, RemoteStore, false, untracked).unwrap_err();
        assert!(err.contains("add_sharer=true"), "{err}");
    }

    #[test]
    fn forwarded_invalidation_invalidates_every_tracked_sharer() {
        // (Valid, Invalidation) carries ForwardInv rather than
        // InvAllSharers; at a GPU home both mean "every tracked sharer".
        let mut t = TableConformance::new();
        let ok = Observed {
            prior: Sharers::exact(0b111),
            sender: None,
            next: Invalid,
            added_sharer: false,
            invalidated: Some(0b111),
        };
        t.observe(Valid, Invalidation, true, ok).unwrap();
        for sent in [0, 0b011, 0b1111] {
            let bad = Observed {
                invalidated: Some(sent),
                ..ok
            };
            let err = t.observe(Valid, Invalidation, true, bad).unwrap_err();
            assert!(err.contains("invalidations Exact(7)"), "{err}");
        }
        assert_eq!(t.mismatches, 3);
    }

    #[test]
    fn broadcast_entries_skip_the_count_check() {
        let mut t = TableConformance::new();
        let obs = Observed {
            prior: Sharers {
                bits: 0,
                broadcast: true,
            },
            sender: None,
            next: Invalid,
            added_sharer: false,
            invalidated: None,
        };
        t.observe(Valid, Replace, false, obs).unwrap();
        assert_eq!(t.mismatches, 0);
        // A precise list sent for a broadcast entry is not a broadcast.
        let precise = Observed {
            invalidated: Some(0b11),
            ..obs
        };
        assert!(t.observe(Valid, Replace, false, precise).is_err());
    }

    #[test]
    fn undefined_cell_is_a_mismatch() {
        let mut t = TableConformance::new();
        let err = t
            .observe(Invalid, Invalidation, false, quiet(Invalid))
            .unwrap_err();
        assert!(err.contains("undefined"), "{err}");
    }

    #[test]
    fn merge_and_uncovered_rows() {
        let mut a = TableConformance::new();
        let mut b = TableConformance::new();
        a.observe(Valid, LocalLoad, false, quiet(Valid)).unwrap();
        b.observe(Invalid, LocalLoad, false, quiet(Invalid))
            .unwrap();
        a.merge(&b);
        assert_eq!(a.checked, 2);
        let uncovered = a.uncovered_rows(true);
        // 11 legal rows under HMG, 2 covered.
        assert_eq!(uncovered.len(), 9);
        assert!(!uncovered.contains(&(Valid, LocalLoad)));
        assert!(a.report().contains("checked=2"));
    }
}
