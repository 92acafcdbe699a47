//! Runtime conformance checking against the static transition table.
//!
//! `hmg-audit` proves properties of the [`crate::spec`] rows *offline*;
//! this module closes the loop at *runtime*: the GPU engine reports
//! every directory transition it actually executes, and
//! [`TableConformance`] checks the observed effect against the
//! unconditional spec row for that cell while accumulating per-row
//! coverage. The engine passes the state it sampled before mutating the
//! directory, and the row is looked up here, not taken from the engine,
//! so the check stays independent of the row the engine executed. A
//! mismatch means the timed engine has drifted from the table the paper
//! specifies — the engine debug-asserts on it, and release builds count
//! it so CI can fail the run.
//!
//! The observation API is deliberately integer-based (sharer counts, not
//! sharer sets) so this crate stays free of simulator dependencies and so
//! vacuous cases — e.g. a `(Valid, RemoteStore)` whose "invalidate other
//! sharers" target set happens to be empty — compare exactly rather than
//! by boolean intent.

use crate::spec::{
    row_index, row_of, Action, Arbitration, DirEvent, DirState, GuardCtx, ProtocolSpec, NUM_ROWS,
};

/// The spec whose unconditional rows a run under `hmg` must follow.
/// Arbitration only adds guarded rows that never transition, so the
/// NACK variant stands for both disciplines.
fn spec(hmg: bool) -> ProtocolSpec {
    ProtocolSpec::of(hmg, Arbitration::NackRetry)
}

/// What the engine actually did for one directory transition.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// The stable state the entry ended in.
    pub next: DirState,
    /// Whether the sender was recorded as a sharer (an insert was
    /// performed; re-inserting an already-tracked sharer counts).
    pub added_sharer: bool,
    /// Precisely tracked sharers before the transition, or `None` when
    /// the entry had degraded to broadcast (over-approximate) tracking.
    pub prior_sharers: Option<u32>,
    /// Whether the sender was already among the tracked sharers.
    pub sender_was_sharer: bool,
    /// How many sharers were sent invalidations, or `None` when the
    /// target list came from a conservative broadcast substitution.
    pub invalidated: Option<u32>,
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
        if obs.next != row.next {
            self.mismatches += 1;
            return Err(fail(format!("table says next={:?}", row.next)));
        }
        let add_sharer = row.has(Action::AddSharer);
        if obs.added_sharer != add_sharer {
            self.mismatches += 1;
            return Err(fail(format!("table says add_sharer={add_sharer}")));
        }
        // Invalidation-count check, skipped when either side of the
        // comparison is a broadcast over-approximation.
        if let (Some(prior), Some(inv)) = (obs.prior_sharers, obs.invalidated) {
            // At a GPU home, forwarding a system-home invalidation
            // downward is the same wire traffic as invalidating every
            // tracked sharer.
            let want = if row.has(Action::InvAllSharers) || row.has(Action::ForwardInv) {
                prior
            } else if row.has(Action::InvOtherSharers) {
                prior - u32::from(obs.sender_was_sharer)
            } else {
                0
            };
            if inv != want {
                self.mismatches += 1;
                return Err(fail(format!(
                    "table implies {want} invalidations, sent {inv}"
                )));
            }
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
            next: state,
            added_sharer: false,
            prior_sharers: Some(0),
            sender_was_sharer: false,
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
        // 3 sharers tracked, sender already among them: expect 2 invs.
        let ok = Observed {
            next: Valid,
            added_sharer: true,
            prior_sharers: Some(3),
            sender_was_sharer: true,
            invalidated: Some(2),
        };
        t.observe(Valid, RemoteStore, false, ok).unwrap();
        let bad = Observed {
            invalidated: Some(3),
            ..ok
        };
        let err = t.observe(Valid, RemoteStore, false, bad).unwrap_err();
        assert!(err.contains("implies 2 invalidations"), "{err}");
    }

    #[test]
    fn forwarded_invalidation_invalidates_every_tracked_sharer() {
        // (Valid, Invalidation) carries ForwardInv rather than
        // InvAllSharers; at a GPU home both mean "every tracked sharer".
        let mut t = TableConformance::new();
        let ok = Observed {
            next: Invalid,
            added_sharer: false,
            prior_sharers: Some(3),
            sender_was_sharer: false,
            invalidated: Some(3),
        };
        t.observe(Valid, Invalidation, true, ok).unwrap();
        for sent in [0, 2, 4] {
            let bad = Observed {
                invalidated: Some(sent),
                ..ok
            };
            let err = t.observe(Valid, Invalidation, true, bad).unwrap_err();
            assert!(err.contains("implies 3 invalidations"), "{err}");
        }
        assert_eq!(t.mismatches, 3);
    }

    #[test]
    fn broadcast_entries_skip_the_count_check() {
        let mut t = TableConformance::new();
        let obs = Observed {
            next: Invalid,
            added_sharer: false,
            prior_sharers: None,
            sender_was_sharer: false,
            invalidated: None,
        };
        t.observe(Valid, Replace, false, obs).unwrap();
        assert_eq!(t.mismatches, 0);
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
