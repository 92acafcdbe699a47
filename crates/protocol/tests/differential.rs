//! Differential test: the guarded-action spec vs an independently
//! hand-transcribed Table I.
//!
//! `spec.rs` is the single source of truth for the protocol, which
//! means a transcription error there propagates everywhere at once —
//! engine, oracle, model checker. This test pins the spec against a
//! *second, deliberately hand-coded* copy of Table I (plus the §V-A
//! hierarchical column and the two arbitration disciplines), written as
//! plain match arms from the paper, and sweeps the full
//! `(state, event, variant, guard)` domain. The two transcriptions were
//! produced independently; any disagreement is a bug in one of them.
//!
//! The reference lives in a `tests/` file on purpose: the `dir-match`
//! lint forbids shadow DirState/DirEvent transition tables in source
//! crates, and integration tests are exactly the carve-out where a
//! redundant copy is the point.

use hmg_protocol::spec::{Action, Arbitration, GuardCtx, ProtocolSpec, SpecVariant};
use hmg_protocol::{DirEvent, DirState};

/// What the paper says one directory home does, reduced to the same
/// observable effects the spec's action vocabulary can express.
#[derive(Debug, PartialEq, Eq)]
struct Reference {
    next: DirState,
    add_sharer: bool,
    inv_all: bool,
    inv_other: bool,
    forwards: bool,
    throttled: Option<Arbitration>,
}

/// Table I (HPCA 2020, §IV) transcribed by hand, cell by cell, without
/// consulting `spec.rs`. Returns `None` for cells the paper leaves
/// undefined: `(Invalid, Replace)` everywhere and the `Invalidation`
/// column outside HMG.
fn reference(
    state: DirState,
    event: DirEvent,
    variant: SpecVariant,
    busy: bool,
) -> Option<Reference> {
    use DirEvent::*;
    use DirState::*;
    let quiet = |next: DirState| Reference {
        next,
        add_sharer: false,
        inv_all: false,
        inv_other: false,
        forwards: false,
        throttled: None,
    };
    // Arbitration: a congested home throttles *remote requests* only —
    // its own accesses, evictions, and inbound invalidations proceed.
    if busy && matches!(event, RemoteLoad | RemoteStore) {
        return Some(Reference {
            throttled: Some(variant.arbitration()),
            ..quiet(state)
        });
    }
    match (state, event) {
        // Row I: no entry. Local accesses need no tracking (the home's
        // own copy is coherent by construction); a remote access
        // allocates and records the requester.
        (Invalid, LocalLoad) | (Invalid, LocalStore) => Some(quiet(Invalid)),
        (Invalid, RemoteLoad) | (Invalid, RemoteStore) => Some(Reference {
            add_sharer: true,
            ..quiet(Valid)
        }),
        // An invalidation for an absent entry is only meaningful at an
        // HMG GPU home (the system home invalidated the whole GPU; no
        // GPM sharers are tracked, nothing to forward).
        (Invalid, Invalidation) if variant.hmg() => Some(quiet(Invalid)),
        (Invalid, Invalidation) => None,
        // An absent entry cannot be evicted.
        (Invalid, Replace) => None,
        // Row V: entry present.
        (Valid, LocalLoad) => Some(quiet(Valid)),
        (Valid, LocalStore) => Some(Reference {
            inv_all: true,
            ..quiet(Invalid)
        }),
        (Valid, RemoteLoad) => Some(Reference {
            add_sharer: true,
            ..quiet(Valid)
        }),
        (Valid, RemoteStore) => Some(Reference {
            add_sharer: true,
            inv_other: true,
            ..quiet(Valid)
        }),
        (Valid, Replace) => Some(Reference {
            inv_all: true,
            ..quiet(Invalid)
        }),
        // §V-A: the one transition hierarchy adds — a GPU home passes a
        // system-home invalidation down to its tracked GPMs and drops
        // its own entry.
        (Valid, Invalidation) if variant.hmg() => Some(Reference {
            forwards: true,
            ..quiet(Invalid)
        }),
        (Valid, Invalidation) => None,
    }
}

/// The spec's answer for the same cell, reduced to [`Reference`].
fn from_spec(
    state: DirState,
    event: DirEvent,
    variant: SpecVariant,
    busy: bool,
) -> Option<Reference> {
    let ctx = if busy { GuardCtx::BUSY } else { GuardCtx::FREE };
    let r = ProtocolSpec::for_variant(variant).row(state, event, ctx)?;
    let throttled = match (r.has(Action::Nack), r.has(Action::Defer)) {
        (true, false) => Some(Arbitration::NackRetry),
        (false, true) => Some(Arbitration::PhasePriority),
        (false, false) => None,
        (true, true) => panic!("a row cannot both NACK and defer: {r:?}"),
    };
    Some(Reference {
        next: r.next,
        add_sharer: r.has(Action::AddSharer),
        inv_all: r.has(Action::InvAllSharers),
        inv_other: r.has(Action::InvOtherSharers),
        forwards: r.has(Action::ForwardInv),
        throttled,
    })
}

#[test]
fn spec_agrees_with_the_hand_coded_table_over_the_whole_domain() {
    let mut cells = 0;
    for variant in SpecVariant::ALL {
        for state in DirState::ALL {
            for event in DirEvent::ALL {
                for busy in [false, true] {
                    cells += 1;
                    assert_eq!(
                        from_spec(state, event, variant, busy),
                        reference(state, event, variant, busy),
                        "{variant:?} {state:?} {event:?} busy={busy}"
                    );
                }
            }
        }
    }
    // 2 states x 6 events x 4 variants x 2 guard contexts.
    assert_eq!(cells, 96);
}

#[test]
fn the_seeded_spec_bug_is_visible_to_the_differential_sweep() {
    // The spec-drop-forward injection must disagree with the reference
    // at exactly one cell — proof the sweep has the power to catch a
    // single dropped action.
    let broken = ProtocolSpec::for_variant(SpecVariant::Hmg).with_forward_dropped();
    let mut disagreements = Vec::new();
    for state in DirState::ALL {
        for event in DirEvent::ALL {
            let got = broken
                .row(state, event, GuardCtx::FREE)
                .map(|r| r.has(Action::ForwardInv));
            let want = reference(state, event, SpecVariant::Hmg, false).map(|w| w.forwards);
            if got != want {
                disagreements.push((state, event));
            }
        }
    }
    assert_eq!(
        disagreements,
        vec![(DirState::Valid, DirEvent::Invalidation)]
    );
}
