//! Guarded-action protocol specification: Table I as first-class data.
//!
//! The directory has exactly two stable states — Valid and Invalid — and
//! no transient states; stores never wait for invalidation
//! acknowledgments because the memory model is not multi-copy-atomic
//! (Section III-B). The one HMG-specific addition is the `Invalidation`
//! column: a GPU home node receiving an invalidation from the system home
//! must forward it to its local GPM sharers.
//!
//! | State | Local Ld | Local St/Atom       | Remote Ld    | Remote St/Atom               | Replace             | Invalidation (HMG)            |
//! |-------|----------|---------------------|--------------|------------------------------|---------------------|-------------------------------|
//! | I     | –        | –                   | add s, →V    | add s, →V                    | N/A                 | →I                            |
//! | V     | –        | inv all sharers, →I | add s        | add s, inv other sharers     | inv all sharers, →I | forward inv to all sharers, →I |
//!
//! The table is written once, as a flat list of guarded-action rows
//! `(state, event, guard) → (actions, next_state)` over a small closed
//! action vocabulary ([`ROWS`]). The rows are `static` data — no
//! allocation, no I/O — and one pure executor, [`SpecRow::effect`],
//! gives the actions their meaning. Every other layer reads them:
//!
//! * the GPU engine runs every directory transition through `effect`
//!   (`engine/directory.rs`) and only performs its side effects;
//! * [`crate::conformance`] checks every executed transition against
//!   `effect` of the unconditional row for its cell;
//! * the check oracle accepts exactly the cells the spec defines;
//! * `hmg-audit` checks every cell of every variant is defined XOR
//!   declared N/A, and its explicit-state model checker steps its
//!   abstract directories through `effect`, so a spec edit is re-proved
//!   safe (single-writer, conservation, no stuck states) on the
//!   semantics the engine runs, before any cycle is simulated.
//!
//! Guards model *arbitration* at a busy directory home — the one place
//! the protocol's behavior is conditional on something other than
//! `(state, event)`. Two arbitration disciplines exist as spec-only
//! variants: classic NACK/retry (send a NACK, requester backs off and
//! re-issues) and phase-priority (defer the request locally and replay
//! it when the home drains, after Li & An's phase-priority directory
//! arbitration). Neither touches the directory entry, which is why both
//! are expressible as guarded rows with `next == state`.

/// Stable directory states. Valid corresponds to the entry being present
/// in the set-associative directory; Invalid to its absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DirState {
    /// No sharers tracked.
    Invalid,
    /// Entry present; sharer list is meaningful.
    Valid,
}

impl DirState {
    /// Every stable state, in table-row order.
    pub const ALL: [DirState; 2] = [DirState::Invalid, DirState::Valid];

    /// One-letter label used by coverage reports ("I" / "V").
    pub fn letter(self) -> &'static str {
        match self {
            DirState::Invalid => "I",
            DirState::Valid => "V",
        }
    }
}

/// Events a directory entry can observe. "Local" means issued by the GPM
/// owning this directory; "remote" means arriving from another GPM or GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirEvent {
    /// A load from the home GPM itself.
    LocalLoad,
    /// A store or atomic from the home GPM itself.
    LocalStore,
    /// A load from a remote GPM/GPU (the sender `s`).
    RemoteLoad,
    /// A store or atomic from a remote GPM/GPU (the sender `s`).
    RemoteStore,
    /// Capacity/conflict eviction of the directory entry.
    Replace,
    /// HMG only: an invalidation received by a GPU home node from the
    /// system home node.
    Invalidation,
}

impl DirEvent {
    /// Every event, in table-column order.
    pub const ALL: [DirEvent; 6] = [
        DirEvent::LocalLoad,
        DirEvent::LocalStore,
        DirEvent::RemoteLoad,
        DirEvent::RemoteStore,
        DirEvent::Replace,
        DirEvent::Invalidation,
    ];

    /// The column of a load, or of a store or atomic (`store`), from a
    /// remote sender or from the home GPM itself.
    pub fn access(store: bool, remote: bool) -> DirEvent {
        match (store, remote) {
            (false, false) => LocalLoad,
            (false, true) => RemoteLoad,
            (true, false) => LocalStore,
            (true, true) => RemoteStore,
        }
    }

    /// Column label used by coverage reports.
    pub fn label(self) -> &'static str {
        match self {
            DirEvent::LocalLoad => "LocalLoad",
            DirEvent::LocalStore => "LocalStore",
            DirEvent::RemoteLoad => "RemoteLoad",
            DirEvent::RemoteStore => "RemoteStore",
            DirEvent::Replace => "Replace",
            DirEvent::Invalidation => "Invalidation",
        }
    }
}

/// Number of cells in the `DirState` × `DirEvent` table domain.
pub const NUM_ROWS: usize = DirState::ALL.len() * DirEvent::ALL.len();

/// Dense index of a `(state, event)` cell, for coverage arrays.
pub fn row_index(state: DirState, event: DirEvent) -> usize {
    let s = state as usize;
    let e = event as usize;
    s * DirEvent::ALL.len() + e
}

/// Inverse of [`row_index`].
pub fn row_of(index: usize) -> (DirState, DirEvent) {
    let s = DirState::ALL[index / DirEvent::ALL.len()];
    let e = DirEvent::ALL[index % DirEvent::ALL.len()];
    (s, e)
}

/// Arbitration discipline a directory home applies to requests that
/// arrive while its ingress port is congested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Reject with a NACK message; the requester re-issues after an
    /// exponential backoff (the PR 7 flow-control behavior).
    #[default]
    NackRetry,
    /// Keep the request at the home and replay it after a fixed
    /// quantum, in arrival order (phase-priority arbitration). No NACK
    /// traffic, no requester-side backoff state.
    PhasePriority,
}

impl Arbitration {
    /// Both disciplines, NACK first (the default).
    pub const ALL: [Arbitration; 2] = [Arbitration::NackRetry, Arbitration::PhasePriority];

    /// Stable lower-case name used by CLI flags and tweak specs.
    pub fn name(self) -> &'static str {
        match self {
            Arbitration::NackRetry => "nack",
            Arbitration::PhasePriority => "phase",
        }
    }

    /// Inverse of [`Arbitration::name`].
    pub fn from_name(s: &str) -> Option<Arbitration> {
        Arbitration::ALL.into_iter().find(|a| a.name() == s)
    }
}

/// One protocol variant the spec describes: a base protocol (flat NHCC
/// or hierarchical HMG) crossed with an arbitration discipline.
///
/// This is deliberately *not* [`crate::ProtocolKind`]: the fig. 8 matrix
/// enumerates whole coherence configurations (software schemes, ideal,
/// etc.), while the spec only describes the two hardware-directory
/// protocols — arbitration is an orthogonal knob on top of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecVariant {
    /// Flat NHCC directory, NACK/retry arbitration.
    Nhcc,
    /// Hierarchical HMG directory, NACK/retry arbitration.
    Hmg,
    /// Flat NHCC directory, phase-priority arbitration.
    NhccPhase,
    /// Hierarchical HMG directory, phase-priority arbitration.
    HmgPhase,
}

impl SpecVariant {
    /// Every variant, in audit/report order.
    pub const ALL: [SpecVariant; 4] = [
        SpecVariant::Nhcc,
        SpecVariant::Hmg,
        SpecVariant::NhccPhase,
        SpecVariant::HmgPhase,
    ];

    /// Stable name used by `hmg-audit --protocol`, `experiments check
    /// --protocol` and reports.
    pub fn name(self) -> &'static str {
        match self {
            SpecVariant::Nhcc => "nhcc",
            SpecVariant::Hmg => "hmg",
            SpecVariant::NhccPhase => "nhcc-phase",
            SpecVariant::HmgPhase => "hmg-phase",
        }
    }

    /// Inverse of [`SpecVariant::name`].
    pub fn from_name(s: &str) -> Option<SpecVariant> {
        SpecVariant::ALL.into_iter().find(|v| v.name() == s)
    }

    /// Whether the variant defines the hierarchical `Invalidation`
    /// column (GPU home nodes forward system-home invalidations down).
    pub fn hmg(self) -> bool {
        matches!(self, SpecVariant::Hmg | SpecVariant::HmgPhase)
    }

    /// The arbitration discipline of this variant.
    pub fn arbitration(self) -> Arbitration {
        match self {
            SpecVariant::Nhcc | SpecVariant::Hmg => Arbitration::NackRetry,
            SpecVariant::NhccPhase | SpecVariant::HmgPhase => Arbitration::PhasePriority,
        }
    }

    /// The variant describing `(hmg, arbitration)`.
    pub fn of(hmg: bool, arb: Arbitration) -> SpecVariant {
        match (hmg, arb) {
            (false, Arbitration::NackRetry) => SpecVariant::Nhcc,
            (true, Arbitration::NackRetry) => SpecVariant::Hmg,
            (false, Arbitration::PhasePriority) => SpecVariant::NhccPhase,
            (true, Arbitration::PhasePriority) => SpecVariant::HmgPhase,
        }
    }
}

/// Row guard: the condition, beyond `(state, event)`, under which a row
/// fires. Rows are matched first-to-last, so a `HomeBusy` row shadows
/// the unconditional row for the same cell when the home is congested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// Fires unconditionally.
    Always,
    /// Fires only when the home's ingress backlog exceeds the
    /// flow-control threshold (requests from other nodes only; a home
    /// never throttles itself).
    HomeBusy,
}

/// Evaluation context for [`Guard`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardCtx {
    /// Whether the home node's ingress backlog is over threshold.
    pub home_busy: bool,
}

impl GuardCtx {
    /// The uncongested context: only `Always` rows fire. This is what
    /// the engine's directory interpreter and the conformance replay use,
    /// since they execute directory *transitions* (arbitration rows
    /// never transition).
    pub const FREE: GuardCtx = GuardCtx { home_busy: false };

    /// The congested context: `HomeBusy` rows shadow their cells.
    pub const BUSY: GuardCtx = GuardCtx { home_busy: true };
}

impl Guard {
    /// Whether the guard holds in `ctx`.
    pub fn eval(self, ctx: GuardCtx) -> bool {
        match self {
            Guard::Always => true,
            Guard::HomeBusy => ctx.home_busy,
        }
    }
}

/// The closed action vocabulary. Everything a directory home can do is
/// one of these; there is deliberately no "wait for ack" action — the
/// type system itself encodes the paper's ack-free, two-stable-state
/// claim (Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Record the request sender as a sharer of the entry.
    AddSharer,
    /// Drop every tracked sharer (entry deallocation).
    RemoveAllSharers,
    /// Send an invalidation to every tracked sharer.
    InvAllSharers,
    /// Send an invalidation to every tracked sharer except the sender.
    InvOtherSharers,
    /// HMG only: forward a system-home invalidation to every local
    /// (GPM-level) sharer tracked by a GPU home node.
    ForwardInv,
    /// Flush any dirty local copy to memory (write-back policy only;
    /// a write-through configuration has nothing to flush).
    Writeback,
    /// Reject the request with a NACK message; the requester re-issues
    /// after exponential backoff.
    Nack,
    /// Hold the request at the home and replay it after a fixed quantum
    /// (phase-priority arbitration).
    Defer,
}

/// One guarded-action row: when `event` hits an entry in `state` and
/// `guard` holds, perform `actions` and move to `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecRow {
    /// Stable state the entry is in.
    pub state: DirState,
    /// Event observed.
    pub event: DirEvent,
    /// Condition beyond `(state, event)`.
    pub guard: Guard,
    /// Actions to perform, in order.
    pub actions: &'static [Action],
    /// Stable state the entry moves to.
    pub next: DirState,
    /// Whether the row exists only under hierarchical (HMG) variants.
    pub hmg_only: bool,
    /// Arbitration discipline the row belongs to, or `None` for rows
    /// shared by every discipline.
    pub arbitration: Option<Arbitration>,
}

impl SpecRow {
    /// Whether `actions` contains `a`.
    pub fn has(&self, a: Action) -> bool {
        self.actions.contains(&a)
    }

    /// Whether the row belongs to `variant`.
    pub fn in_variant(&self, variant: SpecVariant) -> bool {
        (!self.hmg_only || variant.hmg())
            && self
                .arbitration
                .is_none_or(|arb| arb == variant.arbitration())
    }

    /// What the row does to an entry holding `prior` when `sender` (its
    /// one-bit sharer mask, `None` for local accesses, replacements and
    /// invalidations) triggers it: the one meaning of the action
    /// vocabulary, which the engine, the conformance replay and the
    /// model checker all execute. Invalidation targets come from
    /// `prior`, the entry before any action ran. Pure: the
    /// caller performs the side effects, and the directory's sharer cap
    /// (an overflow policy, not a Table I action) is the caller's too.
    pub fn effect(&self, prior: Sharers, sender: Option<u64>) -> Effect {
        let mut e = Effect {
            next: self.next,
            add_sender: false,
            clear: false,
            sharers: prior,
            targets: Targets::Exact(0),
            forwarded: false,
            nack: false,
            defer: false,
        };
        // `Some(spared)` once an invalidating action ran.
        let mut inv = None;
        for &action in self.actions {
            match action {
                Action::AddSharer => {
                    if let Some(s) = sender {
                        e.add_sender = true;
                        if !e.sharers.broadcast {
                            e.sharers.bits |= s;
                        }
                    }
                }
                Action::RemoveAllSharers => (e.clear, e.sharers) = (true, Sharers::default()),
                Action::InvAllSharers => inv = Some(0),
                Action::ForwardInv => (inv, e.forwarded) = (Some(0), true),
                Action::InvOtherSharers => inv = Some(sender.unwrap_or(0)),
                // Write-through: dirty copies flush at the invalidated
                // caches.
                Action::Writeback => {}
                Action::Nack => e.nack = true,
                Action::Defer => e.defer = true,
            }
        }
        if let Some(spared) = inv {
            e.targets = if prior.broadcast {
                Targets::AllBut(spared)
            } else {
                Targets::Exact(prior.bits & !spared)
            };
        }
        e
    }
}

/// A directory entry's sharers as the rows see them: one bit per
/// precisely tracked sharer, or an entry degraded to broadcast tracking
/// that anyone may be sharing (DESIGN.md §7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Sharers {
    /// Precisely tracked sharers, one bit each (0 when broadcast).
    pub bits: u64,
    /// Whether the entry has degraded to broadcast tracking.
    pub broadcast: bool,
}

impl Sharers {
    /// A precise entry tracking exactly `bits`.
    pub const fn exact(bits: u64) -> Sharers {
        Sharers {
            bits,
            broadcast: false,
        }
    }
}

/// Who a row's invalidations go to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Targets {
    /// Exactly these sharers (none when the row invalidates nobody).
    Exact(u64),
    /// A broadcast entry's conservative substitute: everyone the home
    /// could be tracking, except these sharers.
    AllBut(u64),
}

/// The effect of one row on one entry ([`SpecRow::effect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Effect {
    /// The stable state the entry moves to.
    pub next: DirState,
    /// Whether the sender is recorded as a sharer.
    pub add_sender: bool,
    /// Whether the entry is deallocated.
    pub clear: bool,
    /// The entry's sharers after the row (before any sharer cap).
    pub sharers: Sharers,
    /// The invalidations the row sends.
    pub targets: Targets,
    /// Whether the invalidations forward a system-home invalidation
    /// down the hierarchy rather than originate here.
    pub forwarded: bool,
    /// Whether the request is rejected for a retry.
    pub nack: bool,
    /// Whether the request is held at the home for a replay.
    pub defer: bool,
}

/// Shorthand for unconditional rows shared by every arbitration.
const fn row(
    state: DirState,
    event: DirEvent,
    actions: &'static [Action],
    next: DirState,
    hmg_only: bool,
) -> SpecRow {
    SpecRow {
        state,
        event,
        guard: Guard::Always,
        actions,
        next,
        hmg_only,
        arbitration: None,
    }
}

/// Guarded arbitration row: remote request at a busy home. Never
/// touches the entry (`next == state`, no sharer/invalidation action).
const fn busy_row(
    state: DirState,
    event: DirEvent,
    arb: Arbitration,
    action: &'static [Action],
) -> SpecRow {
    SpecRow {
        state,
        event,
        guard: Guard::HomeBusy,
        actions: action,
        next: state,
        hmg_only: false,
        arbitration: Some(arb),
    }
}

use DirEvent::*;
use DirState::*;

/// Every row of the spec, across all variants. Guarded (`HomeBusy`)
/// rows come first so first-match lookup gives them precedence; the
/// unconditional rows then transcribe Table I cell by cell. Cells
/// absent from this list — `(Invalid, Replace)` everywhere, and the
/// `Invalidation` column outside HMG — are *undefined*: reaching them
/// is a protocol bug, which is exactly what the audit layers check.
pub static ROWS: &[SpecRow] = &[
    // Arbitration at a congested home: only remote requests are
    // throttled (a home never NACKs or defers its own accesses).
    busy_row(Invalid, RemoteLoad, Arbitration::NackRetry, &[Action::Nack]),
    busy_row(
        Invalid,
        RemoteStore,
        Arbitration::NackRetry,
        &[Action::Nack],
    ),
    busy_row(Valid, RemoteLoad, Arbitration::NackRetry, &[Action::Nack]),
    busy_row(Valid, RemoteStore, Arbitration::NackRetry, &[Action::Nack]),
    busy_row(
        Invalid,
        RemoteLoad,
        Arbitration::PhasePriority,
        &[Action::Defer],
    ),
    busy_row(
        Invalid,
        RemoteStore,
        Arbitration::PhasePriority,
        &[Action::Defer],
    ),
    busy_row(
        Valid,
        RemoteLoad,
        Arbitration::PhasePriority,
        &[Action::Defer],
    ),
    busy_row(
        Valid,
        RemoteStore,
        Arbitration::PhasePriority,
        &[Action::Defer],
    ),
    // Table I, row I (entry absent).
    row(Invalid, LocalLoad, &[], Invalid, false),
    row(Invalid, LocalStore, &[], Invalid, false),
    row(Invalid, RemoteLoad, &[Action::AddSharer], Valid, false),
    row(Invalid, RemoteStore, &[Action::AddSharer], Valid, false),
    row(Invalid, Invalidation, &[], Invalid, true),
    // Table I, row V (entry present, sharer list meaningful).
    row(Valid, LocalLoad, &[], Valid, false),
    row(
        Valid,
        LocalStore,
        &[Action::InvAllSharers, Action::RemoveAllSharers],
        Invalid,
        false,
    ),
    row(Valid, RemoteLoad, &[Action::AddSharer], Valid, false),
    row(
        Valid,
        RemoteStore,
        &[Action::AddSharer, Action::InvOtherSharers],
        Valid,
        false,
    ),
    row(
        Valid,
        Replace,
        &[
            Action::InvAllSharers,
            Action::RemoveAllSharers,
            Action::Writeback,
        ],
        Invalid,
        false,
    ),
    row(
        Valid,
        Invalidation,
        &[Action::ForwardInv, Action::RemoveAllSharers],
        Invalid,
        true,
    ),
];

/// A protocol variant's view of the spec: the rows of [`ROWS`] that
/// belong to the variant, with first-match guarded lookup.
///
/// `Copy` and allocation-free: a `ProtocolSpec` is just the variant tag
/// plus an optional injected mutation, so it can sit on hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// The variant this view selects.
    pub variant: SpecVariant,
    /// Audit-injection hook: when set, the `(Valid, Invalidation)` row
    /// loses its `ForwardInv` action — the seeded model-checker
    /// violation (`spec-drop-forward`). Never set outside audits.
    drop_forward: bool,
}

/// The `(Valid, Invalidation)` row with `ForwardInv` removed, substituted
/// by [`ProtocolSpec::with_forward_dropped`] views.
static BROKEN_FORWARD_ROW: SpecRow = row(
    Valid,
    Invalidation,
    &[Action::RemoveAllSharers],
    Invalid,
    true,
);

impl ProtocolSpec {
    /// The spec restricted to `variant`.
    pub fn for_variant(variant: SpecVariant) -> ProtocolSpec {
        ProtocolSpec {
            variant,
            drop_forward: false,
        }
    }

    /// Convenience: the variant for `(hmg, arbitration)`.
    pub fn of(hmg: bool, arb: Arbitration) -> ProtocolSpec {
        ProtocolSpec::for_variant(SpecVariant::of(hmg, arb))
    }

    /// A deliberately broken copy of the spec: the HMG inv-forward
    /// action is dropped from `(Valid, Invalidation)`. Used by the
    /// `spec-drop-forward` audit injection to prove the model checker
    /// actually catches real protocol bugs.
    pub fn with_forward_dropped(self) -> ProtocolSpec {
        ProtocolSpec {
            drop_forward: true,
            ..self
        }
    }

    /// Resolves one row through the injection hook.
    fn resolve(self, r: &'static SpecRow) -> &'static SpecRow {
        if self.drop_forward && (r.state, r.event, r.guard) == (Valid, Invalidation, Guard::Always)
        {
            &BROKEN_FORWARD_ROW
        } else {
            r
        }
    }

    /// First row of the variant matching `(state, event)` whose guard
    /// holds in `ctx`, or `None` when the spec leaves the cell
    /// undefined.
    ///
    /// # Example
    ///
    /// ```
    /// use hmg_protocol::{Action, Arbitration, DirEvent, DirState, GuardCtx, ProtocolSpec};
    ///
    /// let nhcc = ProtocolSpec::of(false, Arbitration::NackRetry);
    ///
    /// // A remote load allocates the entry and records the sharer.
    /// let r = nhcc.row(DirState::Invalid, DirEvent::RemoteLoad, GuardCtx::FREE).unwrap();
    /// assert_eq!(r.next, DirState::Valid);
    /// assert!(r.has(Action::AddSharer));
    ///
    /// // A local store to shared data invalidates all sharers.
    /// let r = nhcc.row(DirState::Valid, DirEvent::LocalStore, GuardCtx::FREE).unwrap();
    /// assert_eq!(r.next, DirState::Invalid);
    /// assert!(r.has(Action::InvAllSharers));
    ///
    /// // An absent entry cannot be evicted.
    /// assert!(nhcc.row(DirState::Invalid, DirEvent::Replace, GuardCtx::FREE).is_none());
    /// ```
    pub fn row(self, state: DirState, event: DirEvent, ctx: GuardCtx) -> Option<&'static SpecRow> {
        ROWS.iter()
            .find(|r| {
                r.in_variant(self.variant)
                    && r.state == state
                    && r.event == event
                    && r.guard.eval(ctx)
            })
            .map(|r| self.resolve(r))
    }

    /// Whether `(state, event)` has any row in this variant (under any
    /// guard): the cell is *legal*, i.e. reaching it is not a bug.
    pub fn legal(self, state: DirState, event: DirEvent) -> bool {
        ROWS.iter()
            .any(|r| r.in_variant(self.variant) && r.state == state && r.event == event)
    }

    /// All `(state, event)` cells that are legal in this variant, in
    /// dense [`row_index`] order. This is the set conformance
    /// coverage and the check oracle consider "must be reachable".
    pub fn legal_rows(self) -> Vec<(DirState, DirEvent)> {
        (0..NUM_ROWS)
            .map(row_of)
            .filter(|&(s, e)| self.legal(s, e))
            .collect()
    }

    /// Every row of this variant, in spec order (guarded rows first).
    pub fn rows(self) -> impl Iterator<Item = &'static SpecRow> {
        let v = self.variant;
        ROWS.iter()
            .filter(move |r| r.in_variant(v))
            .map(move |r| self.resolve(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Action::{
        AddSharer, ForwardInv, InvAllSharers, InvOtherSharers, RemoveAllSharers, Writeback,
    };

    /// One test per cell of Table I: the unconditional row's actions and
    /// next state, or `None` for the cells the paper leaves undefined;
    /// and its effect on an entry tracking sharers 0 and 1 (none when
    /// Invalid) when sharer 1 sends a remote event: the sharers left,
    /// and the invalidations sent.
    macro_rules! cell_tests {
        ($($name:ident: ($s:ident, $e:ident, $hmg:literal) => $want:expr, $effect:expr;)*) => {$(
            #[test]
            fn $name() {
                let spec = ProtocolSpec::of($hmg, Arbitration::NackRetry);
                let row = spec.row($s, $e, GuardCtx::FREE);
                let want: Option<(DirState, &[Action])> = $want;
                assert_eq!(row.map(|r| (r.next, r.actions)), want);
                let prior = Sharers::exact(if $s == Valid { 0b011 } else { 0 });
                let sender = matches!($e, RemoteLoad | RemoteStore).then_some(0b010);
                let got = row.map(|r| r.effect(prior, sender));
                let want: Option<(u64, Targets)> = $effect;
                assert_eq!(got.map(|e| (e.sharers.bits, e.targets)), want);
                if let (Some(r), Some(e)) = (row, got) {
                    assert_eq!(e.next, r.next);
                    assert_eq!(e.add_sender, sender.is_some());
                    assert_eq!(e.clear, r.has(RemoveAllSharers));
                    assert_eq!(e.forwarded, r.has(ForwardInv));
                }
            }
        )*};
    }

    const QUIET: Targets = Targets::Exact(0);
    const ALL: Targets = Targets::Exact(0b011);

    cell_tests! {
        i_local_load_is_a_nop: (Invalid, LocalLoad, false) =>
            Some((Invalid, &[])), Some((0, QUIET));
        i_local_store_is_a_nop: (Invalid, LocalStore, false) =>
            Some((Invalid, &[])), Some((0, QUIET));
        i_remote_load_allocates_and_tracks: (Invalid, RemoteLoad, false) =>
            Some((Valid, &[AddSharer])), Some((0b010, QUIET));
        i_remote_store_allocates_and_tracks: (Invalid, RemoteStore, false) =>
            Some((Valid, &[AddSharer])), Some((0b010, QUIET));
        i_replace_is_unreachable: (Invalid, Replace, false) => None, None;
        i_invalidation_under_hmg_stays_invalid: (Invalid, Invalidation, true) =>
            Some((Invalid, &[])), Some((0, QUIET));
        v_local_load_is_a_nop: (Valid, LocalLoad, false) =>
            Some((Valid, &[])), Some((0b011, QUIET));
        v_local_store_invalidates_all_and_deallocates: (Valid, LocalStore, false) =>
            Some((Invalid, &[InvAllSharers, RemoveAllSharers])), Some((0, ALL));
        v_remote_load_adds_sharer_and_stays_valid: (Valid, RemoteLoad, false) =>
            Some((Valid, &[AddSharer])), Some((0b011, QUIET));
        // The invalidated other stays tracked: the entry only gains the
        // sender.
        v_remote_store_adds_sharer_and_invalidates_others: (Valid, RemoteStore, false) =>
            Some((Valid, &[AddSharer, InvOtherSharers])), Some((0b011, Targets::Exact(0b001)));
        v_replace_invalidates_all_and_deallocates: (Valid, Replace, false) =>
            Some((Invalid, &[InvAllSharers, RemoveAllSharers, Writeback])), Some((0, ALL));
        v_invalidation_under_hmg_forwards_to_all_sharers: (Valid, Invalidation, true) =>
            Some((Invalid, &[ForwardInv, RemoveAllSharers])), Some((0, ALL));
        invalidation_without_hmg_is_rejected: (Valid, Invalidation, false) => None, None;
    }

    #[test]
    fn same_behavior_for_nhcc_and_hmg_outside_invalidation_column() {
        // HMG "behaves similarly to Table I but adds the single extra
        // transition": every other cell is the same row, congested or
        // not, under either arbitration.
        for arb in Arbitration::ALL {
            let (nhcc, hmg) = (ProtocolSpec::of(false, arb), ProtocolSpec::of(true, arb));
            for ctx in [GuardCtx::FREE, GuardCtx::BUSY] {
                for s in DirState::ALL {
                    for e in DirEvent::ALL {
                        if e != Invalidation {
                            assert_eq!(nhcc.row(s, e, ctx), hmg.row(s, e, ctx), "{s:?}/{e:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_index_round_trips_and_is_dense() {
        let mut seen = [false; NUM_ROWS];
        for state in DirState::ALL {
            for event in DirEvent::ALL {
                let i = row_index(state, event);
                assert!(!seen[i], "duplicate index {i}");
                seen[i] = true;
                assert_eq!(row_of(i), (state, event));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rows_conserve_sharers() {
        // Invalidating every sharer (or forwarding down to all of them)
        // empties the entry, so it must deallocate and may not record
        // the sender in the same step; recording a sharer needs a Valid
        // entry to hold it.
        for r in ROWS {
            let inv_all = r.has(Action::InvAllSharers) || r.has(Action::ForwardInv);
            assert!(!(inv_all && r.has(Action::AddSharer)), "{r:?}");
            assert!(!(inv_all && r.has(Action::InvOtherSharers)), "{r:?}");
            if inv_all {
                assert_eq!(r.next, Invalid, "{r:?}");
            }
            if r.has(Action::AddSharer) {
                assert_eq!(r.next, Valid, "{r:?}");
            }
        }
    }

    #[test]
    fn home_busy_rows_never_transition() {
        let prior = Sharers::exact(0b011);
        for r in ROWS.iter().filter(|r| r.guard == Guard::HomeBusy) {
            assert_eq!(r.next, r.state, "{r:?}");
            assert!(
                matches!(r.actions, [Action::Nack] | [Action::Defer]),
                "{r:?}"
            );
            assert!(matches!(r.event, RemoteLoad | RemoteStore), "{r:?}");
            let e = r.effect(prior, Some(0b100));
            assert_eq!((e.sharers, e.targets), (prior, Targets::Exact(0)), "{r:?}");
            assert!(!e.add_sender && !e.clear, "{r:?}");
            assert_eq!(e.nack, r.arbitration == Some(Arbitration::NackRetry));
            assert_eq!(e.defer, r.arbitration == Some(Arbitration::PhasePriority));
        }
    }

    #[test]
    fn effect_on_a_broadcast_entry_broadcasts_and_stays_broadcast() {
        let spec = ProtocolSpec::of(false, Arbitration::NackRetry);
        let degraded = Sharers {
            bits: 0,
            broadcast: true,
        };
        let effect = |e, sender| {
            spec.row(Valid, e, GuardCtx::FREE)
                .unwrap()
                .effect(degraded, sender)
        };
        let store = effect(RemoteStore, Some(0b100));
        assert_eq!(
            (store.sharers, store.targets),
            (degraded, Targets::AllBut(0b100))
        );
        let local = effect(LocalStore, None);
        assert_eq!(
            (local.sharers, local.targets),
            (Sharers::default(), Targets::AllBut(0))
        );
        assert_eq!(effect(RemoteLoad, Some(1)).targets, QUIET);
    }

    #[test]
    fn variant_names_round_trip() {
        for v in SpecVariant::ALL {
            assert_eq!(SpecVariant::from_name(v.name()), Some(v));
            assert_eq!(SpecVariant::of(v.hmg(), v.arbitration()), v);
        }
        for a in Arbitration::ALL {
            assert_eq!(Arbitration::from_name(a.name()), Some(a));
        }
        assert_eq!(SpecVariant::from_name("carve"), None);
        assert_eq!(Arbitration::from_name("defer"), None);
    }

    #[test]
    fn guarded_rows_shadow_only_when_busy() {
        for v in SpecVariant::ALL {
            let spec = ProtocolSpec::for_variant(v);
            let free = spec.row(Valid, RemoteStore, GuardCtx::FREE).unwrap();
            assert_eq!(free.guard, Guard::Always);
            assert!(free.has(Action::AddSharer));
            let busy = spec.row(Valid, RemoteStore, GuardCtx::BUSY).unwrap();
            assert_eq!(busy.guard, Guard::HomeBusy);
            assert_eq!(busy.next, Valid, "arbitration never transitions");
            match v.arbitration() {
                Arbitration::NackRetry => assert!(busy.has(Action::Nack)),
                Arbitration::PhasePriority => assert!(busy.has(Action::Defer)),
            }
        }
    }

    #[test]
    fn local_and_replace_cells_are_never_throttled() {
        let spec = ProtocolSpec::for_variant(SpecVariant::HmgPhase);
        for (s, e) in [
            (Invalid, LocalLoad),
            (Valid, LocalStore),
            (Valid, Replace),
            (Valid, Invalidation),
        ] {
            let r = spec.row(s, e, GuardCtx::BUSY).unwrap();
            assert_eq!(r.guard, Guard::Always, "{s:?}/{e:?}");
        }
    }

    #[test]
    fn legality_is_guard_independent_and_matches_the_table() {
        for v in SpecVariant::ALL {
            let spec = ProtocolSpec::for_variant(v);
            for s in DirState::ALL {
                for e in DirEvent::ALL {
                    // The paper's N/A cells: an absent entry cannot be
                    // evicted, and flat homes never receive invalidations.
                    let na = (s, e) == (Invalid, Replace) || (e == Invalidation && !v.hmg());
                    assert_eq!(spec.legal(s, e), !na, "{s:?}/{e:?} {v:?}");
                    for ctx in [GuardCtx::FREE, GuardCtx::BUSY] {
                        assert_eq!(spec.row(s, e, ctx).is_some(), !na, "{s:?}/{e:?} {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn legal_rows_counts_match_the_variants() {
        // 9 legal cells flat, 11 under HMG (the Invalidation column).
        assert_eq!(
            ProtocolSpec::for_variant(SpecVariant::Nhcc)
                .legal_rows()
                .len(),
            9
        );
        assert_eq!(
            ProtocolSpec::for_variant(SpecVariant::Hmg)
                .legal_rows()
                .len(),
            11
        );
        // Arbitration adds guarded rows to existing cells, never new cells.
        assert_eq!(
            ProtocolSpec::for_variant(SpecVariant::Nhcc).legal_rows(),
            ProtocolSpec::for_variant(SpecVariant::NhccPhase).legal_rows()
        );
        assert_eq!(
            ProtocolSpec::for_variant(SpecVariant::Hmg).legal_rows(),
            ProtocolSpec::for_variant(SpecVariant::HmgPhase).legal_rows()
        );
    }

    #[test]
    fn rows_iterator_respects_variant_membership() {
        let nhcc: Vec<_> = ProtocolSpec::for_variant(SpecVariant::Nhcc)
            .rows()
            .collect();
        assert!(nhcc.iter().all(|r| !r.hmg_only));
        assert!(nhcc.iter().all(|r| !r.has(Action::Defer)));
        let hmg_phase: Vec<_> = ProtocolSpec::for_variant(SpecVariant::HmgPhase)
            .rows()
            .collect();
        assert!(hmg_phase.iter().any(|r| r.has(Action::ForwardInv)));
        assert!(hmg_phase.iter().any(|r| r.has(Action::Defer)));
        assert!(hmg_phase.iter().all(|r| !r.has(Action::Nack)));
    }

    #[test]
    fn dropped_forward_injection_only_affects_the_one_row() {
        let spec = ProtocolSpec::for_variant(SpecVariant::Hmg).with_forward_dropped();
        let r = spec.row(Valid, Invalidation, GuardCtx::FREE).unwrap();
        assert!(!r.has(Action::ForwardInv), "forward must be gone");
        assert!(r.has(Action::RemoveAllSharers), "deallocation survives");
        let e = r.effect(Sharers::exact(1), None);
        assert_eq!((e.targets, e.clear), (Targets::Exact(0), true));
        let clean = ProtocolSpec::for_variant(SpecVariant::Hmg);
        for s in DirState::ALL {
            for e in DirEvent::ALL {
                if (s, e) == (Valid, Invalidation) {
                    continue;
                }
                assert_eq!(
                    spec.row(s, e, GuardCtx::FREE),
                    clean.row(s, e, GuardCtx::FREE),
                    "{s:?}/{e:?}"
                );
            }
        }
    }

    #[test]
    fn no_row_carries_a_wait_or_ack() {
        // The vocabulary simply has no ack/wait action; document the
        // closed set so adding one is a conscious, reviewed act.
        for r in ROWS {
            for a in r.actions {
                assert!(matches!(
                    a,
                    Action::AddSharer
                        | Action::RemoveAllSharers
                        | Action::InvAllSharers
                        | Action::InvOtherSharers
                        | Action::ForwardInv
                        | Action::Writeback
                        | Action::Nack
                        | Action::Defer
                ));
            }
        }
    }

    #[test]
    fn deallocating_rows_always_remove_their_sharers() {
        // Any unconditional row that ends Invalid from Valid must drop
        // its sharers — a Valid→Invalid transition that leaks tracked
        // sharers would desynchronize the directory occupancy.
        for r in ROWS {
            if r.guard == Guard::Always && r.state == Valid && r.next == Invalid {
                assert!(r.has(Action::RemoveAllSharers), "{r:?}");
            }
        }
    }
}
