#![warn(missing_docs)]

//! Coherence protocols for hierarchical multi-GPU systems.
//!
//! This crate is the paper's primary contribution, expressed as data and
//! pure logic that the timing model in `hmg-gpu` executes:
//!
//! * [`scope`] — the scoped memory model's `.cta` / `.gpu` / `.sys`
//!   synchronization scopes (Section II-C).
//! * [`op`] — memory access kinds and scoped accesses.
//! * [`msg`] — protocol message types and their on-wire sizes.
//! * [`spec`] — the NHCC/HMG coherence-directory transition table
//!   (Table I) as a guarded-action protocol description: directory
//!   states and events, and rows `(state, event, guard) → (actions,
//!   next_state)` over a closed action vocabulary, unit-tested per
//!   cell. The single source of truth for the protocol.
//! * [`conformance`] — runtime conformance/coverage tracking that checks
//!   every directory transition the engine executes against the spec
//!   rows.
//! * [`policy`] — the six evaluated coherence configurations and their
//!   caching / invalidation / routing rules (Section VI).
//! * [`trace`] — the trace format the workload generators produce and
//!   the GPU engine replays.
//! * [`tracefile`] — on-disk (de)serialization of traces.

pub mod conformance;
pub mod msg;
pub mod op;
pub mod policy;
pub mod scope;
pub mod spec;
pub mod trace;
pub mod tracefile;

// The crate root is the one canonical import path: every public type —
// spec, conformance, policy — re-exports here, so downstream crates
// never spell a module path (`spec::` vs `conformance::`).
pub use conformance::{Observed, TableConformance};
pub use msg::MsgSizes;
pub use op::{Access, AccessKind};
pub use policy::{AcquireAction, CacheLevel, FenceDomain, ProtocolKind};
pub use scope::Scope;
pub use spec::{
    row_index, row_of, Action, Arbitration, DirEvent, DirState, Effect, Guard, GuardCtx,
    ProtocolSpec, Sharers, SpecRow, SpecVariant, Targets, NUM_ROWS,
};
pub use trace::{Cta, Kernel, Ops, OpsIter, TraceOp, WorkloadTrace};
