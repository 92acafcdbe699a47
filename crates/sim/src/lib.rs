#![warn(missing_docs)]

//! Discrete-event simulation kernel for the HMG reproduction.
//!
//! This crate contains the domain-independent pieces of the simulator:
//!
//! * [`addr`] — byte addresses and the cache-line / directory-block /
//!   page granularities, shared by every layer above.
//! * [`Cycle`] — the simulated clock, a newtype over `u64`.
//! * [`EventQueue`] — a deterministic time-ordered calendar event
//!   queue (with [`ReferenceEventQueue`] as its differential oracle).
//! * [`collect`] — flat deterministic hot-path collections
//!   ([`collect::FlatMap`], [`collect::FlatSet`]).
//! * [`rng::Rng`] — a self-contained SplitMix64 PRNG so that every
//!   experiment is bit-for-bit reproducible from a seed.
//! * [`stats`] — counters and the small amount of statistics math the
//!   evaluation needs (means, geometric means, Pearson correlation).
//! * [`error::SimError`] — typed fatal errors with cycle/agent/address
//!   context, shared by every layer of the stack.
//! * [`fault::FaultPlan`] — deterministic fault-injection plans
//!   consumed by the interconnect and the GPU engine.
//! * [`watchdog::ProgressWatchdog`] — livelock detection for event
//!   loops.
//!
//! The memory-system model itself lives in the `hmg-mem`, `hmg-protocol`
//! and `hmg-gpu` crates; they drive this kernel.
//!
//! # Example
//!
//! ```
//! use hmg_sim::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "b");
//! q.push(Cycle(5), "a");
//! assert_eq!(q.pop(), Some((Cycle(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle(10), "b")));
//! assert!(q.pop().is_none());
//! ```

pub mod addr;
pub mod collect;
pub mod error;
pub mod event;
pub mod fault;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod time;
pub mod watchdog;

pub use addr::{Addr, BlockAddr, LineAddr, MemGeometry, PageId};
pub use error::{SimError, SimErrorKind};
pub use event::{EventQueue, ReferenceEventQueue};
pub use fault::{DirFlip, FaultPlan, GpmOffline, GpuOffline, LineFlip, LinkDown, MsgFlip};
pub use rng::Rng;
pub use snap::{
    SnapError, SnapReader, SnapWriter, Snapshot, SnapshotRead, SnapshotStore, SnapshotWrite,
};
pub use stats::{IntegrityStats, ReconfigStats};
pub use time::Cycle;
pub use watchdog::ProgressWatchdog;
