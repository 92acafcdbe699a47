#![warn(missing_docs)]

//! # HMG: Hierarchical Multi-GPU Cache Coherence
//!
//! A from-scratch reproduction of *HMG: Extending Cache Coherence
//! Protocols Across Modern Hierarchical Multi-GPU Systems* (HPCA 2020):
//! the NHCC and HMG coherence protocols, the scoped software-coherence
//! baselines, a trace-driven timing model of the Table II machine, the
//! Table III synthetic workload suite, and drivers that regenerate every
//! table and figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the subsystem crates and adds
//! the figure registry and its cells ([`experiments`]),
//! the parts of the cell recipe and the sweep checkpoint ([`runner`]),
//! and plain-text report formatting ([`report`]).
//!
//! # Quickstart
//!
//! ```
//! use hmg::experiments::{run_cell, ExpOptions};
//! use hmg::prelude::*;
//!
//! // Simulate one workload under two protocols and compare, on the
//! // machine every experiment cell runs.
//! let opts = ExpOptions { scale: Scale::Tiny, seed: 42, ..ExpOptions::default() };
//! let run = |p| run_cell(&opts.plain_cell("bfs", p)).expect("clean run");
//! let base = run(ProtocolKind::NoPeerCaching);
//! let hmg = run(ProtocolKind::Hmg);
//! assert!(hmg.total_cycles <= base.total_cycles);
//! ```

pub mod bench;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod supervisor;

/// Re-export of the GPU timing-model crate.
pub use hmg_gpu as gpu;
/// Re-export of the interconnect crate.
pub use hmg_interconnect as interconnect;
/// Re-export of the memory-substrate crate.
pub use hmg_mem as mem;
/// Re-export of the SVG figure-rendering crate.
pub use hmg_plot as plot;
/// Re-export of the protocol crate (the paper's contribution).
pub use hmg_protocol as protocol;
/// Re-export of the DES kernel crate.
pub use hmg_sim as sim;
/// Re-export of the workload-generator crate.
pub use hmg_workloads as workloads;

/// The types most users need.
pub mod prelude {
    pub use hmg_gpu::{Engine, EngineConfig, RunMetrics};
    pub use hmg_protocol::{ProtocolKind, Scope};
    pub use hmg_sim::{FaultPlan, SimError, SimErrorKind};
    pub use hmg_workloads::{Scale, WorkloadSpec};
}
