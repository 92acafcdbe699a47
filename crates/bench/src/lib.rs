//! Benchmark harness crate: the `experiments` binary regenerates every
//! table and figure of the paper (see `src/bin/experiments.rs`). All
//! experiment logic lives in the `hmg` facade crate; this crate only
//! wires it to the command line.

pub mod cli;

pub use cli::{parse_args, Command, ParsedArgs};
