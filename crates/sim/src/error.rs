//! Typed simulation errors.
//!
//! Every fatal condition the stack can hit — deadlock, livelock, bad
//! configuration, a protocol invariant violation, trace corruption —
//! is reported as a [`SimError`] carrying the *where* alongside the
//! *what*: the simulated cycle, the agent (SM / GPM / link) involved,
//! and the memory address in play, whenever those are known. Callers
//! that want the old fail-fast behavior can still `unwrap`; sweep
//! drivers can instead capture the error and keep going.

use std::fmt;

/// Broad classification of a fatal simulation error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimErrorKind {
    /// The event queue drained while work was still outstanding: an
    /// un-signalled `WaitFlag`, a fence whose counters never reached
    /// zero, or an in-flight memory operation that lost its response.
    Deadlock,
    /// Events kept flowing but no memory access retired within the
    /// configured progress budget.
    Livelock,
    /// A configuration was internally inconsistent (bad cache geometry,
    /// zero bandwidth, an out-of-range fault probability, ...).
    Config,
    /// A coherence-protocol invariant was violated at run time (e.g. a
    /// message arrived at a node that can neither serve nor forward it).
    Protocol,
    /// A trace file or trace structure could not be decoded.
    Trace,
}

impl SimErrorKind {
    /// Stable lowercase name, used as the `Display` prefix.
    pub fn name(self) -> &'static str {
        match self {
            SimErrorKind::Deadlock => "deadlocked",
            SimErrorKind::Livelock => "livelocked",
            SimErrorKind::Config => "config error",
            SimErrorKind::Protocol => "protocol violation",
            SimErrorKind::Trace => "trace error",
        }
    }
}

/// A fatal simulation error with structured context.
///
/// `Display` renders kind, location context, the message, and (when
/// present) a multi-line diagnostic dump — so `unwrap()`-style callers
/// still see everything in the panic message.
#[derive(Debug, Clone, PartialEq)]
pub struct SimError {
    /// What class of failure this is.
    pub kind: SimErrorKind,
    /// One-line human-readable description.
    pub message: String,
    /// Simulated cycle at which the failure was detected.
    pub cycle: Option<u64>,
    /// The agent involved, e.g. `"gpu1/gpm3/sm0"` or `"workload bfs"`.
    pub agent: Option<String>,
    /// The memory address (line or block) implicated, if identifiable.
    pub addr: Option<u64>,
    /// Optional multi-line diagnostic dump (machine state at failure).
    pub dump: Option<String>,
}

impl SimError {
    /// A new error of `kind` with a one-line `message` and no context.
    pub fn new(kind: SimErrorKind, message: impl Into<String>) -> Self {
        SimError {
            kind,
            message: message.into(),
            cycle: None,
            agent: None,
            addr: None,
            dump: None,
        }
    }

    /// Shorthand for a [`SimErrorKind::Config`] error.
    pub fn config(message: impl Into<String>) -> Self {
        Self::new(SimErrorKind::Config, message)
    }

    /// Shorthand for a [`SimErrorKind::Protocol`] error.
    pub fn protocol(message: impl Into<String>) -> Self {
        Self::new(SimErrorKind::Protocol, message)
    }

    /// Shorthand for a [`SimErrorKind::Trace`] error.
    pub fn trace(message: impl Into<String>) -> Self {
        Self::new(SimErrorKind::Trace, message)
    }

    /// Attach the simulated cycle at which the failure was detected.
    pub fn at_cycle(mut self, cycle: u64) -> Self {
        self.cycle = Some(cycle);
        self
    }

    /// Attach the agent (SM, GPM, workload, file, ...) involved.
    pub fn with_agent(mut self, agent: impl Into<String>) -> Self {
        self.agent = Some(agent.into());
        self
    }

    /// Attach the memory address implicated in the failure.
    pub fn with_addr(mut self, addr: u64) -> Self {
        self.addr = Some(addr);
        self
    }

    /// Attach a multi-line diagnostic dump of machine state.
    pub fn with_dump(mut self, dump: impl Into<String>) -> Self {
        self.dump = Some(dump.into());
        self
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation {}", self.kind.name())?;
        if let Some(c) = self.cycle {
            write!(f, " at cycle {c}")?;
        }
        if let Some(a) = &self.agent {
            write!(f, " [{a}]")?;
        }
        if let Some(addr) = self.addr {
            write!(f, " [addr {addr:#x}]")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(dump) = &self.dump {
            write!(f, "\n{dump}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_context_and_message() {
        let e = SimError::new(SimErrorKind::Deadlock, "flag 7 never reached count 1")
            .at_cycle(1234)
            .with_agent("gpu1/gpm2/sm0")
            .with_addr(0x80);
        let s = e.to_string();
        assert!(s.contains("deadlocked"), "{s}");
        assert!(s.contains("cycle 1234"), "{s}");
        assert!(s.contains("gpu1/gpm2/sm0"), "{s}");
        assert!(s.contains("0x80"), "{s}");
        assert!(s.contains("flag 7"), "{s}");
    }

    #[test]
    fn dump_is_appended_on_new_lines() {
        let e = SimError::new(SimErrorKind::Livelock, "no progress")
            .with_dump("  sm0: stalled\n  sm1: stalled");
        let s = e.to_string();
        assert!(s.contains("livelocked"), "{s}");
        assert!(s.lines().count() >= 3, "{s}");
    }

    #[test]
    fn kinds_have_distinct_names() {
        use SimErrorKind::*;
        let mut names: Vec<_> = [Deadlock, Livelock, Config, Protocol, Trace]
            .iter()
            .map(|k| k.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
