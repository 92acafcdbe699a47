//! Authoritative per-line version tracking.
//!
//! The simulator does not model data values; instead every committed
//! store bumps a monotone *version* for its cache line at the system home.
//! Cached copies remember the version they were filled with, which lets
//! the functional coherence checker (tests/coherence_checker.rs) assert
//! that synchronized readers never observe a version older than the one
//! the synchronization guarantees.

use hmg_sim::collect::FlatMap;

use crate::addr::LineAddr;

/// The authoritative version of every line in global memory. Lines start
/// at version 0 (their initial contents).
///
/// Versions here are `u64`, as in the engine's messages. The engine's
/// L1 and L2 lanes hold 31 bits of version, so the engine checks each
/// version [`VersionStore::bump`] returns and ends the run with a typed
/// error at 2^31, one compare per store.
///
/// # Example
///
/// ```
/// use hmg_mem::VersionStore;
/// use hmg_mem::addr::LineAddr;
///
/// let mut vs = VersionStore::new();
/// assert_eq!(vs.current(LineAddr(3)), 0);
/// assert_eq!(vs.bump(LineAddr(3)), 1);
/// assert_eq!(vs.bump(LineAddr(3)), 2);
/// assert_eq!(vs.current(LineAddr(3)), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VersionStore {
    versions: FlatMap<LineAddr, u64>,
    stores_committed: u64,
}

impl VersionStore {
    /// Creates an empty store (all lines at version 0).
    pub fn new() -> Self {
        VersionStore::default()
    }

    /// The current version of `line`.
    pub fn current(&self, line: LineAddr) -> u64 {
        self.versions.get(&line).copied().unwrap_or(0)
    }

    /// Commits a store to `line`, returning the new version.
    pub fn bump(&mut self, line: LineAddr) -> u64 {
        self.stores_committed += 1;
        let v = self.versions.or_insert(line, 0);
        *v += 1;
        *v
    }

    /// Total stores committed across all lines.
    pub fn stores_committed(&self) -> u64 {
        self.stores_committed
    }

    /// Number of distinct lines ever written.
    pub fn lines_written(&self) -> usize {
        self.versions.len()
    }
}

hmg_sim::snapshot_codec!(VersionStore {
    versions,
    stores_committed
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotone_per_line() {
        let mut vs = VersionStore::new();
        let mut prev = 0;
        for _ in 0..10 {
            let v = vs.bump(LineAddr(1));
            assert!(v > prev);
            prev = v;
        }
        assert_eq!(vs.current(LineAddr(1)), 10);
    }

    #[test]
    fn lines_are_independent() {
        let mut vs = VersionStore::new();
        vs.bump(LineAddr(1));
        vs.bump(LineAddr(1));
        vs.bump(LineAddr(2));
        assert_eq!(vs.current(LineAddr(1)), 2);
        assert_eq!(vs.current(LineAddr(2)), 1);
        assert_eq!(vs.current(LineAddr(3)), 0);
        assert_eq!(vs.stores_committed(), 3);
        assert_eq!(vs.lines_written(), 2);
    }

    #[test]
    fn snapshot_round_trip() {
        use hmg_sim::{SnapReader, SnapWriter, SnapshotRead, SnapshotWrite};
        let mut vs = VersionStore::new();
        for l in 0..10u64 {
            for _ in 0..=l {
                vs.bump(LineAddr(l));
            }
        }
        let mut w = SnapWriter::new();
        vs.write_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = VersionStore::read_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.stores_committed(), vs.stores_committed());
        assert_eq!(back.lines_written(), vs.lines_written());
        for l in 0..10u64 {
            assert_eq!(back.current(LineAddr(l)), vs.current(LineAddr(l)));
        }
    }
}
