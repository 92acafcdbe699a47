//! Memory access kinds and scoped accesses.

use std::fmt;

use hmg_sim::Addr;

use crate::scope::Scope;

/// What an access does to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read of one cache line.
    Load,
    /// A write (write-through in the evaluated configuration).
    Store,
    /// An atomic read-modify-write — always performed at the home node
    /// for its scope, and treated as a store by the directory (Table I).
    Atomic,
}

impl AccessKind {
    /// Whether the access writes memory (stores and atomics).
    #[inline]
    pub fn writes(self) -> bool {
        !matches!(self, AccessKind::Load)
    }

    /// Whether the access produces a response carrying data to the
    /// requester (loads and atomics).
    #[inline]
    pub fn wants_response(self) -> bool {
        !matches!(self, AccessKind::Store)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Load => "ld",
            AccessKind::Store => "st",
            AccessKind::Atomic => "atom",
        };
        f.write_str(s)
    }
}

/// One warp-coalesced memory access: an address, a kind, and the scope
/// annotation (plain accesses carry `.cta`).
///
/// # Example
///
/// ```
/// use hmg_protocol::{Access, AccessKind, Scope};
/// use hmg_sim::Addr;
///
/// let a = Access::load(Addr(0x1000));
/// assert_eq!(a.kind, AccessKind::Load);
/// assert_eq!(a.scope, Scope::Cta);
/// let s = Access::new(Addr(0x2000), AccessKind::Store, Scope::Gpu);
/// assert!(s.kind.writes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address accessed.
    pub addr: Addr,
    /// Load, store, or atomic.
    pub kind: AccessKind,
    /// Visibility scope (plain accesses use `.cta`).
    pub scope: Scope,
}

impl Access {
    /// Creates an access.
    pub fn new(addr: Addr, kind: AccessKind, scope: Scope) -> Self {
        Access { addr, kind, scope }
    }

    /// A plain (`.cta`) load.
    pub fn load(addr: Addr) -> Self {
        Access::new(addr, AccessKind::Load, Scope::Cta)
    }

    /// A plain (`.cta`) store.
    pub fn store(addr: Addr) -> Self {
        Access::new(addr, AccessKind::Store, Scope::Cta)
    }

    /// An atomic at the given scope.
    pub fn atomic(addr: Addr, scope: Scope) -> Self {
        Access::new(addr, AccessKind::Atomic, scope)
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} {}", self.kind, self.scope, self.addr)
    }
}

hmg_sim::snapshot_codec!(enum AccessKind {
    0 => Load,
    1 => Store,
    2 => Atomic,
});

hmg_sim::snapshot_codec!(Access { addr, kind, scope });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(!AccessKind::Load.writes());
        assert!(AccessKind::Store.writes());
        assert!(AccessKind::Atomic.writes());
        assert!(AccessKind::Load.wants_response());
        assert!(!AccessKind::Store.wants_response());
        assert!(AccessKind::Atomic.wants_response());
    }

    #[test]
    fn constructors_set_fields() {
        let l = Access::load(Addr(8));
        assert_eq!((l.kind, l.scope), (AccessKind::Load, Scope::Cta));
        let s = Access::store(Addr(8));
        assert_eq!(s.kind, AccessKind::Store);
        let a = Access::atomic(Addr(8), Scope::Sys);
        assert_eq!((a.kind, a.scope), (AccessKind::Atomic, Scope::Sys));
    }

    #[test]
    fn display_is_readable() {
        let a = Access::atomic(Addr(0x10), Scope::Gpu);
        assert_eq!(a.to_string(), "atom.gpu 0x10");
    }
}
