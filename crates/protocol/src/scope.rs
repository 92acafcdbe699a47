//! Synchronization scopes of the GPU memory model (Section II-C).

use std::fmt;

/// The set of threads a memory operation synchronizes with.
///
/// Scopes are totally ordered by inclusion: `.cta` ⊂ `.gpu` ⊂ `.sys`.
/// (HRF calls these work-group, device, and system.) Plain,
/// non-synchronizing accesses behave like `.cta`-scoped ones for cache
/// hit purposes — they may hit anywhere.
///
/// # Example
///
/// ```
/// use hmg_protocol::Scope;
///
/// assert!(Scope::Cta < Scope::Gpu);
/// assert!(Scope::Gpu < Scope::Sys);
/// assert_eq!(Scope::Gpu.to_string(), ".gpu");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Scope {
    /// Threads of the same CTA; enforced at the SM's L1.
    #[default]
    Cta,
    /// Threads of the same GPU; enforced at the GPU home L2.
    Gpu,
    /// Any thread in the system; enforced at the system home L2.
    Sys,
}

impl Scope {
    /// All scopes, narrowest first.
    pub const ALL: [Scope; 3] = [Scope::Cta, Scope::Gpu, Scope::Sys];

    /// Whether this scope includes `other` (i.e. is at least as wide).
    #[inline]
    pub fn includes(self, other: Scope) -> bool {
        self >= other
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scope::Cta => ".cta",
            Scope::Gpu => ".gpu",
            Scope::Sys => ".sys",
        };
        f.write_str(s)
    }
}

hmg_sim::snapshot_codec!(enum Scope {
    0 => Cta,
    1 => Gpu,
    2 => Sys,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_matches_inclusion() {
        assert!(Scope::Cta < Scope::Gpu && Scope::Gpu < Scope::Sys);
        assert!(Scope::Sys.includes(Scope::Cta));
        assert!(Scope::Sys.includes(Scope::Sys));
        assert!(!Scope::Cta.includes(Scope::Gpu));
    }

    #[test]
    fn default_is_cta() {
        assert_eq!(Scope::default(), Scope::Cta);
    }

    #[test]
    fn all_lists_every_scope_once() {
        assert_eq!(Scope::ALL.len(), 3);
        let mut v = Scope::ALL.to_vec();
        v.dedup();
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn display_matches_ptx_spelling() {
        assert_eq!(Scope::Cta.to_string(), ".cta");
        assert_eq!(Scope::Sys.to_string(), ".sys");
    }
}
