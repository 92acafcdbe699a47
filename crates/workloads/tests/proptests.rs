//! Randomized property tests on the workload generators: structural
//! well-formedness of every generated trace. Driven by the in-repo
//! SplitMix64 [`Rng`] rather than an external property-testing crate so
//! the workspace builds offline.

use hmg_protocol::TraceOp;
use hmg_sim::Rng;
use hmg_workloads::suite::table3;
use hmg_workloads::Scale;

const CASES: u64 = 12;

/// Every access in a trace is line-aligned and within the allocated
/// address space; every WaitFlag has a satisfying number of SetFlags.
fn check_well_formed(trace: &hmg_protocol::WorkloadTrace) -> Result<(), String> {
    let mut set_counts: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut waits: Vec<(u32, u32)> = Vec::new();
    for k in &trace.kernels {
        for c in &k.ctas {
            for op in &c.ops {
                match op {
                    TraceOp::Access(a) if !a.addr.0.is_multiple_of(128) => {
                        return Err(format!("unaligned access {:?}", a.addr));
                    }
                    TraceOp::Access(_) => {}
                    TraceOp::SetFlag(f) => *set_counts.entry(f).or_insert(0) += 1,
                    TraceOp::WaitFlag { flag, count } => waits.push((flag, count)),
                    _ => {}
                }
            }
        }
    }
    for (flag, count) in waits {
        let sets = set_counts.get(&flag).copied().unwrap_or(0);
        if sets < count {
            return Err(format!(
                "flag {flag} waited to {count} but only set {sets} times (deadlock)"
            ));
        }
    }
    Ok(())
}

/// Every Table III workload generates a structurally sound trace at
/// Tiny scale, for arbitrary seeds.
#[test]
fn all_workloads_well_formed_at_tiny() {
    for case in 0..CASES {
        let seed = Rng::new(0x3113 + case).next_u64();
        for spec in table3() {
            let t = spec.generate(Scale::Tiny, seed);
            assert!(t.num_accesses() > 0, "{} empty", spec.abbrev);
            if let Err(e) = check_well_formed(&t) {
                panic!("{}: {e}", spec.abbrev);
            }
        }
    }
}

/// Generation is a pure function of (spec, scale, seed).
#[test]
fn generation_is_pure() {
    for case in 0..CASES {
        let mut r = Rng::new(0x902E + case);
        let seed = r.next_u64();
        let idx = r.gen_range(0, 20) as usize;
        let spec = table3()[idx];
        let a = spec.generate(Scale::Tiny, seed);
        let b = spec.generate(Scale::Tiny, seed);
        assert_eq!(a, b);
    }
}

/// Footprint scaling is monotone and capacity factors are >= 1.
#[test]
fn footprint_scaling_monotone() {
    for case in 0..64u64 {
        let mut r = Rng::new(0xF007 + case);
        let mb = 1.0 + r.gen_f64() * 7999.0;
        let tiny = Scale::Tiny.footprint(mb);
        let small = Scale::Small.footprint(mb);
        let full = Scale::Full.footprint(mb);
        assert!(tiny <= small, "{mb}");
        assert!(small <= full, "{mb}");
        for s in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert!(s.capacity_factor(mb) >= 1.0);
        }
        // Factor * scaled footprint reproduces the paper footprint (to
        // rounding) wherever clamping did not saturate.
        let f = Scale::Small.capacity_factor(mb);
        let recon = f * small as f64;
        assert!((recon / (mb * 1024.0 * 1024.0) - 1.0).abs() < 0.01);
    }
}

#[test]
fn small_scale_traces_are_well_formed_for_default_seed() {
    for spec in table3() {
        let t = spec.generate(Scale::Small, 2020);
        check_well_formed(&t).unwrap_or_else(|e| panic!("{}: {e}", spec.abbrev));
    }
}
