//! Execution harness: turns a litmus [`Program`] into engine traces,
//! runs it through the real timing model under a deterministic
//! schedule-perturbation sweep, and judges every run with the oracle.

use hmg::mem::Addr;
use hmg::prelude::*;
use hmg::protocol::{Access, AccessKind, Cta, Kernel, TraceOp, WorkloadTrace};
use hmg::runner::run_isolated;

use crate::oracle::{self, Mode, RunCtx, ADDR_LINES};
use crate::program::{LOp, Program, NUM_GPMS};
use crate::CheckConfig;

/// Concrete byte address behind each symbolic address: line 0 and
/// line 4 of the same first-touch page — distinct directory blocks,
/// one system home.
pub const ADDR_BYTES: [u64; 2] = [0, 512];

fn access(op: LOp) -> TraceOp {
    match op {
        LOp::Ld(a, s) => TraceOp::Access(Access::new(
            Addr(ADDR_BYTES[a as usize]),
            AccessKind::Load,
            s,
        )),
        LOp::St(a, s) => TraceOp::Access(Access::new(
            Addr(ADDR_BYTES[a as usize]),
            AccessKind::Store,
            s,
        )),
        LOp::Atom(a, s) => TraceOp::Access(Access::atomic(Addr(ADDR_BYTES[a as usize]), s)),
        LOp::Acq(s) => TraceOp::Acquire(s),
        LOp::Rel(s) => TraceOp::Release(s),
    }
}

/// One CTA per GPM of the `small_test` machine (contiguous CTA
/// scheduling pins CTA *i* to GPM *i*).
fn kernel_per_gpm(mut ops: Vec<Vec<TraceOp>>) -> Kernel {
    ops.resize(NUM_GPMS as usize, Vec::new());
    Kernel::new(ops.into_iter().map(Cta::new).collect())
}

/// The full trace for a program under a kernel mapping: a homing
/// kernel (GPM0 first-touches every used address, pinning the system
/// home), the program kernels, and a final kernel in which every GPM
/// reads every used address (the R3 witness).
pub fn trace_for(p: &Program, mode: Mode) -> WorkloadTrace {
    let used = p.used_addrs();
    let homing: Vec<TraceOp> = used
        .iter()
        .map(|&a| TraceOp::Access(Access::load(Addr(ADDR_BYTES[a as usize]))))
        .collect();
    let readback: Vec<TraceOp> = homing.clone();

    let mut kernels = vec![kernel_per_gpm(vec![homing])];
    match mode {
        Mode::Concurrent => {
            let mut per_gpm = vec![Vec::new(); NUM_GPMS as usize];
            for t in &p.threads {
                per_gpm[t.gpm as usize] = t.ops.iter().copied().map(access).collect();
            }
            kernels.push(kernel_per_gpm(per_gpm));
        }
        Mode::Phased => {
            // Threads are canonical (ascending GPM); one kernel each.
            for t in &p.threads {
                let mut per_gpm = vec![Vec::new(); NUM_GPMS as usize];
                per_gpm[t.gpm as usize] = t.ops.iter().copied().map(access).collect();
                kernels.push(kernel_per_gpm(per_gpm));
            }
        }
    }
    kernels.push(kernel_per_gpm(vec![readback; NUM_GPMS as usize]));
    WorkloadTrace::new("litmus", kernels)
}

/// The deterministic schedule-perturbation sweep: the unperturbed
/// schedule plus delay/duplication plans that reorder message arrival
/// without breaking any protocol obligation. Each plan gets its own
/// derived seed so the SplitMix64 streams differ while staying
/// reproducible from the sweep seed.
///
/// Delay magnitudes are sized against the `paper_default` fabric
/// (90-cycle intra-GPU, 360-cycle inter-GPU hops): the heavy plan must
/// hold a store forward longer than a full cross-GPU load round trip
/// (~1000 cycles), or races where a remote reader's fill beats the
/// store's invalidation can never be scheduled.
pub fn plans(
    seed: u64,
    inject: bool,
    link_down: Option<(u16, u16, u64)>,
    flips: [Option<f64>; 3],
) -> Vec<(String, FaultPlan)> {
    let specs = [
        format!("seed={seed}"),
        format!("delay=0.6/150,seed={}", seed.wrapping_add(1)),
        format!("delay=0.95/1500,seed={}", seed.wrapping_add(2)),
        format!("dup=0.4,delay=0.3/500,seed={}", seed.wrapping_add(3)),
    ];
    specs
        .into_iter()
        .map(|s| {
            let mut p = FaultPlan::parse(&s).expect("built-in plan parses");
            p.skip_hier_inv_forward = inject;
            let mut label = if inject {
                format!("{s},skip-hier-fwd")
            } else {
                s
            };
            // Stamp the permanent link loss onto every perturbation
            // plan: fail-in-place rerouting must preserve the memory
            // model under every schedule the sweep explores.
            if let Some((a, b, at_cycle)) = link_down {
                p.link_down = Some(hmg::sim::LinkDown { a, b, at_cycle });
                label = format!("{label},link-down={a}-{b}@{at_cycle}");
            }
            // Stamp soft-error injection onto every plan the same way:
            // detection and recovery must keep every schedule the sweep
            // explores inside the memory-model oracle's allowed set.
            if let Some(prob) = flips[0] {
                p.flip_msg = Some(hmg::sim::MsgFlip { prob });
                label = format!("{label},flip-msg={prob}");
            }
            if let Some(prob) = flips[1] {
                p.flip_line = Some(hmg::sim::LineFlip { prob });
                label = format!("{label},flip-line={prob}");
            }
            if let Some(prob) = flips[2] {
                p.flip_dir = Some(hmg::sim::DirFlip { prob });
                label = format!("{label},flip-dir={prob}");
            }
            (label, p)
        })
        .collect()
}

/// One confirmed `observed ⊄ allowed` disagreement.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The canonical program that produced it.
    pub program: String,
    /// A greedily minimized program that still violates, if smaller.
    pub minimized: Option<String>,
    /// Protocol under check.
    pub protocol: ProtocolKind,
    /// Kernel mapping (`concurrent` / `phased`).
    pub mode: &'static str,
    /// The fault-plan spec that reproduces it (with the sweep seed).
    pub plan: String,
    /// The probed symbolic address.
    pub addr: u8,
    /// The oracle rules violated.
    pub rules: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] {} (mode={}, addr={}, faults=\"{}\")",
            self.protocol,
            self.program,
            self.mode,
            (b'a' + self.addr) as char,
            self.plan
        )?;
        if let Some(m) = &self.minimized {
            writeln!(f, "  minimized: {m}")?;
        }
        for r in &self.rules {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// Outcome of sweeping one canonical class.
#[derive(Debug, Default)]
pub struct ClassResult {
    /// Engine runs spent.
    pub runs: u64,
    /// Probe observations judged by the oracle.
    pub outcomes: u64,
    /// Soft errors injected across the class's runs (messages, lines,
    /// directory entries).
    pub flips: u64,
    /// Injected flips consumed without detection — must stay zero
    /// whenever checksums and ECC are enabled.
    pub silent: u64,
    /// Disagreements found.
    pub violations: Vec<Violation>,
}

fn flips_of(cfg: &CheckConfig) -> [Option<f64>; 3] {
    [cfg.flip_msg, cfg.flip_line, cfg.flip_dir]
}

/// Engine runs one class costs under `cfg`.
pub fn cost_of(p: &Program, cfg: &CheckConfig) -> u64 {
    (cfg.protocols.len()
        * Mode::ALL.len()
        * plans(cfg.seed, cfg.inject, cfg.link_down, flips_of(cfg)).len()) as u64
        * p.used_addrs().len() as u64
}

/// Sweeps one canonical class: every protocol x kernel mapping x
/// perturbation plan x probed address, each judged by the oracle.
pub fn check_program(p: &Program, cfg: &CheckConfig) -> ClassResult {
    let mut out = ClassResult::default();
    let used = p.used_addrs();
    let mut plans = plans(cfg.seed, cfg.inject, cfg.link_down, flips_of(cfg));
    // An arbitration discipline under check turns home flow control on
    // (threshold 0: every contended request hits the busy-home row) and
    // stamps the discipline into every plan label so repros carry it.
    if let Some(arb) = cfg.arbitration {
        for (label, _) in &mut plans {
            *label = format!("{label},arbitration={}", arb.name());
        }
    }
    for &proto in &cfg.protocols {
        for mode in Mode::ALL {
            let trace = trace_for(p, mode);
            for (spec, plan) in &plans {
                // A permanent link loss is conservatively treated like a
                // delay plan: the second-tier detour changes arrival
                // order between node pairs, so only the range-based
                // oracle rules apply (coherence must still hold). Soft
                // errors likewise: recovery (retransmit, refetch,
                // directory rebuild) perturbs timing but must never
                // change which outcomes are allowed.
                let fault_free = plan.delay.is_none()
                    && plan.duplicate.is_none()
                    && plan.link_down.is_none()
                    && !plan.has_flip_faults();
                for &a in &used {
                    let mut ecfg = EngineConfig::small_test(proto);
                    ecfg.faults = plan.clone();
                    ecfg.probe_line = Some(ADDR_LINES[a as usize]);
                    if let Some(arb) = cfg.arbitration {
                        ecfg.home_nack_threshold = Some(0);
                        ecfg.arbitration = arb;
                    }
                    out.runs += 1;
                    let result = run_isolated(ecfg, &trace, None).map(|(m, _)| m);
                    if let Ok(m) = &result {
                        out.outcomes += m.probe.len() as u64;
                        out.flips += m.integrity.flips();
                        out.silent += m.integrity.silent_corruptions;
                        if m.integrity.silent_corruptions > 0 {
                            out.violations.push(Violation {
                                program: p.key(),
                                minimized: None,
                                protocol: proto,
                                mode: mode.name(),
                                plan: spec.clone(),
                                addr: a,
                                rules: vec![format!(
                                    "INTEGRITY: {} injected flip(s) consumed silently \
                                     (checksums/ECC failed to detect)",
                                    m.integrity.silent_corruptions
                                )],
                            });
                        }
                    }
                    let ctx = RunCtx {
                        program: p,
                        mode,
                        addr: a,
                        fault_free,
                        protocol: proto,
                    };
                    let rules = oracle::validate(&ctx, &result);
                    if !rules.is_empty() {
                        out.violations.push(Violation {
                            program: p.key(),
                            minimized: None,
                            protocol: proto,
                            mode: mode.name(),
                            plan: spec.clone(),
                            addr: a,
                            rules,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Greedy repro minimization: repeatedly drop one op (or a whole
/// thread) while the sweep still reports a violation. Bounded by a
/// candidate-evaluation cap so failures stay cheap to report.
pub fn minimize(p: &Program, cfg: &CheckConfig, runs: &mut u64) -> Program {
    const MAX_CANDIDATES: usize = 40;
    let mut best = p.canonical();
    let mut evaluated = 0;
    'shrink: loop {
        for (ti, t) in best.threads.iter().enumerate() {
            // Dropping the whole thread is the biggest single step.
            let mut candidates = Vec::new();
            if best.threads.len() > 1 {
                let mut q = best.clone();
                q.threads.remove(ti);
                candidates.push(q);
            }
            for oi in 0..t.ops.len() {
                let mut q = best.clone();
                q.threads[ti].ops.remove(oi);
                if q.threads[ti].ops.is_empty() {
                    q.threads.remove(ti);
                }
                if q.threads.is_empty() {
                    continue;
                }
                candidates.push(q);
            }
            for q in candidates {
                if evaluated >= MAX_CANDIDATES {
                    return best;
                }
                evaluated += 1;
                let q = q.canonical();
                let r = check_program(&q, cfg);
                *runs += r.runs;
                if !r.violations.is_empty() {
                    best = q;
                    continue 'shrink;
                }
            }
        }
        return best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LThread;

    // Writer at GPM1: the homing kernel pins the system home at GPM0,
    // so the GPM1 store forward crosses the fabric and the delay plans
    // can let a remote reader's fill win the race.
    fn mp(reader_gpm: u8) -> Program {
        Program {
            threads: vec![
                LThread {
                    gpm: 1,
                    ops: vec![LOp::St(0, Scope::Cta)],
                },
                LThread {
                    gpm: reader_gpm,
                    ops: vec![LOp::Ld(0, Scope::Cta)],
                },
            ],
        }
    }

    #[test]
    fn trace_shapes_match_the_mode() {
        let p = mp(2);
        let c = trace_for(&p, Mode::Concurrent);
        assert_eq!(c.kernels.len(), 3, "homing + program + readback");
        let ph = trace_for(&p, Mode::Phased);
        assert_eq!(ph.kernels.len(), 4, "homing + one per thread + readback");
    }

    #[test]
    fn plans_are_deterministic_and_seeded() {
        let a = plans(7, false, None, [None; 3]);
        let b = plans(7, false, None, [None; 3]);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].1, b[0].1);
        assert!(a[0].1.is_empty(), "first plan is the unperturbed schedule");
        assert!(a[1].1.delay.is_some());
        assert!(a[3].1.duplicate.is_some());
        assert!(plans(7, true, None, [None; 3])
            .iter()
            .all(|(_, p)| p.skip_hier_inv_forward));
        // Requested soft errors are stamped onto every plan and label.
        for (label, p) in plans(7, false, None, [Some(0.1), None, Some(0.5)]) {
            assert_eq!(p.flip_msg.map(|f| f.prob), Some(0.1));
            assert_eq!(p.flip_line, None);
            assert_eq!(p.flip_dir.map(|f| f.prob), Some(0.5));
            assert!(label.ends_with("flip-msg=0.1,flip-dir=0.5"), "{label}");
        }
        // A requested link loss is stamped onto every plan and label.
        for (label, p) in plans(7, false, Some((0, 1, 400)), [None; 3]) {
            assert_eq!(
                p.link_down,
                Some(hmg::sim::LinkDown {
                    a: 0,
                    b: 1,
                    at_cycle: 400
                })
            );
            assert!(label.ends_with("link-down=0-1@400"), "{label}");
        }
    }

    #[test]
    fn both_arbitration_disciplines_pass_the_message_passing_sweep() {
        // Flow control armed at threshold 0: every contended request
        // exercises the guarded HomeBusy rows. Neither discipline —
        // NACK/retry nor phase-priority defer — may ever produce an
        // outcome the memory model disallows; arbitration reorders
        // requests but must not change legality.
        for arb in hmg::protocol::Arbitration::ALL {
            let cfg = CheckConfig {
                arbitration: Some(arb),
                ..CheckConfig::default()
            };
            for reader in [2u8, 3] {
                let r = check_program(&mp(reader), &cfg);
                assert!(
                    r.violations.is_empty(),
                    "{arb:?} reader gpm{reader}: {:?}",
                    r.violations
                );
            }
        }
    }

    #[test]
    fn message_passing_survives_a_mid_litmus_link_loss() {
        // The MP litmus with the GPM0<->GPM1 first-tier link failing in
        // the middle of the run: every outcome must stay within the
        // oracle's allowed set while traffic detours over the second
        // tier.
        let cfg = CheckConfig {
            link_down: Some((0, 1, 400)),
            ..CheckConfig::default()
        };
        for reader in [2u8, 3] {
            let r = check_program(&mp(reader), &cfg);
            assert!(
                r.violations.is_empty(),
                "reader gpm{reader}: {:?}",
                r.violations
            );
        }
    }

    #[test]
    fn clean_protocols_pass_the_message_passing_sweep() {
        let cfg = CheckConfig::default();
        for reader in [2u8, 3] {
            let r = check_program(&mp(reader), &cfg);
            assert_eq!(r.runs, cost_of(&mp(reader), &cfg));
            assert!(
                r.violations.is_empty(),
                "reader gpm{reader}: {:?}",
                r.violations
            );
        }
    }

    #[test]
    fn message_passing_survives_a_soft_error_storm() {
        // Aggressive corruption on all three surfaces at once: every
        // flip must be detected and recovered (retransmit, ECC, refetch,
        // or rebuild) without ever leaving the oracle's allowed set —
        // and without a single silent corruption.
        let cfg = CheckConfig {
            flip_msg: Some(0.05),
            flip_line: Some(0.4),
            flip_dir: Some(0.4),
            ..CheckConfig::default()
        };
        let mut flips = 0;
        for reader in [2u8, 3] {
            let r = check_program(&mp(reader), &cfg);
            assert!(
                r.violations.is_empty(),
                "reader gpm{reader}: {:?}",
                r.violations
            );
            assert_eq!(r.silent, 0, "reader gpm{reader}");
            flips += r.flips;
        }
        assert!(flips > 0, "the storm must actually inject soft errors");
    }

    #[test]
    fn injected_hierarchical_bug_is_caught_and_minimized() {
        // Skipping the HMG GPU-home invalidation forward leaves a stale
        // copy in the remote GPU; one of the two cross-GPU readers sits
        // off the hashed GPU home and must observe it.
        let cfg = CheckConfig {
            inject: true,
            ..CheckConfig::default()
        };
        let mut caught = Vec::new();
        for reader in [2u8, 3] {
            let r = check_program(&mp(reader), &cfg);
            caught.extend(r.violations);
        }
        assert!(!caught.is_empty(), "bug must be observable");
        assert!(caught.iter().all(|v| v.protocol == ProtocolKind::Hmg));
        let first = &caught[0];
        assert!(
            first
                .rules
                .iter()
                .any(|r| r.starts_with("R3") || r.starts_with("R4")),
            "{first}"
        );
        // The two-op program is already minimal: minimization converges.
        let victim = mp(if caught[0].program.contains("gpm2") {
            2
        } else {
            3
        });
        let mut runs = 0;
        let m = minimize(&victim, &cfg, &mut runs);
        assert!(m.total_ops() <= victim.total_ops());
        assert!(runs > 0);
    }
}
