//! Adversarial fault-injection validation (DESIGN.md "Robustness").
//!
//! Every fault class the [`FaultPlan`] can inject must be either
//! *tolerated* — the litmus outcome is identical to a fault-free run —
//! or *detected* — the run terminates with a typed diagnostic (deadlock
//! watchdog) or the version oracle exposes the stale read. No injected
//! fault may hang the simulator.
//!
//! | fault class              | expected outcome                       |
//! |--------------------------|----------------------------------------|
//! | link degrade / stall     | tolerated (timing-only)                |
//! | message delay            | tolerated (FIFO per port preserved)    |
//! | message duplication      | tolerated (idempotent re-delivery)     |
//! | flag-propagation delay   | tolerated (waiters just wake later)    |
//! | message drop             | recovered: transport retransmission    |
//! | dropped store            | detected: structural deadlock + dump   |
//! | reordered invalidation   | detected: version oracle reads stale   |
//! | in-flight message flip   | recovered: checksum + retransmission   |
//! | resident L2-line flip    | recovered: ECC correct/refetch, or     |
//! |                          | contained: poison + CTA abort (dirty)  |
//! | directory-entry flip     | recovered: ECC correct or rebuild as   |
//! |                          | sticky-broadcast                       |

use hmg::prelude::*;
use hmg_mem::Addr;
use hmg_protocol::{Access, Cta, Kernel, TraceOp, WorkloadTrace};

fn ld(addr: u64) -> TraceOp {
    TraceOp::Access(Access::load(Addr(addr)))
}

fn st(addr: u64) -> TraceOp {
    TraceOp::Access(Access::store(Addr(addr)))
}

/// One CTA per GPM of the `small_test` 2-GPU x 2-GPM machine.
fn kernel_per_gpm(mut ops: Vec<Vec<TraceOp>>) -> Kernel {
    ops.resize(4, Vec::new());
    Kernel::new(ops.into_iter().map(Cta::new).collect())
}

/// The Section III-B message-passing pattern with a stale copy warmed
/// into the consumer's caches: line homed at GPM0, consumer on GPM1
/// (same GPU as the home), producer on GPM2 (the other GPU, so its
/// store must be forwarded across the fabric — the path the drop-store
/// fault targets). Flag 1 orders the consumer's warm read before the
/// producer's store.
fn mp_stale_trace() -> WorkloadTrace {
    let producer = vec![
        TraceOp::WaitFlag { flag: 1, count: 1 },
        st(0),
        TraceOp::Release(Scope::Sys),
        TraceOp::SetFlag(3),
    ];
    let consumer = vec![
        ld(0),                // warm a stale copy before synchronizing
        TraceOp::Delay(5000), // let the warm load complete and fill the L2
        TraceOp::SetFlag(1),
        TraceOp::WaitFlag { flag: 3, count: 1 },
        TraceOp::Acquire(Scope::Sys),
        ld(0),
    ];
    WorkloadTrace::new(
        "mp-stale-faults",
        vec![
            kernel_per_gpm(vec![vec![st(0)]]), // version 1, homed at GPM0
            kernel_per_gpm(vec![vec![], consumer, producer, vec![]]), // version 2
        ],
    )
}

fn run_probed_with_faults(
    p: ProtocolKind,
    trace: &WorkloadTrace,
    faults: FaultPlan,
) -> Result<RunMetrics, SimError> {
    let mut cfg = EngineConfig::small_test(p);
    cfg.probe_line = Some(0);
    cfg.faults = faults;
    Engine::try_new(cfg)?.try_run(trace)
}

// ---------------------------------------------------------------------
// Tolerated faults: litmus outcomes must be identical to fault-free.
// ---------------------------------------------------------------------

#[test]
fn tolerated_faults_leave_litmus_outcomes_unchanged() {
    let trace = mp_stale_trace();
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("delay", FaultPlan::parse("delay=1.0/200,seed=7").unwrap()),
        ("dup", FaultPlan::parse("dup=1.0,seed=7").unwrap()),
        (
            "delay+dup",
            FaultPlan::parse("delay=0.5/120,dup=0.5,seed=11").unwrap(),
        ),
        ("flag-delay", FaultPlan::parse("flag-delay=500").unwrap()),
        (
            "degrade",
            FaultPlan::parse("degrade=0..1000000/8.0").unwrap(),
        ),
        ("stall", FaultPlan::parse("stall=0..1000000/300").unwrap()),
        (
            "all-tolerated",
            FaultPlan::parse(
                "delay=0.3/90,dup=0.3,flag-delay=250,\
                 degrade=100..500000/3.5,stall=200..400000/60,seed=42",
            )
            .unwrap(),
        ),
    ];
    for p in [
        ProtocolKind::Hmg,
        ProtocolKind::Nhcc,
        ProtocolKind::CarveLike,
    ] {
        let clean = run_probed_with_faults(p, &trace, FaultPlan::default())
            .expect("fault-free run completes");
        let want = clean.probe.last().expect("consumer read").1;
        assert_eq!(want, 2, "{p}: sanity — fault-free consumer sees the store");
        for (name, plan) in &plans {
            let m = run_probed_with_faults(p, &trace, plan.clone())
                .unwrap_or_else(|e| panic!("{p}/{name}: must be tolerated, got {e}"));
            assert_eq!(
                m.probe.last().expect("consumer read").1,
                want,
                "{p}/{name}: tolerated fault changed the litmus outcome"
            );
        }
    }
}

#[test]
fn link_degradation_slows_but_preserves_results() {
    let trace = mp_stale_trace();
    let clean = run_probed_with_faults(ProtocolKind::Hmg, &trace, FaultPlan::default()).unwrap();
    let slow = run_probed_with_faults(
        ProtocolKind::Hmg,
        &trace,
        FaultPlan::parse("degrade=0..10000000/16.0,stall=0..10000000/500").unwrap(),
    )
    .unwrap();
    assert!(
        slow.total_cycles > clean.total_cycles,
        "degraded links must cost cycles ({} vs {})",
        slow.total_cycles.as_u64(),
        clean.total_cycles.as_u64()
    );
    assert_eq!(slow.probe.last().unwrap().1, clean.probe.last().unwrap().1);
}

// ---------------------------------------------------------------------
// Recovered faults: lost messages are replayed by the reliable-delivery
// transport; the run slows down but converges to the fault-free final
// memory state (ISSUE acceptance: drop <= 0.01 matches fault-free).
// ---------------------------------------------------------------------

#[test]
fn dropped_messages_recover_to_the_fault_free_final_state() {
    let trace = mp_stale_trace();
    for p in [
        ProtocolKind::Hmg,
        ProtocolKind::Nhcc,
        ProtocolKind::CarveLike,
    ] {
        let clean = run_probed_with_faults(p, &trace, FaultPlan::default())
            .expect("fault-free run completes");
        for spec in ["drop=0.01,seed=3", "drop=0.5,seed=3"] {
            let m = run_probed_with_faults(p, &trace, FaultPlan::parse(spec).unwrap())
                .unwrap_or_else(|e| panic!("{p}/{spec}: must be recovered, got {e}"));
            assert_eq!(
                m.state_digest, clean.state_digest,
                "{p}/{spec}: recovery must converge to the fault-free memory state"
            );
            assert_eq!(
                m.probe.last().expect("consumer read").1,
                clean.probe.last().unwrap().1,
                "{p}/{spec}: litmus outcome must survive message loss"
            );
        }
        // At 50% loss the transport must visibly do work: replayed
        // attempts show up in the stats and cost simulated time.
        let heavy = run_probed_with_faults(p, &trace, FaultPlan::parse("drop=0.5,seed=3").unwrap())
            .unwrap();
        let t = heavy.fabric.transport();
        assert!(t.retransmissions > 0, "{p}: 50% loss must force replays");
        assert!(t.recovered > 0 && t.recovered <= t.retransmissions, "{p}");
        assert!(
            heavy.total_cycles > clean.total_cycles,
            "{p}: retransmission backoff must cost cycles ({} vs {})",
            heavy.total_cycles.as_u64(),
            clean.total_cycles.as_u64()
        );
    }
}

#[test]
fn retransmission_schedule_is_deterministic() {
    let trace = mp_stale_trace();
    let plan = FaultPlan::parse("drop=0.4,seed=21").unwrap();
    let a = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan.clone()).unwrap();
    let b = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan).unwrap();
    assert!(
        a.fabric.transport().retransmissions > 0,
        "plan must exercise the transport"
    );
    assert_eq!(
        a.total_cycles, b.total_cycles,
        "same seed + plan => same schedule"
    );
    assert_eq!(a.events, b.events);
    assert_eq!(a.fabric.transport(), b.fabric.transport());
    assert_eq!(a.probe, b.probe);
    assert_eq!(a.state_digest, b.state_digest);
}

// ---------------------------------------------------------------------
// Graceful degradation: sharer-list overflow falls back to broadcast
// invalidation without ever letting a stale copy survive a store.
// ---------------------------------------------------------------------

#[test]
fn sharer_overflow_broadcast_preserves_litmus_outcome() {
    // Every GPM warms line 0 (overflowing a cap-1 directory entry),
    // then GPM0 stores, then every GPM reads back. The readbacks must
    // all observe the new version: the degraded entry has to reach the
    // stale copies via the conservative broadcast target list.
    let warm_all = || kernel_per_gpm(vec![vec![ld(0)], vec![ld(0)], vec![ld(0)], vec![ld(0)]]);
    let trace = WorkloadTrace::new(
        "overflow-bcast",
        vec![
            kernel_per_gpm(vec![vec![st(0)]]), // version 1, homed at GPM0
            warm_all(),
            kernel_per_gpm(vec![vec![st(0)]]), // version 2
            warm_all(),
        ],
    );
    for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc] {
        let precise = run_probed_with_faults(p, &trace, FaultPlan::default())
            .expect("uncapped run completes");
        let mut cfg = EngineConfig::small_test(p);
        cfg.probe_line = Some(0);
        cfg.dir = cfg.dir.with_max_sharers(1);
        let capped = Engine::try_new(cfg)
            .unwrap()
            .try_run(&trace)
            .expect("capped run completes");
        assert!(
            capped.dir_broadcast_fallbacks >= 1,
            "{p}: four sharers must overflow a cap of one"
        );
        assert!(
            capped.broadcast_invs >= 1,
            "{p}: the store must invalidate via the broadcast path"
        );
        let last4 = |m: &RunMetrics| {
            m.probe[m.probe.len() - 4..]
                .iter()
                .map(|&(_, v)| v)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            last4(&capped),
            vec![2, 2, 2, 2],
            "{p}: no stale copy may survive"
        );
        assert_eq!(last4(&precise), last4(&capped), "{p}");
        assert_eq!(
            precise.state_digest, capped.state_digest,
            "{p}: degradation must not change the final memory state"
        );
    }
}

// ---------------------------------------------------------------------
// Detected faults: dropped store => structural deadlock with diagnostic.
// ---------------------------------------------------------------------

#[test]
fn dropped_store_is_detected_as_deadlock_not_hang() {
    let trace = mp_stale_trace();
    let plan = FaultPlan::parse("drop-store=1").unwrap();
    let err = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan)
        .expect_err("a dropped release-fenced store must deadlock the fence drain");
    assert_eq!(err.kind, SimErrorKind::Deadlock);
    assert!(
        err.cycle.is_some(),
        "diagnostic must carry the cycle: {err}"
    );
    assert!(
        err.agent.is_some(),
        "diagnostic must name the stuck agent: {err}"
    );
    let text = err.to_string();
    assert!(text.contains("deadlocked"), "missing kind in: {text}");
    assert!(
        err.dump.is_some(),
        "diagnostic must include the machine-state dump"
    );
    let dump = err.dump.as_deref().unwrap();
    assert!(
        dump.contains("pending") || dump.contains("outstanding"),
        "dump must show per-agent outstanding work:\n{dump}"
    );
}

#[test]
fn dropped_store_is_detected_under_every_hw_protocol() {
    let trace = mp_stale_trace();
    for p in [
        ProtocolKind::Nhcc,
        ProtocolKind::Hmg,
        ProtocolKind::CarveLike,
    ] {
        let plan = FaultPlan::parse("drop-store=1").unwrap();
        let err = run_probed_with_faults(p, &trace, plan)
            .expect_err("dropped fenced store must be detected");
        assert_eq!(err.kind, SimErrorKind::Deadlock, "{p}");
    }
}

// ---------------------------------------------------------------------
// Detected faults: reordered invalidation (FIFO violation) => the
// version oracle observes the stale read; the run still terminates.
// ---------------------------------------------------------------------

#[test]
fn reordered_invalidation_is_exposed_by_the_version_oracle() {
    // Consumer on GPM1 shares GPU0 with the producer on GPM0 and warms
    // line 0 into its local L2 slice before synchronizing. HMG's
    // acquire only flushes the L1, so if the store's invalidation is
    // reordered past the release fence (not counted, delivered late),
    // the post-acquire CTA-scope load legally hits the stale local-L2
    // copy — and the probe records the old version.
    let producer = vec![
        TraceOp::WaitFlag { flag: 1, count: 1 },
        st(0),
        TraceOp::Release(Scope::Sys),
        TraceOp::SetFlag(2),
    ];
    let consumer = vec![
        ld(0),                // warm version 0 into GPM1's L1+L2
        TraceOp::Delay(5000), // drain the load so GPM1 registers as sharer
        TraceOp::SetFlag(1),
        TraceOp::WaitFlag { flag: 2, count: 1 },
        TraceOp::Acquire(Scope::Sys),
        ld(0),
    ];
    let trace = WorkloadTrace::new(
        "reorder-inv",
        vec![
            kernel_per_gpm(vec![vec![ld(0)]]), // home line 0 at GPM0
            kernel_per_gpm(vec![producer, consumer, vec![], vec![]]),
        ],
    );
    let clean = run_probed_with_faults(ProtocolKind::Hmg, &trace, FaultPlan::default())
        .expect("clean run completes");
    assert_eq!(
        clean.probe.last().expect("consumer read").1,
        1,
        "sanity: without the fault the consumer sees the store"
    );
    let plan = FaultPlan::parse("reorder-inv=1/2000000").unwrap();
    let m = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan)
        .expect("FIFO violation terminates (detected, not hung)");
    assert_eq!(
        m.probe.last().expect("consumer read").1,
        0,
        "the reordered invalidation must leave the stale copy visible \
         (this is precisely the ordering HMG's correctness depends on)"
    );
}

// ---------------------------------------------------------------------
// Watchdog: the livelock budget fires with a typed diagnostic.
// ---------------------------------------------------------------------

#[test]
fn livelock_watchdog_fires_on_budget_exhaustion() {
    let trace = mp_stale_trace();
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    // Launch overhead alone (100 cycles) exceeds this budget, so the
    // watchdog must trip before the first access retires.
    cfg.livelock_budget = Some(10);
    let err = Engine::try_new(cfg)
        .unwrap()
        .try_run(&trace)
        .expect_err("budget of 10 cycles cannot cover kernel launch");
    assert_eq!(err.kind, SimErrorKind::Livelock);
    assert!(err.to_string().contains("livelocked"));
    assert!(err.cycle.is_some());
}

#[test]
fn generous_livelock_budget_does_not_misfire() {
    let trace = mp_stale_trace();
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    cfg.probe_line = Some(0);
    cfg.livelock_budget = Some(1_000_000);
    let m = Engine::try_new(cfg)
        .unwrap()
        .try_run(&trace)
        .expect("completes");
    assert_eq!(m.probe.last().unwrap().1, 2);
}

// ---------------------------------------------------------------------
// Determinism: same seed + same plan => bit-identical faulty runs.
// ---------------------------------------------------------------------

#[test]
fn fault_injection_is_deterministic() {
    let trace = mp_stale_trace();
    let plan = FaultPlan::parse("delay=0.4/150,dup=0.4,seed=123").unwrap();
    let a = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan.clone()).unwrap();
    let b = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan).unwrap();
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.events, b.events);
    assert_eq!(a.probe, b.probe);
}

// ---------------------------------------------------------------------
// Graceful degradation: a keep-going sweep over the whole Table III
// suite with a deliberately lethal fault completes with a partial
// report naming the failures.
// ---------------------------------------------------------------------

#[test]
fn keep_going_sweep_yields_partial_report_with_failure_table() {
    use hmg::experiments::{speedup_suite, ExpOptions};
    use hmg::workloads::Scale;
    // Dropping the 40th forwarded store deadlocks only the workloads
    // whose tiny traces forward that many stores — a genuinely partial
    // outcome: some of the 20 workloads survive, the rest are reported.
    let opts = ExpOptions {
        scale: Scale::Tiny,
        seed: 9,
        filter: None,
        faults: Some(FaultPlan::parse("drop-store=40").unwrap()),
        keep_going: true,
        ..ExpOptions::default()
    };
    let r = speedup_suite(&opts, "keep-going", &[ProtocolKind::Hmg], "")
        .run(&opts)
        .expect("keep-going sweep");
    let [t] = r.tables.as_slice() else {
        panic!("one table")
    };
    let rows = &t.rows;
    assert!(
        !r.failures.is_empty(),
        "the lethal fault must fail at least one workload"
    );
    assert!(
        !rows.is_empty(),
        "the report must be partial, not empty: some workloads survive"
    );
    assert_eq!(
        rows.len() + {
            let mut failed: Vec<&str> = r.failures.iter().map(|f| f.workload.as_str()).collect();
            failed.dedup();
            failed.len()
        },
        20,
        "every Table III workload is either reported or failed"
    );
    for f in &r.failures {
        assert_eq!(f.error.kind, SimErrorKind::Deadlock, "{}", f.workload);
        assert!(
            f.error.cycle.is_some(),
            "{}: failure must carry cycle context",
            f.workload
        );
    }
    // Surviving rows are well-formed speedups.
    for (_, row) in rows {
        assert_eq!(row.len(), 1);
        assert!(row[0].is_some_and(|v| v.is_finite() && v > 0.0));
    }
}

// ---------------------------------------------------------------------
// Fail-in-place (DESIGN.md §9): permanent link/GPM/GPU failures are
// survived by epoch-based reconfiguration. Link losses are *tolerated*
// (second-tier detour, identical final state); component losses are
// *degraded* (CTAs abort, pages re-home, survivors finish with every
// store committed).
// ---------------------------------------------------------------------

#[test]
fn permanent_link_loss_detours_and_preserves_the_litmus_outcome() {
    // The consumer (GPM1) talks to the home (GPM0) over the first-tier
    // link that dies mid-run: every message detours over the
    // second-tier switch path and the MP litmus outcome is unchanged.
    let trace = mp_stale_trace();
    for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc] {
        let clean = run_probed_with_faults(p, &trace, FaultPlan::default()).unwrap();
        let m = run_probed_with_faults(p, &trace, FaultPlan::parse("link-down=0-1@500").unwrap())
            .unwrap_or_else(|e| panic!("{p}: a link loss must be tolerated, got {e}"));
        assert_eq!(m.reconfig.epochs, 1, "{p}: the loss opens one epoch");
        assert!(m.reconfig.downtime_cycles > 0, "{p}: detection is charged");
        assert!(
            m.fabric.transport().reroutes > 0,
            "{p}: traffic must detour over the second tier"
        );
        assert_eq!(
            m.probe.last().unwrap().1,
            clean.probe.last().unwrap().1,
            "{p}: the detour must not change the litmus outcome"
        );
        assert_eq!(m.state_digest, clean.state_digest, "{p}: memory state");
    }
}

#[test]
fn gpu_offline_mid_run_completes_with_survivor_memory_intact() {
    // The ISSUE acceptance run: GPU1 dies mid-run with the deadlock
    // watchdog armed. The run must complete (no hang, no watchdog
    // abort), report a reconfiguration epoch with re-homed state and
    // non-zero downtime, and — because the dead GPU only ever loaded —
    // the final committed memory must be byte-identical to the
    // fault-free run.
    let far = 4u64 << 20; // 2 MB page first-touched (homed) by GPM2/GPU1
    let trace = WorkloadTrace::new(
        "gpu-off-acceptance",
        vec![
            kernel_per_gpm(vec![
                vec![st(0), st(128)],
                vec![],
                vec![ld(far), ld(far + 128)],
                vec![ld(0)],
            ]),
            kernel_per_gpm(vec![
                vec![TraceOp::Delay(60_000), st(0), st(far)],
                vec![ld(0)],
                vec![ld(far), TraceOp::Delay(60_000), ld(far)],
                vec![ld(0), TraceOp::Delay(60_000), ld(0)],
            ]),
            // Started after the loss: CTAs redistribute over GPU0 and
            // the degraded page stays readable and writable.
            kernel_per_gpm(vec![
                vec![st(far)],
                vec![ld(far)],
                vec![ld(0)],
                vec![ld(far)],
            ]),
        ],
    );
    let run = |faults: FaultPlan| {
        let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
        cfg.livelock_budget = Some(100_000);
        cfg.faults = faults;
        Engine::try_new(cfg).unwrap().try_run(&trace)
    };
    let clean = run(FaultPlan::default()).expect("fault-free run completes");
    let m = run(FaultPlan::parse("gpu-offline=1@30000").unwrap())
        .expect("survivors must finish without deadlock or watchdog abort");
    assert_eq!(m.reconfig.epochs, 1);
    assert!(m.reconfig.rehomed_pages >= 1, "GPU1's page must re-home");
    assert!(m.reconfig.rehomed_blocks >= 1, "GPM2 tracked `far` blocks");
    assert!(m.reconfig.degraded_pages >= 1, "re-homed pages degrade");
    assert!(m.reconfig.downtime_cycles > 0, "detection window charged");
    assert_eq!(
        m.state_digest, clean.state_digest,
        "a dead GPU that only loaded must not change committed memory"
    );
}

// ---------------------------------------------------------------------
// Data integrity (DESIGN.md §12): soft errors on all three surfaces are
// detected and recovered or contained — never consumed silently — and
// the IntegrityStats books balance: every injected flip retires through
// exactly one of retransmit / correct / refetch / rebuild / poison.
// ---------------------------------------------------------------------

#[test]
fn soft_error_conservation_every_flip_is_accounted() {
    let trace = mp_stale_trace();
    for p in [ProtocolKind::Hmg, ProtocolKind::Nhcc] {
        let m = run_probed_with_faults(
            p,
            &trace,
            FaultPlan::parse("flip-msg=0.05,flip-line=0.8,flip-dir=0.8,seed=17").unwrap(),
        )
        .unwrap_or_else(|e| panic!("{p}: the storm must be survived, got {e}"));
        assert!(m.integrity.flips() > 0, "{p}: the storm must inject");
        assert_eq!(m.integrity.silent_corruptions, 0, "{p}: {}", m.integrity);
        assert_eq!(
            m.integrity.flips(),
            m.integrity.accounted(),
            "{p}: conservation violated: {}",
            m.integrity
        );
        // The litmus outcome survives the storm.
        assert_eq!(m.probe.last().expect("consumer read").1, 2, "{p}");
    }
}

#[test]
fn soft_error_recovery_is_deterministic() {
    let trace = mp_stale_trace();
    let plan = FaultPlan::parse("flip-msg=0.05,flip-line=0.6,flip-dir=0.6,seed=33").unwrap();
    let a = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan.clone()).unwrap();
    let b = run_probed_with_faults(ProtocolKind::Hmg, &trace, plan).unwrap();
    assert!(a.integrity.flips() > 0, "plan must exercise injection");
    assert_eq!(a.integrity, b.integrity, "same seed => same recovery");
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.probe, b.probe);
    assert_eq!(a.state_digest, b.state_digest);
}

#[test]
fn checksums_off_message_flips_go_silent() {
    // The adversarial control: with checksum verification disabled the
    // same flip stream is consumed without detection — proving the
    // checksums are what detects it, not an accident of the protocol.
    let trace = mp_stale_trace();
    let plan = FaultPlan::parse("flip-msg=0.1,seed=17").unwrap();
    let detected =
        run_probed_with_faults(ProtocolKind::Hmg, &trace, plan.clone()).expect("recovered run");
    assert!(detected.integrity.flips_msg > 0);
    assert!(detected.integrity.checksum_retransmits > 0);
    assert_eq!(detected.integrity.silent_corruptions, 0);
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    cfg.probe_line = Some(0);
    cfg.checksums = false;
    cfg.faults = plan;
    let silent = Engine::try_new(cfg).unwrap().try_run(&trace).unwrap();
    assert!(
        silent.integrity.silent_corruptions > 0,
        "without checksums the flips must be consumed silently: {}",
        silent.integrity
    );
    assert_eq!(silent.integrity.checksum_retransmits, 0);
}

#[test]
fn ecc_off_line_flips_corrupt_observably() {
    // The ISSUE acceptance control: ECC disabled, one resident-line
    // flip between the consumer's warm fill and its re-read. The
    // corrupted copy is served as-is — the probe records a version with
    // the flipped bit — and the run self-reports the silent corruption.
    let consumer = vec![
        ld(0), // warm version 1 into GPM1's L2
        TraceOp::Delay(600),
        TraceOp::Acquire(Scope::Cta), // drop the L1 copy, keep the L2 copy
        ld(0),
    ];
    let trace = WorkloadTrace::new(
        "ecc-off",
        vec![
            kernel_per_gpm(vec![vec![st(0)]]), // version 1, homed at GPM0
            kernel_per_gpm(vec![vec![], consumer, vec![], vec![]]),
        ],
    );
    let clean = run_probed_with_faults(ProtocolKind::Hmg, &trace, FaultPlan::default()).unwrap();
    assert_eq!(clean.probe.last().unwrap().1, 1, "sanity: clean re-read");
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    cfg.probe_line = Some(0);
    cfg.ecc = hmg_gpu::EccMode::None;
    cfg.faults = FaultPlan::parse("flip-line=1.0,seed=3").unwrap();
    let m = Engine::try_new(cfg).unwrap().try_run(&trace).unwrap();
    assert!(m.integrity.silent_corruptions > 0, "{}", m.integrity);
    let observed = m.probe.last().expect("consumer re-read").1;
    assert_ne!(
        observed, 1,
        "without ECC the corrupted copy must be served as-is"
    );
    // With ECC at its default (SEC-DED), the identical flip stream is
    // fully recovered and the probe matches the clean run.
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    cfg.probe_line = Some(0);
    cfg.faults = FaultPlan::parse("flip-line=1.0,seed=3").unwrap();
    let recovered = Engine::try_new(cfg).unwrap().try_run(&trace).unwrap();
    assert_eq!(recovered.integrity.silent_corruptions, 0);
    assert_eq!(
        recovered.probe, clean.probe,
        "ECC must make flips invisible"
    );
}

#[test]
fn uncorrectable_dirty_line_poisons_and_aborts_the_cta() {
    // Write-back keeps the only copy of the store in the local L2; an
    // uncorrectable flip there is unrecoverable. Serving it must poison
    // the response and abort the consuming CTA — never hand out the
    // corrupt value — while flags the CTA would have set are salvaged.
    let victim = vec![
        st(0), // dirty in GPM0's L2 under write-back
        TraceOp::Delay(450),
        ld(0),                // consumes the poisoned copy
        TraceOp::Delay(5000), // keep the CTA alive until the response lands
        TraceOp::SetFlag(7),
    ];
    let waiter = vec![TraceOp::WaitFlag { flag: 7, count: 1 }];
    let trace = WorkloadTrace::new(
        "wb-poison",
        vec![kernel_per_gpm(vec![victim, vec![], waiter, vec![]])],
    );
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    cfg.l2_write_policy = hmg_gpu::WritePolicy::WriteBack;
    cfg.ecc_double_bit_fraction = 1.0; // every flip is uncorrectable
    cfg.livelock_budget = Some(200_000);
    cfg.faults = FaultPlan::parse("flip-line=1.0,seed=11").unwrap();
    let m = Engine::try_new(cfg)
        .unwrap()
        .try_run(&trace)
        .expect("poison must abort the CTA, not hang the waiter");
    assert!(m.integrity.poisoned >= 1, "{}", m.integrity);
    assert!(m.integrity.aborted_ctas >= 1, "{}", m.integrity);
    assert_eq!(m.integrity.silent_corruptions, 0);
    assert_eq!(
        m.integrity.flips(),
        m.integrity.accounted(),
        "conservation: {}",
        m.integrity
    );
}

#[test]
fn gpm_offline_mid_delay_aborts_the_cta_without_hanging() {
    // GPM3 dies while its CTA sits in a long delay. With the watchdog
    // armed the run must neither hang nor abort: the CTA is aborted,
    // the kernel's remaining CTAs finish, and flags the dead CTA would
    // have set are salvaged so no waiter sleeps forever.
    let trace = WorkloadTrace::new(
        "gpm-off-abort",
        vec![kernel_per_gpm(vec![
            vec![TraceOp::WaitFlag { flag: 9, count: 1 }, ld(0)],
            vec![ld(0)],
            vec![ld(0)],
            vec![TraceOp::Delay(50_000), TraceOp::SetFlag(9)],
        ])],
    );
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    cfg.livelock_budget = Some(80_000);
    cfg.faults = FaultPlan::parse("gpm-offline=1.1@10000").unwrap();
    let m = Engine::try_new(cfg)
        .unwrap()
        .try_run(&trace)
        .expect("the abort must salvage flag 9 so GPM0's waiter wakes");
    assert_eq!(m.reconfig.epochs, 1);
    assert!(m.reconfig.aborted_ctas >= 1, "GPM3's CTA dies mid-delay");
    assert!(
        m.total_cycles.as_u64() >= 10_000,
        "the run outlives the loss"
    );
}
