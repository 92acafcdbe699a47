//! Minimal argument parsing for the `experiments` binary (std-only; no
//! external CLI crates per the dependency policy in DESIGN.md §5).

use hmg::experiments::ExpOptions;
use hmg::prelude::FaultPlan;
use hmg::protocol::SpecVariant;
use hmg::supervisor::Isolation;
use hmg::workloads::Scale;

/// Which experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Fig. 2 — motivating comparison (SW-NH / NHCC / Ideal).
    Fig2,
    /// Fig. 3 — inter-GPU load redundancy.
    Fig3,
    /// Fig. 7 — simulator correlation vs analytical model.
    Fig7,
    /// Fig. 8 — headline five-configuration comparison.
    Fig8,
    /// Figs. 9–11 — HMG invalidation costs.
    Fig9To11,
    /// Fig. 12 — inter-GPU bandwidth sweep.
    Fig12,
    /// Fig. 13 — L2 capacity sweep.
    Fig13,
    /// Fig. 14 — directory capacity sweep.
    Fig14,
    /// §VII-B — directory granularity sweep (not pictured in the paper).
    Grain,
    /// §VII-C — directory storage cost.
    Cost,
    /// Table III — workload inventory.
    Table3,
    /// §VII-A — single-GPU sanity comparison.
    SingleGpu,
    /// §II-A prior-work comparison — CARVE-like broadcast coherence.
    Carve,
    /// §VII-D scaling discussion — 2/4/8-GPU systems.
    ScaleStudy,
    /// Per-workload traffic/locality drill-down under every protocol.
    Characterize,
    /// DESIGN.md ablation — release-fence cost.
    AblateFence,
    /// DESIGN.md ablation — page placement.
    AblatePlacement,
    /// §IV-B ablation — write-back vs write-through L2s.
    AblateWriteback,
    /// §IV-B ablation — sharer downgrade messages.
    AblateDowngrade,
    /// Run every experiment in paper order.
    All,
    /// Bounded litmus enumeration vs the axiomatic memory-model oracle
    /// (crates/check; see docs/CHECKING.md).
    Check,
    /// Hot-path benchmark harness writing `BENCH_hotpath.json`
    /// (DESIGN.md §13).
    Bench,
}

impl Command {
    /// Parses a command name.
    pub fn from_name(s: &str) -> Option<Command> {
        Some(match s {
            "fig2" => Command::Fig2,
            "fig3" => Command::Fig3,
            "fig7" => Command::Fig7,
            "fig8" => Command::Fig8,
            "fig9" | "fig10" | "fig11" | "fig9-11" => Command::Fig9To11,
            "fig12" => Command::Fig12,
            "fig13" => Command::Fig13,
            "fig14" => Command::Fig14,
            "grain" => Command::Grain,
            "cost" => Command::Cost,
            "table3" => Command::Table3,
            "single-gpu" => Command::SingleGpu,
            "carve" => Command::Carve,
            "scale-study" => Command::ScaleStudy,
            "characterize" => Command::Characterize,
            "ablate-fence" => Command::AblateFence,
            "ablate-placement" => Command::AblatePlacement,
            "ablate-writeback" => Command::AblateWriteback,
            "ablate-downgrade" => Command::AblateDowngrade,
            "all" => Command::All,
            "check" => Command::Check,
            "bench" => Command::Bench,
            _ => return None,
        })
    }

    /// Every individual experiment's command name, in paper order
    /// (used by `all`).
    pub const PAPER_ORDER: [&'static str; 15] = [
        "table3",
        "fig2",
        "fig3",
        "fig7",
        "fig8",
        "fig9-11",
        "fig12",
        "fig13",
        "fig14",
        "grain",
        "cost",
        "ablate-fence",
        "ablate-placement",
        "ablate-writeback",
        "ablate-downgrade",
    ];
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// The experiment to run.
    pub command: Command,
    /// Options passed through to the drivers.
    pub options: ExpOptions,
    /// When set, also write the figures as SVG files into this directory.
    pub svg_dir: Option<String>,
    /// Engine-run budget for the `check` sweep.
    pub budget: u64,
    /// Spec variant selector: picks the protocol and arbitration
    /// discipline for `check`.
    pub protocol: Option<SpecVariant>,
    /// Run the reduced `bench` matrix (CI smoke mode).
    pub bench_quick: bool,
    /// Output path for `BENCH_hotpath.json` (defaults to the CWD).
    pub bench_out: String,
    /// Baseline `BENCH_hotpath.json` the `bench` command gates against.
    pub bench_baseline: Option<String>,
}

/// Usage text.
pub const USAGE: &str = "usage: experiments <command> [--scale tiny|small|full] [--seed N] [--workloads a,b,c] [--svg DIR] [--faults SPEC] [--keep-going] [--checkpoint FILE] [--resume] [--livelock-budget N] [--jobs N] [--cell-timeout SECS] [--retries N] [--isolation process|thread] [--snapshot-dir DIR] [--snapshot-interval N] [--budget N] [--protocol VARIANT] [--quick] [--out FILE] [--baseline FILE]

commands:
  table3 fig2 fig3 fig7 fig8 fig9-11 fig12 fig13 fig14
  grain cost single-gpu carve scale-study characterize all
  ablate-fence ablate-placement ablate-writeback ablate-downgrade
  check bench

benchmarking (DESIGN.md \u{a7}13 `Performance`):
  bench           time the Fig. 8 cells single-threaded, in-process,
                  and write schema-versioned BENCH_hotpath.json
                  (events/sec, cycles/sec, wall time, peak RSS, and the
                  state digest per protocol config)
  --quick         reduced matrix for CI smoke runs
  --out FILE      where to write BENCH_hotpath.json (default: CWD)
  --baseline FILE compare total events/sec against a prior
                  BENCH_hotpath.json; exit nonzero on a >20% regression

coherence checking (docs/CHECKING.md):
  check           sweep the bounded litmus space against the axiomatic
                  memory-model oracle; nonzero exit on any violation
  --budget N      engine-run budget for the sweep (default 2000)
  --seed N        perturbation-sweep seed (reproduces a failure exactly)
  --faults skip-hier-fwd   self-test: inject the hierarchical-forward
                  protocol bug; the sweep is then expected to FAIL
  --faults link-down=A-B@CYCLE   stamp a mid-litmus permanent link loss
                  onto every perturbation plan: outcomes must stay
                  within the oracle's allowed set while traffic detours
  --faults flip-msg=P,flip-line=P,flip-dir=P   stamp soft-error
                  injection onto every perturbation plan; any silently
                  consumed flip fails the sweep as INTEGRITY
  --protocol VARIANT   run the sweep under a specific spec variant; the
                  -phase variants enable threshold-0 flow control with
                  phase-priority arbitration, so every HomeBusy guarded
                  row is exercised against the oracle

fault injection (DESIGN.md `Robustness & fault injection`):
  --faults SPEC   comma-separated clauses, e.g.
                  degrade=FROM..UNTIL/FACTOR  stall=FROM..UNTIL/EXTRA
                  delay=PROB/EXTRA  dup=PROB  drop=PROB  flag-delay=EXTRA
                  drop-store=N  reorder-inv=NTH/EXTRA  seed=N

data integrity (DESIGN.md \u{a7}12 `Data integrity`):
  --faults flip-msg=PROB   corrupt an in-flight message per hop with
                  PROB; checksums detect and charge a retransmission
  --faults flip-line=PROB  per scrub period, flip a resident L2 line
                  per GPM with PROB; ECC corrects or invalidates
                  (clean lines refetch, dirty lines poison + CTA abort)
  --faults flip-dir=PROB   per scrub period, corrupt a directory entry
                  per GPM with PROB; SEC-DED corrects or rebuilds the
                  entry in conservative sticky-broadcast mode
                  sweeps print `[integrity] ...` lines with the
                  IntegrityStats counters; silent_corruptions stays 0
                  whenever checksums and ECC are enabled

fail-in-place (DESIGN.md \u{a7}9 `Fail-in-place & reconfiguration`):
  --faults link-down=A-B@CYCLE    kill the first-tier link between GPMs
                  A and B (global indices, same GPU) at CYCLE; traffic
                  detours over the second-tier switch path
  --faults gpm-offline=G.M@CYCLE  take GPM M of GPU G permanently
                  offline at CYCLE: its CTAs abort, its pages re-home
                  onto survivors in degraded no-peer-caching mode
  --faults gpu-offline=G@CYCLE    take every GPM of GPU G offline
                  sweeps print per-epoch `[fail-in-place] ...` lines
                  with the ReconfigStats counters
  --keep-going    isolate per-workload failures and print a partial
                  report with a failure table instead of aborting

sweep supervisor (DESIGN.md \u{a7}11 `Supervised sweeps`):
  --jobs N             worker slots for sweep cells (default: one per
                       core, capped at the cell count)
  --cell-timeout SECS  wall-clock budget per cell attempt; an overdue
                       child is killed and reported as `timeout`
  --retries N          re-run a crashed/timed-out cell up to N times
                       with exponential backoff before quarantining it
                       (default 2; typed simulation errors never retry)
  --isolation MODE     process (default): each cell re-execs the binary
                       via the hidden __run-cell mode so a crash or
                       hang cannot take the sweep down; thread: run
                       cells in-process (faster startup, panic-safe
                       only — a hung cell cannot be killed)

preemptible cells (DESIGN.md \u{a7}14 `Preemptible cells`):
  --snapshot-dir DIR   per-cell crash-consistent snapshot stores: each
                       cell periodically captures its complete live
                       simulation state, and a crashed/killed/timed-out
                       cell's retry resumes mid-run from the latest
                       valid snapshot instead of re-simulating from
                       cycle zero (bit-identical results either way)
  --snapshot-interval N  cycles between periodic captures (default
                       100000; 0 = resume-only)

recovery (DESIGN.md \u{a7}7 `Recovery & degradation`):
  --checkpoint FILE    append per-cell sweep results to FILE as they
                       finish, so an interrupted sweep can be resumed
  --resume             with --checkpoint: reuse completed cells from
                       FILE and re-run only failed or missing ones
  --livelock-budget N  override the auto-scaled deadlock-watchdog
                       budget with N cycles (0 disarms the watchdog)";

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a usage message on unknown commands, flags, or values.
pub fn parse_args(args: &[String]) -> Result<ParsedArgs, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| USAGE.to_string())?;
    let command =
        Command::from_name(cmd).ok_or_else(|| format!("unknown command `{cmd}`\n{USAGE}"))?;
    // Library callers default to thread isolation (their process is not
    // the `experiments` binary, so re-exec would be wrong); the CLI *is*
    // that binary, so it defaults to full process isolation.
    let mut options = ExpOptions {
        isolation: Isolation::Process,
        ..ExpOptions::default()
    };
    let mut svg_dir = None;
    let mut budget = 2000u64;
    let mut protocol = None;
    let mut bench_quick = false;
    let mut bench_out = String::from("BENCH_hotpath.json");
    let mut bench_baseline = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--svg" => svg_dir = Some(it.next().ok_or("--svg needs a directory")?.clone()),
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                options.scale =
                    Scale::from_name(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--workloads" => {
                let v = it.next().ok_or("--workloads needs a value")?;
                options.filter = Some(v.split(',').map(str::to_string).collect());
            }
            "--faults" => {
                let v = it.next().ok_or("--faults needs a fault spec")?;
                options.faults =
                    Some(FaultPlan::parse(v).map_err(|e| format!("bad --faults spec: {e}"))?);
            }
            "--keep-going" => options.keep_going = true,
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a file path")?;
                options.checkpoint = Some(std::path::PathBuf::from(v));
            }
            "--resume" => options.resume = true,
            "--livelock-budget" => {
                let v = it.next().ok_or("--livelock-budget needs a cycle count")?;
                options.livelock_budget =
                    Some(v.parse().map_err(|e| format!("bad livelock budget: {e}"))?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a worker count")?;
                options.jobs = v.parse().map_err(|e| format!("bad job count: {e}"))?;
            }
            "--cell-timeout" => {
                let v = it.next().ok_or("--cell-timeout needs a seconds value")?;
                options.cell_timeout_secs =
                    Some(v.parse().map_err(|e| format!("bad cell timeout: {e}"))?);
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a retry count")?;
                options.retries = v.parse().map_err(|e| format!("bad retry count: {e}"))?;
            }
            "--isolation" => {
                let v = it.next().ok_or("--isolation needs process|thread")?;
                options.isolation = Isolation::parse(v)
                    .ok_or_else(|| format!("unknown isolation mode `{v}` (process|thread)"))?;
            }
            "--snapshot-dir" => {
                let v = it.next().ok_or("--snapshot-dir needs a directory")?;
                options.snapshot_dir = Some(std::path::PathBuf::from(v));
            }
            "--snapshot-interval" => {
                let v = it.next().ok_or("--snapshot-interval needs a cycle count")?;
                options.snapshot_interval = v
                    .parse()
                    .map_err(|e| format!("bad snapshot interval: {e}"))?;
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs an engine-run count")?;
                budget = v.parse().map_err(|e| format!("bad budget: {e}"))?;
            }
            "--protocol" => {
                let v = it.next().ok_or("--protocol needs a spec variant")?;
                protocol = Some(SpecVariant::from_name(v).ok_or_else(|| {
                    format!(
                        "unknown spec variant `{v}` (expected one of: {})",
                        SpecVariant::ALL
                            .iter()
                            .map(|x| x.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?);
            }
            "--quick" => bench_quick = true,
            "--out" => bench_out = it.next().ok_or("--out needs a file path")?.clone(),
            "--baseline" => {
                bench_baseline = Some(it.next().ok_or("--baseline needs a file path")?.clone())
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if options.resume && options.checkpoint.is_none() {
        return Err("--resume requires --checkpoint FILE".into());
    }
    Ok(ParsedArgs {
        command,
        options,
        svg_dir,
        budget,
        protocol,
        bench_quick,
        bench_out,
        bench_baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse_args(&s(&["fig8", "--scale", "tiny", "--seed", "7"])).unwrap();
        assert_eq!(p.command, Command::Fig8);
        assert_eq!(p.options.scale, Scale::Tiny);
        assert_eq!(p.options.seed, 7);
        assert!(p.options.filter.is_none());
    }

    #[test]
    fn parses_svg_dir() {
        let p = parse_args(&s(&["fig8", "--svg", "out"])).unwrap();
        assert_eq!(p.svg_dir.as_deref(), Some("out"));
        assert!(parse_args(&s(&["fig8"])).unwrap().svg_dir.is_none());
    }

    #[test]
    fn parses_workload_filter() {
        let p = parse_args(&s(&["fig3", "--workloads", "bfs,mst"])).unwrap();
        assert_eq!(p.options.filter, Some(vec!["bfs".into(), "mst".into()]));
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse_args(&s(&["nope"])).is_err());
        assert!(parse_args(&s(&["fig8", "--bogus"])).is_err());
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["fig8", "--scale", "huge"])).is_err());
    }

    #[test]
    fn parses_fault_plan_and_keep_going() {
        let p = parse_args(&s(&[
            "fig8",
            "--faults",
            "delay=0.5/100,drop-store=3,seed=9",
            "--keep-going",
        ]))
        .unwrap();
        assert!(p.options.keep_going);
        let plan = p.options.faults.expect("plan parsed");
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.drop_store, Some(3));
        assert_eq!(plan.delay.map(|d| d.extra), Some(100));
    }

    #[test]
    fn rejects_malformed_fault_spec() {
        let err = parse_args(&s(&["fig8", "--faults", "delay=2.0/5"])).unwrap_err();
        assert!(err.contains("bad --faults spec"), "{err}");
        assert!(parse_args(&s(&["fig8", "--faults"])).is_err());
    }

    #[test]
    fn parses_checkpoint_resume_and_budget() {
        let p = parse_args(&s(&[
            "fig8",
            "--checkpoint",
            "sweep.ckpt",
            "--resume",
            "--livelock-budget",
            "250000",
        ]))
        .unwrap();
        assert_eq!(
            p.options.checkpoint.as_deref(),
            Some(std::path::Path::new("sweep.ckpt"))
        );
        assert!(p.options.resume);
        assert_eq!(p.options.livelock_budget, Some(250_000));
        let q = parse_args(&s(&["fig8", "--livelock-budget", "0"])).unwrap();
        assert_eq!(q.options.livelock_budget, Some(0), "0 disarms the watchdog");
        assert!(q.options.checkpoint.is_none());
        assert!(!q.options.resume);
    }

    #[test]
    fn resume_requires_a_checkpoint_file() {
        let err = parse_args(&s(&["fig8", "--resume"])).unwrap_err();
        assert!(err.contains("--resume requires"), "{err}");
        assert!(parse_args(&s(&["fig8", "--checkpoint"])).is_err());
        assert!(parse_args(&s(&["fig8", "--livelock-budget", "lots"])).is_err());
    }

    #[test]
    fn parses_supervisor_flags() {
        let p = parse_args(&s(&[
            "fig8",
            "--jobs",
            "4",
            "--cell-timeout",
            "30",
            "--retries",
            "1",
            "--isolation",
            "thread",
        ]))
        .unwrap();
        assert_eq!(p.options.jobs, 4);
        assert_eq!(p.options.cell_timeout_secs, Some(30));
        assert_eq!(p.options.retries, 1);
        assert_eq!(p.options.isolation, Isolation::Thread);
        let q = parse_args(&s(&["fig8"])).unwrap();
        assert_eq!(q.options.jobs, 0, "0 = one worker per core");
        assert_eq!(q.options.cell_timeout_secs, None);
        assert_eq!(
            q.options.isolation,
            Isolation::Process,
            "the CLI defaults to full process isolation"
        );
        assert!(parse_args(&s(&["fig8", "--jobs", "many"])).is_err());
        assert!(parse_args(&s(&["fig8", "--cell-timeout"])).is_err());
        assert!(parse_args(&s(&["fig8", "--isolation", "vm"])).is_err());
    }

    #[test]
    fn parses_snapshot_flags() {
        let p = parse_args(&s(&[
            "fig8",
            "--snapshot-dir",
            "/tmp/snaps",
            "--snapshot-interval",
            "1234",
        ]))
        .unwrap();
        assert_eq!(
            p.options.snapshot_dir.as_deref(),
            Some(std::path::Path::new("/tmp/snaps"))
        );
        assert_eq!(p.options.snapshot_interval, 1234);
        let q = parse_args(&s(&["fig8"])).unwrap();
        assert_eq!(q.options.snapshot_dir, None, "snapshots are opt-in");
        assert_eq!(
            q.options.snapshot_interval,
            hmg::experiments::DEFAULT_SNAPSHOT_INTERVAL
        );
        assert!(parse_args(&s(&["fig8", "--snapshot-dir"])).is_err());
        assert!(parse_args(&s(&["fig8", "--snapshot-interval", "often"])).is_err());
    }

    #[test]
    fn all_command_names_round_trip() {
        for name in [
            "fig2",
            "fig3",
            "fig7",
            "fig8",
            "fig9-11",
            "fig12",
            "fig13",
            "fig14",
            "grain",
            "cost",
            "table3",
            "single-gpu",
            "ablate-fence",
            "ablate-placement",
            "ablate-writeback",
            "ablate-downgrade",
            "all",
            "check",
            "bench",
        ]
        .into_iter()
        .chain(Command::PAPER_ORDER)
        {
            assert!(Command::from_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn parses_bench_flags() {
        let p = parse_args(&s(&[
            "bench",
            "--quick",
            "--out",
            "/tmp/b.json",
            "--baseline",
            "ci/bench_baseline.json",
        ]))
        .unwrap();
        assert_eq!(p.command, Command::Bench);
        assert!(p.bench_quick);
        assert_eq!(p.bench_out, "/tmp/b.json");
        assert_eq!(p.bench_baseline.as_deref(), Some("ci/bench_baseline.json"));
        let q = parse_args(&s(&["bench"])).unwrap();
        assert!(!q.bench_quick);
        assert_eq!(q.bench_out, "BENCH_hotpath.json");
        assert!(q.bench_baseline.is_none());
        assert!(parse_args(&s(&["bench", "--out"])).is_err());
        assert!(parse_args(&s(&["bench", "--baseline"])).is_err());
    }

    #[test]
    fn parses_check_budget() {
        let p = parse_args(&s(&["check", "--budget", "500", "--seed", "3"])).unwrap();
        assert_eq!(p.command, Command::Check);
        assert_eq!(p.budget, 500);
        assert_eq!(p.options.seed, 3);
        assert_eq!(parse_args(&s(&["check"])).unwrap().budget, 2000);
        assert!(parse_args(&s(&["check", "--budget", "many"])).is_err());
        assert!(parse_args(&s(&["check", "--budget"])).is_err());
    }

    #[test]
    fn every_spec_variant_name_round_trips_through_the_flag() {
        for v in SpecVariant::ALL {
            let p = parse_args(&s(&["check", "--protocol", v.name()])).unwrap();
            assert_eq!(p.protocol, Some(v), "{}", v.name());
        }
        let err = parse_args(&s(&["check", "--protocol", "mesi"])).unwrap_err();
        assert!(err.contains("unknown spec variant"), "{err}");
        assert!(err.contains("nhcc-phase"), "the error lists names: {err}");
        assert!(parse_args(&s(&["check", "--protocol"])).is_err());
    }

    #[test]
    fn check_accepts_a_protocol_variant() {
        let p = parse_args(&s(&["check", "--protocol", "nhcc-phase", "--budget", "40"])).unwrap();
        assert_eq!(p.protocol, Some(SpecVariant::NhccPhase));
        assert_eq!(p.budget, 40);
    }

    #[test]
    fn check_accepts_the_bug_injection_fault() {
        let p = parse_args(&s(&["check", "--faults", "skip-hier-fwd"])).unwrap();
        assert!(p.options.faults.expect("parsed").skip_hier_inv_forward);
    }
}
