//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments fig8 --scale small
//! experiments all --scale small --jobs 8
//! experiments fig12 --workloads bfs,lstm --scale tiny
//! ```
//!
//! The binary doubles as its own sweep worker: the hidden
//! `__run-cell` mode (spawned by the supervisor under
//! `--isolation process`) executes exactly one sweep cell and reports
//! the outcome on stdout.

use std::process::ExitCode;

use hmg::experiments as exp;
use hmg::prelude::{ProtocolKind, SimError};
use hmg::protocol::Arbitration;
use hmg_bench::{parse_args, Command, ParsedArgs};

/// Writes `svg` into `dir/name.svg` when SVG output was requested.
fn save_svg(dir: &Option<String>, name: &str, svg: &str) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        return;
    }
    let path = format!("{dir}/{name}.svg");
    match std::fs::write(&path, svg) {
        Ok(()) => eprintln!("[wrote {path}]"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Runs one command; `false` means the command itself failed (a sweep
/// stopped on a hard failure, reported to stderr, or `check` found a
/// memory-model violation).
fn run(cmd: Command, p: &ParsedArgs) -> bool {
    run_command(cmd, p).unwrap_or_else(|e| {
        eprintln!("[sweep failed] {e}");
        false
    })
}

/// [`run`] with a sweep's hard failure as `Err`.
fn run_command(cmd: Command, p: &ParsedArgs) -> Result<bool, SimError> {
    let (opts, svg, budget) = (&p.options, &p.svg_dir, p.budget);
    match cmd {
        Command::Table3 => exp::print_table3(opts)?,
        Command::Fig2 => {
            let r = exp::fig2(opts)?;
            r.print("Fig. 2: motivating multi-GPU comparison");
            save_svg(
                svg,
                "fig2",
                &r.to_svg("Fig. 2: motivating multi-GPU comparison"),
            );
        }
        Command::Fig3 => {
            let r = exp::fig3(opts)?;
            r.print();
            save_svg(svg, "fig3", &r.to_svg());
        }
        Command::Fig7 => {
            let r = exp::fig7(opts)?;
            r.print();
            save_svg(svg, "fig7", &r.to_svg());
        }
        Command::Fig8 => {
            let r = exp::fig8(opts)?;
            r.print("Fig. 8: 4-GPU x 4-GPM, five coherence configurations");
            match exp::headline(&r) {
                Some(h) => println!(
                    "headline: HMG vs SW-nonhier {:+.0}%, vs SW-hier {:+.0}%, vs NHCC {:+.0}%, \
                     {:.0}% of ideal",
                    h.vs_sw_nonhier * 100.0,
                    h.vs_sw_hier * 100.0,
                    h.vs_nhcc * 100.0,
                    h.of_ideal * 100.0
                ),
                None => println!("headline: n/a (no workload completed)"),
            }
            println!("paper:    HMG vs SW-coherence +26%, vs NHCC +18%, 97% of ideal\n");
            save_svg(
                svg,
                "fig8",
                &r.to_svg("Fig. 8: five coherence configurations"),
            );
        }
        Command::Fig9To11 => {
            let r = exp::fig9_10_11(opts)?;
            r.print();
            let [f9, f10, f11] = r.to_svgs();
            save_svg(svg, "fig9", &f9);
            save_svg(svg, "fig10", &f10);
            save_svg(svg, "fig11", &f11);
        }
        Command::Fig12 => {
            let r = exp::fig12(opts)?;
            r.print("Fig. 12: inter-GPU bandwidth sensitivity");
            save_svg(
                svg,
                "fig12",
                &r.to_svg("Fig. 12: inter-GPU bandwidth sensitivity"),
            );
        }
        Command::Fig13 => {
            let r = exp::fig13(opts)?;
            r.print("Fig. 13: L2 capacity sensitivity");
            save_svg(svg, "fig13", &r.to_svg("Fig. 13: L2 capacity sensitivity"));
        }
        Command::Fig14 => {
            let r = exp::fig14(opts)?;
            r.print("Fig. 14: directory capacity sensitivity");
            save_svg(
                svg,
                "fig14",
                &r.to_svg("Fig. 14: directory capacity sensitivity"),
            );
        }
        Command::Grain => {
            let r = exp::grain_sweep(opts)?;
            r.print("§VII-B: directory granularity sweep");
            save_svg(svg, "grain", &r.to_svg("Directory granularity sweep"));
        }
        Command::Cost => exp::print_storage_cost(),
        Command::SingleGpu => {
            let r = exp::single_gpu(opts)?;
            r.print("§VII-A: single-GPU (1x4 GPM) check");
        }
        Command::Carve => {
            let r = exp::carve_comparison(opts)?;
            r.print("Prior work: CARVE-like broadcast coherence vs NHCC/HMG");
            save_svg(
                svg,
                "carve",
                &r.to_svg("CARVE-like broadcast coherence vs NHCC/HMG"),
            );
        }
        Command::Characterize => {
            let list = opts
                .filter
                .clone()
                .unwrap_or_else(|| vec!["bfs".into(), "RNN_FW".into()]);
            for c in exp::characterize(opts, &list)? {
                c.print();
            }
        }
        Command::ScaleStudy => {
            let r = exp::scale_study(opts)?;
            r.print("§VII-D: scaling to larger systems");
            save_svg(svg, "scale-study", &r.to_svg("Scaling to larger systems"));
        }
        Command::AblateFence => exp::ablate_fences(opts)?.print(),
        Command::AblatePlacement => exp::ablate_placement(opts)?.print(),
        Command::AblateWriteback => exp::ablate_writeback(opts)?.print(),
        Command::AblateDowngrade => exp::ablate_downgrades(opts)?.print(),
        Command::All => {
            // Perf trajectory (ROADMAP item 1): tally every supervised
            // sweep of the full paper run and leave a machine-readable
            // baseline next to the figures.
            hmg::supervisor::take_tally();
            // audit:allow(entropy): wall-clock benchmarking only; never
            // feeds simulated state.
            let t0 = std::time::Instant::now();
            // Each command is one sweep, so each gets its own checkpoint
            // file `F.<command>` and `--resume` applies to every one.
            let mut ok = true;
            for name in Command::PAPER_ORDER {
                let Some(c) = Command::from_name(name) else {
                    continue;
                };
                let checkpoint = opts.checkpoint.as_ref().map(|f| {
                    let mut path = f.clone().into_os_string();
                    path.push(format!(".{name}"));
                    std::path::PathBuf::from(path)
                });
                let sub = ParsedArgs {
                    options: exp::ExpOptions {
                        checkpoint,
                        ..opts.clone()
                    },
                    ..p.clone()
                };
                ok &= run(c, &sub);
            }
            let tally = hmg::supervisor::take_tally();
            let jobs = opts.supervisor_config().resolved_jobs(usize::MAX);
            let wall = t0.elapsed().as_secs_f64();
            let path = std::path::Path::new("BENCH_sweep.json");
            match tally.write_unless_resumed(path, jobs, wall) {
                Ok(Some(json)) => eprintln!("[wrote BENCH_sweep.json] {json}"),
                Ok(None) => eprintln!(
                    "[kept BENCH_sweep.json] {} cells were reused from checkpoints, so this \
                     run's tally is partial",
                    tally.reused
                ),
                Err(e) => eprintln!("cannot write BENCH_sweep.json: {e}"),
            }
            return Ok(ok);
        }
        Command::Check => {
            let cfg = hmg_check::CheckConfig {
                budget,
                seed: opts.seed,
                jobs: opts.jobs,
                protocols: match p.protocol {
                    Some(v) if v.hmg() => vec![ProtocolKind::Hmg],
                    Some(_) => vec![ProtocolKind::Nhcc],
                    None => vec![ProtocolKind::Nhcc, ProtocolKind::Hmg],
                },
                // A `-phase` variant arms threshold-0 flow control so the
                // HomeBusy guarded rows face the oracle; the plain
                // variants keep the default unguarded sweep.
                arbitration: p
                    .protocol
                    .map(|v| v.arbitration())
                    .filter(|&a| a == Arbitration::PhasePriority),
                inject: opts
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.skip_hier_inv_forward),
                link_down: opts
                    .faults
                    .as_ref()
                    .and_then(|f| f.link_down)
                    .map(|l| (l.a, l.b, l.at_cycle)),
                flip_msg: opts
                    .faults
                    .as_ref()
                    .and_then(|f| f.flip_msg)
                    .map(|m| m.prob),
                flip_line: opts
                    .faults
                    .as_ref()
                    .and_then(|f| f.flip_line)
                    .map(|m| m.prob),
                flip_dir: opts
                    .faults
                    .as_ref()
                    .and_then(|f| f.flip_dir)
                    .map(|m| m.prob),
                ..hmg_check::CheckConfig::default()
            };
            let report = hmg_check::run_check(&cfg);
            print!("{report}");
            return Ok(report.passed());
        }
        Command::Bench => {
            let report = match hmg::bench::run_bench(opts, p.bench_quick) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bench failed: {e}");
                    return Ok(false);
                }
            };
            report.print();
            match std::fs::write(&p.bench_out, report.to_json()) {
                Ok(()) => println!("wrote {}", p.bench_out),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", p.bench_out);
                    return Ok(false);
                }
            }
            if let Some(base) = &p.bench_baseline {
                match hmg::bench::regression_gate(&report, std::path::Path::new(base)) {
                    Ok(msg) => println!("{msg}"),
                    Err(msg) => {
                        eprintln!("{msg}");
                        return Ok(false);
                    }
                }
            }
            return Ok(true);
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden supervisor worker mode: run exactly one sweep cell and
    // exit. Must dispatch before normal parsing — the flag set is
    // private to the supervisor, not part of the CLI surface.
    if args.first().map(String::as_str) == Some("__run-cell") {
        return match u8::try_from(exp::cell_main(&args[1..])) {
            Ok(code) => ExitCode::from(code),
            Err(_) => ExitCode::FAILURE,
        };
    }
    match parse_args(&args) {
        Ok(parsed) => {
            // audit:allow(entropy): wall-clock progress reporting only;
            // never feeds simulated state.
            let t0 = std::time::Instant::now();
            let ok = run(parsed.command, &parsed);
            eprintln!(
                "[experiments completed in {:.1}s]",
                t0.elapsed().as_secs_f64()
            );
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
