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
use hmg::prelude::ProtocolKind;
use hmg::protocol::Arbitration;
use hmg::supervisor::BenchTally;
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

/// Runs one registry figure: prints its tables and writes its charts.
/// A sweep's hard failure is reported on stderr and returns `None`.
fn run_figure(f: &exp::Figure, opts: &exp::ExpOptions, svg: &Option<String>) -> Option<BenchTally> {
    let report = f.run(opts).map_err(|e| eprintln!("[sweep failed] {e}"));
    let report = report.ok()?;
    report.print();
    for (name, doc) in f.svgs(&report) {
        save_svg(svg, &name, &doc);
    }
    Some(report.tally)
}

/// Runs one command; `false` means the command itself failed (a sweep
/// stopped on a hard failure, reported to stderr, or `check` found a
/// memory-model violation).
fn run(cmd: Command, p: &ParsedArgs) -> bool {
    let (opts, svg, budget) = (&p.options, &p.svg_dir, p.budget);
    match cmd {
        Command::Figure(f) => run_figure(f, opts, svg).is_some(),
        Command::All => {
            // Perf trajectory (ROADMAP item 1): sum the tallies of every
            // supervised sweep of the full paper run and leave a
            // machine-readable baseline next to the figures.
            // audit:allow(entropy): wall-clock benchmarking only; never
            // feeds simulated state.
            let t0 = std::time::Instant::now();
            // Each command is one sweep, so each gets its own checkpoint
            // file `F.<command>` and `--resume` applies to every one.
            let mut ok = true;
            let mut tally = BenchTally::default();
            for f in exp::FIGURES.iter().filter(|f| f.in_all) {
                let checkpoint = opts.checkpoint.as_ref().map(|file| {
                    let mut path = file.clone().into_os_string();
                    path.push(format!(".{}", f.name));
                    std::path::PathBuf::from(path)
                });
                let sub = exp::ExpOptions {
                    checkpoint,
                    ..opts.clone()
                };
                match run_figure(f, &sub, svg) {
                    Some(t) => tally += t,
                    None => ok = false,
                }
            }
            if !ok {
                // The failed figures never returned their sweeps' tallies.
                eprintln!(
                    "[kept BENCH_sweep.json] a figure stopped on a hard failure, so this \
                     run's tally is partial"
                );
                return false;
            }
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
            true
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
            report.passed()
        }
        Command::Bench => {
            let report = match hmg::bench::run_bench(opts, p.bench_quick) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bench failed: {e}");
                    return false;
                }
            };
            report.print();
            match std::fs::write(&p.bench_out, report.to_json()) {
                Ok(()) => println!("wrote {}", p.bench_out),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", p.bench_out);
                    return false;
                }
            }
            if let Some(base) = &p.bench_baseline {
                match hmg::bench::regression_gate(&report, std::path::Path::new(base)) {
                    Ok(msg) => println!("{msg}"),
                    Err(msg) => {
                        eprintln!("{msg}");
                        return false;
                    }
                }
            }
            true
        }
    }
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
