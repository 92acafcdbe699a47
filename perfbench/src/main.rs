//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the HMG simulator benchmark from the root of the
//! repository and prints every metric by name with its unit, then, as the
//! last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. Snapshots, spans and layer summaries go to
//! `perfbench/out/`.

use std::process::ExitCode;

use hmg::workloads::Scale;
use hmg_perfbench::workload::Workload;
use hmg_perfbench::{run, Options};

const USAGE: &str = "usage: perfbench --workload rnn-dense|graph-bfs|solver-sync|resilient-bfs \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Small,
        out_dir: "perfbench/out".into(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for m in &report.metrics {
                println!("{:<40} {:>18} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
