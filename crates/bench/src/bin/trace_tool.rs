//! Generate, inspect, and dump workload trace files.
//!
//! ```text
//! trace-tool gen bfs --scale small --seed 2020 -o bfs.hmgtrace
//! trace-tool stats bfs.hmgtrace
//! trace-tool dump bfs.hmgtrace --kernel 0 --cta 3 --limit 40
//! trace-tool simulate bfs.hmgtrace --scale small --protocol hmg
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use hmg::experiments::ExpOptions;
use hmg::protocol::tracefile::{read_trace, write_trace};
use hmg::protocol::{AccessKind, Cta, ProtocolKind, Scope, TraceOp, WorkloadTrace};
use hmg::report::Table;
use hmg::runner::run_isolated;
use hmg::workloads::suite::by_abbrev;
use hmg::workloads::Scale;

const USAGE: &str = "usage:
  trace-tool gen <workload> [--scale tiny|small|full] [--seed N] -o <file>
  trace-tool stats <file>
  trace-tool dump <file> [--kernel K] [--cta C] [--limit N]
  trace-tool simulate <file> [--protocol NAME] [--scale tiny|small|full]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("dump") => dump(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn gen(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let workload = it.next().ok_or(USAGE)?;
    let spec = by_abbrev(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let mut scale = Scale::Small;
    let mut seed = 2020u64;
    let mut out: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => scale = parse_scale(it.next())?,
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "-o" | "--out" => out = Some(it.next().ok_or("-o needs a path")?.clone()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let path = out.ok_or("gen requires -o <file>")?;
    let trace = spec.generate(scale, seed);
    let file = File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
    write_trace(BufWriter::new(file), &trace).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "wrote {path}: {} kernels, {} CTAs, {} accesses",
        trace.num_kernels(),
        trace.num_ctas(),
        trace.num_accesses()
    );
    Ok(())
}

fn parse_scale(value: Option<&String>) -> Result<Scale, String> {
    let v = value.ok_or("--scale needs a value")?;
    Scale::from_name(v).ok_or_else(|| format!("unknown scale `{v}`"))
}

fn load(path: &str) -> Result<WorkloadTrace, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_trace(BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))
}

fn stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let trace = load(path)?;

    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut atomics = 0u64;
    let mut delays = 0u64;
    let mut delay_cycles = 0u64;
    let mut acquires = 0u64;
    let mut releases = 0u64;
    let mut flags = 0u64;
    let mut by_scope: HashMap<Scope, u64> = HashMap::new();
    let mut lines = std::collections::HashSet::new();
    let mut line_touches: HashMap<u64, u32> = HashMap::new();

    for k in &trace.kernels {
        for c in &k.ctas {
            for op in &c.ops {
                match op {
                    TraceOp::Access(a) => {
                        match a.kind {
                            AccessKind::Load => loads += 1,
                            AccessKind::Store => stores += 1,
                            AccessKind::Atomic => atomics += 1,
                        }
                        *by_scope.entry(a.scope).or_insert(0) += 1;
                        let line = a.addr.0 / 128;
                        lines.insert(line);
                        *line_touches.entry(line).or_insert(0) += 1;
                    }
                    TraceOp::Delay(d) => {
                        delays += 1;
                        delay_cycles += d as u64;
                    }
                    TraceOp::Acquire(_) => acquires += 1,
                    TraceOp::Release(_) => releases += 1,
                    TraceOp::SetFlag(_) | TraceOp::WaitFlag { .. } => flags += 1,
                }
            }
        }
    }
    let accesses = loads + stores + atomics;
    let reuse = if lines.is_empty() {
        0.0
    } else {
        accesses as f64 / lines.len() as f64
    };
    let max_touch = line_touches.values().copied().max().unwrap_or(0);

    println!("trace: {} ({path})", trace.name);
    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    t.row(vec!["kernels".into(), trace.num_kernels().to_string()]);
    t.row(vec!["CTAs".into(), trace.num_ctas().to_string()]);
    t.row(vec!["loads".into(), loads.to_string()]);
    t.row(vec!["stores".into(), stores.to_string()]);
    t.row(vec!["atomics".into(), atomics.to_string()]);
    for s in Scope::ALL {
        if let Some(&n) = by_scope.get(&s) {
            t.row(vec![format!("accesses at {s}"), n.to_string()]);
        }
    }
    t.row(vec![
        "delay ops / cycles".into(),
        format!("{delays} / {delay_cycles}"),
    ]);
    t.row(vec!["acquires".into(), acquires.to_string()]);
    t.row(vec!["releases".into(), releases.to_string()]);
    t.row(vec!["flag ops".into(), flags.to_string()]);
    t.row(vec!["distinct 128B lines".into(), lines.len().to_string()]);
    t.row(vec![
        "touched footprint".into(),
        format!("{:.1} MB", lines.len() as f64 * 128.0 / 1e6),
    ]);
    t.row(vec!["mean touches per line".into(), format!("{reuse:.1}")]);
    t.row(vec!["hottest line touches".into(), max_touch.to_string()]);
    // What the loaded trace keeps resident: one `u32` word per op, one
    // `TraceOp` per escaped op, and each CTA's list header.
    let ctas = || trace.kernels.iter().flat_map(|k| &k.ctas);
    let packed = ctas().map(|c| c.ops.len()).sum::<usize>() * size_of::<u32>();
    let escaped = ctas().map(|c| c.ops.num_escapes()).sum::<usize>() * size_of::<TraceOp>();
    let headers = trace.num_ctas() * size_of::<Cta>();
    t.row(vec![
        "resident bytes (words + escapes + CTA headers)".into(),
        format!(
            "{} = {packed} + {escaped} + {headers} ({:.1} MB)",
            packed + escaped + headers,
            (packed + escaped + headers) as f64 / 1e6
        ),
    ]);
    println!("{}", t.render());
    Ok(())
}

/// Simulates a trace file on the machine its experiment cell runs: the
/// scale's machine with capacities shrunk by the footprint compression
/// of the Table III workload the trace is named after.
fn simulate(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let path = it.next().ok_or(USAGE)?;
    let mut protocols: Vec<ProtocolKind> = ProtocolKind::ALL.to_vec();
    let mut scale = Scale::Small;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--protocol" => {
                let name = it.next().ok_or("--protocol needs a name")?;
                let p = ProtocolKind::from_name(name)
                    .ok_or_else(|| format!("unknown protocol `{name}`"))?;
                protocols = vec![p];
            }
            "--scale" => scale = parse_scale(it.next())?,
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let trace = load(path)?;
    println!(
        "simulating {} ({} accesses) at {} scale",
        trace.name,
        trace.num_accesses(),
        scale.name()
    );
    let opts = ExpOptions {
        scale,
        ..ExpOptions::default()
    };
    let mut t = Table::new(vec![
        "protocol".into(),
        "cycles".into(),
        "avg kernel".into(),
        "p50 lat".into(),
        "p99 lat".into(),
    ]);
    for p in protocols {
        let (m, _) = opts
            .plain_cell(&trace.name, p)
            .config(&trace)
            .and_then(|cfg| run_isolated(cfg, &trace, None))
            .map_err(|e| format!("{}: {e}", p.name()))?;
        t.row(vec![
            p.name().into(),
            m.total_cycles.as_u64().to_string(),
            format!("{:.0}", m.avg_kernel_cycles()),
            m.miss_latency_percentile(0.5).to_string(),
            m.miss_latency_percentile(0.99).to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn dump(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let path = it.next().ok_or(USAGE)?;
    let mut kernel = 0usize;
    let mut cta = 0usize;
    let mut limit = 50usize;
    while let Some(flag) = it.next() {
        let next = |it: &mut std::slice::Iter<String>| -> Result<usize, String> {
            it.next()
                .ok_or("missing value")?
                .parse()
                .map_err(|e| format!("bad value: {e}"))
        };
        match flag.as_str() {
            "--kernel" => kernel = next(&mut it)?,
            "--cta" => cta = next(&mut it)?,
            "--limit" => limit = next(&mut it)?,
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let trace = load(path)?;
    let k = trace
        .kernels
        .get(kernel)
        .ok_or_else(|| format!("kernel {kernel} out of range ({})", trace.num_kernels()))?;
    let c = k
        .ctas
        .get(cta)
        .ok_or_else(|| format!("cta {cta} out of range ({})", k.num_ctas()))?;
    println!(
        "{}: kernel {kernel}, CTA {cta} — {} ops (showing {})",
        trace.name,
        c.ops.len(),
        limit.min(c.ops.len())
    );
    for (i, op) in c.ops.iter().take(limit).enumerate() {
        let text = match op {
            TraceOp::Access(a) => format!("{a}"),
            TraceOp::Delay(d) => format!("delay {d}"),
            TraceOp::Acquire(s) => format!("acquire{s}"),
            TraceOp::Release(s) => format!("release{s}"),
            TraceOp::SetFlag(f) => format!("set-flag {f}"),
            TraceOp::WaitFlag { flag, count } => format!("wait-flag {flag} >= {count}"),
        };
        println!("{i:6}  {text}");
    }
    Ok(())
}
