//! End-to-end and per-layer benchmark of the sqlweave product line.
//!
//! ```text
//! plbench --workload build|lineage|edit|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process (`all` starts one per workload) and
//! prints a human-readable report followed by one JSON result line. See
//! README.md for the workloads, the metrics and what each layer should move.

mod gen;
mod host;
mod report;
mod rng;
mod trace;
mod workload;

use report::{environment, median, peak_rss_mib, result_json, row, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workload::{Config, Outcome};

const WORKLOADS: [&str; 3] = ["build", "lineage", "edit"];
const USAGE: &str =
    "usage: plbench --workload build|lineage|edit|all --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        cfg: Config {
            seed,
            seconds,
            trace,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args.cfg);
    }
    let mut tracer = trace::Tracer::new(args.cfg.trace);
    let outcome = match args.workload.as_str() {
        "build" => workload::build::run(&args.cfg, &mut tracer),
        "lineage" => workload::lineage::run(&args.cfg, &mut tracer),
        _ => workload::edit::run(&args.cfg, &mut tracer),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let rss = peak_rss_mib();
    print_report(&args, &outcome, rss);
    if args.cfg.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.cfg.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    let correct = outcome.failed == 0;
    let line = if args.cfg.trace {
        result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            &PER_LAYER,
            &outcome.layers,
        )
    } else {
        result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            &END_TO_END,
            &end_to_end(&outcome, rss, true),
        )
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// End-to-end metrics of the last (untraced) phase, with times taken at
/// the nominal host speed when `scaled` (see `host`).
fn end_to_end(o: &Outcome, rss: f64, scaled: bool) -> BTreeMap<&'static str, f64> {
    let w = o.phases.last().expect("at least one phase");
    let setup: Vec<f64> = o
        .setup
        .iter()
        .map(|&(s, k)| if scaled { s * k } else { s })
        .collect();
    BTreeMap::from([
        ("setup_s", median(&setup)),
        ("goodput", w.goodput(scaled)),
        ("latency_p50_ms", w.latency(50.0, scaled)),
        ("latency_p99_ms", w.latency(99.0, scaled)),
        ("peak_rss_mib", rss),
    ])
}

fn print_report(args: &Args, o: &Outcome, rss: f64) {
    let cfg = &args.cfg;
    println!(
        "plbench workload={} seed={} seconds={} trace={}",
        args.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("{}", environment(cfg.seed, o.simd));
    let w = o.phases.last().expect("at least one phase");
    let scales = w.scales();
    println!(
        "untraced phase: {:.3} busy s in {} slices, {} ops; host scale median {:.3}, range {:.3}-{:.3}",
        w.busy,
        w.slices(),
        w.samples(),
        median(&scales),
        scales.iter().copied().fold(f64::INFINITY, f64::min),
        scales.iter().copied().fold(0.0, f64::max)
    );
    let setup: Vec<String> = o
        .setup
        .iter()
        .map(|(s, k)| format!("{s:.6}x{k:.3}"))
        .collect();
    println!(
        "set-up repetitions (raw s x host scale): {}",
        setup.join(" ")
    );
    println!("end-to-end (at the nominal host speed; raw in the last column):");
    let units: BTreeMap<&str, &str> = END_TO_END.into_iter().collect();
    let raw = end_to_end(o, rss, false);
    for (name, value) in end_to_end(o, rss, true) {
        println!("{} {:>16.6}", row(name, value, units[name]), raw[name]);
    }
    println!("ops: attempted {} failed {}", o.attempted, o.failed);
    for line in &o.lines {
        println!("{line}");
    }
    if cfg.trace {
        println!("per-layer:");
        for (name, unit) in PER_LAYER {
            println!(
                "{}",
                row(name, o.layers.get(name).copied().unwrap_or(0.0), unit)
            );
        }
    }
}

/// Run every workload, each in a process of its own, and summarize.
fn run_all(cfg: &Config) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut summary = Vec::new();
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w, "--seed", &cfg.seed.to_string()])
            .args([
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                if cfg.trace { "1" } else { "0" },
            ])
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                eprintln!("{w} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        print!("{text}");
        let last = text.lines().last().unwrap_or_default();
        correct &= last.contains("\"correct\": true");
        attempted += field(last, "\"attempted\": ").unwrap_or(0.0) as u64;
        failed += field(last, "\"failed\": ").unwrap_or(0.0) as u64;
        for (name, unit) in names {
            let v = field(last, &format!("\"{name}\": {{\"value\": ")).unwrap_or(f64::NAN);
            summary.push((format!("{w}/{name}"), v, *unit));
        }
    }
    println!(
        "summary (seed {}, {} s per workload):",
        cfg.seed, cfg.seconds
    );
    for (name, v, unit) in &summary {
        println!("{}", row(name, *v, unit));
    }
    println!("ops: attempted {attempted} failed {failed}");
    let metrics: Vec<String> = summary
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// The number following `key` in a result line this program printed.
fn field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
