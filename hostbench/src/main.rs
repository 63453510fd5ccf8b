//! Host-clock benchmark of the Jigsaw workspace.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <kernel_sweep|model_forward|serve_zipf|serve_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same workload with `jigsaw_obs` tracing on and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `hostbench/README.md` for the workloads and the metric map.

mod forward;
mod kernel;
mod metrics;
mod probe;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{render, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 7919;
/// Environment knobs that change what the library executes; cleared so
/// every run measures the defaults.
const CLEARED_ENV: [&str; 4] = [
    "JIGSAW_KERNEL",
    "JIGSAW_TUNE",
    "JIGSAW_SIM_CACHES",
    "JIGSAW_CHAOS_SEED",
];

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fresh, empty directory for this run's registry artifacts.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// A seed for one input stream, derived from the run seed so
    /// distinct streams never share random numbers.
    pub fn seed_for(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Cleared before any library call reads them; the benchmark is
    // still single-threaded here.
    for var in CLEARED_ENV {
        let was = std::env::var(var).unwrap_or_else(|_| "<unset>".to_string());
        std::env::remove_var(var);
        println!("# env {var}={was} (cleared)");
    }
    println!(
        "# workload={} seed={} seconds={} trace={} default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let why = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .map_or("", |w| w.why);
    println!("# {}: {why}", args.workload);

    let run_dir = PathBuf::from(".bench_build")
        .join("hostbench-runs")
        .join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("hostbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        run_dir: run_dir.clone(),
    };
    let outcome: Outcome = match args.workload.as_str() {
        "kernel_sweep" => kernel::run(&ctx),
        "model_forward" => forward::run(&ctx),
        "serve_zipf" => serve::run(&ctx, &serve::ZIPF),
        "serve_churn" => serve::run(&ctx, &serve::CHURN),
        _ => unreachable!("validated in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&run_dir);

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        let v = outcome.report.get(d.name).unwrap_or(0.0);
        println!(
            "# {:<28} {v:>16.4} {:<8} ({} is better)",
            d.name, d.unit, d.better
        );
    }
    println!(
        "# correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    println!("{}", render(&outcome, defs));
    ExitCode::SUCCESS
}
