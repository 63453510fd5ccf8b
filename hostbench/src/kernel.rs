//! `kernel_sweep`: the compiled SpMM kernel alone, offline and single
//! threaded, under the default `KernelPolicy::Auto`. Nothing outside
//! `jigsaw_core::compiled` runs in the timed window, so a simulator or
//! serving change must leave this workload unchanged.

use std::time::{Duration, Instant};

use dlmc::{dense_rhs, Matrix, ValueDist, VectorSparseSpec};
use jigsaw_core::{
    execute_fast, max_relative_error, panelize_into, CompiledKernel, ExecOptions, JigsawConfig,
    JigsawSpmm, PanelizedB, WorkspacePool,
};

use crate::metrics::{Outcome, Report};
use crate::probe;
use crate::stats::{mean, median, ms, percentile, ratio, repeated_setup, timed};
use crate::Ctx;

/// DLMC transformer shapes `(name, m, k)`; the last one's compiled
/// stream (~13 MB) exceeds the 4 MiB per-core L2.
const SHAPES: [(&str, usize, usize); 4] = [
    ("ffn-contract", 512, 2048),
    ("ffn-expand", 2048, 512),
    ("decoder-large", 2048, 2048),
    ("decoder-xl", 4096, 4096),
];
const WIDTHS: [usize; 3] = [16, 64, 256];
const SPARSITY: f64 = 0.9;
const V: usize = 4;
const BLOCK_TILE_M: usize = 32;
/// `kernel_parity`'s tolerance for the non-bit-exact SIMD variants.
const TOLERANCE: f64 = 1e-4;

/// One `(shape, N)` point of the sweep.
struct Case {
    shape: usize,
    b: Matrix,
    reference: Vec<f32>,
    flops: f64,
}

/// Per-call timings of one measured window.
struct Sweep {
    /// `case_ms[case]`: latency of every call of that case, ms (+inf
    /// when the output failed its check).
    case_ms: Vec<Vec<f64>>,
    flops: f64,
    busy: Duration,
    attempted: u64,
    failed: u64,
}

impl Sweep {
    /// Geometric mean over the sweep's cases of `per_case`, so every
    /// `(shape, N)` point weighs the same whatever its size: one case
    /// running slow in one process (its buffers' alignment, a
    /// neighbour's cache pressure) moves the result by its own share.
    fn geomean(&self, per_case: impl Fn(usize, &[f64]) -> f64) -> f64 {
        let logs: f64 = self
            .case_ms
            .iter()
            .enumerate()
            .map(|(i, l)| per_case(i, l).ln())
            .sum();
        (logs / self.case_ms.len() as f64).exp()
    }
}

/// Runs whole sweeps (every case once, in order) until `seconds` of
/// wall time have passed, checking every output.
fn measure(
    cases: &[Case],
    kernels: &[&CompiledKernel],
    pool: &WorkspacePool,
    seconds: f64,
) -> Sweep {
    let mut sweep = Sweep {
        case_ms: vec![Vec::new(); cases.len()],
        flops: 0.0,
        busy: Duration::ZERO,
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();
    while sweep.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        for (case, latencies) in cases.iter().zip(&mut sweep.case_ms) {
            let (c, took) = timed(|| kernels[case.shape].execute_pooled(&case.b, pool));
            let ok = max_relative_error(&c, &case.reference) <= TOLERANCE;
            drop(c);
            sweep.attempted += 1;
            sweep.busy += took;
            if ok {
                latencies.push(ms(took));
                sweep.flops += case.flops;
            } else {
                sweep.failed += 1;
                latencies.push(f64::INFINITY);
            }
        }
    }
    sweep
}

/// Seconds of panelization and of the prepaneled grid for one case —
/// the two phases of a compiled execution, timed apart.
fn phase_split(kernel: &CompiledKernel, b: &Matrix) -> (f64, f64) {
    let mut scratch = vec![0.0f32; b.rows * b.cols];
    let mut c = vec![0.0f32; kernel.m * b.cols];
    let opts = ExecOptions::default();
    let (mut panelize, mut grid) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (res, took) = timed(|| panelize_into(b, &mut scratch));
        res.expect("scratch sized for B");
        panelize = panelize.min(took.as_secs_f64());
        c.fill(0.0);
        let panels = PanelizedB::new(b.rows, b.cols, &scratch).expect("scratch holds k*n");
        let (res, took) = timed(|| kernel.execute_prepaneled_into_opts(&panels, &mut c, &opts));
        res.expect("C sized for m*n");
        grid = grid.min(took.as_secs_f64());
    }
    (panelize, grid)
}

/// The sweep's seeded operands: one weight matrix per shape and one B
/// per `(shape, N)` case.
fn inputs(ctx: &Ctx) -> (Vec<Matrix>, Vec<(usize, Matrix)>) {
    let weights: Vec<Matrix> = SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(_, m, k))| {
            VectorSparseSpec {
                rows: m,
                cols: k,
                sparsity: SPARSITY,
                v: V,
                dist: ValueDist::Uniform,
                seed: ctx.seed_for(i as u64),
            }
            .generate()
        })
        .collect();
    let inputs: Vec<(usize, Matrix)> = (0..SHAPES.len())
        .flat_map(|s| WIDTHS.iter().map(move |&n| (s, n)))
        .map(|(s, n)| {
            let seed = ctx.seed_for(100 + (s * WIDTHS.len() + n) as u64);
            (s, dense_rhs(SHAPES[s].2, n, ValueDist::Uniform, seed))
        })
        .collect();
    (weights, inputs)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (weights, inputs) = inputs(ctx);

    // Set-up: plan, compile, and one warm-up call per case (fills the
    // workspace pool and faults in the stream).
    let mut plan_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let ((plans, pool), setup_s) = repeated_setup(|| {
        let plans: Vec<JigsawSpmm> = weights
            .iter()
            .map(|a| {
                let (spmm, t) = timed(|| {
                    JigsawSpmm::plan(a, JigsawConfig::v4(BLOCK_TILE_M)).expect("sweep shapes tile")
                });
                plan_ms.push(ms(t));
                let (_, t) = timed(|| spmm.compiled().clone());
                compile_ms.push(ms(t));
                spmm
            })
            .collect();
        let pool = WorkspacePool::new();
        for (s, b) in &inputs {
            drop(plans[*s].compiled().execute_pooled(b, &pool));
        }
        (plans, pool)
    });
    let kernels: Vec<&CompiledKernel> = plans.iter().map(|p| p.compiled().as_ref()).collect();
    let cases: Vec<Case> = inputs
        .into_iter()
        .map(|(shape, b)| Case {
            reference: execute_fast(&plans[shape].format, &b),
            flops: 2.0 * kernels[shape].nnz() as f64 * b.cols as f64,
            shape,
            b,
        })
        .collect();

    let mut report = Report::default();
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = measure(&cases, &kernels, &pool, seconds);
    let (attempted, failed) = (plain.attempted, plain.failed);
    if !ctx.trace {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        // Best of run per case: every call of a case repeats identical
        // work, so its fastest call is its cost with the least
        // interference from other tenants of the host.
        let best = |l: &[f64]| percentile(l, 0.0);
        report.set(
            "kernel_gflops",
            plain.geomean(|i, l| cases[i].flops / (best(l) * 1e6)),
        );
        report.set("op_ms_best", plain.geomean(|_, l| best(l)));
        return Outcome {
            correct: failed == 0,
            attempted,
            failed,
            report,
        };
    }

    jigsaw_obs::set_enabled(true);
    let traced = measure(&cases, &kernels, &pool, seconds);
    jigsaw_obs::set_enabled(false);
    for (name, p) in [
        ("op.ms_p50", 50.0),
        ("op.ms_p90", 90.0),
        ("op.ms_p99", 99.0),
    ] {
        report.set(name, traced.geomean(|_, l| percentile(l, p)));
    }
    report.set("plan.ms", mean(&plan_ms));
    report.set("compile.ms", mean(&compile_ms));
    report.set(
        "core.exec_us",
        traced.busy.as_secs_f64() * 1e6 / traced.attempted as f64,
    );
    report.set(
        "core.gflops",
        traced.flops / traced.busy.as_secs_f64() / 1e9,
    );
    // Computed bytes per call: the compiled stream, B read once as f16,
    // C written once as f32.
    let bytes: f64 = cases
        .iter()
        .map(|c| {
            let k = &kernels[c.shape];
            (k.stream_bytes() + c.b.rows * c.b.cols * 2 + k.m * c.b.cols * 4) as f64
        })
        .sum();
    let flops: f64 = cases.iter().map(|c| c.flops).sum();
    report.set("core.bytes_per_flop", bytes / flops);
    let (panelize, grid) = cases
        .iter()
        .map(|c| phase_split(kernels[c.shape], &c.b))
        .fold((0.0, 0.0), |(p, g), (dp, dg)| (p + dp, g + dg));
    report.set("core.panelize_frac", ratio(panelize, panelize + grid));
    let llc = probe::llc_bytes();
    println!(
        "# triad arrays 3 x {} MiB against a reported LLC of {} MiB: {}",
        probe::TRIAD_ARRAY_BYTES >> 20,
        llc >> 20,
        if probe::triad_reaches_dram(llc) {
            "DRAM bandwidth"
        } else {
            "below 4x LLC, so this is cache bandwidth and no roofline fraction is reported"
        }
    );
    report.set("probe.triad_gbs", probe::triad_gbs());
    report.set("probe.fma_gflops", probe::fma_gflops());
    report.set(
        "obs.overhead_frac",
        ratio(
            traced.geomean(|_, l| median(l)),
            plain.geomean(|_, l| median(l)),
        ) - 1.0,
    );
    Outcome {
        correct: failed + traced.failed == 0,
        attempted: attempted + traced.attempted,
        failed: failed + traced.failed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_operands_are_bit_deterministic_in_the_seed() {
        let ctx = |seed| Ctx {
            seed,
            seconds: 1.0,
            trace: false,
            run_dir: std::path::PathBuf::new(),
        };
        let a = inputs(&ctx(3));
        assert_eq!(a, inputs(&ctx(3)));
        let b = inputs(&ctx(4));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_eq!(a.1.len(), SHAPES.len() * WIDTHS.len());
    }
}
