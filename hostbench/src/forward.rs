//! `model_forward`: closed-loop `Session::forward` passes through a
//! 4-layer sparse transformer stack — the library path with no queue.
//! Each pass runs the compiled kernel and `gpu_sim` for every layer,
//! so a simulator speedup shows here and a kernel speedup barely does.

use std::time::Instant;

use dlmc::{dense_rhs, Matrix, ValueDist, VectorSparseSpec};
use gpu_sim::GpuSpec;
use jigsaw_core::{JigsawConfig, JigsawSpmm, Session, WorkspacePool};
use sptc::F16;

use crate::metrics::{Outcome, Report};
use crate::stats::{mean, median, ms, percentile, ratio, repeated_setup, report_tail, timed, us};
use crate::Ctx;

/// `(name, rows, cols)`: each layer's input width is the previous
/// layer's output height.
const STACK: [(&str, usize, usize); 4] = [
    ("attention-qkv", 512, 512),
    ("ffn-expand", 2048, 512),
    ("ffn-contract", 512, 2048),
    ("attention-qkv-out", 512, 512),
];
const SPARSITY: f64 = 0.9;
const V: usize = 4;
const N: usize = 64;
const BLOCK_TILE_M: usize = 32;

struct Passes {
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Back-to-back passes for `seconds`; a pass fails its check unless
/// its activations and simulated cycles equal the reference pass.
fn measure(session: &mut Session, x: &Matrix, reference: &(Vec<F16>, f64), seconds: f64) -> Passes {
    let mut p = Passes {
        op_ms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();
    while p.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        let (out, took) = timed(|| session.forward(x));
        let ok = out.is_ok_and(|(y, r)| y.data == reference.0 && r.total_cycles == reference.1);
        p.attempted += 1;
        if ok {
            p.op_ms.push(ms(took));
        } else {
            p.failed += 1;
            p.op_ms.push(f64::INFINITY);
        }
    }
    p
}

/// The stack's seeded weights and the input activations.
fn inputs(ctx: &Ctx) -> (Vec<Matrix>, Matrix) {
    let weights: Vec<Matrix> = STACK
        .iter()
        .enumerate()
        .map(|(i, &(_, rows, cols))| {
            VectorSparseSpec {
                rows,
                cols,
                sparsity: SPARSITY,
                v: V,
                dist: ValueDist::Uniform,
                seed: ctx.seed_for(i as u64),
            }
            .generate()
        })
        .collect();
    let x = dense_rhs(STACK[0].2, N, ValueDist::Uniform, ctx.seed_for(50));
    (weights, x)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (weights, x) = inputs(ctx);
    let spec = GpuSpec::a100();

    // Set-up: plan every layer, then one warm-up pass (compiles the
    // kernels lazily and fills the session's workspace pool). The
    // warm-up pass is the reference every timed pass must repeat.
    let ((mut session, reference), setup_s) = repeated_setup(|| {
        let mut session = Session::new(spec.clone());
        for ((name, _, _), w) in STACK.iter().zip(&weights) {
            session
                .add_layer(name, w, JigsawConfig::v4(BLOCK_TILE_M))
                .expect("stack layers chain and tile");
        }
        let (y, r) = session.forward(&x).expect("input matches the first layer");
        (session, (y.data, r.total_cycles))
    });
    let flops_per_pass: f64 = weights
        .iter()
        .map(|w| 2.0 * w.nnz() as f64 * N as f64)
        .sum();

    let mut report = Report::default();
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = measure(&mut session, &x, &reference, seconds);
    if !ctx.trace {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        // Best of run: every pass repeats identical work (checked), so
        // the fastest pass is its cost with the least interference.
        let best = percentile(&plain.op_ms, 0.0);
        report.set("kernel_gflops", flops_per_pass / (best * 1e6));
        report.set("op_ms_best", best);
        return Outcome {
            correct: plain.failed == 0,
            attempted: plain.attempted,
            failed: plain.failed,
            report,
        };
    }

    jigsaw_obs::set_enabled(true);
    let traced = measure(&mut session, &x, &reference, seconds);
    jigsaw_obs::set_enabled(false);
    let pass_ms = median(&traced.op_ms);
    report_tail(&mut report, &traced.op_ms);

    // The session keeps its layers private, so the per-layer split is
    // replayed on plans this benchmark owns: the same weights, config
    // and input chain, each layer's execute and simulate timed apart.
    let pool = WorkspacePool::new();
    let (mut plan_ms, mut compile_ms) = (Vec::new(), Vec::new());
    let (mut exec_us, mut sim_us, mut instr, mut cycles) = (0.0, 0.0, 0.0, 0.0);
    let mut act = x.clone();
    for w in &weights {
        let (spmm, t) =
            timed(|| JigsawSpmm::plan(w, JigsawConfig::v4(BLOCK_TILE_M)).expect("layer tiles"));
        plan_ms.push(ms(t));
        let (kernel, t) = timed(|| spmm.compiled().clone());
        compile_ms.push(ms(t));
        drop(kernel.execute_pooled(&act, &pool));
        let (c, t) = timed(|| kernel.execute_pooled(&act, &pool));
        exec_us += us(t);
        let (stats, t) = timed(|| spmm.simulate(N, &spec));
        sim_us += us(t);
        instr += stats.totals.instructions as f64;
        cycles += stats.duration_cycles;
        act = Matrix {
            rows: w.rows,
            cols: N,
            data: c.iter().map(|&v| F16::from_f32(v)).collect(),
        };
    }
    report.set("plan.ms", mean(&plan_ms));
    report.set("compile.ms", mean(&compile_ms));
    report.set("core.exec_us", exec_us / STACK.len() as f64);
    report.set("core.gflops", flops_per_pass / (exec_us * 1e3));
    report.set("sim.us_per_call", sim_us / STACK.len() as f64);
    report.set("sim.calls", (STACK.len() as u64 * traced.attempted) as f64);
    report.set("sim.instr_per_s", instr / (sim_us * 1e-6));
    report.set("sim.host_share", ratio(sim_us * 1e-3, pass_ms));
    report.set("sim.cycles_per_op", cycles);
    report.set(
        "obs.overhead_frac",
        ratio(pass_ms, median(&plain.op_ms)) - 1.0,
    );
    Outcome {
        correct: plain.failed + traced.failed == 0 && cycles == reference.1,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_operands_are_bit_deterministic_in_the_seed() {
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
        // The stack chains: each layer consumes the previous output.
        for pair in a.0.windows(2) {
            assert_eq!(pair[1].cols, pair[0].rows);
        }
    }
}
