//! Functional-execution throughput: `execute_fast` (the differential
//! oracle) vs the [`CompiledKernel`] microkernel variants on the
//! fig10-style shapes (M=K=4096, sparsity 0.9, v=4, N ∈ {16, 64, 256}).
//!
//! For every N, one row is emitted per variant the host can run
//! (`jigsaw_core::compiled::dispatch`), each pinned through
//! `KernelPolicy::Forced`, so the export shows the ISA ladder side by
//! side. Every variant runs once per vector-row group (at v=4, one
//! call covers four rows that share a column stream): `avx2_fma` (the
//! row CI floors) and `avx512f` hold the group's rows in register
//! blocks, so each B vector they load feeds all four rows; `scalar`
//! (the portable floor) and `neon` apply the group row by row.
//!
//! Each variant row also gets a `fusion=on` twin that times
//! `execute_prepaneled_into_opts` over a prebuilt panel image — the
//! serve fused hot path, where batch assembly already emitted B
//! panel-major and the execute skips phase 1. The `off`/`on` gap is
//! the panelization share fusion moves out of the kernel's critical
//! path.
//!
//! Emits `results/BENCH_exec.json`, the committed perf baseline that
//! `check_bench --perf` gates CI against. The gated quantity is the
//! *speedup ratio* (variant over fast, both measured in the same
//! process on the same machine, their repetitions alternated so host
//! drift during the run hits both), which is stable across host speeds
//! in a way absolute wall times are not; every row gates against its own
//! `(shape, variant, fusion)` baseline row, with the absolute
//! `required_speedup` floor applied to the `avx2_fma` rows only, so
//! baselines regenerated on exotic hosts do not move the bar.

use std::time::Instant;

use bench_harness::obs_export::write_bench_json;
use dlmc::{dense_rhs, Matrix, ValueDist, VectorSparseSpec};
use jigsaw_core::compiled::dispatch;
use jigsaw_core::{
    execute_fast, panelize_into, ExecOptions, JigsawConfig, JigsawSpmm, KernelPolicy, PanelizedB,
    WorkspacePool,
};
use serde::Serialize;

/// One (shape, N, variant, fusion) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ShapeResult {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub sparsity: f64,
    pub v: usize,
    pub nnz: usize,
    /// Microkernel variant name (`dispatch::KernelKind::name`).
    pub variant: String,
    /// Assembly mode: `off` rows time the full two-phase execute
    /// (panelize + microkernel); `on` rows time
    /// `execute_prepaneled_into_opts` over a prebuilt [`PanelizedB`] —
    /// the serve fused hot path, where panelization already happened
    /// at batch assembly.
    pub fusion: String,
    /// Best wall time of `execute_fast`, milliseconds, timed in
    /// alternation with this row's compiled variant.
    pub fast_ms: f64,
    /// Best wall time of the compiled variant, milliseconds.
    pub compiled_ms: f64,
    /// Machine-neutral ratio: `fast_ms / compiled_ms`.
    pub speedup: f64,
}

/// The exec-bench document body (`data` in the bench export).
#[derive(Clone, Debug, Serialize)]
pub struct ExecBench {
    /// Per-(shape, N, variant, fusion) measurements.
    pub shapes: Vec<ShapeResult>,
    /// Smallest speedup across the floored (unfused `avx2_fma`) rows —
    /// the number CI floors. Falls back to the overall minimum on
    /// hosts without AVX2.
    pub min_speedup: f64,
    /// One-time planning cost (`JigsawSpmm::plan`: reorder and format
    /// build), milliseconds. The `plan` trace splits it by phase.
    pub plan_ms: f64,
    /// One-time compile cost of the kernel, milliseconds.
    pub compile_ms: f64,
    /// Acceptance floor the suite commits to (gated variant ≥ 2× fast).
    pub required_speedup: f64,
}

fn time_ms<R>(f: &mut impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Fewest alternated repetitions [`paired_best_of`] times.
const MIN_PAIRS: usize = 7;

/// Shortest wall time [`paired_best_of`] spends per row, seconds: at
/// small N the compiled kernel runs in under 2 ms, and a minimum over
/// a handful of reps is still at the mercy of neighbours on a shared
/// host.
const MIN_PAIRED_SECS: f64 = 1.0;

/// Best wall times, in milliseconds, of `execute_fast` (`fast`) and
/// one compiled variant (`compiled`), timed in alternation for at least
/// [`MIN_PAIRS`] pairs and [`MIN_PAIRED_SECS`]. Host speed drifts over
/// seconds on shared machines; pairing every compiled rep with a fast
/// rep lets the drift hit both sides of the speedup ratio alike instead
/// of only one.
fn paired_best_of<R, S>(
    mut fast: impl FnMut() -> R,
    mut compiled: impl FnMut() -> S,
) -> (f64, f64) {
    let started = Instant::now();
    let (mut best_fast, mut best_compiled) = (f64::INFINITY, f64::INFINITY);
    let mut pairs = 0;
    while pairs < MIN_PAIRS || started.elapsed().as_secs_f64() < MIN_PAIRED_SECS {
        best_fast = best_fast.min(time_ms(&mut fast));
        best_compiled = best_compiled.min(time_ms(&mut compiled));
        pairs += 1;
    }
    (best_fast, best_compiled)
}

fn main() {
    jigsaw_obs::set_enabled(true);
    let (m, k, sparsity, v) = (4096usize, 4096usize, 0.9f64, 4usize);
    println!("generating A ({m}x{k}, sparsity {sparsity}, v={v})...");
    let a = VectorSparseSpec {
        rows: m,
        cols: k,
        sparsity,
        v,
        dist: ValueDist::Uniform,
        seed: 42,
    }
    .generate();

    println!("planning...");
    let t = Instant::now();
    let spmm = JigsawSpmm::plan(&a, JigsawConfig::v4(32)).expect("4096-sq tiles");
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("planned in {plan_ms:.1} ms");

    let t = Instant::now();
    let kernel = spmm.compiled().clone();
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "compiled in {compile_ms:.1} ms ({} nnz, {} stream bytes)",
        kernel.nnz(),
        kernel.stream_bytes()
    );

    let variants = dispatch::available_kernels();
    println!(
        "variants on this host: {}",
        variants
            .iter()
            .map(|kind| kind.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut shapes = Vec::new();
    let pool = WorkspacePool::new();
    for &n in &[16usize, 64, 256] {
        let b: Matrix = dense_rhs(k, n, ValueDist::Uniform, 7);
        let oracle = execute_fast(&spmm.format, &b);
        let fast = || execute_fast(&spmm.format, &b);
        for &kind in &variants {
            let opts = ExecOptions::from(KernelPolicy::Forced(kind));
            // Parity first: the bench never times a wrong kernel. Every
            // variant is bit-identical to the oracle.
            let c = kernel.execute_opts(&b, &opts);
            assert_eq!(c, oracle, "{} parity", kind.name());
            let (fast_ms, compiled_ms) = paired_best_of(fast, || kernel.execute_opts(&b, &opts));
            let speedup = fast_ms / compiled_ms;
            println!(
                "N={n:4}  {:<13} fast {fast_ms:9.2} ms   compiled {compiled_ms:8.2} ms   speedup {speedup:.2}x",
                kind.name()
            );
            shapes.push(ShapeResult {
                m,
                k,
                n,
                sparsity,
                v,
                nnz: a.nnz(),
                variant: kind.name().to_string(),
                fusion: "off".to_string(),
                fast_ms,
                compiled_ms,
                speedup,
            });
        }

        // Fused rows: the same variants over a *prebuilt* panel image,
        // through `execute_prepaneled_into_opts`. This is the serve
        // fused hot path — batch assembly already emitted B
        // panel-major, so the kernel skips phase 1. The gap between an
        // `on` row and its `off` twin is the panelization share the
        // fusion removes from the execute. Both buffers come from a
        // `WorkspacePool`, as on the serve path, so they start on a
        // cache line just as `execute_opts`'s buffers do for the `off`
        // rows.
        let mut panels = pool.acquire(k * n);
        panelize_into(&b, &mut panels).expect("panel scratch sized k*n");
        let prepaneled = PanelizedB::new(k, n, &panels).expect("prepaneled layout");
        let mut c_buf = pool.acquire(m * n);
        for &kind in &variants {
            let opts = ExecOptions::from(KernelPolicy::Forced(kind));
            // The grid overwrites C, so the buffer the previous variant
            // left behind needs no clearing.
            kernel
                .execute_prepaneled_into_opts(&prepaneled, &mut c_buf, &opts)
                .expect("prepaneled execute");
            assert_eq!(*c_buf, *oracle, "{} prepaneled parity", kind.name());
            let (fast_ms, compiled_ms) = paired_best_of(fast, || {
                kernel
                    .execute_prepaneled_into_opts(&prepaneled, &mut c_buf, &opts)
                    .expect("prepaneled execute")
            });
            let speedup = fast_ms / compiled_ms;
            println!(
                "N={n:4}  {:<13} fast {fast_ms:9.2} ms   prepaneled {compiled_ms:6.2} ms   speedup {speedup:.2}x (fused)",
                kind.name()
            );
            shapes.push(ShapeResult {
                m,
                k,
                n,
                sparsity,
                v,
                nnz: a.nnz(),
                variant: kind.name().to_string(),
                fusion: "on".to_string(),
                fast_ms,
                compiled_ms,
                speedup,
            });
        }
    }

    // CI floors the unfused avx2_fma rows only (the one ISA every
    // gating host has); other variants gate relative to their own
    // baseline rows.
    let gated: Vec<f64> = shapes
        .iter()
        .filter(|s| s.variant == "avx2_fma" && s.fusion == "off")
        .map(|s| s.speedup)
        .collect();
    let min_speedup = if gated.is_empty() {
        shapes
            .iter()
            .map(|s| s.speedup)
            .fold(f64::INFINITY, f64::min)
    } else {
        gated.into_iter().fold(f64::INFINITY, f64::min)
    };
    let result = ExecBench {
        shapes,
        min_speedup,
        plan_ms,
        compile_ms,
        required_speedup: 2.0,
    };
    println!(
        "min gated speedup: {min_speedup:.2}x (required ≥ {:.1}x)",
        2.0
    );
    match write_bench_json("exec", &result) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write bench export: {e}"),
    }
    if min_speedup < result.required_speedup {
        eprintln!("FAIL: compiled kernel below the required speedup floor");
        std::process::exit(1);
    }
}
