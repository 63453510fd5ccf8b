//! Compiled execution plans: the functional hot path of the Jigsaw
//! SpMM, restructured for the memory hierarchy.
//!
//! [`crate::execute_fast`] re-derives everything per call: it unpacks
//! SpTC metadata words, walks `block_col_idx`/`col_idx` through
//! [`crate::format_source_column`] per nonzero, and touches B in
//! whatever column order the reorder produced. All of that is a pure
//! function of the stationary [`JigsawFormat`] — so a
//! [`CompiledKernel`] resolves it **once**, ahead of time, into a flat
//! nonzero stream (`(value, source column)` with metadata already
//! applied) per **vector-row group**: a run of up to `GROUP_ROWS` (4)
//! consecutive rows whose streams share one column sequence. Vector sparsity makes the `v` rows of a vector
//! share their columns, so the group stores its columns once and its
//! rows' values interleaved per nonzero (DESIGN.md §20). Execution is
//! then:
//!
//! 1. **N-panel blocking** — [`panelize_into`] (or, straight from a
//!    batch's parts, [`panelize_parts_into`]) converts B F16→f32 once
//!    per cache-sized column panel into pooled scratch, one
//!    [`sptc::f16::f16_to_f32_rows`] call per panel and part (F16C
//!    where the host has it, bit-identical to `F16::to_f32`
//!    everywhere),
//! 2. the **grid** — [`CompiledKernel::execute_prepaneled_into_opts`],
//!    the one grid entry point, walks the panels in column order and,
//!    inside each, hands the groups to the microkernel two at a time,
//!    in row order. It runs on the calling thread: the kernel's
//!    parallelism (one thread block per strip) is what `gpu-sim`
//!    models, and this path is its functional twin,
//! 3. a **group microkernel**, resolved per execution by the
//!    [`dispatch`] layer: a registry of named variants (`scalar`,
//!    `avx2_fma`, `avx512f`, `neon`) with runtime ISA
//!    detection, a typed [`dispatch::KernelPolicy`] (`Auto` |
//!    `Forced`), and per-variant poisoning for the resilience ladder.
//!    The x86 variants hold all the group's rows in registers, so each
//!    B vector they load feeds every row of the group; on a panel one
//!    ZMM wide the AVX-512F variant holds both groups' rows in one
//!    block.
//!
//! C is written once: every microkernel starts its accumulators at
//! zero and stores them, so the grid overwrites C and nothing clears
//! it first. Each row's stream preserves `execute_fast`'s per-row
//! accumulation order and its zero/padding skip rules. The scalar
//! microkernel applies products with sequential f32 adds and is
//! **bit-identical** to `execute_fast` (which stays around as the
//! differential-testing oracle). The fused SIMD variants are
//! bit-identical too: every operand is an f16 value, so each product
//! is exact in f32 and a fused multiply-add rounds exactly like the
//! multiply then add (DESIGN.md §13). Grouping and pairing change no
//! bit: each output element still sees its own row's chain, in order,
//! from zero.

pub mod dispatch;
mod kernels_aarch64;
mod kernels_scalar;
mod kernels_x86;

use std::time::Instant;

use dlmc::Matrix;
use sptc::f16::{f16_to_f32_rows, f16_to_f32_slice};
use sptc::metadata::ROWS;

use crate::config::MMA_TILE;
use crate::errors::{CompileError, ExecError};
use crate::fault::{self, points};
use crate::format::JigsawFormat;
use crate::pool::{AlignedBuf, PoolBuf, WorkspacePool};
use crate::reorder::PAD;
use crate::swizzle::{zorder, BLOCK_COLS, BLOCK_ELEMS};

pub use dispatch::{ExecOptions, KernelKind, KernelPolicy, Selection};
use dispatch::{Group, GroupC, Slab};

/// Target footprint of one converted B panel (`k × panel_width` f32):
/// half of a 2 MiB per-core L2, so the slab stays in L2 while every
/// group gathers rows of it, with the other half left for
/// the group stream passing through and the C rows being written.
/// Every extra panel re-walks the whole nonzero stream once, so panels
/// are cut as wide as this budget allows (`panel_width(4096, ·) = 64`,
/// `panel_width(2048, ·) = 128`).
///
/// Public as the **single source of truth** for panel-major layout:
/// serve-side fused assembly ([`panelize_parts_into`]) and kernel-side
/// blocking both derive their cuts from this constant through
/// [`panel_width`], so the two can never drift apart.
pub const PANEL_TARGET_BYTES: usize = 1 << 20;

/// Most rows one vector-row group holds: a group is cut at this height
/// (a v=8 run becomes two groups of 4), sized so a 4-row register
/// block of accumulators fits the x86 register files (DESIGN.md §20).
pub(crate) const GROUP_ROWS: usize = 4;

/// The ahead-of-time-resolved execution plan of one [`JigsawFormat`].
///
/// Build once per format with [`CompiledKernel::compile`] (cached by
/// [`crate::JigsawSpmm::compiled`], the serve registry, and
/// [`crate::Session`]); execute many times with
/// [`CompiledKernel::execute`] / [`CompiledKernel::execute_pooled`].
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// Output rows (C height).
    pub m: usize,
    /// Reduction dimension (required B height).
    pub k: usize,
    /// One entry per vector-row group plus an end sentinel `{m,
    /// cols.len(), vals.len()}`: group `g` covers rows
    /// `groups[g].row..groups[g + 1].row` and the matching ranges of
    /// `cols` and `vals`.
    groups: Vec<GroupPtr>,
    /// Nonzero values, decompressed to f32, interleaved per group: the
    /// group's `h` rows' values for its `i`-th column sit at
    /// `vals[val + i·h .. val + (i+1)·h]`. Each row's values are in
    /// `execute_fast`'s per-row accumulation order.
    vals: Vec<f32>,
    /// Source column of each group nonzero (the B row it multiplies),
    /// stored once for all the group's rows.
    cols: Vec<u32>,
    /// One past the largest entry of `cols` (0 when empty): the B rows
    /// the microkernels read unchecked. Compilation proves it `<= k`;
    /// `k` is public, so the grid checks it against B on every call.
    col_bound: usize,
}

/// Where one vector-row group starts: its first row and the offsets of
/// its shared column stream and interleaved values.
#[derive(Clone, Copy, Debug)]
struct GroupPtr {
    row: u32,
    col: u32,
    val: u32,
}

/// One group being assembled during compilation: the shared column
/// stream and, row after row, each row's values.
#[derive(Default)]
struct PendingGroup {
    row: usize,
    h: usize,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl CompiledKernel {
    /// Resolves every `(strip, window, tile_row, row, slot)` of the
    /// format into the grouped nonzero stream.
    ///
    /// Infallible convenience over [`CompiledKernel::try_compile`] —
    /// panics on the (pathological) error cases. Resilient callers
    /// (the serve registry's degradation ladder) use the `try_`
    /// variants and fall back to [`crate::execute_fast`].
    pub fn compile(format: &JigsawFormat) -> CompiledKernel {
        Self::try_compile(format).expect("kernel compiles")
    }

    /// Fallible compilation: surfaces [`CompileError`] instead of
    /// panicking, including injected `exec.compile` faults.
    pub fn try_compile(format: &JigsawFormat) -> Result<CompiledKernel, CompileError> {
        Self::try_compile_traced(format, &jigsaw_obs::Span::disabled())
    }

    /// [`CompiledKernel::try_compile`] with an `exec.compile` span
    /// attached to `parent` (carrying row/nonzero/group counts).
    pub fn try_compile_traced(
        format: &JigsawFormat,
        parent: &jigsaw_obs::Span,
    ) -> Result<CompiledKernel, CompileError> {
        fault::hit(points::COMPILE)?;
        let started = Instant::now();
        let span = parent.child("exec.compile");
        let mut kernel = CompiledKernel {
            m: format.m,
            k: format.k,
            groups: Vec::new(),
            vals: Vec::new(),
            cols: Vec::new(),
            col_bound: 0,
        };
        let mut pending = PendingGroup::default();
        // The streams of the current tile row's 16 rows, filled block
        // by block: each (window, tile_row) block is decoded once.
        let mut tile_vals: [Vec<f32>; MMA_TILE] = Default::default();
        let mut tile_cols: [Vec<u32>; MMA_TILE] = Default::default();
        let mut row = 0usize;
        for (si, strip) in format.strips.iter().enumerate() {
            let tile_rows = strip.height / MMA_TILE;
            for tr in 0..tile_rows {
                tile_vals.iter_mut().for_each(Vec::clear);
                tile_cols.iter_mut().for_each(Vec::clear);
                let mut words = [0u32; ROWS];
                let mut block_f32 = [0f32; BLOCK_ELEMS];
                for w in 0..strip.windows {
                    if w % 2 == 0 {
                        words = format.metadata_words(si, tr, w / 2);
                    }
                    let block = w * tile_rows + tr;
                    let perm = &strip.block_col_idx[block * MMA_TILE..(block + 1) * MMA_TILE];
                    let window_cols = &strip.col_idx[w * MMA_TILE..(w + 1) * MMA_TILE];
                    f16_to_f32_slice(
                        &strip.values[block * BLOCK_ELEMS..(block + 1) * BLOCK_ELEMS],
                        &mut block_f32,
                    );
                    for r in 0..MMA_TILE {
                        // This window's half of the row's metadata word:
                        // 2 bits of in-group position per kept slot.
                        let half = words[r] >> (16 * (w % 2));
                        // Keep the row's nonzeros from real columns, in
                        // slot order, without a branch per slot.
                        let mut vals = [0f32; BLOCK_COLS];
                        let mut cols = [0u32; BLOCK_COLS];
                        let mut n = 0;
                        for slot in 0..BLOCK_COLS {
                            let v = block_f32[zorder(r, slot)];
                            let pos = (slot / 2) * 4 + ((half >> (2 * slot)) & 0b11) as usize;
                            let col = window_cols[usize::from(perm[pos])];
                            vals[n] = v;
                            cols[n] = col;
                            n += usize::from(v != 0.0 && col != PAD);
                        }
                        tile_vals[r].extend_from_slice(&vals[..n]);
                        tile_cols[r].extend_from_slice(&cols[..n]);
                    }
                }
                for (row_vals, row_cols) in tile_vals.iter_mut().zip(&mut tile_cols) {
                    let joins =
                        pending.h > 0 && pending.h < GROUP_ROWS && pending.cols == *row_cols;
                    if joins {
                        pending.vals.extend_from_slice(row_vals);
                        pending.h += 1;
                    } else {
                        kernel.push_group(&pending)?;
                        pending.row = row;
                        pending.h = 1;
                        std::mem::swap(&mut pending.cols, row_cols);
                        std::mem::swap(&mut pending.vals, row_vals);
                    }
                    row += 1;
                }
            }
        }
        kernel.push_group(&pending)?;
        debug_assert_eq!(row, format.m, "strips cover every row");
        kernel.groups.push(GroupPtr {
            row: format.m as u32,
            col: kernel.cols.len() as u32,
            val: kernel.vals.len() as u32,
        });
        let elapsed = started.elapsed().as_nanos() as u64;
        if jigsaw_obs::enabled() {
            let reg = jigsaw_obs::global();
            reg.counter("exec.compiles").inc();
            reg.counter("exec.compile_ns").add(elapsed);
        }
        if span.is_recording() {
            span.attr("rows", kernel.m);
            span.attr("nnz", kernel.nnz());
            span.attr("groups", kernel.groups.len() - 1);
        }
        span.finish();
        Ok(kernel)
    }

    /// Appends `g` (when it holds any rows) as the next group, its
    /// per-row values interleaved `h` per column, after checking every
    /// column is a row of B.
    fn push_group(&mut self, g: &PendingGroup) -> Result<(), CompileError> {
        if g.h == 0 {
            return Ok(());
        }
        let nnz = self.vals.len() + g.vals.len();
        if nnz >= u32::MAX as usize {
            return Err(CompileError::StreamOverflow { nnz });
        }
        // The one walk over the stream's columns: the grid's
        // microkernels read B row `col` unchecked (`dispatch::AxpyFn`).
        if let Some(&col) = g.cols.iter().max() {
            let col = col as usize;
            if col >= self.k {
                return Err(CompileError::ColumnOutOfRange { col, k: self.k });
            }
            self.col_bound = self.col_bound.max(col + 1);
        }
        self.groups.push(GroupPtr {
            row: g.row as u32,
            col: self.cols.len() as u32,
            val: self.vals.len() as u32,
        });
        self.cols.extend_from_slice(&g.cols);
        let base = self.vals.len();
        self.vals.resize(nnz, 0.0);
        // Row `r`'s values land at stride `h` from `base + r`.
        let interleaved = &mut self.vals[base..];
        for (r, row) in g.vals.chunks(g.cols.len().max(1)).enumerate() {
            for (dst, &v) in interleaved[r..].iter_mut().step_by(g.h).zip(row) {
                *dst = v;
            }
        }
        Ok(())
    }

    /// Group `g`'s first row, height, shared columns and interleaved
    /// values.
    fn group(&self, g: usize) -> (usize, usize, &[u32], &[f32]) {
        let (lo, hi) = (self.groups[g], self.groups[g + 1]);
        (
            lo.row as usize,
            (hi.row - lo.row) as usize,
            &self.cols[lo.col as usize..hi.col as usize],
            &self.vals[lo.val as usize..hi.val as usize],
        )
    }

    /// Group `g`'s microkernel operands over panel columns `col0 ..
    /// col0 + w`, where `c` is row-major C (`n` wide) from row `c_row`
    /// on.
    fn group_args<'a>(
        &'a self,
        g: usize,
        c: &'a mut [f32],
        c_row: usize,
        n: usize,
        col0: usize,
        w: usize,
    ) -> Group<'a> {
        let (row, h, cols, vals) = self.group(g);
        let c = GroupC::new(&mut c[(row - c_row) * n + col0..], n, h, w);
        Group { c, vals, cols }
    }

    /// Nonzeros in the compiled stream.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Bytes held by the compiled stream (values + shared columns +
    /// group offsets).
    pub fn stream_bytes(&self) -> usize {
        self.vals.len() * 4
            + self.cols.len() * 4
            + self.groups.len() * std::mem::size_of::<GroupPtr>()
    }

    /// The compiled nonzero stream of output row `row`:
    /// `(value, source column)` pairs in accumulation order.
    pub fn row_stream(&self, row: usize) -> impl Iterator<Item = (f32, usize)> + '_ {
        assert!(row < self.m, "row {row} out of {}", self.m);
        let g = self.groups.partition_point(|g| g.row as usize <= row) - 1;
        let (first, h, cols, vals) = self.group(g);
        vals[row - first..]
            .iter()
            .step_by(h)
            .zip(cols)
            .map(|(&v, &c)| (v, c as usize))
    }

    /// Computes `C = A × B`, allocating the output and scratch.
    pub fn execute(&self, b: &Matrix) -> Vec<f32> {
        self.execute_opts(b, &ExecOptions::default())
    }

    /// [`CompiledKernel::execute`] with explicit microkernel options.
    /// C and the panel scratch are allocated 64-byte aligned, like the
    /// [`WorkspacePool`]'s buffers, so this path runs the grid over the
    /// same layout as [`CompiledKernel::execute_pooled`].
    pub fn execute_opts(&self, b: &Matrix, opts: &ExecOptions) -> Vec<f32> {
        let mut c = AlignedBuf::zeroed(self.m * b.cols);
        let mut scratch = AlignedBuf::zeroed(self.k * b.cols);
        self.panelize_and_execute(b, &mut c, &mut scratch, opts);
        c.into_vec()
    }

    /// Computes `C = A × B` with the output and conversion scratch
    /// drawn from `pool` — the zero-allocation steady-state path.
    pub fn execute_pooled<'p>(&self, b: &Matrix, pool: &'p WorkspacePool) -> PoolBuf<'p> {
        let mut c = pool.acquire(self.m * b.cols);
        let mut scratch = pool.acquire(self.k * b.cols);
        self.panelize_and_execute(b, &mut c, &mut scratch, &ExecOptions::default());
        c
    }

    /// [`panelize_into`] `scratch`, then
    /// [`CompiledKernel::execute_prepaneled_into_opts`] over it into
    /// `c`; both overwrite their buffer, so neither needs clearing. A B
    /// of the wrong height is a caller bug and panics.
    fn panelize_and_execute(
        &self,
        b: &Matrix,
        c: &mut [f32],
        scratch: &mut [f32],
        opts: &ExecOptions,
    ) {
        let run = panelize_into(b, scratch)
            .and_then(|()| PanelizedB::new(b.rows, b.cols, scratch))
            .and_then(|panels| self.execute_prepaneled_into_opts(&panels, c, opts));
        if let Err(e) = run {
            panic!("compiled execute: {e}");
        }
    }

    /// Executes over a B that is already panel-major f32: the one grid
    /// entry point. [`CompiledKernel::execute_opts`] and
    /// [`CompiledKernel::execute_pooled`] call it after
    /// [`panelize_into`]; the serve assembler calls it after
    /// [`panelize_parts_into`] wrote each request's F16 columns straight
    /// into `b`'s panel slabs, so the dense operand is touched once, in
    /// the layout the grid consumes. Resolves `opts` through the
    /// [`dispatch`] registry (forced selection falls back cleanly when
    /// the ISA is absent or poisoned). Layout disagreements (a buffer
    /// cut for a different K, a wrong-sized C, a kernel whose public `k`
    /// was lowered below the rows its stream reads) are typed
    /// [`ExecError`]s, never panics. The grid **overwrites** `c`
    /// (row-major `m × n`): every element is stored once, whatever the
    /// buffer held before, so a reused [`crate::WorkspacePool`] buffer
    /// needs no clearing.
    pub fn execute_prepaneled_into_opts(
        &self,
        b: &PanelizedB<'_>,
        c: &mut [f32],
        opts: &ExecOptions,
    ) -> Result<(), ExecError> {
        if b.k() != self.k {
            return Err(ExecError::PanelLayoutMismatch {
                expected_k: self.k,
                got_k: b.k(),
            });
        }
        if self.col_bound > b.k() {
            // Only reachable by editing `k` after compilation.
            return Err(ExecError::BRowsMismatch {
                expected_k: self.col_bound,
                got: b.k(),
            });
        }
        let n = b.n();
        if c.len() != self.m * n {
            return Err(ExecError::OutputSizeMismatch {
                expected: self.m * n,
                got: c.len(),
            });
        }
        let sel = dispatch::select(opts);
        if sel.kind != KernelKind::Scalar {
            // Only the full-speed paths carry the injection point: the
            // degraded scalar path must stay fault-free so the ladder
            // (SIMD → scalar) terminates.
            fault::trip(points::EXECUTE);
        }
        if n == 0 || self.m == 0 || self.k == 0 {
            // No panel to walk: every product is an empty sum.
            c.fill(0.0);
            return Ok(());
        }
        let pw = panel_width(self.k, n);
        let axpy_started = jigsaw_obs::enabled().then(Instant::now);
        let groups = self.groups.len() - 1;
        // Panel-major: each slab stays hot in cache while every group
        // gathers its rows. Groups tile the rows in order, so C splits
        // where the pair's second group starts (at `m` after the last
        // group, via the sentinel) into the two rectangles.
        for (pb, data) in b.data().chunks(self.k * pw).enumerate() {
            let (col0, w) = (pb * pw, data.len() / self.k);
            let slab = Slab { data, k: self.k, w };
            for g in (0..groups).step_by(2) {
                let row1 = self.groups[g + 1].row as usize;
                let (c0, c1) = c.split_at_mut(row1 * n);
                let first = self.group_args(g, c0, 0, n, col0, w);
                let second = (g + 1 < groups).then(|| self.group_args(g + 1, c1, row1, n, col0, w));
                // SAFETY: the AxpyFn contract: every column of these
                // streams is below `self.col_bound` (set by
                // `try_compile_traced`), which is at most `b.k() ==
                // self.k` (both checked on entry), and this slab holds
                // `self.k` rows of `w`.
                unsafe { (sel.axpy)(first, second, slab) };
            }
        }
        if let Some(started) = axpy_started {
            let reg = jigsaw_obs::global();
            reg.counter("exec.compiled_runs").inc();
            reg.counter("exec.panels").add(n.div_ceil(pw) as u64);
            reg.counter("exec.axpy_ns")
                .add(started.elapsed().as_nanos() as u64);
            reg.counter(match sel.kind {
                KernelKind::Scalar => "kernel.runs.scalar",
                KernelKind::Avx2Fma => "kernel.runs.avx2_fma",
                KernelKind::Avx512f => "kernel.runs.avx512f",
                KernelKind::Neon => "kernel.runs.neon",
            })
            .inc();
        }
        Ok(())
    }
}

/// Width of one B panel: aim for [`PANEL_TARGET_BYTES`] of converted
/// f32, clamped to a useful axpy width and the actual N.
///
/// Public as the single source of truth for panel-major layout —
/// serve-side fused assembly and kernel-side blocking both call this,
/// so a buffer assembled by [`panelize_parts_into`] always matches the
/// cuts [`CompiledKernel::execute_prepaneled_into_opts`] walks.
pub fn panel_width(k: usize, n: usize) -> usize {
    let ideal = PANEL_TARGET_BYTES / (4 * k.max(1));
    let pw = ideal.clamp(32, 512) & !15;
    pw.min(n).max(1)
}

/// The panel cut list for a `k × n` B: `(first column, width)` pairs
/// derived from [`panel_width`], in ascending column order. Panel
/// `(col0, w)`'s slab occupies `scratch[k*col0 .. k*(col0 + w)]`,
/// row-major within the slab (row `r` of the panel at
/// `slab[r*w .. (r+1)*w]`).
pub fn panel_cuts(k: usize, n: usize) -> Vec<(usize, usize)> {
    let pw = panel_width(k, n);
    (0..n)
        .step_by(pw)
        .map(|col0| (col0, pw.min(n - col0)))
        .collect()
}

/// A `k × n` B operand already converted to f32 in the panel-major
/// layout the execution grid consumes — the typed handle the fused
/// serve path hands to
/// [`CompiledKernel::execute_prepaneled_into_opts`]. Construction
/// validates capacity with a typed [`ExecError`]; the panel cuts are
/// always re-derived from the shared [`panel_width`] source of truth,
/// so an assembled buffer can never drift from kernel-side blocking.
#[derive(Clone, Copy, Debug)]
pub struct PanelizedB<'a> {
    k: usize,
    n: usize,
    data: &'a [f32],
}

impl<'a> PanelizedB<'a> {
    /// Wraps a panel-major `k × n` f32 image (as laid out by
    /// [`panelize_into`] / [`panelize_parts_into`]). Returns
    /// [`ExecError::ScratchTooSmall`] when `data` cannot hold `k * n`
    /// elements; extra trailing capacity (a pooled buffer rounded up)
    /// is fine and ignored.
    pub fn new(k: usize, n: usize, data: &'a [f32]) -> Result<PanelizedB<'a>, ExecError> {
        if data.len() < k * n {
            return Err(ExecError::ScratchTooSmall {
                needed: k * n,
                got: data.len(),
            });
        }
        Ok(PanelizedB { k, n, data })
    }

    /// The reduction dimension the panels were cut for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total columns across all panels.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The panel-major backing storage (exactly `k * n` elements).
    pub fn data(&self) -> &'a [f32] {
        &self.data[..self.k * self.n]
    }
}

/// Converts one F16 `Matrix` into the panel-major f32 layout: phase 1
/// of [`CompiledKernel::execute_opts`] and
/// [`CompiledKernel::execute_pooled`], exported so tests and benches can
/// produce the exact image [`CompiledKernel::execute_prepaneled_into_opts`]
/// consumes. The one-part case of [`panelize_parts_into`]: each panel
/// widens in one [`sptc::f16::f16_to_f32_rows`] call. Returns
/// [`ExecError::ScratchTooSmall`] when `scratch` cannot hold
/// `b.rows * b.cols` f32.
pub fn panelize_into(b: &Matrix, scratch: &mut [f32]) -> Result<(), ExecError> {
    panelize_parts_into(&[b], scratch).map(|_| ())
}

/// Fused batched-B assembly: converts several same-height F16 parts
/// (a micro-batch's B operands, concatenated along N) **directly**
/// into the panel-major f32 layout, skipping the intermediate
/// concatenated `Matrix` entirely — the dense operand is touched once,
/// in the layout the grid consumes. Bit-exact with
/// `concat_columns(parts)` followed by [`panelize_into`]: both write
/// the same f16→f32 widening of the same element to the same slot.
///
/// Panel by panel, each part's columns inside the panel widen in one
/// [`sptc::f16::f16_to_f32_rows`] call across all `k` rows, so a
/// narrow part costs one call per panel, not one per row.
///
/// Typed edges: parts of disagreeing heights are
/// [`ExecError::BRowsMismatch`] (index-free — the serve assembler
/// re-validates with its richer `BatchError` first), an undersized
/// scratch is [`ExecError::ScratchTooSmall`]. Zero-width parts are
/// skipped (they contribute no columns). Returns `(k, total_n)`.
pub fn panelize_parts_into(
    parts: &[&Matrix],
    scratch: &mut [f32],
) -> Result<(usize, usize), ExecError> {
    let Some(first) = parts.first() else {
        return Ok((0, 0));
    };
    let k = first.rows;
    for p in parts {
        if p.rows != k {
            return Err(ExecError::BRowsMismatch {
                expected_k: k,
                got: p.rows,
            });
        }
    }
    let total: usize = parts.iter().map(|p| p.cols).sum();
    if scratch.len() < k * total {
        return Err(ExecError::ScratchTooSmall {
            needed: k * total,
            got: scratch.len(),
        });
    }
    if k == 0 || total == 0 {
        return Ok((k, total));
    }
    let pw = panel_width(k, total);
    for (pb, slab) in scratch[..k * total].chunks_mut(k * pw).enumerate() {
        let (col0, w) = (pb * pw, slab.len() / k);
        // `poff`: the part's first column in global coordinates.
        let mut poff = 0;
        for part in parts {
            // The part's columns inside this panel.
            let lo = col0.max(poff);
            let hi = (col0 + w).min(poff + part.cols);
            if lo < hi {
                f16_to_f32_rows(
                    &part.data[lo - poff..],
                    part.cols,
                    &mut slab[lo - col0..],
                    w,
                    hi - lo,
                    k,
                );
            }
            poff += part.cols;
        }
    }
    Ok((k, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JigsawConfig;
    use crate::exec::execute_fast;
    use crate::reorder::ReorderPlan;
    use dlmc::{dense_rhs, ValueDist, VectorSparseSpec};

    fn setup(
        rows: usize,
        cols: usize,
        sparsity: f64,
        v: usize,
        bt: usize,
        interleaved: bool,
        seed: u64,
    ) -> (Matrix, JigsawFormat) {
        let a = VectorSparseSpec {
            rows,
            cols,
            sparsity,
            v,
            dist: ValueDist::SmallInt,
            seed,
        }
        .generate();
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(bt));
        let format = JigsawFormat::build(&a, &plan, interleaved);
        (a, format)
    }

    #[test]
    fn compiled_matches_fast_and_reference_exactly_on_integers() {
        for (bt, v, s) in [(16, 2, 0.8), (32, 4, 0.9), (64, 8, 0.95)] {
            for interleaved in [false, true] {
                let (a, f) = setup(64, 96, s, v, bt, interleaved, 5);
                let b = dense_rhs(96, 24, ValueDist::SmallInt, 6);
                let kernel = CompiledKernel::compile(&f);
                let got = kernel.execute(&b);
                assert_eq!(
                    got,
                    execute_fast(&f, &b),
                    "vs fast bt={bt} il={interleaved}"
                );
                assert_eq!(
                    got,
                    a.matmul_reference(&b),
                    "vs ref bt={bt} il={interleaved}"
                );
            }
        }
    }

    #[test]
    fn scalar_kernel_is_bit_identical_to_fast_even_on_floats() {
        let a = VectorSparseSpec {
            rows: 128,
            cols: 128,
            sparsity: 0.85,
            v: 4,
            dist: ValueDist::Uniform,
            seed: 17,
        }
        .generate();
        let b = dense_rhs(128, 40, ValueDist::Uniform, 18);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(32));
        let f = JigsawFormat::build(&a, &plan, true);
        let kernel = CompiledKernel::compile(&f);
        let oracle = execute_fast(&f, &b);

        // Scalar microkernel: same per-row accumulation order and
        // sequential f32 adds — equality holds bit-for-bit, not
        // within a tolerance.
        assert_eq!(kernel.execute_opts(&b, &ExecOptions::scalar()), oracle);

        // Dispatched path (the widest SIMD variant available): every
        // variant runs the scalar oracle's per-step operations
        // (DESIGN.md §13), so it too is bit-identical.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&kernel.execute(&b)), bits(&oracle));
    }

    #[test]
    fn every_available_variant_computes_the_product() {
        let (a, f) = setup(64, 96, 0.9, 4, 32, true, 5);
        let b = dense_rhs(96, 24, ValueDist::SmallInt, 6);
        let kernel = CompiledKernel::compile(&f);
        let expect = a.matmul_reference(&b);
        for kind in dispatch::available_kernels() {
            let got = kernel.execute_opts(&b, &ExecOptions::from(KernelPolicy::Forced(kind)));
            // Integer-valued data: fusion and reordering are both
            // exact, so every variant agrees bit-for-bit.
            assert_eq!(got, expect, "variant {}", kind.name());
        }
    }

    #[test]
    fn odd_n_and_narrow_panels() {
        let (a, f) = setup(32, 64, 0.9, 2, 16, true, 3);
        for n in [1usize, 13, 33] {
            let b = dense_rhs(64, n, ValueDist::SmallInt, 9);
            let kernel = CompiledKernel::compile(&f);
            for kind in dispatch::available_kernels() {
                assert_eq!(
                    kernel.execute_opts(&b, &ExecOptions::from(KernelPolicy::Forced(kind))),
                    a.matmul_reference(&b),
                    "n={n} variant={}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn dense_fallback_strips_compile_correctly() {
        // Reorder "fails" on dense input (K grows); the compiled
        // stream must still cover every nonzero.
        let a = Matrix::from_f32(
            32,
            32,
            &(0..1024)
                .map(|i| ((i % 7) as f32) - 3.0)
                .collect::<Vec<_>>(),
        );
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(16));
        let f = JigsawFormat::build(&a, &plan, true);
        let kernel = CompiledKernel::compile(&f);
        let b = dense_rhs(32, 8, ValueDist::SmallInt, 7);
        assert_eq!(kernel.execute(&b), a.matmul_reference(&b));
        assert_eq!(kernel.nnz(), a.nnz());
    }

    #[test]
    fn empty_strips_produce_empty_streams() {
        let a = Matrix::zeros(64, 64);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(32));
        let f = JigsawFormat::build(&a, &plan, true);
        let kernel = CompiledKernel::compile(&f);
        assert_eq!(kernel.nnz(), 0);
        let b = dense_rhs(64, 8, ValueDist::SmallInt, 1);
        assert_eq!(kernel.execute(&b), vec![0.0; 64 * 8]);
    }

    #[test]
    fn pooled_execution_reuses_buffers() {
        let (a, f) = setup(64, 96, 0.9, 4, 32, true, 11);
        let b = dense_rhs(96, 16, ValueDist::SmallInt, 12);
        let kernel = CompiledKernel::compile(&f);
        let pool = WorkspacePool::new();
        let first = kernel.execute_pooled(&b, &pool).into_vec();
        assert_eq!(first, a.matmul_reference(&b));
        let before = pool.stats();
        assert_eq!(before.hits, 0, "cold pool: both buffers were misses");
        // `into_vec` kept C, so one buffer (scratch) returned; the
        // second run reuses it and re-misses only once.
        let second = kernel.execute_pooled(&b, &pool);
        assert_eq!(&*second, first.as_slice());
        drop(second);
        let warm = pool.stats();
        assert!(warm.hits >= 1, "scratch buffer was reused: {warm:?}");
        // Fully warm: every subsequent run is allocation-free.
        for _ in 0..3 {
            drop(kernel.execute_pooled(&b, &pool));
        }
        let steady = pool.stats();
        assert_eq!(steady.misses, warm.misses, "steady state acquires only hit");
    }

    #[test]
    fn row_streams_match_format_walk() {
        let (_, f) = setup(48, 80, 0.85, 2, 16, false, 21);
        let kernel = CompiledKernel::compile(&f);
        // Spot-check: every stream column is a real source column and
        // values are the decompressed nonzeros.
        let mut total = 0;
        for row in 0..kernel.m {
            for (v, col) in kernel.row_stream(row) {
                assert!(col < kernel.k);
                assert!(v != 0.0);
                total += 1;
            }
        }
        assert_eq!(total, kernel.nnz());
    }

    /// `(first row, height)` of every group, after checking the
    /// grouping rule: groups tile the rows in order, hold 1..=4 rows,
    /// and their rows share one column stream.
    fn checked_groups(kernel: &CompiledKernel) -> Vec<(usize, usize)> {
        let cols_of =
            |row: usize| -> Vec<usize> { kernel.row_stream(row).map(|(_, c)| c).collect() };
        let mut out = Vec::new();
        let mut next = 0;
        for g in 0..kernel.groups.len() - 1 {
            let (row, h, cols, vals) = kernel.group(g);
            assert_eq!(row, next, "groups tile the rows in order");
            assert!((1..=GROUP_ROWS).contains(&h), "group at {row} has {h} rows");
            assert_eq!(vals.len(), h * cols.len());
            for r in row..row + h {
                assert_eq!(
                    cols_of(r),
                    cols_of(row),
                    "rows {row} and {r} share one stream"
                );
            }
            out.push((row, h));
            next = row + h;
        }
        assert_eq!(next, kernel.m, "groups cover every row");
        out
    }

    #[test]
    fn rows_group_by_shared_column_stream() {
        // v=1: every row has its own pattern, so every group is one row.
        let (_, f) = setup(64, 96, 0.8, 1, 32, true, 41);
        let kernel = CompiledKernel::compile(&f);
        assert!(checked_groups(&kernel).iter().all(|&(_, h)| h == 1));

        // v=8: each aligned 8-row run shares its stream and splits 4+4;
        // `cols` is stored once per group.
        let (_, f) = setup(64, 96, 0.9, 8, 32, true, 43);
        let kernel = CompiledKernel::compile(&f);
        let groups = checked_groups(&kernel);
        assert_eq!(
            groups,
            (0..64).step_by(4).map(|r| (r, 4)).collect::<Vec<_>>()
        );
        assert_eq!(kernel.cols.len() * 4, kernel.nnz());

        // Hand-built patterns: every row uses columns 0..8 except rows 1
        // and 11..14 (their own patterns). Rows 2..11 are a 9-row run
        // that ends in a short group; the run from row 14 on is off the
        // 4-row grid, so it is cut greedily into groups of 4 from row
        // 14, one of them running across row 128, and ends in a short
        // group.
        let (m, k) = (144, 32);
        let mut data = vec![0.0f32; m * k];
        for r in 0..m {
            let cols: Vec<usize> = match r {
                1 => vec![3, 20],
                11..=13 => vec![r, r + 16],
                _ => (0..8).collect(),
            };
            for c in cols {
                data[r * k + c] = ((r + c) % 5 + 1) as f32;
            }
        }
        let a = Matrix::from_f32(m, k, &data);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(16));
        let kernel = CompiledKernel::compile(&JigsawFormat::build(&a, &plan, true));
        let groups = checked_groups(&kernel);
        assert_eq!(&groups[..5], &[(0, 1), (1, 1), (2, 4), (6, 4), (10, 1)]);
        let same = |r: usize| {
            kernel
                .row_stream(r)
                .map(|(_, c)| c)
                .eq(kernel.row_stream(126).map(|(_, c)| c))
        };
        assert!(
            (120..136).all(same),
            "precondition: rows 120..136 share a stream"
        );
        assert_eq!(
            &groups[groups.len() - 5..],
            &[(126, 4), (130, 4), (134, 4), (138, 4), (142, 2)],
            "greedy runs of at most 4 rows: {groups:?}"
        );
    }

    #[test]
    fn out_of_range_source_column_is_a_compile_error() {
        let (_, mut f) = setup(64, 96, 0.9, 4, 32, true, 5);
        let past_k = f.k as u32 + 3;
        for col in f.strips[0].col_idx.iter_mut().filter(|c| **c != PAD) {
            *col = past_k;
        }
        assert!(matches!(
            CompiledKernel::try_compile(&f),
            Err(CompileError::ColumnOutOfRange { col, k: 96 }) if col == past_k as usize
        ));
    }

    #[test]
    fn lowering_public_k_below_the_stream_is_an_error_not_a_read() {
        let (_, f) = setup(64, 96, 0.5, 4, 32, true, 5);
        let mut kernel = CompiledKernel::compile(&f);
        let bound = kernel.col_bound;
        assert!(bound > 1, "precondition: the stream reads past B row 0");
        kernel.k = bound - 1;
        let b = dense_rhs(kernel.k, 16, ValueDist::SmallInt, 3);
        let mut scratch = vec![0.0; kernel.k * 16];
        panelize_into(&b, &mut scratch).unwrap();
        let panels = PanelizedB::new(kernel.k, 16, &scratch).unwrap();
        let mut c = vec![0.0; kernel.m * 16];
        for kind in dispatch::available_kernels() {
            let run = kernel.execute_prepaneled_into_opts(
                &panels,
                &mut c,
                &ExecOptions::from(KernelPolicy::Forced(kind)),
            );
            assert_eq!(
                run,
                Err(ExecError::BRowsMismatch {
                    expected_k: bound,
                    got: bound - 1
                }),
                "{}",
                kind.name()
            );
        }
        let caught = std::panic::catch_unwind(|| kernel.execute(&b));
        assert!(caught.is_err(), "execute panics on the typed error");
    }

    #[test]
    fn panel_width_is_sane() {
        assert_eq!(panel_width(4096, 256), 64);
        assert_eq!(panel_width(2048, 256), 128);
        assert_eq!(panel_width(64, 256), 256);
        assert_eq!(panel_width(4096, 8), 8);
        assert!(panel_width(1, 1) >= 1);
    }
}
