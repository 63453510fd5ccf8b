//! Request/response types and the column-concatenation algebra that
//! makes micro-batching *exact*: the kernel computes each output column
//! of `C = A × B` from the matching column of B alone, so concatenating
//! several requests' B operands along N, running one SpMM, and
//! splitting C back is bit-identical to running each request solo.
//! Batching buys throughput (simulated cost is sublinear in N — paper
//! Fig 10) without perturbing a single output bit.
//!
//! [`assemble_panels`] produces the batch's dense operand on the serve
//! path: it emits each part's columns directly into the kernel's
//! panel-major f32 layout. [`concat_columns`] builds a concatenated F16
//! `Matrix` instead; it is the differential oracle for the fused emit
//! and the input of the format fallback, which runs `execute_fast` on
//! a model whose compilation failed.
//!
//! It also holds the one batching rule, [`pop_batch`], which the
//! threaded server and the virtual-clock simulator both call: when the
//! device is free, dispatch; take what fits.

use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

use dlmc::Matrix;
use jigsaw_core::fault::{self, points, FaultError};
use jigsaw_core::{panelize_parts_into, ExecError};

/// How a request was rejected at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The named model is not registered.
    UnknownModel(String),
    /// The request's B height does not match the model's K.
    DimMismatch {
        /// Model the request addressed.
        model: String,
        /// The model's reduction dimension.
        expected_k: usize,
        /// The request's `b.rows`.
        got: usize,
    },
    /// The request is wider than any batch the server may form.
    TooWide {
        /// The request's `b.cols`.
        n: usize,
        /// The server's `max_batch_n`.
        max_batch_n: usize,
    },
    /// The request carries no columns.
    EmptyRequest,
    /// The model's queue is at capacity — backpressure.
    QueueFull {
        /// Model whose queue is full.
        model: String,
        /// The configured per-model queue capacity.
        cap: usize,
    },
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The model's circuit breaker is open after repeated failures —
    /// fast-reject instead of queuing behind a failing backend.
    CircuitOpen {
        /// Model whose circuit is open.
        model: String,
        /// How long until the breaker admits a probe.
        retry_after: Duration,
        /// Shard whose breaker tripped (`None` on an unsharded
        /// server; the shard router always fills it in).
        shard: Option<usize>,
    },
    /// No live shard can take the request: the model's home shard is
    /// down and it holds no replicas elsewhere (or routing itself was
    /// fault-injected). Only the shard router produces this.
    ShardUnavailable {
        /// Model the request addressed.
        model: String,
        /// The model's home shard on the ring.
        shard: usize,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            AdmitError::DimMismatch {
                model,
                expected_k,
                got,
            } => write!(
                f,
                "model {model:?} expects B with {expected_k} rows, request has {got}"
            ),
            AdmitError::TooWide { n, max_batch_n } => write!(
                f,
                "request width {n} exceeds the maximum batch width {max_batch_n}"
            ),
            AdmitError::EmptyRequest => write!(f, "request has zero columns"),
            AdmitError::QueueFull { model, cap } => {
                write!(f, "queue for model {model:?} is full ({cap} requests)")
            }
            AdmitError::ShuttingDown => write!(f, "server is shutting down"),
            AdmitError::CircuitOpen {
                model,
                retry_after,
                shard,
            } => match shard {
                Some(s) => write!(
                    f,
                    "circuit open for model {model:?} on shard {s}; retry after {retry_after:?}"
                ),
                None => write!(
                    f,
                    "circuit open for model {model:?}; retry after {retry_after:?}"
                ),
            },
            AdmitError::ShardUnavailable { model, shard } => write!(
                f,
                "no live shard for model {model:?} (home shard {shard} down, no replicas)"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Per-request accounting attached to every response.
#[derive(Clone, Debug, Default)]
pub struct RequestStats {
    /// This request's proportional share (`n_i / n_batch`) of the
    /// batch's simulated duration, cycles.
    pub device_cycles: f64,
    /// The whole batch's simulated duration, cycles.
    pub batch_cycles: f64,
    /// Requests coalesced into the batch (≥ 1).
    pub batch_requests: usize,
    /// Total B columns of the batch.
    pub batch_n: usize,
    /// Whether serving this batch planned (or disk-loaded) the model —
    /// a cache miss the batch paid for.
    pub cold: bool,
    /// Host nanoseconds spent planning/loading on a cold fetch
    /// (0 on a warm hit).
    pub plan_host_ns: u64,
    /// Host nanoseconds the request spent queued before execution
    /// (threaded server only; 0 in the virtual-clock simulator).
    pub queue_host_ns: u64,
}

/// One completed SpMM request: the `rows × cols` product (f32
/// accumulator precision, row-major) plus its accounting.
#[derive(Clone, Debug)]
pub struct SpmmResponse {
    /// Output rows (the model's M).
    pub rows: usize,
    /// Output columns (the request's N).
    pub cols: usize,
    /// Row-major `rows × cols` product.
    pub c: Vec<f32>,
    /// Accounting for this request.
    pub stats: RequestStats,
    /// The request's span tree (admission → queue → batch → kernel …)
    /// when tracing was enabled at submit time; `None` otherwise.
    pub trace: Option<jigsaw_obs::SpanRecord>,
}

/// Why a batch could not be assembled or split — the typed edges of
/// the column-concatenation algebra (shared by [`concat_columns`] and
/// the fused [`assemble_panels`] emit). Admission validates requests
/// before they reach a batch, so hitting one of these in the server is
/// a logic bug (or an injected fault) that fails the batch as a value,
/// never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A batch of zero parts has no well-defined K.
    EmptyBatch,
    /// A part carries zero columns — admission rejects these as
    /// [`AdmitError::EmptyRequest`], so one inside a batch means the
    /// batch was assembled from an unvalidated path.
    ZeroWidthPart {
        /// Index of the offending part / width.
        index: usize,
    },
    /// Parts disagree on the reduction dimension.
    RowMismatch {
        /// Rows of part 0 (the batch's K).
        expected: usize,
        /// Rows of the offending part.
        got: usize,
        /// Index of the offending part.
        index: usize,
    },
    /// The product buffer does not hold `m × Σwidths` elements.
    SizeMismatch {
        /// Elements in the product buffer.
        c_len: usize,
        /// Output rows.
        m: usize,
        /// Sum of the requested widths.
        total: usize,
    },
    /// The panel scratch cannot hold the batch's `k × Σwidths` f32
    /// image.
    ScratchTooSmall {
        /// Required `k × Σwidths` element count.
        needed: usize,
        /// Elements in the scratch handed in.
        got: usize,
    },
    /// An armed [`fault`] injection at `serve.assemble` fired during
    /// assembly — the server fails the batch.
    Fault(FaultError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::EmptyBatch => write!(f, "cannot assemble a batch of zero parts"),
            BatchError::ZeroWidthPart { index } => {
                write!(f, "batch part {index} has zero columns")
            }
            BatchError::RowMismatch {
                expected,
                got,
                index,
            } => write!(
                f,
                "batch part {index} has {got} rows, batch K is {expected}"
            ),
            BatchError::SizeMismatch { c_len, m, total } => write!(
                f,
                "product of {c_len} elements cannot split into {m}x{total}"
            ),
            BatchError::ScratchTooSmall { needed, got } => write!(
                f,
                "panel scratch holds {got} f32, the fused batch image needs {needed}"
            ),
            BatchError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultError> for BatchError {
    fn from(e: FaultError) -> BatchError {
        BatchError::Fault(e)
    }
}

/// Folds the kernel-side typed edges into the batch vocabulary so the
/// batch path can thread `jigsaw_core` errors with `?`. The part
/// `index` (and, for an output-size mismatch, the `m`) are unknown at
/// this boundary and come back as 0 — these conversions only ever
/// describe a failed batch, not admission errors.
impl From<ExecError> for BatchError {
    fn from(e: ExecError) -> BatchError {
        match e {
            ExecError::ScratchTooSmall { needed, got } => {
                BatchError::ScratchTooSmall { needed, got }
            }
            ExecError::BRowsMismatch { expected_k, got }
            | ExecError::PanelLayoutMismatch {
                expected_k,
                got_k: got,
            } => BatchError::RowMismatch {
                expected: expected_k,
                got,
                index: 0,
            },
            ExecError::OutputSizeMismatch { expected, got } => BatchError::SizeMismatch {
                c_len: got,
                m: 0,
                total: expected,
            },
        }
    }
}

/// The shared height K of a batch's parts, after the validation both
/// assemblers run: at least one part ([`BatchError::EmptyBatch`]), no
/// zero-width part ([`BatchError::ZeroWidthPart`]), and every part as
/// tall as the first ([`BatchError::RowMismatch`]).
fn batch_rows(parts: &[&Matrix]) -> Result<usize, BatchError> {
    let rows = parts.first().ok_or(BatchError::EmptyBatch)?.rows;
    for (index, p) in parts.iter().enumerate() {
        if p.cols == 0 {
            return Err(BatchError::ZeroWidthPart { index });
        }
        if p.rows != rows {
            return Err(BatchError::RowMismatch {
                expected: rows,
                got: p.rows,
                index,
            });
        }
    }
    Ok(rows)
}

/// Concatenates same-height matrices along the column axis.
///
/// Typed-error edges: an empty `parts` slice is
/// [`BatchError::EmptyBatch`], a zero-width part is
/// [`BatchError::ZeroWidthPart`], and disagreeing heights are
/// [`BatchError::RowMismatch`] — admission validates all three before
/// a request can reach a batch, so the server treats an `Err` here as
/// a failed batch, not a panic.
pub fn concat_columns(parts: &[&Matrix]) -> Result<Matrix, BatchError> {
    let rows = batch_rows(parts)?;
    let cols: usize = parts.iter().map(|p| p.cols).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for p in parts {
            data.extend_from_slice(p.row(r));
        }
    }
    Ok(Matrix { rows, cols, data })
}

/// Fused batch assembly: converts the parts' F16 columns **directly**
/// into the kernel's panel-major f32 layout in `scratch`, skipping the
/// intermediate concatenated `Matrix` entirely (the batched-B fusion
/// this module long promised). Returns the assembled `(k, Σwidths)`
/// shape, ready to wrap in a `jigsaw_core::PanelizedB` for
/// `CompiledKernel::execute_prepaneled_into_opts`.
///
/// Bit-exact with [`concat_columns`] followed by the kernel's phase-1
/// panelization — both write the same `F16 → f32` conversion of the
/// same element to the same slot — so that two-touch pair is the
/// differential oracle for this one.
///
/// Typed-error edges: the same [`BatchError::EmptyBatch`] /
/// [`BatchError::ZeroWidthPart`] / [`BatchError::RowMismatch`]
/// validation as [`concat_columns`], plus
/// [`BatchError::ScratchTooSmall`] when the pooled scratch cannot hold
/// `k × Σwidths` f32. Crosses the `serve.assemble` fault point: an
/// injected error comes back as [`BatchError::Fault`] and the server
/// fails the batch; an injected panic unwinds to the batch guard.
pub fn assemble_panels(
    parts: &[&Matrix],
    scratch: &mut [f32],
) -> Result<(usize, usize), BatchError> {
    batch_rows(parts)?;
    fault::hit(points::SERVE_ASSEMBLE)?;
    // Heights were validated above, so the core assembler's only live
    // edge is scratch capacity.
    panelize_parts_into(parts, scratch).map_err(BatchError::from)
}

/// Splits a row-major `m × Σwidths` product back into per-request
/// row-major blocks, inverting [`concat_columns`].
///
/// Typed-error edges mirror [`concat_columns`]: an empty `widths`
/// slice is [`BatchError::EmptyBatch`], a zero width is
/// [`BatchError::ZeroWidthPart`], and a product buffer that is not
/// `m × Σwidths` is [`BatchError::SizeMismatch`].
pub fn split_columns(c: &[f32], m: usize, widths: &[usize]) -> Result<Vec<Vec<f32>>, BatchError> {
    if widths.is_empty() {
        return Err(BatchError::EmptyBatch);
    }
    if let Some(index) = widths.iter().position(|&w| w == 0) {
        return Err(BatchError::ZeroWidthPart { index });
    }
    let total: usize = widths.iter().sum();
    if c.len() != m * total {
        return Err(BatchError::SizeMismatch {
            c_len: c.len(),
            m,
            total,
        });
    }
    let mut out: Vec<Vec<f32>> = widths.iter().map(|&w| Vec::with_capacity(m * w)).collect();
    let mut off = 0;
    for (j, &w) in widths.iter().enumerate() {
        for r in 0..m {
            out[j].extend_from_slice(&c[r * total + off..r * total + off + w]);
        }
        off += w;
    }
    Ok(out)
}

/// The caps of the one batching rule.
#[derive(Clone, Copy, Debug)]
pub struct BatchLimits {
    /// Maximum total B columns per batch.
    pub max_batch_n: usize,
    /// Maximum requests per batch (`1` disables batching).
    pub max_batch_requests: usize,
}

/// A queued request as the batching rule sees it: its dispatch
/// deadline on the caller's clock, and its B width.
pub trait QueuedRequest {
    /// Dispatch deadline (`None` waits forever).
    fn deadline(&self) -> Option<f64>;
    /// B columns.
    fn width(&self) -> usize;
}

/// Whether a request is shed when dispatched at `at`. Strict, so a
/// request dispatched exactly at its deadline is served.
pub fn expired(deadline: Option<f64>, at: f64) -> bool {
    deadline.is_some_and(|d| at > d)
}

/// The one batching rule, work-conserving: a device that is free
/// dispatches the oldest queued head at once, and the batch takes
/// every queued request behind it that fits. Nothing waits for
/// co-riders; requests that queue while the device is busy ride
/// together on its next dispatch.
///
/// Pops the batch dispatched at `at` off the front of `q`: each entry
/// reached is dropped if `cancelled`, handed to `shed` if [`expired`],
/// or taken whole while it fits. Returns the members and their width.
pub fn pop_batch<T: QueuedRequest>(
    q: &mut VecDeque<T>,
    limits: &BatchLimits,
    at: f64,
    mut cancelled: impl FnMut(&T) -> bool,
    mut shed: impl FnMut(T),
) -> (Vec<T>, usize) {
    let mut members = Vec::new();
    let mut total_n = 0usize;
    while let Some(front) = q.front() {
        if cancelled(front) {
            q.pop_front();
        } else if expired(front.deadline(), at) {
            shed(q.pop_front().expect("front exists"));
        } else if members.len() + 1 > limits.max_batch_requests
            || (!members.is_empty() && total_n + front.width() > limits.max_batch_n)
        {
            break;
        } else {
            total_n += front.width();
            members.push(q.pop_front().expect("front exists"));
        }
    }
    (members, total_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmc::{dense_rhs, ValueDist, VectorSparseSpec};
    use jigsaw_core::{execute_fast, JigsawConfig, JigsawSpmm};

    #[test]
    fn concat_then_split_roundtrips() {
        let b1 = dense_rhs(8, 3, ValueDist::SmallInt, 1);
        let b2 = dense_rhs(8, 5, ValueDist::SmallInt, 2);
        let cat = concat_columns(&[&b1, &b2]).unwrap();
        assert_eq!(cat.rows, 8);
        assert_eq!(cat.cols, 8);
        for r in 0..8 {
            assert_eq!(&cat.row(r)[..3], b1.row(r));
            assert_eq!(&cat.row(r)[3..], b2.row(r));
        }
    }

    #[test]
    fn batched_spmm_is_bit_identical_to_solo() {
        let a = VectorSparseSpec {
            rows: 64,
            cols: 96,
            sparsity: 0.9,
            v: 4,
            dist: ValueDist::SmallInt,
            seed: 11,
        }
        .generate();
        let planned = JigsawSpmm::plan(&a, JigsawConfig::v4(32)).unwrap();
        let parts: Vec<Matrix> = (0..3)
            .map(|i| dense_rhs(96, 4 + i, ValueDist::Uniform, 20 + i as u64))
            .collect();
        let refs: Vec<&Matrix> = parts.iter().collect();
        let batch_c = execute_fast(&planned.format, &concat_columns(&refs).unwrap());
        let widths: Vec<usize> = parts.iter().map(|p| p.cols).collect();
        let splits = split_columns(&batch_c, 64, &widths).unwrap();
        for (part, split) in parts.iter().zip(&splits) {
            assert_eq!(split, &execute_fast(&planned.format, part), "bit-exact");
        }
    }

    #[test]
    fn split_handles_degenerate_widths() {
        let c = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let parts = split_columns(&c, 2, &[1, 2]).unwrap();
        assert_eq!(parts[0], vec![1.0, 4.0]);
        assert_eq!(parts[1], vec![2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_rejects_empty_batch_and_zero_width_parts() {
        assert_eq!(concat_columns(&[]), Err(BatchError::EmptyBatch));

        let ok = dense_rhs(8, 3, ValueDist::SmallInt, 1);
        let empty = Matrix {
            rows: 8,
            cols: 0,
            data: Vec::new(),
        };
        assert_eq!(
            concat_columns(&[&ok, &empty]),
            Err(BatchError::ZeroWidthPart { index: 1 })
        );
    }

    #[test]
    fn concat_rejects_row_mismatch_with_the_offending_index() {
        let b1 = dense_rhs(8, 3, ValueDist::SmallInt, 1);
        let b2 = dense_rhs(6, 2, ValueDist::SmallInt, 2);
        assert_eq!(
            concat_columns(&[&b1, &b2]),
            Err(BatchError::RowMismatch {
                expected: 8,
                got: 6,
                index: 1
            })
        );
    }

    #[test]
    fn fused_assembly_matches_concat_then_panelize_bit_exactly() {
        let parts: Vec<Matrix> = [(3usize, 31u64), (7, 32), (1, 33), (12, 34)]
            .iter()
            .map(|&(n, seed)| dense_rhs(48, n, ValueDist::Uniform, seed))
            .collect();
        let refs: Vec<&Matrix> = parts.iter().collect();
        let total: usize = parts.iter().map(|p| p.cols).sum();
        let mut fused = vec![0.0f32; 48 * total];
        assert_eq!(assemble_panels(&refs, &mut fused), Ok((48, total)));
        let cat = concat_columns(&refs).unwrap();
        let mut oracle = vec![0.0f32; 48 * total];
        jigsaw_core::panelize_into(&cat, &mut oracle).unwrap();
        assert_eq!(fused, oracle, "fused emit is bit-exact with two-touch");
    }

    #[test]
    fn fused_assembly_shares_concat_validation_and_adds_scratch_edge() {
        let mut scratch = vec![0.0f32; 64];
        assert_eq!(
            assemble_panels(&[], &mut scratch),
            Err(BatchError::EmptyBatch)
        );
        let ok = dense_rhs(8, 3, ValueDist::SmallInt, 1);
        let empty = Matrix {
            rows: 8,
            cols: 0,
            data: Vec::new(),
        };
        assert_eq!(
            assemble_panels(&[&ok, &empty], &mut scratch),
            Err(BatchError::ZeroWidthPart { index: 1 })
        );
        let short = dense_rhs(6, 2, ValueDist::SmallInt, 2);
        assert_eq!(
            assemble_panels(&[&ok, &short], &mut scratch),
            Err(BatchError::RowMismatch {
                expected: 8,
                got: 6,
                index: 1
            })
        );
        let mut tiny = vec![0.0f32; 8 * 3 - 1];
        assert_eq!(
            assemble_panels(&[&ok], &mut tiny),
            Err(BatchError::ScratchTooSmall {
                needed: 24,
                got: 23
            })
        );
    }

    #[test]
    fn split_rejects_empty_zero_width_and_size_mismatch() {
        let c = vec![0.0; 6];
        assert_eq!(split_columns(&c, 2, &[]), Err(BatchError::EmptyBatch));
        assert_eq!(
            split_columns(&c, 2, &[1, 0, 2]),
            Err(BatchError::ZeroWidthPart { index: 1 })
        );
        assert_eq!(
            split_columns(&c, 2, &[1, 3]),
            Err(BatchError::SizeMismatch {
                c_len: 6,
                m: 2,
                total: 4
            })
        );
    }
}
