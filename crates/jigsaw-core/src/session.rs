//! Inference-session API: the paper's amortization argument (§3.1 —
//! "the reorder only takes one-time light preprocessing, whose cost can
//! be amortized over inferences") made concrete. A [`Session`] plans a
//! stack of stationary weight matrices once, then runs forward passes
//! where each layer's SpMM output feeds the next layer's B operand.

use std::borrow::Cow;
use std::fmt;

use dlmc::Matrix;
use gpu_sim::{GpuSpec, KernelStats};
use sptc::f16::f32_to_f16_slice;
use sptc::F16;

use crate::config::JigsawConfig;
use crate::errors::PlanError;
use crate::pool::{PoolStats, WorkspacePool};
use crate::spmm::JigsawSpmm;

/// Why a [`Session`] operation was rejected. A serving layer sits on
/// top of this API, so dimension mistakes in a request must surface as
/// values, not process-killing panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// A new layer's input width does not chain with the previous
    /// layer's output height.
    LayerDimMismatch {
        /// Name of the offending layer.
        layer: String,
        /// The new layer's input dimension (`weights.cols`).
        input_dim: usize,
        /// The previous layer's output dimension (`rows`).
        expected: usize,
    },
    /// `forward` was called on a session with no layers.
    EmptySession,
    /// The input's feature dimension does not match the first layer.
    InputDimMismatch {
        /// The input's feature dimension (`input.rows`).
        input_dim: usize,
        /// The first layer's input dimension.
        expected: usize,
    },
    /// Planning the layer's weights failed.
    Plan(PlanError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::LayerDimMismatch {
                layer,
                input_dim,
                expected,
            } => write!(
                f,
                "layer {layer} input dim {input_dim} must match previous output dim {expected}"
            ),
            SessionError::EmptySession => write!(f, "session has no layers"),
            SessionError::InputDimMismatch {
                input_dim,
                expected,
            } => write!(
                f,
                "input features {input_dim} must match the first layer ({expected})"
            ),
            SessionError::Plan(e) => write!(f, "planning failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for SessionError {
    fn from(e: PlanError) -> SessionError {
        SessionError::Plan(e)
    }
}

/// One planned layer.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Layer name (for reports).
    pub name: String,
    /// The planned weight matrix (`rows × cols`).
    pub spmm: JigsawSpmm,
    /// Weight matrix height (output features).
    pub rows: usize,
    /// Weight matrix width (input features).
    pub cols: usize,
}

/// A planned stack of layers sharing one device.
pub struct Session {
    layers: Vec<Layer>,
    spec: GpuSpec,
    /// Reused C/scratch buffers across layers and passes. After the
    /// first pass warms it, a forward pass allocates only one
    /// activation matrix per layer; C and the B-conversion scratch
    /// come from the pool.
    pool: WorkspacePool,
    /// Cumulative simulated cycles across all forward passes.
    pub total_cycles: f64,
    /// Forward passes run.
    pub passes: usize,
}

/// Per-pass report.
#[derive(Clone, Debug)]
pub struct ForwardReport {
    /// Per-layer simulated kernel stats, in execution order.
    pub layers: Vec<(String, KernelStats)>,
    /// Sum of the layer durations, cycles.
    pub total_cycles: f64,
}

impl Session {
    /// Creates an empty session for a device.
    pub fn new(spec: GpuSpec) -> Session {
        Session {
            layers: Vec::new(),
            spec,
            pool: WorkspacePool::new(),
            total_cycles: 0.0,
            passes: 0,
        }
    }

    /// Plans and appends a layer. Consecutive layers must chain:
    /// this layer's `cols` must equal the previous layer's `rows`.
    pub fn add_layer(
        &mut self,
        name: &str,
        weights: &Matrix,
        config: JigsawConfig,
    ) -> Result<&Layer, SessionError> {
        if let Some(prev) = self.layers.last() {
            if weights.cols != prev.rows {
                return Err(SessionError::LayerDimMismatch {
                    layer: name.to_string(),
                    input_dim: weights.cols,
                    expected: prev.rows,
                });
            }
        }
        let spmm = JigsawSpmm::plan(weights, config)?;
        self.layers.push(Layer {
            name: name.to_string(),
            spmm,
            rows: weights.rows,
            cols: weights.cols,
        });
        Ok(self.layers.last().expect("just pushed"))
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Runs a forward pass: `x_{i+1} = W_i × x_i`, rounding activations
    /// through f16 between layers (as a real fp16 pipeline would).
    /// Returns the final activations and the per-layer timing report.
    pub fn forward(&mut self, input: &Matrix) -> Result<(Matrix, ForwardReport), SessionError> {
        if self.layers.is_empty() {
            return Err(SessionError::EmptySession);
        }
        if input.rows != self.layers[0].cols {
            return Err(SessionError::InputDimMismatch {
                input_dim: input.rows,
                expected: self.layers[0].cols,
            });
        }
        let n = input.cols;
        // The first layer reads the caller's input in place; each later
        // layer reads the activations the one before it produced.
        let mut activations = Cow::Borrowed(input);
        let mut report = ForwardReport {
            layers: Vec::with_capacity(self.layers.len()),
            total_cycles: 0.0,
        };
        for layer in &self.layers {
            // Pooled execution: C and the B-conversion scratch come
            // from (and return to) the session's workspace pool.
            let c = layer
                .spmm
                .compiled()
                .execute_pooled(&activations, &self.pool);
            // Planned weights are stationary, so each layer simulates
            // once per width; later passes read its memo.
            let (stats, _) = layer.spmm.simulate_memoized(n, &self.spec);
            report.total_cycles += stats.duration_cycles;
            report.layers.push((layer.name.clone(), stats));
            // f32 accumulators round back to f16 activations.
            let mut data = vec![F16::ZERO; c.len()];
            f32_to_f16_slice(&c, &mut data);
            activations = Cow::Owned(Matrix {
                rows: layer.rows,
                cols: n,
                data,
            });
        }
        self.total_cycles += report.total_cycles;
        self.passes += 1;
        Ok((activations.into_owned(), report))
    }

    /// Workspace-pool accounting: after the first forward pass warms
    /// the pool, `misses` stops growing.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The amortization ledger: planning happened once, execution
    /// `passes` times — average simulated cycles per pass so far.
    pub fn avg_cycles_per_pass(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.total_cycles / self.passes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmc::{dense_rhs, ValueDist, VectorSparseSpec};

    fn weights(rows: usize, cols: usize, seed: u64) -> Matrix {
        weights_of(ValueDist::SmallInt, rows, cols, seed)
    }

    fn weights_of(dist: ValueDist, rows: usize, cols: usize, seed: u64) -> Matrix {
        VectorSparseSpec {
            rows,
            cols,
            sparsity: 0.9,
            v: 4,
            dist,
            seed,
        }
        .generate()
    }

    #[test]
    fn forward_chains_layers_correctly() {
        let w0 = weights(64, 32, 1);
        let w1 = weights(32, 64, 2);
        let mut session = Session::new(GpuSpec::a100());
        session.add_layer("up", &w0, JigsawConfig::v4(32)).unwrap();
        session
            .add_layer("down", &w1, JigsawConfig::v4(16))
            .unwrap();
        assert_eq!(session.depth(), 2);

        let x = dense_rhs(32, 8, ValueDist::SmallInt, 3);
        let (y, report) = session.forward(&x).unwrap();
        assert_eq!(y.rows, 32);
        assert_eq!(y.cols, 8);
        assert_eq!(report.layers.len(), 2);

        // Reference: the same chain with explicit f16 rounding.
        let h0: Vec<F16> = w0
            .matmul_reference(&x)
            .iter()
            .map(|&v| F16::from_f32(v))
            .collect();
        let h0 = Matrix {
            rows: 64,
            cols: 8,
            data: h0,
        };
        let y_ref: Vec<F16> = w1
            .matmul_reference(&h0)
            .iter()
            .map(|&v| F16::from_f32(v))
            .collect();
        assert_eq!(y.data, y_ref);
    }

    #[test]
    fn forward_rounds_uniform_activations_like_from_f32() {
        // Real-valued data, so most f32 outputs are not f16 values and
        // every layer boundary really rounds.
        let w0 = weights_of(ValueDist::Uniform, 64, 32, 1);
        let w1 = weights_of(ValueDist::Uniform, 32, 64, 2);
        let mut session = Session::new(GpuSpec::a100());
        session.add_layer("up", &w0, JigsawConfig::v4(32)).unwrap();
        session
            .add_layer("down", &w1, JigsawConfig::v4(16))
            .unwrap();
        let x = dense_rhs(32, 13, ValueDist::Uniform, 3);

        // Reference: the oracle executor, rounded per element.
        let mut h = x.clone();
        let mut inexact = 0;
        for layer in &session.layers {
            let c = crate::exec::execute_fast(&layer.spmm.format, &h);
            inexact += c
                .iter()
                .filter(|&&v| F16::from_f32(v).to_f32() != v)
                .count();
            h = Matrix {
                rows: layer.rows,
                cols: h.cols,
                data: c.iter().map(|&v| F16::from_f32(v)).collect(),
            };
        }
        assert!(inexact > 0, "uniform data must need rounding");
        for _ in 0..2 {
            let (y, _) = session.forward(&x).unwrap();
            assert_eq!(y.data, h.data);
        }
    }

    /// A forward pass over shelved buffers full of NaN or all-ones bits
    /// equals a fresh session's, bit for bit: every layer's C and
    /// scratch are overwritten before they are read. The first layer
    /// has a row with no nonzeros, the second an all-zero weight.
    #[test]
    fn stale_pool_buffers_change_no_forward_output() {
        let mut w0 = weights_of(ValueDist::Uniform, 64, 32, 1);
        w0.data[5 * 32..6 * 32].fill(F16::ZERO);
        let w1 = Matrix::zeros(48, 64);
        let w2 = weights_of(ValueDist::Uniform, 32, 48, 2);
        let session = || {
            let mut s = Session::new(GpuSpec::a100());
            s.add_layer("up", &w0, JigsawConfig::v4(32)).unwrap();
            s.add_layer("zero", &w1, JigsawConfig::v4(16)).unwrap();
            s.add_layer("down", &w2, JigsawConfig::v4(16)).unwrap();
            s
        };
        for n in [1, 13] {
            let x = dense_rhs(32, n, ValueDist::Uniform, 3);
            let (fresh, _) = session().forward(&x).unwrap();
            let mut reused = session();
            reused.forward(&x).unwrap();
            for bits in [0x7FC0_0000, 0xFFFF_FFFF] {
                let misses = reused.pool_stats().misses;
                reused.pool.fill_shelved(bits);
                let (y, _) = reused.forward(&x).unwrap();
                assert_eq!(y.data, fresh.data, "n={n} stale {bits:#x}");
                assert_eq!(reused.pool_stats().misses, misses, "reused the shelf");
            }
        }
    }

    #[test]
    fn mismatched_layer_dims_error() {
        let mut session = Session::new(GpuSpec::a100());
        session
            .add_layer("a", &weights(64, 32, 1), JigsawConfig::v4(32))
            .unwrap();
        let err = session
            .add_layer("b", &weights(32, 32, 2), JigsawConfig::v4(32))
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::LayerDimMismatch {
                layer: "b".to_string(),
                input_dim: 32,
                expected: 64,
            }
        );
        // The rejected layer was not appended.
        assert_eq!(session.depth(), 1);
        assert!(err.to_string().contains("must match"));
    }

    #[test]
    fn forward_input_errors_are_values() {
        let mut session = Session::new(GpuSpec::a100());
        let x = dense_rhs(64, 8, ValueDist::SmallInt, 5);
        assert_eq!(session.forward(&x).unwrap_err(), SessionError::EmptySession);
        session
            .add_layer("only", &weights(64, 32, 6), JigsawConfig::v4(32))
            .unwrap();
        assert_eq!(
            session.forward(&x).unwrap_err(),
            SessionError::InputDimMismatch {
                input_dim: 64,
                expected: 32,
            }
        );
        // Failed passes leave the ledger untouched.
        assert_eq!(session.passes, 0);
        assert_eq!(session.total_cycles, 0.0);
    }

    #[test]
    fn invalid_layer_config_propagates_as_plan_error() {
        use crate::errors::{ConfigError, PlanError};
        let mut session = Session::new(GpuSpec::a100());
        let err = session
            .add_layer("bad", &weights(64, 32, 7), JigsawConfig::v4(40))
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Plan(PlanError::Config(ConfigError::BlockTileNotMmaAligned {
                block_tile_m: 40,
            }))
        );
        assert_eq!(session.depth(), 0);
    }

    #[test]
    fn forward_passes_reuse_pooled_workspace() {
        let mut session = Session::new(GpuSpec::a100());
        session
            .add_layer("only", &weights(64, 64, 4), JigsawConfig::v4(32))
            .unwrap();
        let x = dense_rhs(64, 8, ValueDist::SmallInt, 5);
        session.forward(&x).unwrap();
        let cold = session.pool_stats();
        assert!(cold.misses >= 2, "first pass allocates C + scratch");
        session.forward(&x).unwrap();
        session.forward(&x).unwrap();
        let warm = session.pool_stats();
        assert_eq!(warm.misses, cold.misses, "warm passes never allocate");
        assert!(warm.hits >= 4, "warm passes are all pool hits: {warm:?}");
    }

    #[test]
    fn amortization_ledger_accumulates() {
        let mut session = Session::new(GpuSpec::a100());
        session
            .add_layer("only", &weights(64, 64, 4), JigsawConfig::v4(32))
            .unwrap();
        let x = dense_rhs(64, 8, ValueDist::SmallInt, 5);
        assert_eq!(session.avg_cycles_per_pass(), 0.0);
        let (_, r1) = session.forward(&x).unwrap();
        let (_, r2) = session.forward(&x).unwrap();
        assert_eq!(session.passes, 2);
        assert!(
            (r1.total_cycles - r2.total_cycles).abs() < 1e-9,
            "deterministic"
        );
        assert!((session.avg_cycles_per_pass() - r1.total_cycles).abs() < 1e-9);
    }
}
