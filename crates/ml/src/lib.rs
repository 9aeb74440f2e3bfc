//! # mpass-ml — the machine-learning substrate
//!
//! The MPass reproduction cannot rely on PyTorch or LightGBM; this crate
//! implements the minimum viable ML stack the paper's detectors and attack
//! need, from scratch:
//!
//! * [`ParamBuf`] / [`Adam`] — parameter buffers with gradient storage and
//!   the Adam optimizer (used both to *train* detectors and to *optimize
//!   adversarial perturbations*, §III-D of the paper),
//! * [`Embedding`] — the byte-embedding layer through which perturbations
//!   are lifted to continuous space and mapped back to discrete bytes
//!   ([`Embedding::nearest_token`]),
//! * [`Conv1d`] — MalConv-style convolutions over byte embeddings, with
//!   backprop to both weights and inputs,
//! * [`Linear`], [`global_max_pool`], sigmoid/relu activations and the
//!   binary cross-entropy loss,
//! * [`Mlp`] — small dense classifier used inside simulated commercial AVs,
//! * [`Gbdt`] — histogram-based gradient-boosted decision trees standing in
//!   for LightGBM/EMBER,
//! * [`metrics`] — accuracy/AUC helpers.
//!
//! Every differentiable layer has one `backward`, generic over a
//! [`GradSink`] that keeps ([`Grads`]) or drops ([`NoGrads`]) parameter
//! gradients, so the ensemble-transfer optimizer's input-gradient chains
//! (loss → logits → conv → embedding) run the training backward.
//!
//! The serving-oriented additions live in two modules: [`simd`]
//! (element-wise, bit-exact f32 kernels the table forwards and the
//! backwards are built on) and [`snapshot`] (versioned, checksummed weight
//! buffers for O(read) hot reload).

// Inference kernels run inside the serving daemon; a stray panic there is
// an outage. Shape violations still use `assert!` (programmer error), but
// recoverable conditions must flow through typed errors.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod activation;
mod conv;
mod embedding;
mod gbdt;
mod grads;
mod linear;
mod loss;
pub mod metrics;
mod mlp;
mod param;
mod pool;
pub mod simd;
pub mod snapshot;
mod table;
mod workspace;

pub use activation::{relu, relu_backward, sigmoid};
pub use conv::{Conv1d, ConvXposed};
pub use embedding::Embedding;
pub use gbdt::{Gbdt, GbdtParams};
pub use grads::{GradSink, Grads, NoGrads};
pub use linear::Linear;
pub use loss::{bce_with_logits, bce_with_logits_backward};
pub use mlp::Mlp;
pub use param::{Adam, ParamBuf};
pub use pool::global_max_pool;
pub use snapshot::{Snapshot, SnapshotBuilder, SnapshotError};
pub use table::{dirty_window_span, TokenConv, WindowMask, WindowRuns};
pub use workspace::{Cached, Workspace};
