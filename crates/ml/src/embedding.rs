//! Byte-embedding layer.
//!
//! MalConv-family detectors embed each input byte into a small dense
//! vector. The MPass optimizer exploits exactly this layer: perturbations
//! are optimized *in embedding space* and mapped back to discrete bytes via
//! nearest-neighbour lookup ([`Embedding::nearest_token`]), following the
//! paper's §III-D ("the perturbations are first lifted to feature vectors
//! using the embedding layer ... and get mapped back to discrete bytes").

use crate::param::ParamBuf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A learned `vocab × dim` embedding table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    /// Embedding table parameters, row-major `[vocab][dim]`.
    pub table: ParamBuf,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// New table with uniform init.
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Embedding { table: ParamBuf::uniform(vocab * dim, 0.5, rng), vocab, dim }
    }

    /// Reconstruct a table from serialized weights (e.g. a weight
    /// snapshot). Optimizer moments start fresh, which is exact for
    /// inference-only use.
    ///
    /// # Panics
    ///
    /// Panics if `table.len() != vocab * dim`.
    pub fn from_weights(vocab: usize, dim: usize, table: Vec<f32>) -> Self {
        assert_eq!(table.len(), vocab * dim, "embedding table shape mismatch");
        Embedding { table: ParamBuf::new(table), vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The embedding vector of `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token ≥ vocab`.
    ///
    /// `#[inline]` because the batch embed loops call this once per input
    /// byte from other crates; without cross-crate inlining the call and
    /// its bounds assert dominate the gather.
    #[inline]
    pub fn vector(&self, token: usize) -> &[f32] {
        assert!(token < self.vocab, "token {token} out of vocabulary {}", self.vocab);
        &self.table.w[token * self.dim..(token + 1) * self.dim]
    }

    /// Zero the embedding row of `token` and its gradient accumulator.
    /// Calling this at init and again after every backward pass keeps the
    /// row frozen at the zero vector — PyTorch's `padding_idx` semantics.
    /// Without it, on inputs shorter than the model window the padding
    /// windows dominate a global max-pool and both classes' gradients
    /// cancel through them.
    pub fn freeze_zero_row(&mut self, token: usize) {
        assert!(token < self.vocab, "token {token} out of vocabulary {}", self.vocab);
        self.table.w[token * self.dim..(token + 1) * self.dim].fill(0.0);
        self.table.g[token * self.dim..(token + 1) * self.dim].fill(0.0);
    }

    /// Accumulate the gradient `grad` of one embedded position holding
    /// `token` into that token's row.
    pub fn backward(&mut self, token: usize, grad: &[f32]) {
        debug_assert_eq!(grad.len(), self.dim);
        let row = &mut self.table.g[token * self.dim..(token + 1) * self.dim];
        for (r, &g) in row.iter_mut().zip(grad) {
            *r += g;
        }
    }

    /// The token whose embedding is nearest (L2) to `vec`, optionally
    /// restricted to tokens `< limit` (MalConv uses vocab 257 where token
    /// 256 is padding, which must not be emitted as a byte).
    pub fn nearest_token(&self, vec: &[f32], limit: usize) -> usize {
        debug_assert_eq!(vec.len(), self.dim);
        let limit = limit.min(self.vocab);
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for t in 0..limit {
            let row = self.vector(t);
            let mut d = 0.0;
            for (a, b) in row.iter().zip(vec) {
                let diff = a - b;
                d += diff * diff;
            }
            if d < best_d {
                best_d = d;
                best = t;
            }
        }
        best
    }

    /// Squared L2 norms `‖e(t)‖²` for every token `t < limit`. Recompute
    /// after weights change (i.e. after training).
    pub fn squared_norms(&self, limit: usize) -> Vec<f32> {
        let limit = limit.min(self.vocab);
        (0..limit)
            .map(|t| self.vector(t).iter().map(|a| a * a).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn emb() -> Embedding {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        Embedding::new(257, 4, &mut rng)
    }

    #[test]
    fn backward_accumulates_per_token() {
        let mut e = emb();
        e.table.zero_grad();
        for token in [7, 7, 9] {
            e.backward(token, &[1.0; 4]);
        }
        // token 7 appears twice → gradient 2.0 per component.
        assert!(e.table.g[7 * 4..8 * 4].iter().all(|&g| (g - 2.0).abs() < 1e-6));
        assert!(e.table.g[9 * 4..10 * 4].iter().all(|&g| (g - 1.0).abs() < 1e-6));
        assert!(e.table.g[..4].iter().all(|&g| g == 0.0));
    }

    #[test]
    fn nearest_token_recovers_own_vector() {
        let e = emb();
        for t in [0usize, 100, 255] {
            let v = e.vector(t).to_vec();
            assert_eq!(e.nearest_token(&v, 256), t);
        }
    }

    #[test]
    fn nearest_token_respects_limit() {
        let e = emb();
        // The pad token (256) can never be returned with limit 256.
        let v = e.vector(256).to_vec();
        assert!(e.nearest_token(&v, 256) < 256);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_panics() {
        let e = emb();
        let _ = e.vector(300);
    }
}
