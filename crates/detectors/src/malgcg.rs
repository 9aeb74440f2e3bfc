//! MalGCG — the paper's fourth offline model, standing in for "Classifying
//! sequences of extreme length with constant memory" (Raff et al., 2021).
//!
//! Architecturally distinct from MalConv: two *stacked* byte convolutions
//! (a local feature layer feeding a coarse aggregation layer) with
//! concatenated mean- and max-pooling, so its critical byte regions and
//! gradients differ from the MalConv family — which is what makes it a
//! meaningful fourth transfer target.

use crate::malconv::{data_extent, token_at, tokenize, unrunnable, PaddedInput, PAD, VOCAB};
use crate::traits::{Detector, WhiteBoxModel, WhiteBoxSession};
use mpass_ml::{
    bce_with_logits, bce_with_logits_backward, global_max_pool, global_max_pool_backward,
    relu, relu_backward, sigmoid, Adam, Cached, Conv1d, ConvXposed, Embedding, Linear,
    Snapshot, SnapshotBuilder, SnapshotError, TokenConv, WindowMask, Workspace,
};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Hyper-parameters for [`MalGcg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MalGcgConfig {
    /// Leading file bytes consumed.
    pub window: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// First-layer channels.
    pub ch1: usize,
    /// First-layer kernel/stride (byte positions).
    pub kernel1: usize,
    /// First-layer stride.
    pub stride1: usize,
    /// Second-layer channels.
    pub ch2: usize,
    /// Second-layer kernel (over layer-1 windows).
    pub kernel2: usize,
    /// Second-layer stride.
    pub stride2: usize,
    /// Dense head width.
    pub hidden: usize,
}

impl Default for MalGcgConfig {
    fn default() -> Self {
        MalGcgConfig {
            window: 16 * 1024,
            embed_dim: 4,
            ch1: 12,
            kernel1: 128,
            stride1: 64,
            ch2: 16,
            kernel2: 4,
            stride2: 2,
            hidden: 16,
        }
    }
}

impl MalGcgConfig {
    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        MalGcgConfig {
            window: 4096,
            embed_dim: 4,
            ch1: 6,
            kernel1: 32,
            stride1: 32,
            ch2: 8,
            kernel2: 4,
            stride2: 2,
            hidden: 8,
        }
    }
}

/// The MalGCG detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MalGcg {
    config: MalGcgConfig,
    embedding: Embedding,
    conv1: Conv1d,
    conv2: Conv1d,
    head1: Linear,
    head2: Linear,
    threshold: f32,
    /// Token-indexed layer-1 responses; rebuilt lazily after training.
    /// Layer 2 reads layer-1 activations, not tokens, so it has no table.
    tables: Cached<TokenConv>,
}

struct Activations {
    tokens: Vec<usize>,
    x: Vec<f32>,
    c1: Vec<f32>,
    r1: Vec<f32>,
    c2: Vec<f32>,
    r2: Vec<f32>,
    argmax: Vec<usize>,
    pooled: Vec<f32>, // max ++ mean, length 2*ch2
    a1: Vec<f32>,
    h1: Vec<f32>,
    logit: f32,
}

impl MalGcg {
    /// Fresh untrained model.
    pub fn new<R: Rng + ?Sized>(config: MalGcgConfig, rng: &mut R) -> Self {
        MalGcg {
            config,
            embedding: Embedding::new(VOCAB, config.embed_dim, rng),
            conv1: Conv1d::new(config.embed_dim, config.ch1, config.kernel1, config.stride1, rng),
            conv2: Conv1d::new(config.ch1, config.ch2, config.kernel2, config.stride2, rng),
            head1: Linear::new(config.ch2 * 2, config.hidden, rng),
            head2: Linear::new(config.hidden, 1, rng),
            threshold: 0.5,
            tables: Cached::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &MalGcgConfig {
        &self.config
    }

    /// Pack the trained weights into a versioned, checksummed
    /// [`Snapshot`]; see [`Snapshot`] for the reload contract.
    pub fn to_snapshot(&self) -> Snapshot {
        let c = &self.config;
        let mut b = SnapshotBuilder::new();
        b.meta("detector", "MalGCG")
            .meta("window", c.window)
            .meta("embed_dim", c.embed_dim)
            .meta("ch1", c.ch1)
            .meta("kernel1", c.kernel1)
            .meta("stride1", c.stride1)
            .meta("ch2", c.ch2)
            .meta("kernel2", c.kernel2)
            .meta("stride2", c.stride2)
            .meta("hidden", c.hidden)
            .tensor("embedding", &self.embedding.table.w)
            .tensor("conv1.weight", &self.conv1.weight.w)
            .tensor("conv1.bias", &self.conv1.bias.w)
            .tensor("conv2.weight", &self.conv2.weight.w)
            .tensor("conv2.bias", &self.conv2.bias.w)
            .tensor("head1.weight", &self.head1.weight.w)
            .tensor("head1.bias", &self.head1.bias.w)
            .tensor("head2.weight", &self.head2.weight.w)
            .tensor("head2.bias", &self.head2.bias.w)
            .tensor("threshold", &[self.threshold]);
        b.finish()
    }

    /// Rebuild the exact model a [`MalGcg::to_snapshot`] captured: scores
    /// are bit-identical to the source model's. Shape-validated and
    /// panic-free on untrusted snapshots.
    pub fn from_snapshot(snap: &Snapshot) -> Result<MalGcg, SnapshotError> {
        let config = MalGcgConfig {
            window: snap.meta_parsed("window")?,
            embed_dim: snap.meta_parsed("embed_dim")?,
            ch1: snap.meta_parsed("ch1")?,
            kernel1: snap.meta_parsed("kernel1")?,
            stride1: snap.meta_parsed("stride1")?,
            ch2: snap.meta_parsed("ch2")?,
            kernel2: snap.meta_parsed("kernel2")?,
            stride2: snap.meta_parsed("stride2")?,
            hidden: snap.meta_parsed("hidden")?,
        };
        let c = &config;
        if [c.window, c.embed_dim, c.ch1, c.kernel1, c.stride1].contains(&0)
            || [c.ch2, c.kernel2, c.stride2, c.hidden].contains(&0)
            || c.window < c.kernel1
            || (c.window - c.kernel1) / c.stride1 + 1 < c.kernel2
        {
            return Err(unrunnable(c));
        }
        let embedding = Embedding::from_weights(
            VOCAB,
            config.embed_dim,
            snap.tensor_sized("embedding", VOCAB * config.embed_dim)?.to_vec(),
        );
        let conv1 = Conv1d::from_weights(
            config.embed_dim,
            config.ch1,
            config.kernel1,
            config.stride1,
            snap.tensor_sized("conv1.weight", config.ch1 * config.kernel1 * config.embed_dim)?
                .to_vec(),
            snap.tensor_sized("conv1.bias", config.ch1)?.to_vec(),
        );
        let conv2 = Conv1d::from_weights(
            config.ch1,
            config.ch2,
            config.kernel2,
            config.stride2,
            snap.tensor_sized("conv2.weight", config.ch2 * config.kernel2 * config.ch1)?
                .to_vec(),
            snap.tensor_sized("conv2.bias", config.ch2)?.to_vec(),
        );
        let head1 = Linear::from_weights(
            config.ch2 * 2,
            config.hidden,
            snap.tensor_sized("head1.weight", config.hidden * config.ch2 * 2)?.to_vec(),
            snap.tensor_sized("head1.bias", config.hidden)?.to_vec(),
        );
        let head2 = Linear::from_weights(
            config.hidden,
            1,
            snap.tensor_sized("head2.weight", config.hidden)?.to_vec(),
            snap.tensor_sized("head2.bias", 1)?.to_vec(),
        );
        Ok(MalGcg {
            config,
            embedding,
            conv1,
            conv2,
            head1,
            head2,
            threshold: snap.tensor_scalar("threshold")?,
            tables: Cached::new(),
        })
    }

    /// The token-indexed layer-1 table, built on first use after training.
    fn tables(&self) -> &TokenConv {
        self.tables.get_or_build(|| TokenConv::build(&self.conv1, &self.embedding))
    }

    /// The mixed max/mean pooled features over cached `r2` activations,
    /// with the exact arithmetic of [`MalGcg::forward`]; also returns the
    /// max-pool argmax for backprop.
    fn pool_r2(&self, r2: &[f32]) -> (Vec<f32>, Vec<usize>) {
        let ch2 = self.config.ch2;
        let (maxed, argmax) = global_max_pool(r2, ch2);
        let windows2 = r2.len() / ch2;
        let mut mean = vec![0.0f32; ch2];
        for w in 0..windows2 {
            for c in 0..ch2 {
                mean[c] += r2[w * ch2 + c];
            }
        }
        for m in &mut mean {
            *m /= windows2 as f32;
        }
        let mut pooled = maxed;
        pooled.extend_from_slice(&mean);
        (pooled, argmax)
    }

    /// Pool + dense head over cached `r2` activations; returns the logit.
    fn head_logit(&self, r2: &[f32]) -> f32 {
        let (pooled, _) = self.pool_r2(r2);
        let h1 = relu(&self.head1.forward(&pooled));
        self.head2.forward(&h1)[0]
    }

    /// From cached stacked-conv activations: pool + head forward, then the
    /// input-grad-only backward through both conv layers. Every layer is
    /// used through `&self`, so no scratch model clone exists on this path.
    /// Returns the benign-direction loss and fills `grad` with `∂ℒ/∂x`
    /// over the full `window × dim` embedded input.
    fn backward_into(
        &self,
        ws: &mut Workspace,
        c1: &[f32],
        r1: &[f32],
        c2: &[f32],
        r2: &[f32],
        grad: &mut Vec<f32>,
    ) -> f32 {
        let ch2 = self.config.ch2;
        let windows2 = r2.len() / ch2;
        let (pooled, argmax) = self.pool_r2(r2);
        let a1 = self.head1.forward(&pooled);
        let h1 = relu(&a1);
        let logit = self.head2.forward(&h1)[0];
        let loss = bce_with_logits(logit, 0.0);
        let dlogit = bce_with_logits_backward(logit, 0.0);
        let mut dh1 = ws.take_f32(self.config.hidden);
        self.head2.backward_input(&[dlogit], &mut dh1);
        let da1 = relu_backward(&a1, &dh1);
        let mut dpooled = ws.take_f32(2 * ch2);
        self.head1.backward_input(&da1, &mut dpooled);
        // Max branch scatters to the winning windows; the mean branch
        // spreads uniformly over all of them.
        let mut dr2 = ws.take_f32(r2.len());
        for (c, &w) in argmax.iter().enumerate() {
            dr2[w * ch2 + c] = dpooled[c];
        }
        for w in 0..windows2 {
            for c in 0..ch2 {
                dr2[w * ch2 + c] += dpooled[ch2 + c] / windows2 as f32;
            }
        }
        let mut dc2 = ws.take_f32(c2.len());
        for i in 0..c2.len() {
            if c2[i] > 0.0 {
                dc2[i] = dr2[i];
            }
        }
        let mut dr1 = ws.take_f32(r1.len());
        self.conv2.backward_input(&dc2, &mut dr1);
        let mut dc1 = ws.take_f32(c1.len());
        for i in 0..c1.len() {
            if c1[i] > 0.0 {
                dc1[i] = dr1[i];
            }
        }
        grad.clear();
        grad.resize(self.config.window * self.embedding.dim(), 0.0);
        self.conv1.backward_input(&dc1, grad);
        ws.give_f32(dc1);
        ws.give_f32(dr1);
        ws.give_f32(dc2);
        ws.give_f32(dr2);
        ws.give_f32(dpooled);
        ws.give_f32(dh1);
        loss
    }

    fn forward(&self, bytes: &[u8]) -> Activations {
        let tokens = tokenize(bytes, self.config.window);
        let x = self.embedding.forward(&tokens);
        let c1 = self.conv1.forward(&x);
        let r1 = relu(&c1);
        let c2 = self.conv2.forward(&r1);
        let r2 = relu(&c2);
        let (pooled, argmax) = self.pool_r2(&r2);
        let a1 = self.head1.forward(&pooled);
        let h1 = relu(&a1);
        let logit = self.head2.forward(&h1)[0];
        Activations { tokens, x, c1, r1, c2, r2, argmax, pooled, a1, h1, logit }
    }

    fn backward(&mut self, act: &Activations, dlogit: f32) -> Vec<f32> {
        let ch2 = self.config.ch2;
        let dh1 = self.head2.backward(&act.h1, &[dlogit]);
        let da1 = relu_backward(&act.a1, &dh1);
        let dpooled = self.head1.backward(&act.pooled, &da1);
        let windows2 = act.r2.len() / ch2;
        let mut dr2 =
            global_max_pool_backward(&dpooled[..ch2], &act.argmax, windows2, ch2);
        // Mean-pool branch gradient.
        for w in 0..windows2 {
            for c in 0..ch2 {
                dr2[w * ch2 + c] += dpooled[ch2 + c] / windows2 as f32;
            }
        }
        let dc2 = relu_backward(&act.c2, &dr2);
        let dr1 = self.conv2.backward(&act.r1, &dc2);
        let dc1 = relu_backward(&act.c1, &dr1);
        self.conv1.backward(&act.x, &dc1)
    }

    /// Train on `(bytes, target)` pairs; returns the mean loss of the last
    /// epoch.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        data: &[(&[u8], f32)],
        epochs: usize,
        lr: f32,
        rng: &mut R,
    ) -> f32 {
        let adam = Adam::with_lr(lr);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut last = 0.0;
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut total = 0.0;
            for &i in &order {
                let (bytes, target) = data[i];
                let act = self.forward(bytes);
                total += bce_with_logits(act.logit, target);
                let dlogit = bce_with_logits_backward(act.logit, target);
                let dx = self.backward(&act, dlogit);
                self.embedding.backward(&act.tokens, &dx);
                adam.step(&mut self.embedding.table);
                adam.step(&mut self.conv1.weight);
                adam.step(&mut self.conv1.bias);
                adam.step(&mut self.conv2.weight);
                adam.step(&mut self.conv2.bias);
                adam.step(&mut self.head1.weight);
                adam.step(&mut self.head1.bias);
                adam.step(&mut self.head2.weight);
                adam.step(&mut self.head2.bias);
            }
            last = total / data.len().max(1) as f32;
        }
        // Weights changed: the derived token table must be rebuilt on
        // next use.
        self.tables.invalidate();
        last
    }

    /// Logits of `items`, appended to `out` in input order — the one f32
    /// inference kernel behind every black-box score (`score` and
    /// `raw_score` are a batch of one), bit-identical to the training
    /// `forward(..).logit`. Same pad-replication scheme as the
    /// MalConv batch path, applied at both layers: all-PAD layer-1 windows
    /// produce one constant relu row, and layer-2 windows whose receptive
    /// field lies entirely in that constant region produce one constant
    /// `r2` row — each computed once per batch through the real conv
    /// kernels, then replicated. Scratch is allocated once per batch and
    /// reused across items.
    fn logit_batch_into(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        let (window, ch1, ch2) = (self.config.window, self.config.ch1, self.config.ch2);
        let (kernel2, stride2) = (self.config.kernel2, self.config.stride2);
        let w1_total = self.conv1.windows(window);
        let w2_total = self.conv2.windows(w1_total);
        // Component-major weight copies, built once per batch: each
        // window's conv becomes lane-chunked axpy over contiguous output
        // channels, bit-identical to the scalar kernel.
        let x1 = self.conv1.transposed();
        let x2 = self.conv2.transposed();
        let mut input = PaddedInput::new(&self.embedding, window, &self.conv1);
        let mut c1_row = vec![0.0; ch1];
        let mut c2_row = vec![0.0; ch2];
        // Constant rows for the fully-padded tail, layer by layer.
        let mut pad_r1 = vec![0.0; ch1];
        x1.forward_window_into(&input.pad_patch, 0, &mut c1_row);
        relu_into(&c1_row, &mut pad_r1);
        let mut pad_r2 = vec![0.0; ch2];
        x2.forward_window_into(&pad_r1.repeat(kernel2), 0, &mut c2_row);
        relu_into(&c2_row, &mut pad_r2);
        let mut r1 = vec![0.0; w1_total * ch1];
        let mut r2 = vec![0.0; w2_total * ch2];
        out.reserve(items.len());
        for bytes in items {
            let data_w1 = input.embed(bytes);
            for w in 0..data_w1 {
                x1.forward_window_into(&input.x, w, &mut c1_row);
                relu_into(&c1_row, &mut r1[w * ch1..(w + 1) * ch1]);
            }
            // Layer-2 windows read kernel2 consecutive r1 rows; the PAD
            // rows still visible to a data-overlapping layer-2 window must
            // be materialized before the conv runs over them.
            let (data_w2, visible1) = data_extent(data_w1, kernel2, stride2, w2_total);
            for w in data_w1..visible1 {
                r1[w * ch1..(w + 1) * ch1].copy_from_slice(&pad_r1);
            }
            for w in 0..data_w2 {
                x2.forward_window_into(&r1, w, &mut c2_row);
                relu_into(&c2_row, &mut r2[w * ch2..(w + 1) * ch2]);
            }
            for row in r2[data_w2 * ch2..].chunks_exact_mut(ch2) {
                row.copy_from_slice(&pad_r2);
            }
            out.push(self.head_logit(&r2));
        }
    }
}

impl Detector for MalGcg {
    fn name(&self) -> &str {
        "MalGCG"
    }

    fn score(&self, bytes: &[u8]) -> f32 {
        sigmoid(self.raw_score(bytes))
    }

    fn raw_score(&self, bytes: &[u8]) -> f32 {
        let mut out = Vec::with_capacity(1);
        self.logit_batch_into(&[bytes], &mut out);
        out[0]
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    fn score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        let start = out.len();
        self.logit_batch_into(items, out);
        for s in &mut out[start..] {
            *s = sigmoid(*s);
        }
    }

    fn raw_score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.logit_batch_into(items, out);
    }
}

impl crate::traits::DetectorExt for MalGcg {
    fn as_white_box(&self) -> Option<&dyn WhiteBoxModel> {
        Some(self)
    }
}

impl WhiteBoxModel for MalGcg {
    fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    fn window(&self) -> usize {
        self.config.window
    }

    fn session(&self) -> Box<dyn WhiteBoxSession + '_> {
        Box::new(MalGcgSession::new(self))
    }
}

/// Incremental inference session: caches the tokenization and both conv
/// layers' activations. Dirty byte spans invalidate layer-1 windows, which
/// in turn invalidate the layer-2 windows whose receptive field overlaps
/// them; everything else is reused. Priming is the dirty span
/// `0..window`, so every result comes from the one per-window loop and
/// incremental results are bit-equal to a fresh session's.
struct MalGcgSession<'a> {
    net: &'a MalGcg,
    t1: &'a TokenConv,
    /// Layer 2's transposed kernel, bit-identical to the scalar one.
    x2: ConvXposed<'a>,
    ws: Workspace,
    tokens: Vec<usize>,
    c1: Vec<f32>,
    r1: Vec<f32>,
    c2: Vec<f32>,
    r2: Vec<f32>,
    /// Layer-1 and layer-2 windows to recompute in the current
    /// [`MalGcgSession::sync`].
    marked1: WindowMask,
    marked2: WindowMask,
    /// Length of the buffer the caches describe; `None` until primed.
    len: Option<usize>,
    /// Recomputations of each layer-1, then each layer-2 window in the
    /// last sync.
    #[cfg(test)]
    recomputed: Vec<u32>,
}

impl<'a> MalGcgSession<'a> {
    fn new(net: &'a MalGcg) -> Self {
        let c = &net.config;
        let windows1 = net.conv1.windows(c.window);
        let windows2 = net.conv2.windows(windows1);
        let cells1 = windows1 * c.ch1;
        let cells2 = windows2 * c.ch2;
        MalGcgSession {
            net,
            t1: net.tables(),
            x2: net.conv2.transposed(),
            ws: Workspace::default(),
            tokens: vec![PAD; c.window],
            c1: vec![0.0; cells1],
            r1: vec![0.0; cells1],
            c2: vec![0.0; cells2],
            r2: vec![0.0; cells2],
            marked1: WindowMask::new(windows1),
            marked2: WindowMask::new(windows2),
            len: None,
            #[cfg(test)]
            recomputed: vec![0; windows1 + windows2],
        }
    }

    /// Bring cached activations up to date with `bytes`, trusting `dirty`
    /// to cover every changed offset since the last call. Every span's
    /// tokens are updated first; then each dirty layer-1 window is
    /// recomputed once, from the final tokens, and after them each
    /// layer-2 window they feed, from the final layer-1 output.
    fn sync(&mut self, bytes: &[u8], dirty: &[Range<usize>]) {
        let (window, ch1, ch2) = (self.net.config.window, self.net.config.ch1, self.net.config.ch2);
        let prime = 0..window;
        let dirty = if self.len == Some(bytes.len()) {
            dirty
        } else {
            self.len = Some(bytes.len());
            std::slice::from_ref(&prime)
        };
        let windows1 = self.c1.len() / ch1;
        for r in dirty {
            let (lo, hi) = (r.start.min(window), r.end.min(window));
            for i in lo..hi {
                self.tokens[i] = token_at(bytes, i);
            }
            self.marked1.mark(self.t1.dirty_windows(window, lo, hi));
        }
        #[cfg(test)]
        self.recomputed.fill(0);
        for run in self.marked1.drain() {
            // Layer-1 windows are layer-2 input positions.
            self.marked2.mark(self.net.conv2.dirty_windows(windows1, run.start, run.end));
            for w in run {
                #[cfg(test)]
                {
                    self.recomputed[w] += 1;
                }
                let span = w * ch1..(w + 1) * ch1;
                self.t1.window_into(&self.tokens, w, &mut self.c1[span.clone()]);
                relu_into(&self.c1[span.clone()], &mut self.r1[span]);
            }
        }
        for w in self.marked2.drain().flatten() {
            #[cfg(test)]
            {
                self.recomputed[windows1 + w] += 1;
            }
            let span = w * ch2..(w + 1) * ch2;
            self.x2.forward_window_into(&self.r1, w, &mut self.c2[span.clone()]);
            relu_into(&self.c2[span.clone()], &mut self.r2[span]);
        }
        debug_assert_eq!(
            self.tokens.iter().enumerate().position(|(i, &t)| t != token_at(bytes, i)),
            None,
            "dirty spans did not cover every changed byte"
        );
    }
}

impl WhiteBoxSession for MalGcgSession<'_> {
    fn score_delta(&mut self, bytes: &[u8], dirty: &[Range<usize>]) -> f32 {
        self.sync(bytes, dirty);
        self.net.head_logit(&self.r2)
    }

    fn loss_grad_delta(
        &mut self,
        bytes: &[u8],
        dirty: &[Range<usize>],
        grad: &mut Vec<f32>,
    ) -> f32 {
        self.sync(bytes, dirty);
        self.net.backward_into(&mut self.ws, &self.c1, &self.r1, &self.c2, &self.r2, grad)
    }
}

/// `dst = max(src, 0)` element-wise: the relu of every MalGCG window.
fn relu_into(src: &[f32], dst: &mut [f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::training_pairs;
    use mpass_corpus::{CorpusConfig, Dataset};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn malgcg_learns_the_corpus() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 16,
            n_benign: 16,
            seed: 6,
            no_slack_fraction: 0.0,
        });
        let samples: Vec<_> = ds.samples.iter().collect();
        let pairs = training_pairs(&samples);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut m = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
        m.train(&pairs, 8, 5e-3, &mut rng);
        let correct = ds
            .samples
            .iter()
            .filter(|s| {
                (m.score(&s.bytes) > 0.5) == (s.label == mpass_corpus::Label::Malware)
            })
            .count();
        assert!(correct >= 27, "train accuracy {correct}/32");
    }

    #[test]
    fn gradient_has_window_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
        let mut grad = Vec::new();
        let loss = m.session().loss_grad_delta(&[0x55u8; 700], &[], &mut grad);
        assert!(loss.is_finite());
        assert_eq!(grad.len(), m.window() * m.embedding().dim());
    }

    #[test]
    fn score_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
        let s = m.score(&[1, 2, 3, 4]);
        assert!((0.0..=1.0).contains(&s));
    }

    fn trained_tiny() -> (MalGcg, Dataset) {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 16,
            n_benign: 16,
            seed: 6,
            no_slack_fraction: 0.0,
        });
        let samples: Vec<_> = ds.samples.iter().collect();
        let pairs = training_pairs(&samples);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut m = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
        m.train(&pairs, 3, 5e-3, &mut rng);
        (m, ds)
    }

    /// Every black-box score runs the two-level pad-replication batch
    /// kernel; batched, single-call `score` and single-call `raw_score`
    /// results must all stay bit-identical to the training forward's
    /// logit — including empty input, files shorter than one layer-1
    /// kernel, exactly one window, and files past the model window.
    #[test]
    fn score_batch_is_bit_identical_to_sequential_scores() {
        let (m, ds) = trained_tiny();
        let config = *m.config();
        let mut owned: Vec<Vec<u8>> = ds.samples.iter().map(|s| s.bytes.clone()).collect();
        owned.push(Vec::new());
        owned.push(vec![0x4d; 5]);
        owned.push(vec![0x90; config.kernel1 - 1]);
        owned.push(vec![0xcc; 33]);
        owned.push(vec![0x5a; config.window]);
        owned.push(vec![0xab; config.window + 100]);
        let items: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        let mut scores = Vec::new();
        let mut raw = Vec::new();
        m.score_batch(&items, &mut scores);
        m.raw_score_batch(&items, &mut raw);
        assert_eq!(scores.len(), items.len());
        for (i, bytes) in items.iter().enumerate() {
            let logit = m.forward(bytes).logit;
            let len = bytes.len();
            assert_eq!(raw[i].to_bits(), logit.to_bits(), "batched raw item {i} (len {len})");
            assert_eq!(m.raw_score(bytes).to_bits(), logit.to_bits(), "raw item {i} (len {len})");
            let p = sigmoid(logit);
            assert_eq!(scores[i].to_bits(), p.to_bits(), "batched item {i} (len {len})");
            assert_eq!(m.score(bytes).to_bits(), p.to_bits(), "item {i} (len {len})");
        }
    }

    /// The tabled white-box forward must agree with the naive training
    /// forward within float-reassociation error.
    #[test]
    fn tabled_logit_matches_naive_logit() {
        let (m, ds) = trained_tiny();
        for s in ds.samples.iter().take(6) {
            let naive = m.forward(&s.bytes).logit;
            let tabled = m.session().score_delta(&s.bytes, &[]);
            assert!(
                (naive - tabled).abs() < 1e-4,
                "{}: naive {naive} vs tabled {tabled}",
                s.name
            );
        }
    }

    /// Property: incremental `score_delta` over random dirty spans is
    /// bit-identical to a full recompute through the two-layer stack —
    /// including spans straddling layer-1 window boundaries and the end of
    /// the model window.
    #[test]
    fn score_delta_matches_full_recompute_exactly() {
        let (m, ds) = trained_tiny();
        let mut bytes = ds.malware()[0].bytes.clone();
        let mut sess = m.session();
        sess.score_delta(&bytes, &[]); // prime
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        // kernel1 = stride1 = 32 for tiny: 30..34 straddles a layer-1
        // boundary; 4090..4100 straddles the window edge (window = 4096).
        let fixed: [(usize, usize); 3] = [(30, 34), (4090, 4100), (0, 1)];
        for trial in 0..20 {
            let (lo, hi) = if trial < fixed.len() {
                fixed[trial]
            } else {
                let lo = rng.gen_range(0..bytes.len().min(4200));
                (lo, (lo + rng.gen_range(1..80)).min(bytes.len()))
            };
            let hi = hi.min(bytes.len());
            if lo >= hi {
                continue;
            }
            for b in &mut bytes[lo..hi] {
                *b = rng.gen();
            }
            let incremental = sess.score_delta(&bytes, std::slice::from_ref(&(lo..hi)));
            let full = m.session().score_delta(&bytes, &[]);
            assert_eq!(
                incremental.to_bits(),
                full.to_bits(),
                "trial {trial} span [{lo},{hi}): incremental {incremental} vs full {full}"
            );
        }
    }

    /// Property: incremental `loss_grad_delta` (loss and the full gradient
    /// buffer) is bit-identical to a fresh session's full recompute.
    #[test]
    fn loss_grad_delta_matches_full_recompute_exactly() {
        let (m, ds) = trained_tiny();
        let mut bytes = ds.malware()[1].bytes.clone();
        let mut sess = m.session();
        let mut g_inc = Vec::new();
        let mut g_full = Vec::new();
        sess.loss_grad_delta(&bytes, &[], &mut g_inc); // prime
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        for trial in 0..10 {
            let lo = rng.gen_range(0..4096.min(bytes.len() - 1));
            let hi = (lo + rng.gen_range(1..100)).min(bytes.len());
            for b in &mut bytes[lo..hi] {
                *b = rng.gen();
            }
            let li = sess.loss_grad_delta(&bytes, std::slice::from_ref(&(lo..hi)), &mut g_inc);
            let lf = m.session().loss_grad_delta(&bytes, &[], &mut g_full);
            assert_eq!(li.to_bits(), lf.to_bits(), "trial {trial} loss mismatch");
            assert_eq!(g_inc, g_full, "trial {trial} gradient mismatch");
        }
    }

    /// Optimizer-shaped dirty lists (hundreds of 1-byte spans, repeats,
    /// overlaps, edge and empty spans) give a fresh session's bits, and
    /// each call recomputes every layer-1 and layer-2 window at most once.
    #[test]
    fn multi_span_syncs_match_a_fresh_session_and_recompute_each_window_once() {
        let (m, ds) = trained_tiny();
        crate::session_check::check_multi_span(
            || MalGcgSession::new(&m),
            |s| &s.recomputed,
            ds.malware()[3].bytes.clone(),
            m.config.window,
            83,
        );
    }

    /// A session re-primes whenever `bytes.len()` changes, whatever
    /// `dirty` says: every score and gradient after a length change equals
    /// a fresh session's bit for bit, for longer and shorter buffers alike.
    #[test]
    fn sessions_reprime_when_the_length_changes() {
        let (m, ds) = trained_tiny();
        let full = &ds.malware()[2].bytes;
        let mut sess = m.session();
        sess.score_delta(&full[..2000], &[]); // prime
        let (mut g_live, mut g_fresh) = (Vec::new(), Vec::new());
        for len in [3000, 1000, full.len(), 40] {
            let bytes = &full[..len];
            let live = sess.score_delta(bytes, &[]);
            let fresh = m.session().score_delta(bytes, &[]);
            assert_eq!(live.to_bits(), fresh.to_bits(), "score after resize to {len}");
        }
        for len in [2500, 700] {
            let bytes = &full[..len];
            let live = sess.loss_grad_delta(bytes, &[], &mut g_live);
            let fresh = m.session().loss_grad_delta(bytes, &[], &mut g_fresh);
            assert_eq!(live.to_bits(), fresh.to_bits(), "loss after resize to {len}");
            assert_eq!(g_live, g_fresh, "gradient after resize to {len}");
        }
    }

    /// The gradient path never clones the model, and the session's
    /// workspace recycles its buffers across calls.
    #[test]
    fn gradient_path_is_zero_clone_and_reuses_buffers() {
        let (m, ds) = trained_tiny();
        let bytes = &ds.malware()[0].bytes;
        let mut sess = MalGcgSession::new(&m);
        let mut grad = Vec::new();
        let l1 = sess.loss_grad_delta(bytes, &[], &mut grad);
        let pooled_after_first = sess.ws.pooled();
        let g1 = grad.clone();
        let l2 = sess.loss_grad_delta(bytes, &[], &mut grad);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(g1, grad, "repeated calls must be deterministic");
        assert_eq!(sess.ws.pooled(), pooled_after_first, "buffer pool must reach steady state");
        // &self throughout: parameter gradients cannot have been touched.
        assert!(m.conv1.weight.g.iter().all(|&g| g == 0.0));
        assert!(m.conv2.weight.g.iter().all(|&g| g == 0.0));
        assert!(m.head1.weight.g.iter().all(|&g| g == 0.0));
        assert!(m.tables.is_built());
    }
}
