//! MalGCG — the paper's fourth offline model, standing in for "Classifying
//! sequences of extreme length with constant memory" (Raff et al., 2021).
//!
//! Architecturally distinct from MalConv: two *stacked* byte convolutions
//! (a local feature layer feeding a coarse aggregation layer) with
//! concatenated mean- and max-pooling, so its critical byte regions and
//! gradients differ from the MalConv family — which is what makes it a
//! meaningful fourth transfer target.

use crate::malconv::{
    data_extent, token_at, train_epochs, unrunnable, PaddedInput, TrainScratch, PAD, VOCAB,
};
use crate::traits::{Detector, WhiteBoxModel, WhiteBoxSession};
use mpass_ml::{
    bce_with_logits, bce_with_logits_backward, global_max_pool, relu, relu_backward, sigmoid, Adam,
    Cached, Conv1d, ConvXposed, Embedding, GradSink, Grads, Linear, NoGrads, ParamBuf, Snapshot,
    SnapshotBuilder, SnapshotError, TokenConv, WindowMask, Workspace,
};
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

/// The relu rows of every window of both conv layers for one input: what
/// a forward (the batch kernel's or a session's) leaves for the backward.
struct ReluRows {
    r1: Vec<f32>,
    r2: Vec<f32>,
}

impl ReluRows {
    fn new(net: &MalGcg) -> Self {
        let (c, windows1) = (&net.config, net.conv1.windows(net.config.window));
        let windows2 = net.conv2.windows(windows1);
        ReluRows { r1: vec![0.0; windows1 * c.ch1], r2: vec![0.0; windows2 * c.ch2] }
    }
}

/// The batch kernel of one set of weights: component-major conv weights
/// and the relu rows of an all-PAD window at each layer (MalGCG's PAD
/// embedding trains too). Built once per batch, or per training step.
struct BatchKernel<'m> {
    net: &'m MalGcg,
    x1: ConvXposed<'m>,
    x2: ConvXposed<'m>,
    pad_r1: Vec<f32>,
    pad_r2: Vec<f32>,
}

impl<'m> BatchKernel<'m> {
    fn new(net: &'m MalGcg) -> Self {
        let c = &net.config;
        let (x1, x2) = (net.conv1.transposed(), net.conv2.transposed());
        let mut pad_r1 = vec![0.0; c.ch1];
        x1.forward_window_into(&net.embedding.vector(PAD).repeat(c.kernel1), 0, &mut pad_r1);
        relu_in_place(&mut pad_r1);
        let mut pad_r2 = vec![0.0; c.ch2];
        x2.forward_window_into(&pad_r1.repeat(c.kernel2), 0, &mut pad_r2);
        relu_in_place(&mut pad_r2);
        BatchKernel { net, x1, x2, pad_r1, pad_r2 }
    }

    /// The one forward, behind scoring and training, with MalConv's pad
    /// replication at both layers: all-PAD layer-1 windows copy one relu
    /// row, layer-2 windows that read only those copy one `r2` row.
    /// `capture` fills every row and position the backward reads.
    fn forward(&self, input: &mut PaddedInput, rows: &mut ReluRows, bytes: &[u8], capture: bool) {
        let c = &self.net.config;
        let (ch1, ch2) = (c.ch1, c.ch2);
        let data_w1 = input.embed(&self.net.embedding, bytes, capture);
        for w in 0..data_w1 {
            let r = &mut rows.r1[w * ch1..(w + 1) * ch1];
            self.x1.forward_window_into(&input.x, w, r);
            relu_in_place(r);
        }
        // Layer-2 windows read kernel2 consecutive r1 rows; the PAD rows
        // still visible to a data-overlapping layer-2 window must be
        // materialized before the conv runs over them.
        let w2_total = rows.r2.len() / ch2;
        let (data_w2, visible1) = data_extent(data_w1, c.kernel2, c.stride2, w2_total);
        let end1 = if capture { rows.r1.len() / ch1 } else { visible1 };
        for w in data_w1..end1 {
            rows.r1[w * ch1..(w + 1) * ch1].copy_from_slice(&self.pad_r1);
        }
        for w in 0..data_w2 {
            let r = &mut rows.r2[w * ch2..(w + 1) * ch2];
            self.x2.forward_window_into(&rows.r1, w, r);
            relu_in_place(r);
        }
        for row in rows.r2[data_w2 * ch2..].chunks_exact_mut(ch2) {
            row.copy_from_slice(&self.pad_r2);
        }
    }
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

    /// Each layer's `(weight, bias)`, in the backward's order of sinks.
    fn layers(&mut self) -> [(&mut ParamBuf, &mut ParamBuf); 4] {
        [
            (&mut self.conv1.weight, &mut self.conv1.bias),
            (&mut self.conv2.weight, &mut self.conv2.bias),
            (&mut self.head1.weight, &mut self.head1.bias),
            (&mut self.head2.weight, &mut self.head2.bias),
        ]
    }

    /// The mixed max/mean pooled features over `r2` rows; also returns the
    /// max-pool argmax for backprop.
    fn pool_r2(&self, r2: &[f32]) -> (Vec<f32>, Vec<usize>) {
        let ch2 = self.config.ch2;
        let (mut pooled, argmax) = global_max_pool(r2, ch2);
        let mut sum = vec![0.0f32; ch2];
        for row in r2.chunks_exact(ch2) {
            for (s, &v) in sum.iter_mut().zip(row) {
                *s += v;
            }
        }
        let windows2 = (r2.len() / ch2) as f32;
        pooled.extend(sum.iter().map(|s| s / windows2));
        (pooled, argmax)
    }

    /// Pool + dense head over `r2` rows; returns the logit.
    fn head_logit(&self, r2: &[f32]) -> f32 {
        let (pooled, _) = self.pool_r2(r2);
        let h1 = relu(&self.head1.forward(&pooled));
        self.head2.forward(&h1)[0]
    }

    /// The one backward, behind training and sessions: pool and head over
    /// `rows`, the loss against `target` (returned), then gradients into
    /// `dx` and one sink per layer of [`MalGcg::layers`] (conv sinks read
    /// `x` and `r1` only if they keep gradients). The mean pool spreads
    /// gradient over every window, so this backward stays dense.
    fn backward<S: GradSink>(
        &self,
        ws: &mut Workspace,
        x: &[f32],
        rows: &ReluRows,
        target: f32,
        grads: &mut [S; 4],
        dx: &mut [f32],
    ) -> f32 {
        let ReluRows { r1, r2 } = rows;
        let ch2 = self.config.ch2;
        let windows2 = r2.len() / ch2;
        let (pooled, argmax) = self.pool_r2(r2);
        let a1 = self.head1.forward(&pooled);
        let h1 = relu(&a1);
        let logit = self.head2.forward(&h1)[0];
        let dlogit = bce_with_logits_backward(logit, target);
        let mut dh1 = ws.take_f32(self.config.hidden);
        self.head2.backward(&h1, &[dlogit], Some(&mut dh1), &mut grads[3]);
        let da1 = relu_backward(&a1, &dh1);
        let mut dpooled = ws.take_f32(2 * ch2);
        self.head1.backward(&pooled, &da1, Some(&mut dpooled), &mut grads[2]);
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
        // `r > 0` exactly where the relu input was: `f32::max` maps NaN to 0.
        let dc2 = relu_backward(r2, &dr2);
        let mut dr1 = ws.take_f32(r1.len());
        self.conv2.backward(r1, &dc2, 0..windows2, &mut dr1, &mut grads[1]);
        let dc1 = relu_backward(r1, &dr1);
        self.conv1.backward(x, &dc1, 0..r1.len() / self.config.ch1, dx, &mut grads[0]);
        for buf in [dr1, dr2, dpooled, dh1] {
            ws.give_f32(buf);
        }
        bce_with_logits(logit, target)
    }

    /// One step's gradients: the forward with capture, the backward into
    /// the layers' gradient buffers, then the embedding gradient of every
    /// position, ascending. Returns the loss.
    fn step_grads(&mut self, s: &mut TrainScratch<ReluRows>, bytes: &[u8], target: f32) -> f32 {
        let mut grads = self.layers().map(Grads::take);
        BatchKernel::new(self).forward(&mut s.input, &mut s.rows, bytes, true);
        let loss = self.backward(&mut s.ws, &s.input.x, &s.rows, target, &mut grads, &mut s.dx);
        for (layer, g) in self.layers().into_iter().zip(grads) {
            g.restore(layer);
        }
        for (p, g) in s.dx.chunks_exact(self.embedding.dim()).enumerate() {
            self.embedding.backward(token_at(bytes, p), g);
        }
        loss
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
        let input = PaddedInput::new(self.config.window, self.embedding.dim(), &self.conv1);
        let mut scratch = TrainScratch::new(input, ReluRows::new(self));
        let last = train_epochs(data, epochs, rng, |bytes, target| {
            let loss = self.step_grads(&mut scratch, bytes, target);
            adam.step(&mut self.embedding.table);
            for buf in self.layers().into_iter().flat_map(|(w, b)| [w, b]) {
                adam.step(buf);
            }
            loss
        });
        // Weights changed: the derived token table must be rebuilt on
        // next use.
        self.tables.invalidate();
        last
    }

    /// Logits of `items`, appended to `out` in input order — the one f32
    /// inference path behind every black-box score (`score` and
    /// `raw_score` are a batch of one), with the batch kernel and its
    /// scratch built once per batch.
    fn logit_batch_into(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        let kernel = BatchKernel::new(self);
        let mut input = PaddedInput::new(self.config.window, self.embedding.dim(), &self.conv1);
        let mut rows = ReluRows::new(self);
        out.reserve(items.len());
        for bytes in items {
            kernel.forward(&mut input, &mut rows, bytes, false);
            out.push(self.head_logit(&rows.r2));
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
    rows: ReluRows,
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
        let windows1 = net.conv1.windows(net.config.window);
        let windows2 = net.conv2.windows(windows1);
        MalGcgSession {
            net,
            t1: net.tables(),
            x2: net.conv2.transposed(),
            ws: Workspace::default(),
            tokens: vec![PAD; net.config.window],
            rows: ReluRows::new(net),
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
        let windows1 = self.rows.r1.len() / ch1;
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
                let r = &mut self.rows.r1[w * ch1..(w + 1) * ch1];
                self.t1.window_into(&self.tokens, w, r);
                relu_in_place(r);
            }
        }
        for w in self.marked2.drain().flatten() {
            #[cfg(test)]
            {
                self.recomputed[windows1 + w] += 1;
            }
            let r = &mut self.rows.r2[w * ch2..(w + 1) * ch2];
            self.x2.forward_window_into(&self.rows.r1, w, r);
            relu_in_place(r);
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
        self.net.head_logit(&self.rows.r2)
    }

    fn loss_grad_delta(
        &mut self,
        bytes: &[u8],
        dirty: &[Range<usize>],
        grad: &mut Vec<f32>,
    ) -> f32 {
        self.sync(bytes, dirty);
        // The backward clears every row a layer-1 window reads before it
        // adds to it, so only the rows no window reads are zeroed here.
        let (window, dim) = (self.net.config.window, self.net.embedding.dim());
        grad.resize(window * dim, 0.0);
        for rows in self.net.conv1.unread_rows(window) {
            grad[rows.start * dim..rows.end * dim].fill(0.0);
        }
        self.net.backward(&mut self.ws, &[], &self.rows, 0.0, &mut [NoGrads; 4], grad)
    }
}

/// `r = max(r, 0)` element-wise: the relu of every MalGCG window.
fn relu_in_place(row: &mut [f32]) {
    for v in row {
        *v = v.max(0.0);
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

    /// What the dense reference computed for one input.
    struct Reference {
        logit: f32,
        argmax: Vec<usize>,
        dpooled: Vec<f32>,
        /// A copy of the model holding the parameter gradients.
        grads: MalGcg,
        /// `∂ℒ/∂x` over the whole window.
        dx: Vec<f32>,
    }

    /// The dense forward and backward MalGCG trained with before the batch
    /// kernel: every position embedded, every window of both layers
    /// convolved, the relu masks read from the pre-activations, every
    /// layer's backward into fresh zeroed buffers, and the embedding
    /// backward over every position.
    fn reference(m: &MalGcg, bytes: &[u8], target: f32) -> Reference {
        reference_from(m, bytes, target, crate::session_check::conv_forward)
    }

    /// [`reference`] with the layer-1 responses of the tabled session.
    fn tabled_reference(m: &MalGcg, bytes: &[u8]) -> Reference {
        let tokens: Vec<usize> = (0..m.config.window).map(|i| token_at(bytes, i)).collect();
        reference_from(m, bytes, 0.0, |conv, _| {
            let mut out = vec![0.0; conv.windows(tokens.len()) * conv.out_ch()];
            for (w, row) in out.chunks_exact_mut(conv.out_ch()).enumerate() {
                m.tables().window_into(&tokens, w, row);
            }
            out
        })
    }

    /// The reference over layer-1 responses from `conv1`.
    fn reference_from(
        m: &MalGcg,
        bytes: &[u8],
        target: f32,
        conv1: impl Fn(&Conv1d, &[f32]) -> Vec<f32>,
    ) -> Reference {
        use crate::session_check::{conv_forward, dense_conv_backward, dense_linear_backward};
        let (c, dim) = (m.config, m.embedding.dim());
        let tokens: Vec<usize> = (0..c.window).map(|i| token_at(bytes, i)).collect();
        let x: Vec<f32> = tokens.iter().flat_map(|&t| m.embedding.vector(t).to_vec()).collect();
        let c1 = conv1(&m.conv1, &x);
        let r1 = relu(&c1);
        let c2 = conv_forward(&m.conv2, &r1);
        let r2 = relu(&c2);
        let (pooled, argmax) = m.pool_r2(&r2);
        let a1 = m.head1.forward(&pooled);
        let h1 = relu(&a1);
        let logit = m.head2.forward(&h1)[0];
        let mut g = m.clone();
        g.embedding.table.zero_grad();
        for (weight, bias) in g.layers() {
            weight.zero_grad();
            bias.zero_grad();
        }
        let dlogit = [bce_with_logits_backward(logit, target)];
        let dh1 = dense_linear_backward(&m.head2, &mut g.head2, &h1, &dlogit);
        let da1 = relu_backward(&a1, &dh1);
        let dpooled = dense_linear_backward(&m.head1, &mut g.head1, &pooled, &da1);
        let windows2 = r2.len() / c.ch2;
        let mut dr2 = vec![0.0f32; r2.len()];
        for (ch, &w) in argmax.iter().enumerate() {
            dr2[w * c.ch2 + ch] = dpooled[ch];
        }
        for w in 0..windows2 {
            for ch in 0..c.ch2 {
                dr2[w * c.ch2 + ch] += dpooled[c.ch2 + ch] / windows2 as f32;
            }
        }
        let dr1 = dense_conv_backward(&m.conv2, &mut g.conv2, &r1, &relu_backward(&c2, &dr2));
        let dx = dense_conv_backward(&m.conv1, &mut g.conv1, &x, &relu_backward(&c1, &dr1));
        for (i, &t) in tokens.iter().enumerate() {
            g.embedding.backward(t, &dx[i * dim..(i + 1) * dim]);
        }
        Reference { logit, argmax, dpooled, grads: g, dx }
    }

    fn all_grad_bits(m: &mut MalGcg) -> Vec<u32> {
        let mut bits = crate::session_check::grad_bits([&m.embedding.table]);
        for (weight, bias) in m.layers() {
            bits.extend(crate::session_check::grad_bits([&*weight, &*bias]));
        }
        bits
    }

    /// The one backward, as training runs it (`step_grads`: the batch
    /// kernel with capture, gradients through [`Grads`]) and as sessions
    /// run it (through [`NoGrads`], after the tabled forward), gives the dense reference's parameter
    /// and input gradients bit for bit, with disjoint (tiny) and
    /// overlapping (default) layer-1 windows, on files that fill the
    /// window and files that leave pad windows at both layers. The model
    /// is rigged so layer-2 channels 0 and 1 share their argmax window and
    /// channel 2's max feeds nothing into the head (`dpooled == 0`).
    #[test]
    fn one_backward_matches_the_dense_reference_bit_for_bit() {
        let (_, ds) = trained_tiny();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        for config in [MalGcgConfig::tiny(), MalGcgConfig::default()] {
            let mut rng = ChaCha8Rng::seed_from_u64(16);
            let mut m = MalGcg::new(config, &mut rng);
            m.train(&pairs, 1, 5e-3, &mut rng);
            let k_in = config.kernel2 * config.ch1;
            m.conv2.weight.w.copy_within(0..k_in, k_in);
            m.conv2.bias.w[1] = m.conv2.bias.w[0];
            for o in 0..config.hidden {
                m.head1.weight.w[o * 2 * config.ch2 + 2] = 0.0;
            }
            let mal = &ds.malware()[0].bytes;
            let inputs: [&[u8]; 5] =
                [mal, &ds.benign()[0].bytes, &mal[..100], &mal[..config.kernel1 + 5], &[]];
            for (n, bytes) in inputs.into_iter().enumerate() {
                let what = format!("{}/{} input {n}", config.kernel1, config.stride1);
                let want = tabled_reference(&m, bytes);
                assert_eq!(want.argmax[0], want.argmax[1], "{what}: shared argmax");
                assert_eq!(want.dpooled[2], 0.0, "{what}: dpooled");
                let mut grad = vec![f32::NAN; 3];
                let loss = m.session().loss_grad_delta(bytes, &[], &mut grad);
                assert_eq!(loss.to_bits(), bce_with_logits(want.logit, 0.0).to_bits(), "{what}");
                let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&grad), bits(&want.dx), "{what}: input gradient");
                for target in [0.0, 1.0] {
                    let mut want = reference(&m, bytes, target);
                    let mut got = m.clone();
                    let input = PaddedInput::new(config.window, config.embed_dim, &m.conv1);
                    let mut scratch = TrainScratch::new(input, ReluRows::new(&m));
                    scratch.input.x.fill(f32::NAN);
                    scratch.rows.r1.fill(f32::NAN);
                    scratch.rows.r2.fill(f32::NAN);
                    let loss = got.step_grads(&mut scratch, bytes, target);
                    let want_loss = bce_with_logits(want.logit, target);
                    assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what} target {target}");
                    assert!(
                        all_grad_bits(&mut got) == all_grad_bits(&mut want.grads),
                        "{what} target {target}: parameter gradients differ"
                    );
                }
            }
        }
    }

    /// Every black-box score runs the two-level pad-replication batch
    /// kernel; batched, single-call `score` and single-call `raw_score`
    /// results must all stay bit-identical to the dense reference's
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
            let logit = reference(&m, bytes, 0.0).logit;
            let len = bytes.len();
            assert_eq!(raw[i].to_bits(), logit.to_bits(), "batched raw item {i} (len {len})");
            assert_eq!(m.raw_score(bytes).to_bits(), logit.to_bits(), "raw item {i} (len {len})");
            let p = sigmoid(logit);
            assert_eq!(scores[i].to_bits(), p.to_bits(), "batched item {i} (len {len})");
            assert_eq!(m.score(bytes).to_bits(), p.to_bits(), "item {i} (len {len})");
        }
    }

    /// The tabled white-box forward must agree with the dense reference's
    /// forward within float-reassociation error.
    #[test]
    fn tabled_logit_matches_naive_logit() {
        let (m, ds) = trained_tiny();
        for s in ds.samples.iter().take(6) {
            let naive = reference(&m, &s.bytes, 0.0).logit;
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

    /// A session's gradient overwrites whatever the buffer held, at any
    /// length: rows no layer-1 window reads (the gaps of a stride wider
    /// than the kernel, the tail past the last window) come back zero.
    #[test]
    fn loss_grad_delta_overwrites_a_stale_buffer() {
        let (_, ds) = trained_tiny();
        let config =
            MalGcgConfig { window: 4000, kernel1: 24, stride1: 40, ..MalGcgConfig::tiny() };
        let m = MalGcg::new(config, &mut ChaCha8Rng::seed_from_u64(5));
        assert!(m.conv1.unread_rows(config.window).any(|rows| !rows.is_empty()));
        let bytes = &ds.malware()[0].bytes;
        let mut want = Vec::new();
        let loss = m.session().loss_grad_delta(bytes, &[], &mut want);
        for stale in [vec![f32::NAN; want.len()], vec![7.0; want.len() + 9], vec![-1.0; 3]] {
            let mut got = stale;
            let mut sess = m.session();
            assert_eq!(sess.loss_grad_delta(bytes, &[], &mut got).to_bits(), loss.to_bits());
            assert_eq!(got, want);
        }
    }

    /// Digest of training and of the gradient path for
    /// `MalGcgConfig::default()`: overlapping layer-1 windows (kernel 128,
    /// stride 64), a nonzero PAD embedding, and a 16 KiB window that
    /// leaves pad windows at both layers in every corpus file. Snapshot
    /// bytes after training, then scores, losses and gradients over long
    /// and short probes. Captured before training ran the batch kernel.
    #[test]
    fn training_and_gradient_golden_regression() {
        use crate::session_check::{golden_digest, golden_pairs};
        let (_, ds) = trained_tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut m = MalGcg::new(MalGcgConfig::default(), &mut rng);
        m.train(&golden_pairs(&ds), 1, 5e-3, &mut rng);
        let digest = golden_digest(&m, &m.to_snapshot().to_bytes(), &ds);
        assert_eq!(digest, 0x1095_59e3_7ee5_b958, "MalGCG default digest {digest:#018x}");
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
