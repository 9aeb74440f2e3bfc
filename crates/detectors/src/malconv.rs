//! MalConv and its non-negative variant.
//!
//! MalConv (Raff et al., "Malware detection by eating a whole EXE") embeds
//! raw bytes and applies a gated convolution with global max pooling.
//! NonNeg (Fleshman et al.) is the same architecture with the dense
//! head constrained non-negative. Max pooling is monotone when appended
//! bytes add windows, so a non-negative head makes the malware score
//! monotone under appends, which blunts append-based evasion — one of
//! the baselines' weaknesses the paper measures. The convolution stays
//! unconstrained: clamping it too would let constant-byte runs (PE slack
//! is full of them) win every filter's max for every input, collapsing
//! the model to a constant output.

use crate::traits::{Detector, WhiteBoxModel, WhiteBoxSession};
use mpass_ml::{
    bce_with_logits, bce_with_logits_backward, global_max_pool, relu, relu_backward, sigmoid, Adam,
    Cached, Conv1d, ConvXposed, Embedding, GradSink, Grads, Linear, NoGrads, ParamBuf, Snapshot,
    SnapshotBuilder, SnapshotError, TokenConv, WindowMask, Workspace,
};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Byte vocabulary: 256 byte values plus a padding token.
pub const VOCAB: usize = 257;
/// The padding token index.
pub const PAD: usize = 256;

/// Architecture hyper-parameters of [`MalConv`] and its NonNeg variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByteConvConfig {
    /// Leading file bytes consumed (shorter files are padded).
    pub window: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Convolution output channels.
    pub filters: usize,
    /// Convolution kernel width in byte positions.
    pub kernel: usize,
    /// Convolution stride (MalConv uses non-overlapping windows).
    pub stride: usize,
    /// Dense head hidden width.
    pub hidden: usize,
}

impl Default for ByteConvConfig {
    fn default() -> Self {
        ByteConvConfig {
            window: 16 * 1024,
            embed_dim: 8,
            filters: 16,
            kernel: 256,
            stride: 256,
            hidden: 16,
        }
    }
}

impl ByteConvConfig {
    /// A tiny configuration for unit tests (fast in debug builds).
    pub fn tiny() -> Self {
        ByteConvConfig { window: 4096, embed_dim: 4, filters: 8, kernel: 64, stride: 64, hidden: 8 }
    }

    /// The input positions the ascending conv `windows` read, as disjoint
    /// spans in ascending order.
    fn read_spans<'w>(&self, windows: &'w [usize]) -> impl Iterator<Item = Range<usize>> + 'w {
        let (kernel, stride, mut end) = (self.kernel, self.stride, 0);
        windows.iter().map(move |&w| {
            let start = (w * stride).max(end);
            end = w * stride + kernel;
            start..end
        })
    }
}

/// The gated-convolution network: the MalConv detector, or its NonNeg
/// variant when built by [`MalConv::nonneg`]. The variant's name and head
/// constraint travel with the weights, so a snapshot reloads as the model
/// it was taken from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MalConv {
    name: String,
    config: ByteConvConfig,
    embedding: Embedding,
    conv_a: Conv1d,
    conv_b: Conv1d,
    head1: Linear,
    head2: Linear,
    nonneg: bool,
    threshold: f32,
    /// Token-indexed conv responses, derived from the weights above;
    /// rebuilt lazily after every training run ([`Cached`] is excluded
    /// from comparison/serialization and clones empty).
    tables: Cached<GatedTables>,
}

/// Token-indexed response tables of the gated conv pair — the inference
/// kernel of the white-box attack path.
#[derive(Debug, Clone)]
struct GatedTables {
    a: TokenConv,
    b: TokenConv,
}

/// The `a`, `b` and gated rows of every window of one input: what a
/// forward (the batch kernel's or a session's) leaves for the backward.
struct GatedRows {
    a: Vec<f32>,
    b: Vec<f32>,
    gated: Vec<f32>,
}

impl GatedRows {
    fn new(cells: usize) -> Self {
        GatedRows { a: vec![0.0; cells], b: vec![0.0; cells], gated: vec![0.0; cells] }
    }
}

/// The batch kernel of one set of weights: component-major conv weights
/// (bit-identical to the scalar kernel) and the rows of an all-PAD window.
/// Built once per batch, or per training step.
struct BatchKernel<'m> {
    net: &'m MalConv,
    xa: ConvXposed<'m>,
    xb: ConvXposed<'m>,
    pad: GatedRows,
}

impl<'m> BatchKernel<'m> {
    fn new(net: &'m MalConv) -> Self {
        let (xa, xb) = (net.conv_a.transposed(), net.conv_b.transposed());
        let patch = net.embedding.vector(PAD).repeat(net.config.kernel);
        let mut pad = GatedRows::new(net.config.filters);
        xa.forward_window_into(&patch, 0, &mut pad.a);
        xb.forward_window_into(&patch, 0, &mut pad.b);
        gate_into(&pad.a, &pad.b, &mut pad.gated);
        BatchKernel { net, xa, xb, pad }
    }

    /// The one forward, behind scoring and training: every window whose
    /// receptive field touches file bytes runs the conv pair; windows past
    /// the file's extent read the identical all-PAD patch, so they copy
    /// the pad rows. `capture` embeds the PAD positions too, which the
    /// backward reads.
    fn forward(&self, input: &mut PaddedInput, rows: &mut GatedRows, bytes: &[u8], capture: bool) {
        let filters = self.net.config.filters;
        let data_windows = input.embed(&self.net.embedding, bytes, capture);
        for w in 0..data_windows {
            let span = w * filters..(w + 1) * filters;
            self.xa.forward_window_into(&input.x, w, &mut rows.a[span.clone()]);
            self.xb.forward_window_into(&input.x, w, &mut rows.b[span.clone()]);
            gate_into(&rows.a[span.clone()], &rows.b[span.clone()], &mut rows.gated[span]);
        }
        for w in data_windows..rows.gated.len() / filters {
            let span = w * filters..(w + 1) * filters;
            rows.a[span.clone()].copy_from_slice(&self.pad.a);
            rows.b[span.clone()].copy_from_slice(&self.pad.b);
            rows.gated[span].copy_from_slice(&self.pad.gated);
        }
    }
}

/// What a training run reuses across steps: the batch kernel's input and
/// rows, the backward's workspace and its input gradient.
pub(crate) struct TrainScratch<R> {
    pub input: PaddedInput,
    pub rows: R,
    pub ws: Workspace,
    pub dx: Vec<f32>,
}

impl<R> TrainScratch<R> {
    pub fn new(input: PaddedInput, rows: R) -> Self {
        TrainScratch { dx: vec![0.0; input.x.len()], input, rows, ws: Workspace::default() }
    }
}

impl MalConv {
    /// Fresh untrained MalConv.
    pub fn new<R: Rng + ?Sized>(config: ByteConvConfig, rng: &mut R) -> Self {
        Self::build(config, false, rng)
    }

    /// Fresh untrained NonNeg: the dense head's weights are projected to
    /// be non-negative after every training step, making the logit
    /// monotone in the pooled features (and therefore non-decreasing
    /// under byte appends, which can only add max-pool candidates).
    pub fn nonneg<R: Rng + ?Sized>(config: ByteConvConfig, rng: &mut R) -> Self {
        Self::build(config, true, rng)
    }

    fn build<R: Rng + ?Sized>(config: ByteConvConfig, nonneg: bool, rng: &mut R) -> Self {
        let mut net = MalConv {
            name: if nonneg { "NonNeg" } else { "MalConv" }.to_owned(),
            config,
            embedding: Embedding::new(VOCAB, config.embed_dim, rng),
            conv_a: Conv1d::new(config.embed_dim, config.filters, config.kernel, config.stride, rng),
            conv_b: Conv1d::new(config.embed_dim, config.filters, config.kernel, config.stride, rng),
            head1: Linear::new(config.filters, config.hidden, rng),
            head2: Linear::new(config.hidden, 1, rng),
            nonneg,
            threshold: 0.5,
            tables: Cached::new(),
        };
        // PAD embeds to a frozen zero vector (PyTorch's `padding_idx`):
        // otherwise, on files shorter than the window, the identical
        // padding windows win the global max-pool for both classes and
        // their gradients cancel, stalling training.
        net.embedding.freeze_zero_row(PAD);
        if nonneg {
            // Start inside the feasible region with full magnitude:
            // projecting the symmetric init would zero half of each head
            // before training starts.
            net.head1.weight.reflect_abs();
            net.head2.weight.reflect_abs();
        }
        net
    }

    fn clamp_nonneg(&mut self) {
        self.head1.weight.clamp_min(0.0);
        self.head2.weight.clamp_min(0.0);
    }

    /// The model's configuration.
    pub fn config(&self) -> &ByteConvConfig {
        &self.config
    }

    /// Whether all constrained weights (the dense head) are currently
    /// non-negative.
    pub fn weights_nonnegative(&self) -> bool {
        self.head1.weight.w.iter().all(|&w| w >= 0.0)
            && self.head2.weight.w.iter().all(|&w| w >= 0.0)
    }

    /// Pack the trained weights into a versioned, checksummed
    /// [`Snapshot`]: one shared payload a reload can rebuild this exact
    /// model from in O(read).
    pub fn to_snapshot(&self) -> Snapshot {
        let c = &self.config;
        let mut b = SnapshotBuilder::new();
        b.meta("detector", &self.name)
            .meta("window", c.window)
            .meta("embed_dim", c.embed_dim)
            .meta("filters", c.filters)
            .meta("kernel", c.kernel)
            .meta("stride", c.stride)
            .meta("hidden", c.hidden)
            .meta("nonneg", u8::from(self.nonneg))
            .tensor("embedding", &self.embedding.table.w)
            .tensor("conv_a.weight", &self.conv_a.weight.w)
            .tensor("conv_a.bias", &self.conv_a.bias.w)
            .tensor("conv_b.weight", &self.conv_b.weight.w)
            .tensor("conv_b.bias", &self.conv_b.bias.w)
            .tensor("head1.weight", &self.head1.weight.w)
            .tensor("head1.bias", &self.head1.bias.w)
            .tensor("head2.weight", &self.head2.weight.w)
            .tensor("head2.bias", &self.head2.bias.w)
            .tensor("threshold", &[self.threshold]);
        b.finish()
    }

    /// Rebuild the exact model a [`MalConv::to_snapshot`] captured:
    /// scores are bit-identical to the source model's. Shape-validated and
    /// panic-free on untrusted snapshots.
    pub fn from_snapshot(snap: &Snapshot) -> Result<MalConv, SnapshotError> {
        let config = ByteConvConfig {
            window: snap.meta_parsed("window")?,
            embed_dim: snap.meta_parsed("embed_dim")?,
            filters: snap.meta_parsed("filters")?,
            kernel: snap.meta_parsed("kernel")?,
            stride: snap.meta_parsed("stride")?,
            hidden: snap.meta_parsed("hidden")?,
        };
        let c = &config;
        if [c.window, c.embed_dim, c.filters, c.kernel, c.stride, c.hidden].contains(&0)
            || c.window < c.kernel
        {
            return Err(unrunnable(c));
        }
        let nonneg = snap.meta_parsed::<u8>("nonneg")? != 0;
        let name = snap
            .meta("detector")
            .ok_or_else(|| SnapshotError::MissingMeta("detector".to_owned()))?;
        let embedding = Embedding::from_weights(
            VOCAB,
            config.embed_dim,
            snap.tensor_sized("embedding", VOCAB * config.embed_dim)?.to_vec(),
        );
        let conv_len = config.filters * config.kernel * config.embed_dim;
        let conv_a = Conv1d::from_weights(
            config.embed_dim,
            config.filters,
            config.kernel,
            config.stride,
            snap.tensor_sized("conv_a.weight", conv_len)?.to_vec(),
            snap.tensor_sized("conv_a.bias", config.filters)?.to_vec(),
        );
        let conv_b = Conv1d::from_weights(
            config.embed_dim,
            config.filters,
            config.kernel,
            config.stride,
            snap.tensor_sized("conv_b.weight", conv_len)?.to_vec(),
            snap.tensor_sized("conv_b.bias", config.filters)?.to_vec(),
        );
        let head1 = Linear::from_weights(
            config.filters,
            config.hidden,
            snap.tensor_sized("head1.weight", config.hidden * config.filters)?.to_vec(),
            snap.tensor_sized("head1.bias", config.hidden)?.to_vec(),
        );
        let head2 = Linear::from_weights(
            config.hidden,
            1,
            snap.tensor_sized("head2.weight", config.hidden)?.to_vec(),
            snap.tensor_sized("head2.bias", 1)?.to_vec(),
        );
        Ok(MalConv {
            name: name.to_owned(),
            config,
            embedding,
            conv_a,
            conv_b,
            head1,
            head2,
            nonneg,
            threshold: snap.tensor_scalar("threshold")?,
            tables: Cached::new(),
        })
    }

    /// The token-indexed conv tables, built on first use after training.
    fn tables(&self) -> &GatedTables {
        self.tables.get_or_build(|| GatedTables {
            a: TokenConv::build(&self.conv_a, &self.embedding),
            b: TokenConv::build(&self.conv_b, &self.embedding),
        })
    }

    /// Each layer's `(weight, bias)`, in the backward's order of sinks.
    fn layers(&mut self) -> [(&mut ParamBuf, &mut ParamBuf); 4] {
        [
            (&mut self.conv_a.weight, &mut self.conv_a.bias),
            (&mut self.conv_b.weight, &mut self.conv_b.bias),
            (&mut self.head1.weight, &mut self.head1.bias),
            (&mut self.head2.weight, &mut self.head2.bias),
        ]
    }

    /// Pool + dense head over gated rows; returns the logit.
    fn head_logit(&self, gated: &[f32]) -> f32 {
        let (pooled, _) = global_max_pool(gated, self.config.filters);
        let h1 = relu(&self.head1.forward(&pooled));
        self.head2.forward(&h1)[0]
    }

    /// The one backward, behind training and sessions: pool and head over
    /// `rows`, the loss against `target` (returned), then gradients, one
    /// sink per layer of [`MalConv::layers`] (conv sinks read `x` only if
    /// they keep gradients). The max pool leaves each channel's gradient on
    /// one window; only those windows (returned, ascending) run the conv
    /// backward, writing `dx` only where they read. conv_a and conv_b sum
    /// into separate buffers, then add, as a dense pass would.
    fn backward<S: GradSink>(
        &self,
        ws: &mut Workspace,
        x: &[f32],
        rows: &GatedRows,
        target: f32,
        grads: &mut [S; 4],
        dx: &mut [f32],
    ) -> (f32, Vec<usize>) {
        let filters = self.config.filters;
        let GatedRows { a, b, gated } = rows;
        let (pooled, argmax) = global_max_pool(gated, filters);
        let a1 = self.head1.forward(&pooled);
        let h1 = relu(&a1);
        let logit = self.head2.forward(&h1)[0];
        let dlogit = bce_with_logits_backward(logit, target);
        let mut dh1 = ws.take_f32(self.config.hidden);
        self.head2.backward(&h1, &[dlogit], Some(&mut dh1), &mut grads[3]);
        let da1 = relu_backward(&a1, &dh1);
        let mut dpooled = ws.take_f32(filters);
        self.head1.backward(&pooled, &da1, Some(&mut dpooled), &mut grads[2]);
        let mut da = ws.take_f32(gated.len());
        let mut db = ws.take_f32(gated.len());
        for (c, &w) in argmax.iter().enumerate() {
            let g = dpooled[c];
            if g == 0.0 {
                continue;
            }
            let i = w * filters + c;
            let s = sigmoid(b[i]);
            da[i] = g * s;
            db[i] = g * a[i] * s * (1.0 - s);
        }
        let mut windows = argmax;
        windows.sort_unstable();
        windows.dedup();
        let mut gb = ws.take_f32_stale(dx.len());
        self.conv_a.backward(x, &da, windows.iter().copied(), dx, &mut grads[0]);
        self.conv_b.backward(x, &db, windows.iter().copied(), &mut gb, &mut grads[1]);
        let dim = self.embedding.dim();
        for span in self.config.read_spans(&windows) {
            let cells = span.start * dim..span.end * dim;
            for (d, &g) in dx[cells.clone()].iter_mut().zip(&gb[cells]) {
                *d += g;
            }
        }
        for buf in [gb, db, da, dpooled, dh1] {
            ws.give_f32(buf);
        }
        (bce_with_logits(logit, target), windows)
    }

    /// Batch-kernel input and rows of this model's shape.
    fn scratch(&self) -> (PaddedInput, GatedRows) {
        let c = &self.config;
        let input = PaddedInput::new(c.window, self.embedding.dim(), &self.conv_a);
        (input, GatedRows::new(self.conv_a.windows(c.window) * c.filters))
    }

    /// One step's gradients: the forward with capture, the backward into
    /// the layers' gradient buffers, then the embedding gradient of each
    /// position the backward reached, ascending. Returns the loss.
    fn step_grads(&mut self, s: &mut TrainScratch<GatedRows>, bytes: &[u8], target: f32) -> f32 {
        let mut grads = self.layers().map(Grads::take);
        BatchKernel::new(self).forward(&mut s.input, &mut s.rows, bytes, true);
        let (loss, windows) =
            self.backward(&mut s.ws, &s.input.x, &s.rows, target, &mut grads, &mut s.dx);
        for (layer, g) in self.layers().into_iter().zip(grads) {
            g.restore(layer);
        }
        let dim = self.embedding.dim();
        for p in self.config.read_spans(&windows).flatten() {
            self.embedding.backward(token_at(bytes, p), &s.dx[p * dim..(p + 1) * dim]);
        }
        loss
    }

    /// Train on `(bytes, target)` pairs with per-sample Adam updates; a
    /// NonNeg model re-projects its head weights after every step.
    /// Returns the mean loss of the final epoch.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        data: &[(&[u8], f32)],
        epochs: usize,
        lr: f32,
        rng: &mut R,
    ) -> f32 {
        let adam = Adam::with_lr(lr);
        let (input, rows) = self.scratch();
        let mut scratch = TrainScratch::new(input, rows);
        let last = train_epochs(data, epochs, rng, |bytes, target| {
            let loss = self.step_grads(&mut scratch, bytes, target);
            self.embedding.freeze_zero_row(PAD);
            adam.step(&mut self.embedding.table);
            for buf in self.layers().into_iter().flat_map(|(w, b)| [w, b]) {
                adam.step(buf);
            }
            if self.nonneg {
                self.clamp_nonneg();
            }
            loss
        });
        // Weights changed: the derived token tables must be rebuilt on
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
        let (mut input, mut rows) = self.scratch();
        out.reserve(items.len());
        for bytes in items {
            kernel.forward(&mut input, &mut rows, bytes, false);
            out.push(self.head_logit(&rows.gated));
        }
    }
}

impl Detector for MalConv {
    fn name(&self) -> &str {
        &self.name
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

impl crate::traits::DetectorExt for MalConv {
    fn as_white_box(&self) -> Option<&dyn WhiteBoxModel> {
        Some(self)
    }
}

impl WhiteBoxModel for MalConv {
    fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    fn window(&self) -> usize {
        self.config.window
    }

    fn session(&self) -> Box<dyn WhiteBoxSession + '_> {
        Box::new(ByteConvSession::new(self))
    }
}

/// Incremental inference session over one evolving byte buffer: caches
/// the tokenization and gated-conv activations, recomputing only windows
/// whose receptive field overlaps a dirty span, then re-pools. Priming is
/// the dirty span `0..window`, so every result comes from the one
/// per-window loop and incremental results are bit-equal to a fresh
/// session's.
struct ByteConvSession<'a> {
    net: &'a MalConv,
    tables: &'a GatedTables,
    ws: Workspace,
    tokens: Vec<usize>,
    rows: GatedRows,
    /// Windows to recompute in the current [`ByteConvSession::sync`].
    marked: WindowMask,
    /// Length of the buffer the caches describe; `None` until primed.
    len: Option<usize>,
    /// Recomputations of each window in the last sync.
    #[cfg(test)]
    recomputed: Vec<u32>,
}

impl<'a> ByteConvSession<'a> {
    fn new(net: &'a MalConv) -> Self {
        let tables = net.tables();
        let windows = tables.a.windows(net.config.window);
        let cells = windows * net.config.filters;
        ByteConvSession {
            net,
            tables,
            ws: Workspace::default(),
            tokens: vec![PAD; net.config.window],
            rows: GatedRows::new(cells),
            marked: WindowMask::new(windows),
            len: None,
            #[cfg(test)]
            recomputed: vec![0; windows],
        }
    }

    /// Bring cached activations up to date with `bytes`, trusting `dirty`
    /// to cover every changed offset since the last call. Every span's
    /// tokens are updated first; then each window overlapping any span is
    /// recomputed once, from the final tokens.
    fn sync(&mut self, bytes: &[u8], dirty: &[Range<usize>]) {
        let (window, filters) = (self.net.config.window, self.net.config.filters);
        let prime = 0..window;
        let dirty = if self.len == Some(bytes.len()) {
            dirty
        } else {
            self.len = Some(bytes.len());
            std::slice::from_ref(&prime)
        };
        for r in dirty {
            let (lo, hi) = (r.start.min(window), r.end.min(window));
            for i in lo..hi {
                self.tokens[i] = token_at(bytes, i);
            }
            self.marked.mark(self.tables.a.dirty_windows(window, lo, hi));
        }
        #[cfg(test)]
        self.recomputed.fill(0);
        for w in self.marked.drain().flatten() {
            #[cfg(test)]
            {
                self.recomputed[w] += 1;
            }
            let span = w * filters..(w + 1) * filters;
            let rows = &mut self.rows;
            self.tables.a.window_into(&self.tokens, w, &mut rows.a[span.clone()]);
            self.tables.b.window_into(&self.tokens, w, &mut rows.b[span.clone()]);
            gate_into(&rows.a[span.clone()], &rows.b[span.clone()], &mut rows.gated[span]);
        }
        debug_assert_eq!(
            self.tokens.iter().enumerate().position(|(i, &t)| t != token_at(bytes, i)),
            None,
            "dirty spans did not cover every changed byte"
        );
    }
}

impl WhiteBoxSession for ByteConvSession<'_> {
    fn score_delta(&mut self, bytes: &[u8], dirty: &[Range<usize>]) -> f32 {
        self.sync(bytes, dirty);
        self.net.head_logit(&self.rows.gated)
    }

    fn loss_grad_delta(
        &mut self,
        bytes: &[u8],
        dirty: &[Range<usize>],
        grad: &mut Vec<f32>,
    ) -> f32 {
        self.sync(bytes, dirty);
        grad.clear();
        grad.resize(self.net.config.window * self.net.embedding.dim(), 0.0);
        self.net.backward(&mut self.ws, &[], &self.rows, 0.0, &mut [NoGrads; 4], grad).0
    }
}

/// `g = a · σ(b)` element-wise: the gate of every MalConv window.
fn gate_into(a: &[f32], b: &[f32], g: &mut [f32]) {
    for ((gi, &ai), &bi) in g.iter_mut().zip(a).zip(b) {
        *gi = ai * sigmoid(bi);
    }
}

/// The token a byte-conv model reads at offset `i`: the byte there, or
/// [`PAD`] past the end of the file.
pub(crate) fn token_at(bytes: &[u8], i: usize) -> usize {
    bytes.get(i).map_or(PAD, |&b| usize::from(b))
}

/// `epochs` passes of `step` (one pair in, its loss out) over `data` in
/// fresh shuffled orders; returns the last epoch's mean loss.
pub(crate) fn train_epochs<R: Rng + ?Sized>(
    data: &[(&[u8], f32)],
    epochs: usize,
    rng: &mut R,
    mut step: impl FnMut(&[u8], f32) -> f32,
) -> f32 {
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut last = 0.0;
    for _ in 0..epochs {
        order.shuffle(rng);
        let mut total = 0.0;
        for &i in &order {
            total += step(data[i].0, data[i].1);
        }
        last = total / data.len().max(1) as f32;
    }
    last
}

/// The `BadMeta` refusal of a snapshot config no forward pass can run: a
/// zero width, or an input shorter than one conv window, whose max-pool
/// would panic at the first score.
pub(crate) fn unrunnable(config: &impl std::fmt::Debug) -> SnapshotError {
    SnapshotError::BadMeta { key: "window".to_owned(), value: format!("{config:?}") }
}

/// Of the `total` windows of a `kernel`/`stride` conv, how many read one
/// of the first `len` input positions, and how many leading positions
/// those windows read. Every later window reads padding only.
pub(crate) fn data_extent(
    len: usize,
    kernel: usize,
    stride: usize,
    total: usize,
) -> (usize, usize) {
    if len == 0 || total == 0 {
        return (0, 0);
    }
    let windows = ((len - 1) / stride + 1).min(total);
    (windows, (windows - 1) * stride + kernel)
}

/// The byte end of both pad-skipping batch kernels, for a model's first
/// conv layer: an embedding buffer reused across items and training steps.
pub(crate) struct PaddedInput {
    kernel: usize,
    stride: usize,
    windows: usize,
    /// `window × dim` embedded input; [`PaddedInput::embed`] refreshes the
    /// prefix the data-overlapping windows read.
    pub x: Vec<f32>,
}

impl PaddedInput {
    pub fn new(window: usize, dim: usize, conv: &Conv1d) -> Self {
        PaddedInput {
            kernel: conv.kernel(),
            stride: conv.stride(),
            windows: conv.windows(window),
            x: vec![0.0; window * dim],
        }
    }

    /// Embed the positions of `bytes` its data-overlapping windows read
    /// (file bytes, then PAD to the end of the last such window), or with
    /// `whole` every position; returns how many windows overlap the data.
    pub fn embed(&mut self, embedding: &Embedding, bytes: &[u8], whole: bool) -> usize {
        let dim = embedding.dim();
        let (windows, visible) = data_extent(bytes.len(), self.kernel, self.stride, self.windows);
        let end = if whole { self.x.len() / dim } else { visible };
        for i in 0..end {
            self.x[i * dim..(i + 1) * dim].copy_from_slice(embedding.vector(token_at(bytes, i)));
        }
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::training_pairs;
    use mpass_corpus::{CorpusConfig, Dataset};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 16,
            n_benign: 16,
            seed: 5,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn malconv_learns_the_corpus() {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut m = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        m.train(&pairs, 6, 5e-3, &mut rng);
        let correct = ds
            .samples
            .iter()
            .filter(|s| {
                (m.score(&s.bytes) > 0.5) == (s.label == mpass_corpus::Label::Malware)
            })
            .count();
        assert!(correct >= 28, "train accuracy {correct}/32");
    }

    #[test]
    fn nonneg_constraint_holds_after_training() {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut m = MalConv::nonneg(ByteConvConfig::tiny(), &mut rng);
        m.train(&pairs, 3, 5e-3, &mut rng);
        assert!(m.weights_nonnegative());
    }

    #[test]
    fn benign_grad_points_downhill() {
        // Taking a small step along -grad in embedding space must reduce
        // the benign-direction loss (first-order sanity of the whole chain).
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut m = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        m.train(&pairs, 4, 5e-3, &mut rng);
        let mal = &ds.malware()[0].bytes;
        let mut grad = Vec::new();
        let loss = m.session().loss_grad_delta(mal, &[], &mut grad);
        assert!(loss.is_finite());
        // Finite-difference along the negative gradient direction, probed
        // through the embedding of byte 0 at position 100 (inside .text is
        // offset >= 1024; position 1030 is inside code for tiny window 2048).
        let dim = m.embedding().dim();
        let pos = 1030usize;
        let gslice = &grad[pos * dim..(pos + 1) * dim];
        let gnorm: f32 = gslice.iter().map(|g| g * g).sum::<f32>().sqrt();
        // If the gradient at this position is degenerate pick any nonzero one.
        let (pos, gslice, _) = if gnorm > 1e-9 {
            (pos, gslice.to_vec(), gnorm)
        } else {
            let mut best = (0usize, Vec::new(), 0.0f32);
            for p in 0..m.window() {
                let gs = &grad[p * dim..(p + 1) * dim];
                let n: f32 = gs.iter().map(|g| g * g).sum::<f32>().sqrt();
                if n > best.2 {
                    best = (p, gs.to_vec(), n);
                }
            }
            best
        };
        assert!(!gslice.is_empty(), "gradient identically zero");
        // Move the byte at `pos` to the token whose embedding best follows
        // -grad; loss should not increase.
        let cur = mal.get(pos).copied().unwrap_or(0) as usize;
        let step: Vec<f32> = m
            .embedding()
            .vector(cur)
            .iter()
            .zip(&gslice)
            .map(|(e, g)| e - 0.5 * g)
            .collect();
        let newtok = m.embedding().nearest_token(&step, 256);
        let mut modified = mal.clone();
        if pos < modified.len() {
            modified[pos] = newtok as u8;
            let loss2 = m.session().loss_grad_delta(&modified, &[], &mut grad);
            assert!(loss2 <= loss + 1e-3, "loss rose from {loss} to {loss2}");
        }
    }

    #[test]
    fn score_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        let b = vec![7u8; 512];
        assert_eq!(m.score(&b), m.score(&b));
    }

    #[test]
    fn short_and_empty_inputs_score() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let m = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        assert!(m.score(&[]).is_finite());
        assert!(m.score(&[1, 2, 3]).is_finite());
    }

    fn trained_tiny() -> MalConv {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut m = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        m.train(&pairs, 3, 5e-3, &mut rng);
        m
    }

    /// What the dense reference computed for one input.
    struct Reference {
        logit: f32,
        argmax: Vec<usize>,
        dpooled: Vec<f32>,
        /// A copy of the model holding the parameter gradients.
        grads: MalConv,
        /// `∂ℒ/∂x` over the whole window.
        dx: Vec<f32>,
    }

    /// The dense forward and backward MalConv trained with before the batch
    /// kernel and the sparse backward: every position embedded, every
    /// window convolved, every layer's backward over every window into
    /// fresh zeroed buffers, and the embedding backward over every
    /// position.
    fn reference(m: &MalConv, bytes: &[u8], target: f32) -> Reference {
        reference_from(m, bytes, target, crate::session_check::conv_forward)
    }

    /// [`reference`] with the conv responses of the tabled session.
    fn tabled_reference(m: &MalConv, bytes: &[u8]) -> Reference {
        let tokens: Vec<usize> = (0..m.config.window).map(|i| token_at(bytes, i)).collect();
        let mut tables = [&m.tables().a, &m.tables().b].into_iter();
        reference_from(m, bytes, 0.0, |conv, _| {
            let table = tables.next().expect("two convs");
            let mut out = vec![0.0; conv.windows(tokens.len()) * conv.out_ch()];
            for (w, row) in out.chunks_exact_mut(conv.out_ch()).enumerate() {
                table.window_into(&tokens, w, row);
            }
            out
        })
    }

    /// The reference over conv responses from `conv_a` then `conv_b`.
    fn reference_from(
        m: &MalConv,
        bytes: &[u8],
        target: f32,
        mut conv: impl FnMut(&Conv1d, &[f32]) -> Vec<f32>,
    ) -> Reference {
        use crate::session_check::{dense_conv_backward, dense_linear_backward};
        let (c, dim) = (m.config, m.embedding.dim());
        let tokens: Vec<usize> = (0..c.window).map(|i| token_at(bytes, i)).collect();
        let x: Vec<f32> = tokens.iter().flat_map(|&t| m.embedding.vector(t).to_vec()).collect();
        let (a, b) = (conv(&m.conv_a, &x), conv(&m.conv_b, &x));
        let gated: Vec<f32> = a.iter().zip(&b).map(|(&ai, &bi)| ai * sigmoid(bi)).collect();
        let (pooled, argmax) = global_max_pool(&gated, c.filters);
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
        let mut dgated = vec![0.0f32; gated.len()];
        for (ch, &w) in argmax.iter().enumerate() {
            dgated[w * c.filters + ch] = dpooled[ch];
        }
        let (mut da, mut db) = (vec![0.0f32; gated.len()], vec![0.0f32; gated.len()]);
        for i in 0..gated.len() {
            if dgated[i] == 0.0 {
                continue;
            }
            let s = sigmoid(b[i]);
            da[i] = dgated[i] * s;
            db[i] = dgated[i] * a[i] * s * (1.0 - s);
        }
        let mut dx = dense_conv_backward(&m.conv_a, &mut g.conv_a, &x, &da);
        let dxb = dense_conv_backward(&m.conv_b, &mut g.conv_b, &x, &db);
        for (d, e) in dx.iter_mut().zip(dxb) {
            *d += e;
        }
        for (i, &t) in tokens.iter().enumerate() {
            g.embedding.backward(t, &dx[i * dim..(i + 1) * dim]);
        }
        Reference { logit, argmax, dpooled, grads: g, dx }
    }

    fn all_grad_bits(m: &mut MalConv) -> Vec<u32> {
        let mut bits = crate::session_check::grad_bits([&m.embedding.table]);
        for (weight, bias) in m.layers() {
            bits.extend(crate::session_check::grad_bits([&*weight, &*bias]));
        }
        bits
    }

    /// A trained model rigged so the one backward meets its edge cases:
    /// channels 0 and 1 are identical (one argmax window for both);
    /// channel 2 feeds nothing into the head (`dpooled == 0`); channel 3's
    /// gate is saturated (`σ(b) == 0`, so `g·σ(b) == 0`); and channel 4
    /// responds most to PAD, so a file shorter than the window puts its
    /// argmax on a pad window.
    fn rigged(config: ByteConvConfig, nonneg: bool) -> MalConv {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let mut m = MalConv::build(config, nonneg, &mut rng);
        m.train(&pairs, 1, 5e-3, &mut rng);
        let (k_in, dim) = (config.kernel * config.embed_dim, config.embed_dim);
        for conv in [&mut m.conv_a, &mut m.conv_b] {
            conv.weight.w.copy_within(0..k_in, k_in);
            conv.bias.w[1] = conv.bias.w[0];
        }
        for o in 0..config.hidden {
            m.head1.weight.w[o * config.filters + 2] = 0.0;
        }
        m.conv_b.bias.w[3] = -200.0;
        // Channel 4 reads -Σ e(t)[0] with e(t)[0] > 0 for every byte and
        // e(PAD) = 0, so all-PAD windows score highest.
        let row4 = &mut m.conv_a.weight.w[4 * k_in..5 * k_in];
        for (i, w) in row4.iter_mut().enumerate() {
            *w = if i % dim == 0 { -1.0 } else { 0.0 };
        }
        m.conv_b.weight.w[4 * k_in..5 * k_in].fill(0.0);
        for t in 0..256 {
            m.embedding.table.w[t * dim] = m.embedding.table.w[t * dim].abs() + 0.01;
        }
        m
    }

    /// The one backward, as training runs it (`step_grads`: the batch
    /// kernel with capture, gradients through [`Grads`], the sparse
    /// embedding backward) and as sessions run it (through [`NoGrads`],
    /// after the tabled forward), gives the dense reference's parameter
    /// and input gradients bit for bit, with non-overlapping and overlapping windows, for MalConv and
    /// NonNeg, on inputs whose argmax windows are shared, padded, carry no
    /// gradient or sit behind a saturated gate.
    #[test]
    fn one_backward_matches_the_dense_reference_bit_for_bit() {
        let ds = dataset();
        let overlap = ByteConvConfig { kernel: 64, stride: 32, ..ByteConvConfig::tiny() };
        for (config, nonneg) in [(ByteConvConfig::tiny(), false), (overlap, true)] {
            let m = rigged(config, nonneg);
            let mal = &ds.malware()[0].bytes;
            let inputs: [&[u8]; 5] =
                [mal, &ds.benign()[0].bytes, &mal[..100], &mal[..config.kernel + 5], &[]];
            for (n, bytes) in inputs.into_iter().enumerate() {
                let what = format!("{}/{} input {n}", config.kernel, config.stride);
                let want = tabled_reference(&m, bytes);
                let windows = m.conv_a.windows(config.window);
                assert_eq!(want.argmax[0], want.argmax[1], "{what}: shared argmax");
                assert_eq!(want.dpooled[2], 0.0, "{what}: dpooled");
                assert_eq!(sigmoid(-200.0), 0.0, "{what}: saturated gate");
                let data_windows =
                    data_extent(bytes.len(), config.kernel, config.stride, windows).0;
                assert_eq!(want.argmax[4] >= data_windows, bytes.len() < config.window, "{what}");
                // The session: loss and the whole input gradient.
                let mut grad = vec![f32::NAN; 3];
                let loss = m.session().loss_grad_delta(bytes, &[], &mut grad);
                assert_eq!(loss.to_bits(), bce_with_logits(want.logit, 0.0).to_bits(), "{what}");
                let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&grad), bits(&want.dx), "{what}: input gradient");
                // Training, from stale scratch, for either target.
                for target in [0.0, 1.0] {
                    let mut want = reference(&m, bytes, target);
                    let mut got = m.clone();
                    let (input, rows) = got.scratch();
                    let mut scratch = TrainScratch::new(input, rows);
                    scratch.dx.fill(f32::NAN);
                    scratch.input.x.fill(f32::NAN);
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

    /// Every black-box score runs the pad-skipping batch kernel; batched,
    /// single-call `score` and single-call `raw_score` results must all
    /// stay bit-identical to the dense reference's logit — including
    /// empty input, files shorter than one kernel, exactly one window, and
    /// files longer than the model window.
    #[test]
    fn score_batch_is_bit_identical_to_sequential_scores() {
        let m = trained_tiny();
        let ds = dataset();
        let config = *m.config();
        let mut owned: Vec<Vec<u8>> = ds.samples.iter().map(|s| s.bytes.clone()).collect();
        owned.push(Vec::new());
        owned.push(vec![0x4d; 3]);
        owned.push(vec![0x90; config.kernel - 1]);
        owned.push(vec![0xcc; 70]);
        owned.push(vec![0x5a; config.window]);
        owned.push(vec![0xab; config.window + 257]);
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
        let mut verdicts = Vec::new();
        m.classify_batch(&items, &mut verdicts);
        for (i, bytes) in items.iter().enumerate() {
            assert_eq!(verdicts[i], m.classify(bytes), "verdict item {i}");
        }
    }

    /// The tabled white-box forward must agree with the dense reference's
    /// forward within float-reassociation error.
    #[test]
    fn tabled_logit_matches_naive_logit() {
        let m = trained_tiny();
        let ds = dataset();
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
    /// bit-identical to a full recompute — including spans that straddle
    /// conv-window boundaries and the end of the model window.
    #[test]
    fn score_delta_matches_full_recompute_exactly() {
        let m = trained_tiny();
        let ds = dataset();
        let mut bytes = ds.malware()[0].bytes.clone();
        let mut sess = m.session();
        sess.score_delta(&bytes, &[]); // prime
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        // kernel = stride = 64 for tiny: 60..70 straddles a boundary,
        // 4090..4100 straddles the window edge (window = 4096).
        let fixed: [(usize, usize); 3] = [(60, 70), (4090, 4100), (0, 1)];
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
        let m = trained_tiny();
        let ds = dataset();
        let mut bytes = ds.malware()[1].bytes.clone();
        let mut sess = m.session();
        let mut g_inc = Vec::new();
        let mut g_full = Vec::new();
        sess.loss_grad_delta(&bytes, &[], &mut g_inc); // prime
        let mut rng = ChaCha8Rng::seed_from_u64(78);
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

    /// Digests of training and of the gradient path at full size
    /// (`ByteConvConfig::default()`: its 16 KiB window leaves pad windows
    /// in every corpus file) and with overlapping windows (kernel 64,
    /// stride 32) for MalConv and NonNeg: snapshot bytes after training,
    /// then scores, losses and gradients over long and short probes.
    /// Captured before training ran the batch kernel and the sparse
    /// backward.
    #[test]
    fn training_and_gradient_golden_regression() {
        use crate::session_check::{golden_digest, golden_pairs};
        let ds = dataset();
        let overlap = ByteConvConfig { kernel: 64, stride: 32, ..ByteConvConfig::tiny() };
        let cases = [
            ("MalConv default", ByteConvConfig::default(), false, 1),
            ("MalConv 64/32", overlap, false, 2),
            ("NonNeg 64/32", overlap, true, 2),
        ];
        let digests: Vec<(&str, u64)> = cases
            .iter()
            .map(|&(name, config, nonneg, epochs)| {
                let mut rng = ChaCha8Rng::seed_from_u64(13);
                let mut m = MalConv::build(config, nonneg, &mut rng);
                m.train(&golden_pairs(&ds), epochs, 5e-3, &mut rng);
                (name, golden_digest(&m, &m.to_snapshot().to_bytes(), &ds))
            })
            .collect();
        let golden = [
            ("MalConv default", 0xa555_7fa4_bb7e_963a),
            ("MalConv 64/32", 0x06d5_a6a8_d295_058d),
            ("NonNeg 64/32", 0xed66_f2a6_ed25_edc8),
        ];
        assert_eq!(digests, golden, "{digests:#x?}");
    }

    /// Optimizer-shaped dirty lists (hundreds of 1-byte spans, repeats,
    /// overlaps, edge and empty spans) give a fresh session's bits, and
    /// each call recomputes every window at most once — for MalConv and
    /// NonNeg alike.
    #[test]
    fn multi_span_syncs_match_a_fresh_session_and_recompute_each_window_once() {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut nonneg = MalConv::nonneg(ByteConvConfig::tiny(), &mut rng);
        nonneg.train(&pairs, 3, 5e-3, &mut rng);
        for (seed, m) in [(81, trained_tiny()), (82, nonneg)] {
            crate::session_check::check_multi_span(
                || ByteConvSession::new(&m),
                |s| &s.recomputed,
                ds.malware()[seed as usize % 4].bytes.clone(),
                m.config.window,
                seed,
            );
        }
    }

    /// A session re-primes whenever `bytes.len()` changes, whatever
    /// `dirty` says: every score and gradient after a length change equals
    /// a fresh session's bit for bit, for longer and shorter buffers alike.
    #[test]
    fn sessions_reprime_when_the_length_changes() {
        let m = trained_tiny();
        let ds = dataset();
        let full = &ds.malware()[2].bytes;
        let mut sess = m.session();
        sess.score_delta(&full[..2000], &[]); // prime
        let (mut g_live, mut g_fresh) = (Vec::new(), Vec::new());
        for len in [3000, 1000, full.len(), 64] {
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

    /// The zero-clone gradient path: the model's own parameter-gradient
    /// accumulators stay untouched (nothing backpropagates into them), and
    /// the session's workspace reaches a steady state where repeated calls
    /// recycle every buffer instead of allocating.
    #[test]
    fn gradient_path_is_zero_clone_and_reuses_buffers() {
        let m = trained_tiny();
        let ds = dataset();
        let bytes = &ds.malware()[0].bytes;
        let mut sess = ByteConvSession::new(&m);
        let mut grad = Vec::new();
        let l1 = sess.loss_grad_delta(bytes, &[], &mut grad);
        let pooled_after_first = sess.ws.pooled();
        let g1 = grad.clone();
        let l2 = sess.loss_grad_delta(bytes, &[], &mut grad);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(g1, grad, "repeated calls must be deterministic");
        assert_eq!(sess.ws.pooled(), pooled_after_first, "buffer pool must reach steady state");
        // &self throughout: parameter gradients cannot have been touched.
        assert!(m.conv_a.weight.g.iter().all(|&g| g == 0.0));
        assert!(m.conv_b.weight.g.iter().all(|&g| g == 0.0));
        assert!(m.head1.weight.g.iter().all(|&g| g == 0.0));
        // And the tables were built exactly once, on first use.
        assert!(m.tables.is_built());
    }
}
