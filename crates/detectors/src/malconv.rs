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
    bce_with_logits, bce_with_logits_backward, global_max_pool, global_max_pool_backward,
    relu, relu_backward, sigmoid, Adam, Cached, Conv1d, Embedding, Linear, Snapshot,
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

/// Cached activations of one forward pass.
struct Activations {
    tokens: Vec<usize>,
    x: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    gated: Vec<f32>,
    argmax: Vec<usize>,
    pooled: Vec<f32>,
    a1: Vec<f32>,
    h1: Vec<f32>,
    logit: f32,
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

    /// Pool + dense head over cached gated activations; returns the logit.
    fn head_logit(&self, gated: &[f32]) -> f32 {
        let (pooled, _) = global_max_pool(gated, self.config.filters);
        let h1 = relu(&self.head1.forward(&pooled));
        self.head2.forward(&h1)[0]
    }

    /// From cached gated-conv activations: pool + head forward, then the
    /// input-grad-only backward. Never touches parameter gradients (every
    /// layer is used through `&self`), so no scratch model clone exists on
    /// this path — the zero-clone contract is structural. Returns the
    /// benign-direction loss and fills `grad` with `∂ℒ/∂x` over the full
    /// `window × dim` embedded input.
    fn head_backward_into(
        &self,
        ws: &mut Workspace,
        a: &[f32],
        b: &[f32],
        gated: &[f32],
        grad: &mut Vec<f32>,
    ) -> f32 {
        let filters = self.config.filters;
        let (pooled, argmax) = global_max_pool(gated, filters);
        let a1 = self.head1.forward(&pooled);
        let h1 = relu(&a1);
        let logit = self.head2.forward(&h1)[0];
        let loss = bce_with_logits(logit, 0.0);
        let dlogit = bce_with_logits_backward(logit, 0.0);
        let mut dh1 = ws.take_f32(self.config.hidden);
        self.head2.backward_input(&[dlogit], &mut dh1);
        let da1 = relu_backward(&a1, &dh1);
        let mut dpooled = ws.take_f32(filters);
        self.head1.backward_input(&da1, &mut dpooled);
        // The max pool makes the gate gradient sparse: exactly one window
        // per channel receives it.
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
        grad.clear();
        grad.resize(self.config.window * self.embedding.dim(), 0.0);
        let mut gb = ws.take_f32(grad.len());
        self.conv_a.backward_input(&da, grad);
        self.conv_b.backward_input(&db, &mut gb);
        for (ga, &gbi) in grad.iter_mut().zip(&gb) {
            *ga += gbi;
        }
        ws.give_f32(gb);
        ws.give_f32(db);
        ws.give_f32(da);
        ws.give_f32(dpooled);
        ws.give_f32(dh1);
        loss
    }

    fn forward(&self, bytes: &[u8]) -> Activations {
        let tokens = tokenize(bytes, self.config.window);
        let x = self.embedding.forward(&tokens);
        let a = self.conv_a.forward(&x);
        let b = self.conv_b.forward(&x);
        let gated: Vec<f32> = a.iter().zip(&b).map(|(&ai, &bi)| ai * sigmoid(bi)).collect();
        let (pooled, argmax) = global_max_pool(&gated, self.config.filters);
        let a1 = self.head1.forward(&pooled);
        let h1 = relu(&a1);
        let logit = self.head2.forward(&h1)[0];
        Activations { tokens, x, a, b, gated, argmax, pooled, a1, h1, logit }
    }

    /// Backward from `dlogit`; accumulates parameter gradients and returns
    /// the gradient w.r.t. the embedded input `x`.
    fn backward(&mut self, act: &Activations, dlogit: f32) -> Vec<f32> {
        let dh1 = self.head2.backward(&act.h1, &[dlogit]);
        let da1 = relu_backward(&act.a1, &dh1);
        let dpooled = self.head1.backward(&act.pooled, &da1);
        let windows = act.gated.len() / self.config.filters;
        let dgated =
            global_max_pool_backward(&dpooled, &act.argmax, windows, self.config.filters);
        let mut da = vec![0.0f32; act.a.len()];
        let mut db = vec![0.0f32; act.b.len()];
        for i in 0..dgated.len() {
            if dgated[i] == 0.0 {
                continue;
            }
            let s = sigmoid(act.b[i]);
            da[i] = dgated[i] * s;
            db[i] = dgated[i] * act.a[i] * s * (1.0 - s);
        }
        let mut dx = self.conv_a.backward(&act.x, &da);
        let dxb = self.conv_b.backward(&act.x, &db);
        for (d, db_) in dx.iter_mut().zip(dxb) {
            *d += db_;
        }
        dx
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
                self.embedding.freeze_zero_row(PAD);
                adam.step(&mut self.embedding.table);
                adam.step(&mut self.conv_a.weight);
                adam.step(&mut self.conv_a.bias);
                adam.step(&mut self.conv_b.weight);
                adam.step(&mut self.conv_b.bias);
                adam.step(&mut self.head1.weight);
                adam.step(&mut self.head1.bias);
                adam.step(&mut self.head2.weight);
                adam.step(&mut self.head2.bias);
                if self.nonneg {
                    self.clamp_nonneg();
                }
            }
            last = total / data.len().max(1) as f32;
        }
        // Weights changed: the derived token tables must be rebuilt on
        // next use.
        self.tables.invalidate();
        last
    }

    /// Logits of `items`, appended to `out` in input order — the one f32
    /// inference kernel behind every black-box score (`score` and
    /// `raw_score` are a batch of one).
    ///
    /// Bit-identical to the training `forward(..).logit`: every window
    /// whose receptive field touches file bytes runs the same
    /// `forward_window_into` arithmetic, over an embedding buffer filled
    /// with the same per-token rows. Windows past the file's extent all
    /// see the identical all-PAD patch, so their gated row is computed
    /// once per batch and replicated — that skip, plus scratch allocated
    /// once per batch and reused across items, is where the batch
    /// throughput comes from.
    fn logit_batch_into(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        let filters = self.config.filters;
        let windows_total = self.conv_a.windows(self.config.window);
        // Component-major weight copies let every window's conv run as
        // lane-chunked axpy over contiguous output channels; the kernel is
        // bit-identical to the scalar `forward_window_into`, and building
        // the transpose once per batch amortizes it over all items.
        let xa = self.conv_a.transposed();
        let xb = self.conv_b.transposed();
        let mut input = PaddedInput::new(&self.embedding, self.config.window, &self.conv_a);
        let mut a_row = vec![0.0; filters];
        let mut b_row = vec![0.0; filters];
        // One all-PAD receptive field serves every fully-padded window in
        // every item.
        let mut pad_gated = vec![0.0; filters];
        xa.forward_window_into(&input.pad_patch, 0, &mut a_row);
        xb.forward_window_into(&input.pad_patch, 0, &mut b_row);
        gate_into(&a_row, &b_row, &mut pad_gated);
        let mut gated = vec![0.0; windows_total * filters];
        out.reserve(items.len());
        for bytes in items {
            let data_windows = input.embed(bytes);
            for w in 0..data_windows {
                xa.forward_window_into(&input.x, w, &mut a_row);
                xb.forward_window_into(&input.x, w, &mut b_row);
                gate_into(&a_row, &b_row, &mut gated[w * filters..(w + 1) * filters]);
            }
            for row in gated[data_windows * filters..].chunks_exact_mut(filters) {
                row.copy_from_slice(&pad_gated);
            }
            out.push(self.head_logit(&gated));
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

    fn raw_score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.logit_batch_into(items, out);
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
    a: Vec<f32>,
    b: Vec<f32>,
    gated: Vec<f32>,
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
            a: vec![0.0; cells],
            b: vec![0.0; cells],
            gated: vec![0.0; cells],
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
            self.tables.a.window_into(&self.tokens, w, &mut self.a[span.clone()]);
            self.tables.b.window_into(&self.tokens, w, &mut self.b[span.clone()]);
            gate_into(&self.a[span.clone()], &self.b[span.clone()], &mut self.gated[span]);
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
        self.net.head_logit(&self.gated)
    }

    fn loss_grad_delta(
        &mut self,
        bytes: &[u8],
        dirty: &[Range<usize>],
        grad: &mut Vec<f32>,
    ) -> f32 {
        self.sync(bytes, dirty);
        self.net.head_backward_into(&mut self.ws, &self.a, &self.b, &self.gated, grad)
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

/// The `window` tokens a byte-conv model reads from `bytes`.
pub(crate) fn tokenize(bytes: &[u8], window: usize) -> Vec<usize> {
    (0..window).map(|i| token_at(bytes, i)).collect()
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

/// The byte end of both pad-skipping batch kernels, built once per batch
/// for a model's first conv layer: an embedding buffer reused across
/// items, and the all-PAD receptive field whose response stands in for
/// every window past a file's extent.
pub(crate) struct PaddedInput<'a> {
    embedding: &'a Embedding,
    kernel: usize,
    stride: usize,
    windows: usize,
    /// `window × dim` embedded input; [`PaddedInput::embed`] refreshes the
    /// prefix the data-overlapping windows read.
    pub x: Vec<f32>,
    /// One `kernel × dim` receptive field of PAD embeddings.
    pub pad_patch: Vec<f32>,
}

impl<'a> PaddedInput<'a> {
    pub fn new(embedding: &'a Embedding, window: usize, conv: &Conv1d) -> Self {
        PaddedInput {
            embedding,
            kernel: conv.kernel(),
            stride: conv.stride(),
            windows: conv.windows(window),
            x: vec![0.0; window * embedding.dim()],
            pad_patch: embedding.vector(PAD).repeat(conv.kernel()),
        }
    }

    /// Embed the positions of `bytes` its data-overlapping windows read
    /// (file bytes, then PAD to the end of the last such window); returns
    /// how many windows overlap the data.
    pub fn embed(&mut self, bytes: &[u8]) -> usize {
        let dim = self.embedding.dim();
        let (windows, visible) = data_extent(bytes.len(), self.kernel, self.stride, self.windows);
        for i in 0..visible {
            self.x[i * dim..(i + 1) * dim]
                .copy_from_slice(self.embedding.vector(token_at(bytes, i)));
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

    /// Every black-box score runs the pad-skipping batch kernel; batched,
    /// single-call `score` and single-call `raw_score` results must all
    /// stay bit-identical to the training forward's logit — including
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
            let logit = m.forward(bytes).logit;
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

    /// The tabled white-box forward must agree with the naive training
    /// forward within float-reassociation error.
    #[test]
    fn tabled_logit_matches_naive_logit() {
        let m = trained_tiny();
        let ds = dataset();
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
