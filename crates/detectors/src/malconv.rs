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
    SnapshotBuilder, SnapshotError, TokenConv, Workspace,
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
        if config.kernel == 0 || config.stride == 0 {
            return Err(SnapshotError::BadMeta {
                key: "kernel".to_owned(),
                value: format!("kernel {} stride {}", config.kernel, config.stride),
            });
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

    fn tokenize(&self, bytes: &[u8]) -> Vec<usize> {
        let mut tokens = Vec::with_capacity(self.config.window);
        for i in 0..self.config.window {
            tokens.push(bytes.get(i).map(|&b| b as usize).unwrap_or(PAD));
        }
        tokens
    }

    /// Re-tokenize into an existing `window`-sized buffer.
    fn tokenize_into(&self, bytes: &[u8], tokens: &mut [usize]) {
        debug_assert_eq!(tokens.len(), self.config.window);
        for (i, t) in tokens.iter_mut().enumerate() {
            *t = bytes.get(i).map(|&b| b as usize).unwrap_or(PAD);
        }
    }

    /// The token-indexed conv tables, built on first use after training.
    fn tables(&self) -> &GatedTables {
        self.tables.get_or_build(|| GatedTables {
            a: TokenConv::build(&self.conv_a, &self.embedding),
            b: TokenConv::build(&self.conv_b, &self.embedding),
        })
    }

    /// Tabled gated forward: fill `a`, `b` and `gated = a · σ(b)` over
    /// `tokens` (all `[windows × filters]` flat).
    fn gated_forward(
        &self,
        t: &GatedTables,
        tokens: &[usize],
        a: &mut Vec<f32>,
        b: &mut Vec<f32>,
        gated: &mut Vec<f32>,
    ) {
        t.a.forward_into(tokens, a);
        t.b.forward_into(tokens, b);
        gated.clear();
        gated.extend(a.iter().zip(b.iter()).map(|(&ai, &bi)| ai * sigmoid(bi)));
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
        let tokens = self.tokenize(bytes);
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
    /// once per batch and replicated — that skip, plus embedding/conv
    /// scratch drawn once from a [`Workspace`] free-list and reused
    /// across items, is where the batch throughput comes from.
    fn logit_batch_into(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        let dim = self.embedding.dim();
        let window = self.config.window;
        let filters = self.config.filters;
        let kernel = self.config.kernel;
        let stride = self.config.stride;
        let windows_total = self.conv_a.windows(window);
        // Component-major weight copies let every window's conv run as
        // lane-chunked axpy over contiguous output channels; the kernel is
        // bit-identical to the scalar `forward_window_into`, and building
        // the transpose once per batch amortizes it over all items.
        let xa = self.conv_a.transposed();
        let xb = self.conv_b.transposed();
        let mut ws = Workspace::default();
        // One all-PAD receptive field serves every fully-padded window in
        // every item.
        let mut pad_patch = ws.take_f32(kernel * dim);
        for k in 0..kernel {
            pad_patch[k * dim..(k + 1) * dim].copy_from_slice(self.embedding.vector(PAD));
        }
        let mut pad_a = ws.take_f32(filters);
        let mut pad_b = ws.take_f32(filters);
        let mut pad_gated = ws.take_f32(filters);
        if windows_total > 0 {
            xa.forward_window_into(&pad_patch, 0, &mut pad_a);
            xb.forward_window_into(&pad_patch, 0, &mut pad_b);
            for ((g, &ai), &bi) in pad_gated.iter_mut().zip(&pad_a).zip(&pad_b) {
                *g = ai * sigmoid(bi);
            }
        }
        let mut x = ws.take_f32(window * dim);
        let mut a_row = ws.take_f32(filters);
        let mut b_row = ws.take_f32(filters);
        let mut gated = ws.take_f32(windows_total * filters);
        out.reserve(items.len());
        for bytes in items {
            let data_len = bytes.len().min(window);
            // Windows touching position < data_len; everything after is
            // all-PAD and gets the replicated row.
            let data_windows = if data_len == 0 {
                0
            } else {
                (((data_len - 1) / stride) + 1).min(windows_total)
            };
            // Embed only what those windows can see: the data prefix plus
            // any PAD positions inside the last data-overlapping window.
            let visible = if data_windows == 0 {
                0
            } else {
                ((data_windows - 1) * stride + kernel).min(window)
            };
            let data_fill = data_len.min(visible);
            for (i, &byte) in bytes.iter().enumerate().take(data_fill) {
                x[i * dim..(i + 1) * dim]
                    .copy_from_slice(self.embedding.vector(byte as usize));
            }
            for i in data_fill..visible {
                x[i * dim..(i + 1) * dim].copy_from_slice(self.embedding.vector(PAD));
            }
            for w in 0..data_windows {
                xa.forward_window_into(&x, w, &mut a_row);
                xb.forward_window_into(&x, w, &mut b_row);
                let g = &mut gated[w * filters..(w + 1) * filters];
                for ((gi, &ai), &bi) in g.iter_mut().zip(&a_row).zip(&b_row) {
                    *gi = ai * sigmoid(bi);
                }
            }
            for w in data_windows..windows_total {
                gated[w * filters..(w + 1) * filters].copy_from_slice(&pad_gated);
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

    fn benign_loss_grad_into(
        &self,
        bytes: &[u8],
        ws: &mut Workspace,
        grad: &mut Vec<f32>,
    ) -> f32 {
        let t = self.tables();
        let mut tokens = ws.take_idx(self.config.window);
        self.tokenize_into(bytes, &mut tokens);
        let mut a = ws.take_f32(0);
        let mut b = ws.take_f32(0);
        let mut gated = ws.take_f32(0);
        self.gated_forward(t, &tokens, &mut a, &mut b, &mut gated);
        let loss = self.head_backward_into(ws, &a, &b, &gated, grad);
        ws.give_f32(gated);
        ws.give_f32(b);
        ws.give_f32(a);
        ws.give_idx(tokens);
        loss
    }

    fn session(&self) -> Box<dyn WhiteBoxSession + '_> {
        Box::new(ByteConvSession {
            tables: self.tables(),
            net: self,
            ws: Workspace::default(),
            tokens: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
            gated: Vec::new(),
            len: 0,
            primed: false,
        })
    }
}

/// Incremental inference session over one evolving byte buffer: caches
/// the tokenization and gated-conv activations, recomputing only windows
/// whose receptive field overlaps a dirty span, then re-pools. Patched
/// windows use the identical per-window arithmetic as the full tabled
/// forward, so incremental results are bit-equal to a fresh session.
struct ByteConvSession<'a> {
    net: &'a MalConv,
    tables: &'a GatedTables,
    ws: Workspace,
    tokens: Vec<usize>,
    a: Vec<f32>,
    b: Vec<f32>,
    gated: Vec<f32>,
    len: usize,
    primed: bool,
}

impl ByteConvSession<'_> {
    /// Bring cached activations up to date with `bytes`, trusting `dirty`
    /// to cover every changed offset since the last call.
    fn sync(&mut self, bytes: &[u8], dirty: &[Range<usize>]) {
        let window = self.net.config.window;
        if !self.primed || bytes.len() != self.len {
            self.tokens.clear();
            self.tokens.resize(window, 0);
            self.net.tokenize_into(bytes, &mut self.tokens);
            self.net.gated_forward(
                self.tables,
                &self.tokens,
                &mut self.a,
                &mut self.b,
                &mut self.gated,
            );
            self.len = bytes.len();
            self.primed = true;
            return;
        }
        let filters = self.net.config.filters;
        for r in dirty {
            let lo = r.start.min(window);
            let hi = r.end.min(window);
            if lo >= hi {
                continue;
            }
            for i in lo..hi {
                self.tokens[i] = bytes.get(i).map(|&v| v as usize).unwrap_or(PAD);
            }
            for w in self.tables.a.dirty_windows(window, lo, hi) {
                let span = w * filters..(w + 1) * filters;
                self.tables.a.window_into(&self.tokens, w, &mut self.a[span.clone()]);
                self.tables.b.window_into(&self.tokens, w, &mut self.b[span.clone()]);
                for i in span {
                    self.gated[i] = self.a[i] * sigmoid(self.b[i]);
                }
            }
        }
        #[cfg(debug_assertions)]
        for (i, &t) in self.tokens.iter().enumerate() {
            debug_assert_eq!(
                t,
                bytes.get(i).map(|&v| v as usize).unwrap_or(PAD),
                "dirty spans did not cover a changed byte at offset {i}"
            );
        }
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
        let mut ws = Workspace::default();
        let mut grad = Vec::new();
        let loss = m.benign_loss_grad_into(mal, &mut ws, &mut grad);
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
            let loss2 = m.benign_loss_grad_into(&modified, &mut ws, &mut grad);
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

    /// The zero-clone gradient path: the model's own parameter-gradient
    /// accumulators stay untouched (nothing backpropagates into them), and
    /// the workspace reaches a steady state where repeated calls recycle
    /// every buffer instead of allocating.
    #[test]
    fn gradient_path_is_zero_clone_and_reuses_buffers() {
        let m = trained_tiny();
        let ds = dataset();
        let bytes = &ds.malware()[0].bytes;
        let mut ws = Workspace::default();
        let mut grad = Vec::new();
        let l1 = m.benign_loss_grad_into(bytes, &mut ws, &mut grad);
        let pooled_after_first = ws.pooled();
        let g1 = grad.clone();
        let l2 = m.benign_loss_grad_into(bytes, &mut ws, &mut grad);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(g1, grad, "repeated calls must be deterministic");
        assert_eq!(ws.pooled(), pooled_after_first, "buffer pool must reach steady state");
        // &self throughout: parameter gradients cannot have been touched.
        assert!(m.conv_a.weight.g.iter().all(|&g| g == 0.0));
        assert!(m.conv_b.weight.g.iter().all(|&g| g == 0.0));
        assert!(m.head1.weight.g.iter().all(|&g| g == 0.0));
        // And the tables were built exactly once, on first use.
        assert!(m.tables.is_built());
    }
}
