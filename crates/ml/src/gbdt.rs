//! Gradient-boosted decision trees with logistic loss — the stand-in for
//! the LightGBM/EMBER detector (the paper's fourth offline model) and the
//! tree component of the simulated commercial AVs.
//!
//! Second-order boosting (gradient + hessian, XGBoost/LightGBM style) with
//! quantile candidate splits.

use crate::activation::sigmoid;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`Gbdt::train`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub trees: usize,
    /// Maximum tree depth.
    pub depth: usize,
    /// Shrinkage applied to every leaf.
    pub learning_rate: f32,
    /// Minimum samples a node needs before splitting.
    pub min_samples_split: usize,
    /// Candidate thresholds examined per feature.
    pub candidate_splits: usize,
    /// L2 regularization on leaf values.
    pub lambda: f32,
    /// Fraction of features considered at each tree (column subsampling).
    pub colsample: f32,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            trees: 60,
            depth: 4,
            learning_rate: 0.2,
            min_samples_split: 8,
            candidate_splits: 16,
            lambda: 1.0,
            colsample: 0.8,
        }
    }
}

/// Sentinel in [`FlatNode::feature`] marking a leaf node.
const LEAF: u32 = u32::MAX;

/// Columnar projection of a [`Gbdt`]'s arena:
/// `(roots, feature, value, left, right)` — the shape the snapshot
/// format stores. A leaf's `feature` is `u32::MAX` and its `value` the
/// leaf value; a split's `value` is its threshold.
pub type ForestColumns = (Vec<u32>, Vec<u32>, Vec<f32>, Vec<u32>, Vec<u32>);

/// A boosted ensemble for binary classification, trained into and scored
/// from one contiguous node arena: each tree's nodes are contiguous, in
/// the builder's preorder (a split, then its left subtree, then its
/// right), with absolute child indices, so left descents stay
/// cache-linear and a node visit is one bounds-checked load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbdt {
    base: f32,
    /// Arena index of each tree's root, ascending.
    roots: Vec<u32>,
    /// All trees' nodes.
    nodes: Vec<FlatNode>,
}

/// One packed arena node: 16 bytes, so a traversal step costs one
/// bounds-checked load from one cache-line segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FlatNode {
    /// Split feature, or [`LEAF`].
    feature: u32,
    /// Split threshold for split nodes, leaf value for leaves.
    value: f32,
    /// Left child arena index (splits only).
    left: u32,
    /// Right child arena index (splits only).
    right: u32,
}

impl FlatNode {
    fn leaf(value: f32) -> FlatNode {
        FlatNode { feature: LEAF, value, left: 0, right: 0 }
    }
}

/// A split search: the best `(feature, threshold, gain)` of a node.
type SplitFn = fn(&mut Builder<'_>, &[usize]) -> Option<(usize, f32, f32)>;

struct Builder<'a> {
    features: &'a [Vec<f32>],
    grad: &'a [f32],
    hess: &'a [f32],
    params: GbdtParams,
    active_features: Vec<usize>,
    /// The ensemble's arena; [`Builder::build`] appends one tree.
    nodes: &'a mut Vec<FlatNode>,
    split: SplitFn,
    scratch: SplitScratch,
}

/// Buffers [`Builder::best_split`] reuses across nodes and features: the
/// node's `grad`, `hess` and current feature column, in node order.
#[derive(Default)]
struct SplitScratch {
    grad: Vec<f32>,
    hess: Vec<f32>,
    column: Vec<f32>,
}

/// Candidate thresholds one sweep of a node's column sums at once; their
/// sums stay in registers for the whole sweep.
const THRESHOLD_BLOCK: usize = 8;

/// Left-side sums `(Σg, Σh, count)` of a column at each threshold of a
/// block: every sample updates every threshold, in column order, so each
/// threshold sees exactly the additions of a pass of its own.
fn left_sums(
    thresholds: &[f32; THRESHOLD_BLOCK],
    column: &[f32],
    grad: &[f32],
    hess: &[f32],
) -> ([f32; THRESHOLD_BLOCK], [f32; THRESHOLD_BLOCK], [u32; THRESHOLD_BLOCK]) {
    let mut gl = [0.0f32; THRESHOLD_BLOCK];
    let mut hl = [0.0f32; THRESHOLD_BLOCK];
    let mut nl = [0u32; THRESHOLD_BLOCK];
    for ((&v, &g), &h) in column.iter().zip(grad).zip(hess) {
        for j in 0..THRESHOLD_BLOCK {
            let left = v <= thresholds[j];
            gl[j] = if left { gl[j] + g } else { gl[j] };
            hl[j] = if left { hl[j] + h } else { hl[j] };
            nl[j] += u32::from(left);
        }
    }
    (gl, hl, nl)
}

impl<'a> Builder<'a> {
    fn leaf_value(&self, idx: &[usize]) -> f32 {
        let g: f32 = idx.iter().map(|&i| self.grad[i]).sum();
        let h: f32 = idx.iter().map(|&i| self.hess[i]).sum();
        -self.params.learning_rate * g / (h + self.params.lambda)
    }

    /// The best split of the node `idx`. Its `grad`, `hess` and each
    /// feature column are gathered once; [`left_sums`] then sweeps the
    /// column once per block of [`THRESHOLD_BLOCK`] candidate thresholds
    /// (`gl = if v <= thr { gl + g } else { gl }`), so every threshold gets
    /// the sums, gain and `(feature, k)` tie order of a pass of its own,
    /// bit for bit.
    fn best_split(&mut self, idx: &[usize]) -> Option<(usize, f32, f32)> {
        let g_total: f32 = idx.iter().map(|&i| self.grad[i]).sum();
        let h_total: f32 = idx.iter().map(|&i| self.hess[i]).sum();
        let lambda = self.params.lambda;
        let parent_score = g_total * g_total / (h_total + lambda);
        let splits = self.params.candidate_splits;
        let s = &mut self.scratch;
        s.grad.clear();
        s.grad.extend(idx.iter().map(|&i| self.grad[i]));
        s.hess.clear();
        s.hess.extend(idx.iter().map(|&i| self.hess[i]));
        let mut best: Option<(usize, f32, f32)> = None;
        for &f in &self.active_features {
            s.column.clear();
            s.column.extend(idx.iter().map(|&i| self.features[i][f]));
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &v in &s.column {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi <= lo {
                continue;
            }
            for first in (1..=splits).step_by(THRESHOLD_BLOCK) {
                let count = THRESHOLD_BLOCK.min(splits + 1 - first);
                // Padding thresholds are NaN: no sample goes left of them.
                let mut thresholds = [f32::NAN; THRESHOLD_BLOCK];
                for (j, thr) in thresholds[..count].iter_mut().enumerate() {
                    *thr = lo + (hi - lo) * (first + j) as f32 / (splits + 1) as f32;
                }
                let (gl, hl, nl) = left_sums(&thresholds, &s.column, &s.grad, &s.hess);
                for j in 0..count {
                    // A node's sample count fits in u32 (the training set
                    // is held in memory as one Vec per sample).
                    if nl[j] == 0 || nl[j] as usize == idx.len() {
                        continue;
                    }
                    let (gl, hl) = (gl[j], hl[j]);
                    let gr = g_total - gl;
                    let hr = h_total - hl;
                    let gain =
                        gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
                    if gain > 1e-6 && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                        best = Some((f, thresholds[j], gain));
                    }
                }
            }
        }
        best
    }

    /// Append the subtree over `idx` to the arena in preorder and return
    /// its root's index.
    fn build(&mut self, idx: Vec<usize>, depth: usize) -> usize {
        let here = self.nodes.len();
        if depth >= self.params.depth
            || idx.len() < self.params.min_samples_split
        {
            self.nodes.push(FlatNode::leaf(self.leaf_value(&idx)));
            return here;
        }
        match (self.split)(self, &idx) {
            None => self.nodes.push(FlatNode::leaf(self.leaf_value(&idx))),
            Some((feature, threshold, _)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| self.features[i][feature] <= threshold);
                self.nodes.push(FlatNode::leaf(0.0)); // placeholder
                let left = self.build(left_idx, depth + 1) as u32;
                let right = self.build(right_idx, depth + 1) as u32;
                self.nodes[here] =
                    FlatNode { feature: feature as u32, value: threshold, left, right };
            }
        }
        here
    }
}

impl Gbdt {
    /// Train on `(features, labels)` where labels are 1.0 (malicious) or
    /// 0.0 (benign).
    ///
    /// # Panics
    ///
    /// Panics when `features` is empty or lengths mismatch.
    pub fn train<R: Rng + ?Sized>(
        features: &[Vec<f32>],
        labels: &[f32],
        params: GbdtParams,
        rng: &mut R,
    ) -> Gbdt {
        Gbdt::train_with(features, labels, params, rng, |b, idx| b.best_split(idx))
    }

    /// [`Gbdt::train`] with the split search `split`.
    fn train_with<R: Rng + ?Sized>(
        features: &[Vec<f32>],
        labels: &[f32],
        params: GbdtParams,
        rng: &mut R,
        split: SplitFn,
    ) -> Gbdt {
        assert!(!features.is_empty(), "training set must be non-empty");
        assert_eq!(features.len(), labels.len(), "features/labels length mismatch");
        let n = features.len();
        let dim = features[0].len();
        let pos = labels.iter().sum::<f32>() / n as f32;
        let base = (pos.clamp(1e-4, 1.0 - 1e-4) / (1.0 - pos.clamp(1e-4, 1.0 - 1e-4))).ln();
        let mut logits = vec![base; n];
        let mut model = Gbdt { base, roots: Vec::with_capacity(params.trees), nodes: Vec::new() };
        let n_cols = ((dim as f32 * params.colsample).ceil() as usize).clamp(1, dim);
        for _ in 0..params.trees {
            let grad: Vec<f32> =
                logits.iter().zip(labels).map(|(&z, &y)| sigmoid(z) - y).collect();
            let hess: Vec<f32> = logits
                .iter()
                .map(|&z| {
                    let p = sigmoid(z);
                    (p * (1.0 - p)).max(1e-6)
                })
                .collect();
            let mut cols: Vec<usize> = (0..dim).collect();
            // Column subsample: partial Fisher-Yates.
            for i in 0..n_cols {
                let j = rng.gen_range(i..dim);
                cols.swap(i, j);
            }
            cols.truncate(n_cols);
            let mut builder = Builder {
                features,
                grad: &grad,
                hess: &hess,
                params,
                active_features: cols,
                nodes: &mut model.nodes,
                split,
                scratch: SplitScratch::default(),
            };
            let root = builder.build((0..n).collect(), 0) as u32;
            model.roots.push(root);
            for (z, x) in logits.iter_mut().zip(features) {
                *z += model.tree_logit(root, x);
            }
        }
        model
    }

    /// The leaf value tree `root` sends `x` to. A missing feature reads 0.
    #[inline]
    fn tree_logit(&self, root: u32, x: &[f32]) -> f32 {
        let mut at = root as usize;
        loop {
            let n = self.nodes[at];
            if n.feature == LEAF {
                return n.value;
            }
            let v = x.get(n.feature as usize).copied().unwrap_or(0.0);
            at = if v <= n.value { n.left } else { n.right } as usize;
        }
    }

    /// Raw additive logit: `base` plus the sum of every tree's leaf, in
    /// tree order.
    pub fn logit(&self, x: &[f32]) -> f32 {
        let mut sum = 0.0f32;
        for &root in &self.roots {
            sum += self.tree_logit(root, x);
        }
        self.base + sum
    }

    /// Malicious probability.
    pub fn score(&self, x: &[f32]) -> f32 {
        sigmoid(self.logit(x))
    }

    /// Additive base term.
    pub fn base(&self) -> f32 {
        self.base
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Column projections `(roots, feature, value, left, right)` for
    /// snapshot serialization (the on-disk format stays columnar even
    /// though the arena is packed).
    pub fn columns(&self) -> ForestColumns {
        (
            self.roots.clone(),
            self.nodes.iter().map(|n| n.feature).collect(),
            self.nodes.iter().map(|n| n.value).collect(),
            self.nodes.iter().map(|n| n.left).collect(),
            self.nodes.iter().map(|n| n.right).collect(),
        )
    }

    /// Rebuild from raw columns (the snapshot load path); predictions are
    /// bit-identical to the model [`Gbdt::columns`] was taken from. The
    /// layout the builder writes is required, so corrupt input cannot
    /// make [`Gbdt::logit`] loop or index out of bounds: every node
    /// belongs to one tree (roots start at 0 and ascend strictly, and a
    /// tree runs up to the next root), and a split's children lie after
    /// it inside its own tree.
    pub fn from_columns(
        base: f32,
        roots: Vec<u32>,
        feature: Vec<u32>,
        value: Vec<f32>,
        left: Vec<u32>,
        right: Vec<u32>,
    ) -> Result<Gbdt, String> {
        let n = feature.len();
        if value.len() != n || left.len() != n || right.len() != n {
            return Err(format!(
                "column length mismatch: feature {n}, value {}, left {}, right {}",
                value.len(),
                left.len(),
                right.len()
            ));
        }
        if roots.first().map_or(n, |&r| r as usize) != 0 {
            return Err(format!("nodes before the first root of {n} nodes"));
        }
        for (t, &root) in roots.iter().enumerate() {
            let start = root as usize;
            let end = roots.get(t + 1).map_or(n, |&r| r as usize);
            if start >= end || end > n {
                return Err(format!("tree {t} spans [{start}, {end}) of {n} nodes"));
            }
            for at in start..end {
                let (l, r) = (left[at] as usize, right[at] as usize);
                if feature[at] != LEAF && (l <= at || l >= end || r <= at || r >= end) {
                    return Err(format!(
                        "tree {t} split {at} has children ({l}, {r}) outside ({at}, {end})"
                    ));
                }
            }
        }
        let nodes = (0..n)
            .map(|at| FlatNode {
                feature: feature[at],
                value: value[at],
                left: left[at],
                right: right[at],
            })
            .collect();
        Ok(Gbdt { base, roots, nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl Builder<'_> {
        /// The split search as it ran before the gathered sweep: one pass
        /// over the node per candidate threshold. The reference
        /// [`Builder::best_split`] must match bit for bit.
        fn best_split_reference(&mut self, idx: &[usize]) -> Option<(usize, f32, f32)> {
            let g_total: f32 = idx.iter().map(|&i| self.grad[i]).sum();
            let h_total: f32 = idx.iter().map(|&i| self.hess[i]).sum();
            let lambda = self.params.lambda;
            let parent_score = g_total * g_total / (h_total + lambda);
            let mut best: Option<(usize, f32, f32)> = None;
            for &f in &self.active_features {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &i in idx {
                    let v = self.features[i][f];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi <= lo {
                    continue;
                }
                for k in 1..=self.params.candidate_splits {
                    let thr =
                        lo + (hi - lo) * k as f32 / (self.params.candidate_splits + 1) as f32;
                    let mut gl = 0.0f32;
                    let mut hl = 0.0f32;
                    let mut nl = 0usize;
                    for &i in idx {
                        if self.features[i][f] <= thr {
                            gl += self.grad[i];
                            hl += self.hess[i];
                            nl += 1;
                        }
                    }
                    if nl == 0 || nl == idx.len() {
                        continue;
                    }
                    let gr = g_total - gl;
                    let hr = h_total - hl;
                    let gain =
                        gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
                    if gain > 1e-6 && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                        best = Some((f, thr, gain));
                    }
                }
            }
            best
        }
    }

    fn split_bits(split: Option<(usize, f32, f32)>) -> Option<(usize, u32, u32)> {
        split.map(|(f, thr, gain)| (f, thr.to_bits(), gain.to_bits()))
    }

    /// One random feature value: a small grid of duplicates, a spread of
    /// magnitudes, signed zeros, NaN or an infinity.
    fn random_value(rng: &mut ChaCha8Rng) -> f32 {
        match rng.gen_range(0..10) {
            0..=3 => rng.gen_range(0..4) as f32 * 0.25,
            4..=6 => rng.gen_range(-1e3..1e3),
            7 => 0.0f32.copysign(rng.gen_range(-1.0..1.0)),
            8 => f32::NAN,
            _ => f32::INFINITY.copysign(rng.gen_range(-1.0..1.0)),
        }
    }

    /// The gathered split search equals the per-threshold reference on
    /// seeded random nodes: duplicate values, constant, NaN and infinite
    /// features, nodes in any sample order and 0, 1, 16 or 33 candidate
    /// thresholds.
    #[test]
    fn best_split_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5_9117);
        let mut found = 0;
        for case in 0..2_000 {
            let n = rng.gen_range(1..80);
            let dim = rng.gen_range(1..8);
            // Per feature: 0 random, 1 constant, 2 all NaN, 3 NaN-speckled.
            let kinds: Vec<u32> = (0..dim).map(|_| rng.gen_range(0..4)).collect();
            let constant: Vec<f32> = (0..dim).map(|_| random_value(&mut rng)).collect();
            let features: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|f| match kinds[f] {
                            1 => constant[f],
                            2 => f32::NAN,
                            3 if rng.gen_bool(0.3) => f32::NAN,
                            _ => random_value(&mut rng),
                        })
                        .collect()
                })
                .collect();
            let grad: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let hess: Vec<f32> = (0..n).map(|_| rng.gen_range(1e-6..0.25)).collect();
            let mut idx: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.8)).collect();
            if rng.gen_bool(0.3) {
                for i in (1..idx.len()).rev() {
                    idx.swap(i, rng.gen_range(0..=i));
                }
            }
            let params = GbdtParams {
                candidate_splits: [0, 1, 16, 33][case % 4],
                lambda: [1.0, 0.0, 1e-3][rng.gen_range(0..3)],
                ..GbdtParams::default()
            };
            let mut builder = Builder {
                features: &features,
                grad: &grad,
                hess: &hess,
                params,
                active_features: (0..dim).filter(|_| rng.gen_bool(0.8)).collect(),
                nodes: &mut Vec::new(),
                split: |b, idx| b.best_split(idx),
                scratch: SplitScratch::default(),
            };
            let want = split_bits(builder.best_split_reference(&idx));
            // Twice: the second search runs on the scratch the first left.
            assert_eq!(split_bits(builder.best_split(&idx)), want, "case {case}");
            assert_eq!(split_bits(builder.best_split(&idx)), want, "case {case} (reused)");
            found += usize::from(want.is_some());
        }
        assert!(found > 400, "only {found} nodes split");
    }

    /// On the quick corpus's extracted features, training with the
    /// gathered search trains the same columns, bit for bit, as
    /// training with the reference search.
    #[test]
    fn training_matches_reference_on_corpus_features() {
        let corpus = mpass_corpus::Dataset::generate(&mpass_corpus::CorpusConfig {
            n_malware: 20,
            n_benign: 20,
            seed: 0xDAC2023,
            no_slack_fraction: 0.1,
        });
        let features: Vec<Vec<f32>> =
            corpus.samples.iter().map(|s| mpass_detectors::features::extract(&s.bytes)).collect();
        let labels: Vec<f32> = corpus.samples.iter().map(|s| s.label.target()).collect();
        let bits = |forest: &Gbdt| {
            let (roots, feature, value, left, right) = forest.columns();
            let value: Vec<u32> = value.iter().map(|v| v.to_bits()).collect();
            (forest.base().to_bits(), roots, feature, value, left, right)
        };
        for (trees, seed) in [(30, 0x4D50_4153 ^ 0x7284), (50, 11)] {
            let params = GbdtParams { trees, ..GbdtParams::default() };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fast = Gbdt::train(&features, &labels, params, &mut rng);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let reference = Gbdt::train_with(&features, &labels, params, &mut rng, |b, idx| {
                b.best_split_reference(idx)
            });
            assert!(fast.node_count() > trees, "trees never split");
            assert_eq!(bits(&fast), bits(&reference), "{trees} trees");
        }
    }

    fn toy_dataset(rng: &mut ChaCha8Rng, n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        // Label = 1 iff x0 > 0.3 AND x2 < 0.5 — a tree-friendly rule.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x: Vec<f32> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
            let y = if x[0] > 0.3 && x[2] < 0.5 { 1.0 } else { 0.0 };
            xs.push(x);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn learns_axis_aligned_rule() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (xs, ys) = toy_dataset(&mut rng, 400);
        let model = Gbdt::train(&xs, &ys, GbdtParams::default(), &mut rng);
        let (txs, tys) = toy_dataset(&mut rng, 200);
        let correct = txs
            .iter()
            .zip(&tys)
            .filter(|(x, y)| (model.score(x) > 0.5) == (**y > 0.5))
            .count();
        assert!(correct >= 190, "accuracy {correct}/200");
    }

    #[test]
    fn single_class_predicts_that_class() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32]).collect();
        let ys = vec![1.0f32; 50];
        let model = Gbdt::train(&xs, &ys, GbdtParams::default(), &mut rng);
        assert!(model.score(&[25.0]) > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(8);
        let (xs, ys) = toy_dataset(&mut r1, 100);
        let mut ra = ChaCha8Rng::seed_from_u64(42);
        let mut rb = ChaCha8Rng::seed_from_u64(42);
        let m1 = Gbdt::train(&xs, &ys, GbdtParams::default(), &mut ra);
        let m2 = Gbdt::train(&xs, &ys, GbdtParams::default(), &mut rb);
        assert_eq!(m1, m2);
    }

    #[test]
    fn missing_features_treated_as_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (xs, ys) = toy_dataset(&mut rng, 100);
        let model = Gbdt::train(&xs, &ys, GbdtParams::default(), &mut rng);
        // Shorter vector must not panic.
        let _ = model.score(&[0.5]);
    }

    #[test]
    fn tree_count_matches_params() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (xs, ys) = toy_dataset(&mut rng, 60);
        let params = GbdtParams { trees: 13, ..GbdtParams::default() };
        let model = Gbdt::train(&xs, &ys, params, &mut rng);
        assert_eq!(model.tree_count(), 13);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = Gbdt::train(&[], &[], GbdtParams::default(), &mut rng);
    }

    /// columns → from_columns is the identity on the ensemble, and the
    /// round-tripped model predicts bit-identically.
    #[test]
    fn columns_round_trip_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let (xs, ys) = toy_dataset(&mut rng, 150);
        let model = Gbdt::train(&xs, &ys, GbdtParams::default(), &mut rng);
        let (roots, feature, value, left, right) = model.columns();
        let back = Gbdt::from_columns(model.base(), roots, feature, value, left, right)
            .expect("trained columns reload");
        assert_eq!(model, back);
        for x in xs.iter().take(20) {
            assert_eq!(model.logit(x).to_bits(), back.logit(x).to_bits());
        }
    }

    /// A hand-built two-tree forest walks as written: `x[f] <= threshold`
    /// goes left, and a feature past the end of `x` reads 0.
    #[test]
    fn from_columns_walks_each_tree() {
        // Tree 0: x0 <= 0.5 ? 1 : 2. Tree 1: x1 <= -1 ? 10 : 20.
        let forest = Gbdt::from_columns(
            0.25,
            vec![0, 3],
            vec![0, LEAF, LEAF, 1, LEAF, LEAF],
            vec![0.5, 1.0, 2.0, -1.0, 10.0, 20.0],
            vec![1, 0, 0, 4, 0, 0],
            vec![2, 0, 0, 5, 0, 0],
        )
        .expect("valid columns");
        assert_eq!((forest.tree_count(), forest.node_count()), (2, 6));
        assert_eq!(forest.logit(&[0.5, -1.0]), 0.25 + (1.0 + 10.0));
        assert_eq!(forest.logit(&[0.6, 3.0]), 0.25 + (2.0 + 20.0));
        assert_eq!(forest.logit(&[]), 0.25 + (1.0 + 20.0));
    }

    /// Column validation rejects topology that could hang or overrun the
    /// iterative traversal, and nodes outside the per-tree layout.
    #[test]
    fn from_columns_rejects_bad_topology() {
        let load = |roots: &[u32], feature: &[u32], left: &[u32], right: &[u32]| {
            let value = vec![0.5; feature.len()];
            Gbdt::from_columns(0.0, roots.into(), feature.into(), value, left.into(), right.into())
        };
        // Root out of range.
        assert!(load(&[1], &[LEAF], &[0], &[0]).is_err());
        // Split whose child points backwards (would cycle).
        assert!(load(&[0], &[0, 0, LEAF], &[1, 0, 0], &[2, 2, 0]).is_err());
        // Mismatched column lengths.
        assert!(Gbdt::from_columns(0.0, vec![0], vec![LEAF], vec![], vec![0], vec![0]).is_err());
        // An empty tree, and nodes before the first root. (A child inside
        // the next tree and descending roots: `mpass-detectors`'
        // `hostile_forest_snapshots_are_rejected`.)
        assert!(load(&[0, 0], &[LEAF], &[0], &[0]).is_err());
        assert!(load(&[1], &[LEAF, LEAF], &[0, 0], &[0, 0]).is_err());
        assert!(load(&[], &[LEAF], &[0], &[0]).is_err());
        // A well-formed single-leaf forest passes and evaluates.
        let ok = Gbdt::from_columns(0.25, vec![0], vec![LEAF], vec![0.5], vec![0], vec![0])
            .expect("valid columns");
        assert_eq!(ok.logit(&[]), 0.75);
    }
}
