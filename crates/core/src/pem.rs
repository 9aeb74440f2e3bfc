//! The Problem-space Explainability Method (PEM, §III-B / Algorithm 1).
//!
//! PEM treats each binary *section* (PE or Mach-O) as one attribute of
//! the malware and
//! computes its Shapley value (Eq. 1) for each known model's decision
//! margin (`raw_score`, the pre-sigmoid logit — probabilities saturate and
//! flatten the marginals):
//! the marginal effect of a section's presence, averaged over all subsets
//! of the other sections. Ablating a section zeroes its raw bytes while
//! keeping the file structure intact (the problem-space analogue of
//! feature removal). Per-model section rankings are averaged over a
//! malware population and intersected across models, yielding the common
//! critical sections — which the paper finds to be code and data, with the
//! top-2 scoring 1.3–6.0× above the third-ranked section.
//!
//! Sections are identified by their semantic [`SectionKind`] so that the
//! ranking aggregates across samples with hostile/unusual section names.
//!
//! The subset sweep is engine-parallel (one shard per model × sample) and
//! allocation-light: each shard serializes its image once, patches only the
//! spans whose keep-bit flipped between masks, and — for white-box models
//! — re-scores through an incremental [`WhiteBoxSession`] that recomputes
//! only the conv windows overlapping the flipped spans.

use mpass_binary::{BinaryFormat, BinaryImage, SectionKind};
use mpass_corpus::Sample;
use mpass_detectors::{DetectorExt, WhiteBoxSession};
use mpass_engine::metrics as trace;
use mpass_engine::{Engine, EngineConfig, Shard};
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// PEM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PemConfig {
    /// Sections ranked per model; the final answer is the intersection of
    /// each model's top-k (Algorithm 1's `S̃ = S̃₁ ∩ … ∩ S̃_M`).
    pub top_k: usize,
    /// Samples with at most this many sections get exact Shapley values
    /// (2ⁿ subset enumeration); larger samples use permutation sampling.
    pub max_exact_sections: usize,
    /// Permutations sampled for large samples.
    pub permutations: usize,
    /// Seed for permutation sampling.
    pub seed: u64,
}

impl Default for PemConfig {
    fn default() -> Self {
        PemConfig { top_k: 4, max_exact_sections: 10, permutations: 16, seed: 0x0050_454D }
    }
}

/// Per-model section ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRanking {
    /// Model name.
    pub model: String,
    /// Section kinds with their population-mean Shapley values, sorted
    /// descending (`E_f(φᵢ)` in Algorithm 1).
    pub ranking: Vec<(SectionKind, f64)>,
}

impl ModelRanking {
    /// The top-k kinds of this model, restricted to *positive* mean
    /// Shapley values: a section with φ ≤ 0 does not support the model's
    /// malicious decision and is never "critical", and models that
    /// attribute nothing positive to any section (header-focused models)
    /// should not inject arbitrary tie-order into the intersection.
    pub fn top_k(&self, k: usize) -> Vec<SectionKind> {
        self.ranking
            .iter()
            .filter(|(_, v)| *v > 0.0)
            .take(k)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Ratio of the second-ranked mean Shapley value to the third-ranked —
    /// the paper reports 1.3–6.0× for top-2 (code/data) over top-3.
    pub fn top2_over_top3(&self) -> Option<f64> {
        let v2 = self.ranking.get(1)?.1;
        let v3 = self.ranking.get(2)?.1;
        if v3.abs() < 1e-12 {
            None
        } else {
            Some(v2 / v3)
        }
    }
}

/// The output of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PemReport {
    /// One ranking per known model.
    pub per_model: Vec<ModelRanking>,
    /// The common critical sections: intersection of every model's top-k,
    /// ordered by mean value across models.
    pub common_critical: Vec<SectionKind>,
}

/// The sections a sample's subset masks may ablate. Subsets are tracked as
/// bits of a `u64`, so at most 64 sections participate; on section-richer
/// (hostile) files the largest 64 by raw size are tracked and the rest are
/// permanent background — always kept, φ = 0. Real PEs have well under 64
/// sections, so the fallback only triggers on adversarial inputs that
/// would previously overflow the `1u64 << i` shift.
fn tracked_sections(sizes: &[usize]) -> Vec<usize> {
    if sizes.len() <= 64 {
        return (0..sizes.len()).collect();
    }
    let mut idx: Vec<usize> = (0..sizes.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    idx.truncate(64);
    // Back to file order so bit positions are stable and deterministic.
    idx.sort_unstable();
    idx
}

/// Reusable ablation workspace over one sample: the image is serialized
/// *once*, each section's raw-data span in the file is cached, and
/// successive masks only flip the spans whose keep-bit changed — no
/// per-mask image clone or re-serialization. Zeroing a section's span in
/// the serialized file is exactly equivalent to zeroing its data and
/// re-serializing: both backends write each section's bytes verbatim at
/// its stored file offset ([`SectionMeta::file_offset`]) and nothing else
/// depends on section contents.
///
/// [`SectionMeta::file_offset`]: mpass_binary::SectionMeta
struct AblationPlan {
    /// The fully-populated serialized image (every section present).
    baseline: Vec<u8>,
    /// Per-section occupied raw-data spans in the image.
    spans: Vec<Range<usize>>,
    /// Section indices the masks may ablate (bit `b` ↔ `tracked[b]`).
    tracked: Vec<usize>,
    /// `baseline` with `cur` applied; patched incrementally per mask.
    scratch: Vec<u8>,
    /// Keep-mask currently materialized in `scratch`.
    cur: u64,
}

impl AblationPlan {
    fn new(image: &BinaryImage) -> Self {
        let baseline = image.to_bytes();
        let spans: Vec<Range<usize>> = (0..image.section_count())
            .filter_map(|i| image.section_meta(i))
            .map(|m| m.file_offset..m.file_offset + m.file_size)
            .collect();
        let sizes: Vec<usize> = spans.iter().map(|r| r.len()).collect();
        let scratch = baseline.clone();
        AblationPlan {
            baseline,
            spans,
            tracked: tracked_sections(&sizes),
            scratch,
            cur: u64::MAX, // scratch starts with every section kept
        }
    }

    /// Number of ablatable sections (mask bit count).
    fn n(&self) -> usize {
        self.tracked.len()
    }

    /// Image with the tracked sections *not* in `keep_mask` zeroed. Only
    /// sections whose bit differs from the previously materialized mask
    /// are touched.
    fn ablated(&mut self, keep_mask: u64) -> &[u8] {
        let diff = self.cur ^ keep_mask;
        for (b, &sec) in self.tracked.iter().enumerate() {
            if diff & (1u64 << b) == 0 {
                continue;
            }
            let span = self.spans[sec].clone();
            if keep_mask & (1u64 << b) != 0 {
                self.scratch[span.clone()].copy_from_slice(&self.baseline[span]);
            } else {
                self.scratch[span].fill(0);
            }
        }
        self.cur = keep_mask;
        &self.scratch
    }
}

/// Memoized margin scorer for one (model, sample) pair.
///
/// White-box models score each new mask through a warm incremental
/// [`WhiteBoxSession`]: the flipped sections' spans are handed to the
/// session as dirty ranges, so only conv windows overlapping them are
/// recomputed — and sections past the model's input window cost nothing
/// at all. Detectors without a white-box interface fall back to a full
/// `raw_score` over the patched image. Either way the PE is serialized
/// once ([`AblationPlan`]) and each mask only flips changed spans.
struct SampleScorer<'m> {
    model: &'m dyn DetectorExt,
    plan: AblationPlan,
    /// Warm incremental session; `None` for black-box-only detectors.
    /// Its last-seen bytes always equal `plan.scratch` (the plan is only
    /// patched on cache misses, which always re-score).
    session: Option<Box<dyn WhiteBoxSession + 'm>>,
    cache: HashMap<u64, f64>,
    dirty: Vec<Range<usize>>,
}

impl<'m> SampleScorer<'m> {
    fn new(model: &'m dyn DetectorExt, image: &BinaryImage) -> Self {
        SampleScorer {
            model,
            plan: AblationPlan::new(image),
            session: model.as_white_box().map(|m| m.session()),
            cache: HashMap::new(),
            dirty: Vec::new(),
        }
    }

    /// Memoized margin of the model on the mask's ablated image.
    fn score(&mut self, mask: u64) -> f64 {
        if let Some(&v) = self.cache.get(&mask) {
            trace::counter("pem/cache_hit", 1);
            return v;
        }
        trace::counter("pem/cache_miss", 1);
        let v = match &mut self.session {
            Some(sess) => {
                self.dirty.clear();
                let diff = self.plan.cur ^ mask;
                for (b, &sec) in self.plan.tracked.iter().enumerate() {
                    if diff & (1u64 << b) != 0 {
                        self.dirty.push(self.plan.spans[sec].clone());
                    }
                }
                f64::from(sess.score_delta(self.plan.ablated(mask), &self.dirty))
            }
            None => f64::from(self.model.raw_score(self.plan.ablated(mask))),
        };
        self.cache.insert(mask, v);
        v
    }
}

/// Exact Shapley values over the sample's sections for one model, via
/// subset enumeration with score memoization. The returned vector is
/// indexed by *section* (untracked background sections get φ = 0).
fn shapley_exact(scorer: &mut SampleScorer, n_sections: usize) -> Vec<f64> {
    let n = scorer.plan.n();
    // Precompute factorials for the Shapley weights.
    let fact: Vec<f64> = (0..=n).scan(1.0f64, |acc, i| {
        if i > 0 {
            *acc *= i as f64;
        }
        Some(*acc)
    })
    .collect();
    let mut phi = vec![0.0f64; n_sections];
    for i in 0..n {
        let mut phi_i = 0.0f64;
        let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        for s in 0..1u64 << others.len() {
            let mut mask = 0u64;
            let mut size = 0usize;
            for (bit, &j) in others.iter().enumerate() {
                if s & (1 << bit) != 0 {
                    mask |= 1 << j;
                    size += 1;
                }
            }
            let w = fact[size] * fact[n - size - 1] / fact[n];
            phi_i += w * (scorer.score(mask | (1 << i)) - scorer.score(mask));
        }
        phi[scorer.plan.tracked[i]] = phi_i;
    }
    phi
}

/// Monte-Carlo Shapley via permutation sampling (for section-rich samples).
fn shapley_sampled(
    scorer: &mut SampleScorer,
    n_sections: usize,
    permutations: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<f64> {
    let n = scorer.plan.n();
    let mut phi = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..permutations {
        order.shuffle(rng);
        let mut mask = 0u64;
        let mut prev = scorer.score(mask);
        for &i in &order {
            mask |= 1 << i;
            let cur = scorer.score(mask);
            phi[i] += cur - prev;
            prev = cur;
        }
    }
    let mut out = vec![0.0f64; n_sections];
    for (i, p) in phi.into_iter().enumerate() {
        out[scorer.plan.tracked[i]] = p / permutations as f64;
    }
    out
}

/// Run Algorithm 1 over `samples` (the `C` population of randomly sampled
/// malware) against `models` (the known models `K`).
pub fn run_pem(
    models: &[(&str, &dyn DetectorExt)],
    samples: &[&Sample],
    cfg: &PemConfig,
) -> PemReport {
    let _span = trace::span("stage/pem");
    // One engine shard per (model, sample) pair: every pair serializes its
    // own ablation plan once and scores independently, so the sweep
    // parallelizes across the worker pool. Shard RNGs are keyed on the
    // (model, sample) label — deterministic for any worker count.
    let mut shards = Vec::with_capacity(models.len() * samples.len());
    for (mi, (name, _)) in models.iter().enumerate() {
        for (si, sample) in samples.iter().enumerate() {
            shards.push(Shard::new(format!("pem/{name}/{}", sample.name), (mi, si)));
        }
    }
    let engine = Engine::new(EngineConfig { workers: 0, seed: cfg.seed });
    let run = engine.run(shards, |ctx, (mi, si): (usize, usize)| {
        let image = &samples[si].image;
        let mut scorer = SampleScorer::new(models[mi].1, image);
        let n_sections = image.section_count();
        if scorer.plan.n() <= cfg.max_exact_sections {
            shapley_exact(&mut scorer, n_sections)
        } else {
            shapley_sampled(&mut scorer, n_sections, cfg.permutations, &mut ctx.rng)
        }
    });
    assert!(run.is_complete(), "PEM shard panicked: {:?}", run.failures);
    // Shard-local memoization counters fold back into the caller's
    // collector so the pem/cache_* series survive the move off-thread.
    for sm in &run.shard_metrics {
        for key in ["pem/cache_hit", "pem/cache_miss"] {
            if let Some(&v) = sm.counters.get(key) {
                trace::counter(key, v);
            }
        }
    }
    let mut per_model = Vec::with_capacity(models.len());
    for (mi, (name, _)) in models.iter().enumerate() {
        // mean Shapley per kind across the population; kinds absent from a
        // sample contribute φ = 0 (Algorithm 1's else-branch).
        let mut sums: HashMap<SectionKind, f64> = HashMap::new();
        for (si, sample) in samples.iter().enumerate() {
            let phi = &run.results[mi * samples.len() + si];
            // Sum per kind within the sample (a sample may have several
            // sections of one kind).
            let mut per_kind: HashMap<SectionKind, f64> = HashMap::new();
            let image = &sample.image;
            let kinds = (0..image.section_count()).filter_map(|i| image.section_meta(i));
            for (m, p) in kinds.zip(phi) {
                *per_kind.entry(m.kind).or_insert(0.0) += p;
            }
            for (kind, v) in per_kind {
                *sums.entry(kind).or_insert(0.0) += v;
            }
        }
        let mut ranking: Vec<(SectionKind, f64)> = sums
            .into_iter()
            .map(|(k, v)| (k, v / samples.len().max(1) as f64))
            .collect();
        ranking.sort_by(rank_order);
        per_model.push(ModelRanking { model: (*name).to_owned(), ranking });
    }
    // Intersection of top-k across models, ordered by cross-model mean.
    // Models whose attributions are entirely non-positive contribute no
    // constraint (their top-k is empty by construction).
    let constraining: Vec<&ModelRanking> =
        per_model.iter().filter(|m| !m.top_k(cfg.top_k).is_empty()).collect();
    let mut common: Vec<(SectionKind, f64)> = Vec::new();
    if let Some(first) = constraining.first() {
        for kind in first.top_k(cfg.top_k) {
            if constraining.iter().all(|m| m.top_k(cfg.top_k).contains(&kind)) {
                let mean: f64 = per_model
                    .iter()
                    .map(|m| {
                        m.ranking
                            .iter()
                            .find(|(k, _)| *k == kind)
                            .map(|(_, v)| *v)
                            .unwrap_or(0.0)
                    })
                    .sum::<f64>()
                    / per_model.len() as f64;
                common.push((kind, mean));
            }
        }
    }
    common.sort_by(rank_order);
    PemReport { per_model, common_critical: common.into_iter().map(|(k, _)| k).collect() }
}

/// Ranking order of `(kind, mean φ)` pairs: larger φ first, ties broken by
/// [`SectionKind`] order. The pairs are drained from a `HashMap`, whose
/// iteration order changes from map to map, so without the tie-break two
/// runs on the same input could rank tied kinds differently.
fn rank_order(a: &(SectionKind, f64), b: &(SectionKind, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_detectors::Detector;
    use rand::SeedableRng;

    /// A synthetic detector that only looks at the data section's entropy
    /// and the code section's suspicious opcodes — so PEM must rank code
    /// and data on top.
    struct CodeDataOracle;

    impl Detector for CodeDataOracle {
        fn name(&self) -> &str {
            "oracle"
        }
        fn score(&self, bytes: &[u8]) -> f32 {
            let Ok(pe) = mpass_pe::PeFile::parse(bytes) else { return 1.0 };
            let mut s = 0.0f32;
            for sec in pe.sections() {
                match sec.kind() {
                    SectionKind::Code => {
                        let sus =
                            mpass_detectors::features::suspicious_api_count(sec.data());
                        s += (sus as f32 * 0.2).min(0.5);
                    }
                    SectionKind::Data if sec.entropy() > 6.0 => {
                        s += 0.4;
                    }
                    _ => {}
                }
            }
            s.min(1.0)
        }
    }

    impl DetectorExt for CodeDataOracle {}

    #[test]
    fn pem_finds_code_and_data_for_an_oracle() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 8,
            n_benign: 0,
            seed: 3,
            no_slack_fraction: 0.0,
        });
        let samples: Vec<&Sample> = ds.malware();
        let oracle = CodeDataOracle;
        let models: Vec<(&str, &dyn DetectorExt)> = vec![("oracle", &oracle)];
        let report = run_pem(&models, &samples, &PemConfig::default());
        let top2 = report.per_model[0].top_k(2);
        assert!(top2.contains(&SectionKind::Code), "top2 = {top2:?}");
        assert!(top2.contains(&SectionKind::Data), "top2 = {top2:?}");
        assert!(report.common_critical.contains(&SectionKind::Code));
        assert!(report.common_critical.contains(&SectionKind::Data));
    }

    #[test]
    fn exact_shapley_efficiency_axiom() {
        // Σ φᵢ = f(all) − f(none).
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 2,
            n_benign: 0,
            seed: 4,
            no_slack_fraction: 0.0,
        });
        let image = &ds.samples[0].image;
        let oracle = CodeDataOracle;
        let mut scorer = SampleScorer::new(&oracle, image);
        let phi = shapley_exact(&mut scorer, image.section_count());
        let full = oracle.score(scorer.plan.ablated(u64::MAX)) as f64;
        let none = oracle.score(scorer.plan.ablated(0)) as f64;
        let sum: f64 = phi.iter().sum();
        assert!((sum - (full - none)).abs() < 1e-6, "sum {sum} vs {}", full - none);
    }

    #[test]
    fn sampled_shapley_approximates_exact() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 1,
            n_benign: 0,
            seed: 5,
            no_slack_fraction: 0.0,
        });
        let image = &ds.samples[0].image;
        let oracle = CodeDataOracle;
        let n = image.section_count();
        let mut scorer = SampleScorer::new(&oracle, image);
        let exact = shapley_exact(&mut scorer, n);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sampled = shapley_sampled(&mut scorer, n, 200, &mut rng);
        for (e, s) in exact.iter().zip(&sampled) {
            assert!((e - s).abs() < 0.1, "exact {e} vs sampled {s}");
        }
    }

    #[test]
    fn ablation_keeps_structure() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 1,
            n_benign: 0,
            seed: 6,
            no_slack_fraction: 0.0,
        });
        let sample = &ds.samples[0];
        let pe = sample.pe().unwrap();
        let mut plan = AblationPlan::new(&sample.image);
        let re = mpass_pe::PeFile::parse(plan.ablated(0b10)).unwrap();
        assert_eq!(re.sections().len(), pe.sections().len());
        // Section 1 kept, section 0 zeroed.
        assert!(re.sections()[0].data().iter().all(|&b| b == 0));
        assert_eq!(re.sections()[1].data(), pe.sections()[1].data());
    }

    /// Reference implementation of ablation — clone the parsed file, zero
    /// the unkept sections' data, re-serialize — against which the
    /// serialize-once incremental plan must be byte-exact, including when
    /// the plan is reused across a mask sequence.
    #[test]
    fn plan_matches_naive_ablation_across_mask_sequences() {
        let naive = |pe: &mpass_pe::PeFile, keep_mask: u64| -> Vec<u8> {
            let mut ablated = pe.clone();
            for (i, s) in ablated.sections_mut().iter_mut().enumerate() {
                if keep_mask & (1u64 << i) == 0 {
                    s.data_mut().iter_mut().for_each(|b| *b = 0);
                }
            }
            ablated.to_bytes()
        };
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 3,
            n_benign: 0,
            seed: 7,
            no_slack_fraction: 0.0,
        });
        for sample in &ds.samples {
            let pe = sample.pe().unwrap();
            let n = pe.sections().len();
            let mut plan = AblationPlan::new(&sample.image);
            // Walk masks in a deliberately non-monotonic order so the
            // incremental patching both zeroes and restores spans.
            let full = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
            let masks =
                [0, full, 0b1, full & !0b1, 0b10, full, 0b101 & full, 0, full];
            for &mask in &masks {
                assert_eq!(
                    plan.ablated(mask),
                    &naive(pe, mask)[..],
                    "{}: mask {mask:#b}",
                    sample.name
                );
            }
        }
    }

    /// The `u64` subset-mask arithmetic caps participating sections at 64;
    /// section-richer files must fall back to the largest 64 by size
    /// instead of overflowing `1u64 << i`.
    #[test]
    fn tracked_sections_cap_at_64_by_size() {
        let small: Vec<usize> = (0..5).map(|i| i * 10).collect();
        assert_eq!(tracked_sections(&small), vec![0, 1, 2, 3, 4]);
        // 70 sections; sizes ascending, so the 6 smallest (indices 0..6)
        // must be dropped and the remaining 64 kept in file order.
        let rich: Vec<usize> = (0..70).map(|i| i + 1).collect();
        let tracked = tracked_sections(&rich);
        assert_eq!(tracked.len(), 64);
        assert_eq!(tracked, (6..70).collect::<Vec<_>>());
        // Bit shifts over the tracked set stay in range.
        assert!(tracked.len() <= 64);
    }

    /// White-box models score masks through an incremental session; the
    /// resulting Shapley values must agree with full-forward scoring of
    /// the same model up to the tabled-vs-naive conv tolerance.
    #[test]
    fn session_shapley_matches_full_scoring() {
        use mpass_detectors::train::training_pairs;
        use mpass_detectors::{ByteConvConfig, MalConv};

        /// Same model, white-box interface hidden — forces the
        /// full-`raw_score` fallback path.
        struct Masked<'a>(&'a MalConv);
        impl Detector for Masked<'_> {
            fn name(&self) -> &str {
                "masked"
            }
            fn score(&self, bytes: &[u8]) -> f32 {
                self.0.score(bytes)
            }
            fn raw_score(&self, bytes: &[u8]) -> f32 {
                self.0.raw_score(bytes)
            }
        }
        impl DetectorExt for Masked<'_> {}

        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 6,
            n_benign: 6,
            seed: 8,
            no_slack_fraction: 0.0,
        });
        let samples: Vec<&Sample> = ds.samples.iter().collect();
        let pairs = training_pairs(&samples);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut malconv = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        malconv.train(&pairs, 3, 5e-3, &mut rng);
        assert!(
            (&malconv as &dyn DetectorExt).as_white_box().is_some(),
            "MalConv must expose the session path"
        );

        for sample in ds.malware().into_iter().take(2) {
            let image = &sample.image;
            let n = image.section_count();
            let mut fast = SampleScorer::new(&malconv, image);
            assert!(fast.session.is_some());
            let phi_fast = shapley_exact(&mut fast, n);
            let masked = Masked(&malconv);
            let mut full = SampleScorer::new(&masked, image);
            assert!(full.session.is_none());
            let phi_full = shapley_exact(&mut full, n);
            for (a, b) in phi_fast.iter().zip(&phi_full) {
                assert!((a - b).abs() < 1e-3, "{}: φ {a} vs {b}", sample.name);
            }
        }
    }

    /// The memo counters of both Shapley routines, for the black-box and
    /// the session path: the exact routine looks up all 2ⁿ subsets once
    /// per section and misses each once; the sampled routine looks up
    /// n + 1 prefixes per permutation and misses each distinct prefix once.
    #[test]
    fn mask_lookups_count_as_before() {
        use mpass_detectors::{ByteConvConfig, MalConv};
        use mpass_engine::Collector;
        use std::collections::HashSet;

        fn counted(run: impl FnOnce()) -> (u64, u64) {
            trace::install(Collector::default());
            run();
            let shard = trace::take().expect("collector installed").finish("pem", 0.0);
            let count = |key: &str| shard.counters.get(key).copied().unwrap_or(0);
            (count("pem/cache_hit"), count("pem/cache_miss"))
        }

        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 1,
            n_benign: 0,
            seed: 9,
            no_slack_fraction: 0.0,
        });
        let image = &ds.samples[0].image;
        let n_sections = image.section_count();
        let oracle = CodeDataOracle;
        let malconv = MalConv::new(ByteConvConfig::tiny(), &mut ChaCha8Rng::seed_from_u64(3));
        let models: [(&dyn DetectorExt, bool); 2] = [(&oracle, false), (&malconv, true)];
        for (model, white_box) in models {
            let mut scorer = SampleScorer::new(model, image);
            assert_eq!(scorer.session.is_some(), white_box);
            let n = scorer.plan.n() as u32;
            let (hit, miss) = counted(|| {
                shapley_exact(&mut scorer, n_sections);
            });
            assert_eq!(miss, 1 << n, "white box {white_box}: exact misses");
            assert_eq!(
                hit,
                u64::from(n) * (1 << n) - (1 << n),
                "white box {white_box}: exact hits"
            );

            let permutations = 12;
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let mut replay = rng.clone();
            let mut scorer = SampleScorer::new(model, image);
            let (hit, miss) = counted(|| {
                shapley_sampled(&mut scorer, n_sections, permutations, &mut rng);
            });
            let mut order: Vec<usize> = (0..n as usize).collect();
            let mut distinct = HashSet::from([0u64]);
            for _ in 0..permutations {
                order.shuffle(&mut replay);
                let mut mask = 0u64;
                for &i in &order {
                    mask |= 1 << i;
                    distinct.insert(mask);
                }
            }
            assert_eq!(
                hit + miss,
                (permutations as u64) * (u64::from(n) + 1),
                "white box {white_box}: sampled lookups"
            );
            assert_eq!(miss, distinct.len() as u64, "white box {white_box}: sampled misses");
        }
    }

    #[test]
    fn top2_over_top3_ratio() {
        let ranking = ModelRanking {
            model: "m".into(),
            ranking: vec![
                (SectionKind::Code, 0.6),
                (SectionKind::Data, 0.3),
                (SectionKind::Resource, 0.1),
            ],
        };
        assert!((ranking.top2_over_top3().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tied_kinds_rank_the_same_from_every_map() {
        use SectionKind::*;
        let values =
            [(Other, 0.5), (Code, 0.25), (Tls, 0.25), (Data, 0.25), (Bss, 0.0), (Resource, 0.5)];
        let expected = vec![
            (Resource, 0.5),
            (Other, 0.5),
            (Code, 0.25),
            (Data, 0.25),
            (Tls, 0.25),
            (Bss, 0.0),
        ];
        // Every `HashMap::new()` draws its own hash seed, so these maps
        // drain in differing orders.
        let mut drained = std::collections::HashSet::new();
        for _ in 0..32 {
            let map: HashMap<SectionKind, f64> = values.into_iter().collect();
            let mut ranking: Vec<(SectionKind, f64)> = map.into_iter().collect();
            drained.insert(ranking.iter().map(|(k, _)| *k).collect::<Vec<_>>());
            ranking.sort_by(rank_order);
            assert_eq!(ranking, expected);
        }
        assert!(drained.len() > 1, "the maps all drained in one order");
    }
}
