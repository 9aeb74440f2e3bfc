//! Simulated commercial ML AVs (the paper's AV₁–AV₅: MAX, CrowdStrike,
//! Acronis, SentinelOne, Cylance).
//!
//! Each AV is an ensemble of a GBDT and an MLP over a per-vendor subset of
//! the EMBER-style features, *plus* static packer heuristics (entry point
//! in the last section, very high section entropy, unusual entry-section
//! names, oversized overlays) that offline academic models lack, *plus* an
//! n-gram [`SignatureStore`] fed by [`CommercialAv::weekly_update`] — the
//! continual-learning loop of §IV-C / Figure 4.
//!
//! The heuristics are why commercial ASR is structurally lower than
//! offline ASR in the paper's tables: a runtime-recovery attack necessarily
//! retargets the entry point into a fresh high-entropy section, which the
//! heuristics partially price in, while offline models never see such
//! artifacts during training.

use crate::features::{contains_subslice, Scan, FEATURE_DIM};
use crate::signatures::SignatureStore;
use crate::train::TrainingSet;
use crate::traits::Detector;
use mpass_binary::{BinaryFormat, SectionKind};
use mpass_ml::{Adam, Gbdt, GbdtParams, Mlp};
use mpass_pe::histogram_entropy;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Per-vendor configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvProfile {
    /// Display name (`AV1`…`AV5`).
    pub name: String,
    /// Decision threshold on the blended score.
    pub threshold: f32,
    /// Weight of the packer-heuristic score contribution.
    pub heuristic_weight: f32,
    /// Blend weight of the GBDT (MLP gets `1 - gbdt_blend`).
    pub gbdt_blend: f32,
    /// Fraction of features this vendor ignores (vendor feature-set
    /// diversity).
    pub feature_dropout: f32,
    /// Seed controlling which features are dropped and model init.
    pub seed: u64,
    /// Fraction of a submission batch a gram must appear in to be mined.
    pub mine_support: f32,
    /// Maximum signatures added per weekly update.
    pub mine_cap: usize,
}

/// The five vendor profiles used throughout the experiments, with
/// deliberately diverse thresholds, heuristics and learning aggressiveness.
pub fn default_profiles() -> Vec<AvProfile> {
    vec![
        AvProfile {
            name: "AV1".into(),
            threshold: 0.50,
            heuristic_weight: 0.35,
            gbdt_blend: 0.6,
            feature_dropout: 0.10,
            seed: 101,
            mine_support: 0.30,
            mine_cap: 64,
        },
        AvProfile {
            name: "AV2".into(),
            threshold: 0.46,
            heuristic_weight: 0.40,
            gbdt_blend: 0.5,
            feature_dropout: 0.20,
            seed: 202,
            mine_support: 0.25,
            mine_cap: 96,
        },
        AvProfile {
            name: "AV3".into(),
            threshold: 0.55,
            heuristic_weight: 0.30,
            gbdt_blend: 0.7,
            feature_dropout: 0.15,
            seed: 303,
            mine_support: 0.35,
            mine_cap: 48,
        },
        AvProfile {
            name: "AV4".into(),
            threshold: 0.52,
            heuristic_weight: 0.32,
            gbdt_blend: 0.4,
            feature_dropout: 0.25,
            seed: 404,
            mine_support: 0.30,
            mine_cap: 64,
        },
        AvProfile {
            name: "AV5".into(),
            threshold: 0.44,
            heuristic_weight: 0.45,
            gbdt_blend: 0.5,
            feature_dropout: 0.05,
            seed: 505,
            mine_support: 0.25,
            mine_cap: 128,
        },
    ]
}

/// Stub signatures of packers/protectors predominantly seen on malware.
/// (The benign installer packer in the training corpus is deliberately
/// absent from this list.)
const KNOWN_PACKER_MARKERS: &[&[u8]] = &[b"UPX!", b"PESpin", b"ASPack", b".aspack"];

/// A vendor's view of a feature vector: every feature outside its subset
/// reads 0.
fn mask(features: impl IntoIterator<Item = f32>, keep: &[bool]) -> Vec<f32> {
    features.into_iter().zip(keep).map(|(v, &keep)| if keep { v } else { 0.0 }).collect()
}

/// [`CommercialAv::heuristic_score`] over one scan.
fn heuristic(scan: &Scan) -> f32 {
    let Some(image) = &scan.image else {
        return 1.5; // unparseable executables are flagged outright
    };
    let mut h = 0.0f32;
    let n = scan.sections.len();
    if let Some(idx) = scan.entry_section {
        if n > 1 && idx >= n - 2 {
            h += 0.4; // entry point in a trailing section: stub
        }
        let entry_name = scan.sections.get(idx).map_or("", |s| s.meta.name.as_str());
        if !matches!(entry_name, ".text" | "CODE" | ".code" | "__text") {
            h += 0.15;
        }
    } else {
        h += 0.6; // entry outside every section
    }
    if scan.sections.iter().any(|s| {
        s.meta.kind != SectionKind::Resource
            && s.len >= 256
            && histogram_entropy(&s.hist, s.len) > 7.5
    }) {
        h += 0.25;
    }
    if image.overlay().len() * 2 > scan.bytes.len() {
        h += 0.2; // more than half the file is overlay
    }
    if KNOWN_PACKER_MARKERS.iter().any(|m| contains_subslice(scan.bytes, m)) {
        h += 0.6; // stub signature of a malware-associated packer
    }
    h.min(1.5)
}

/// A simulated commercial ML AV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommercialAv {
    profile: AvProfile,
    feature_mask: Vec<bool>,
    gbdt: Gbdt,
    mlp: Mlp,
    signatures: SignatureStore,
    clean_reference: Vec<Vec<u8>>,
}

impl CommercialAv {
    /// Train a vendor model on a labelled set, masking its extracted
    /// features to the vendor's subset. The benign portion of the training
    /// set doubles as the clean reference that signature mining must never
    /// collide with.
    pub fn train(profile: AvProfile, set: &TrainingSet) -> CommercialAv {
        let mut rng = ChaCha8Rng::seed_from_u64(profile.seed);
        let feature_mask: Vec<bool> =
            (0..FEATURE_DIM).map(|_| !rng.gen_bool(profile.feature_dropout as f64)).collect();
        let features: Vec<Vec<f32>> =
            set.features().iter().map(|f| mask(f.iter().copied(), &feature_mask)).collect();
        let labels = set.labels();
        let gbdt = Gbdt::train(
            &features,
            labels,
            GbdtParams { trees: 50, ..GbdtParams::default() },
            &mut rng,
        );
        let mut mlp = Mlp::new(FEATURE_DIM, 24, &mut rng);
        let pairs: Vec<(Vec<f32>, f32)> = features.into_iter().zip(labels.iter().copied()).collect();
        let adam = Adam::with_lr(5e-3);
        for _ in 0..20 {
            mlp.train_epoch(&pairs, &adam);
        }
        let clean_reference = set
            .samples()
            .iter()
            .filter(|s| s.label == mpass_corpus::Label::Benign)
            .map(|s| s.bytes.clone())
            .collect();
        CommercialAv {
            profile,
            feature_mask,
            gbdt,
            mlp,
            signatures: SignatureStore::new(),
            clean_reference,
        }
    }

    /// The vendor profile.
    pub fn profile(&self) -> &AvProfile {
        &self.profile
    }

    /// Number of learned signatures.
    pub fn signature_count(&self) -> usize {
        self.signatures.len()
    }

    /// Whether any learned signature matches `bytes` (diagnostic for the
    /// learning experiments; [`Detector::score`] already prices this in).
    pub fn signature_matches(&self, bytes: &[u8]) -> bool {
        self.signatures.matches(bytes)
    }

    /// The ML-ensemble component of the score.
    pub fn ml_score(&self, bytes: &[u8]) -> f32 {
        self.ml(&Scan::new(bytes))
    }

    fn ml(&self, scan: &Scan) -> f32 {
        let f = mask(scan.features(), &self.feature_mask);
        let g = self.gbdt.score(&f);
        let m = self.mlp.score(&f);
        self.profile.gbdt_blend * g + (1.0 - self.profile.gbdt_blend) * m
    }

    /// The packer-heuristic component in `[0, 1.5]`.
    ///
    /// Real AV engines carry static indicators academic models lack:
    /// entry points in trailing sections, unusually named entry sections,
    /// localized very-high-entropy regions outside resources, oversized
    /// overlays — and, decisively, the stub signatures of packers that are
    /// predominantly used to protect malware ([`KNOWN_PACKER_MARKERS`]).
    /// Because packed *benign* software exists in the training corpus, the
    /// indicators contribute score rather than verdicts.
    pub fn heuristic_score(&self, bytes: &[u8]) -> f32 {
        heuristic(&Scan::new(bytes))
    }

    /// Weekly continual-learning update: mine shared n-grams from the
    /// submitted samples into the signature store. Returns how many
    /// signatures were added.
    pub fn weekly_update(&mut self, submissions: &[&[u8]]) -> usize {
        let clean: Vec<&[u8]> =
            self.clean_reference.iter().map(|v| v.as_slice()).collect();
        // Absolute floor of four corroborating submissions: production
        // engines never ship a signature observed in a couple of files.
        let min_support = ((submissions.len() as f32 * self.profile.mine_support).ceil()
            as usize)
            .max(4);
        self.signatures.mine(submissions, &clean, min_support, self.profile.mine_cap)
    }
}

impl Detector for CommercialAv {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn score(&self, bytes: &[u8]) -> f32 {
        if self.signatures.matches(bytes) {
            return 0.99;
        }
        let scan = Scan::new(bytes);
        (self.ml(&scan) + self.profile.heuristic_weight * heuristic(&scan)).min(1.0)
    }

    fn threshold(&self) -> f32 {
        self.profile.threshold
    }
}

// Commercial engines are pure black boxes to the attacker.
impl crate::traits::DetectorExt for CommercialAv {}

/// A memoizing wrapper around a commercial AV: repeated scores for
/// byte-identical submissions are served from an in-memory cache.
///
/// Attack campaigns re-query the same image often (sample-quality
/// screening, the per-round verdict, the final verification pass), and the
/// heuristic + ensemble scoring path is the dominant cost of the
/// commercial experiments. Hits and misses are recorded to the
/// `av/cache_hit` / `av/cache_miss` metrics counters, so the engine's
/// metrics file reports the cache hit rate per shard.
///
/// Batches go through [`Detector::score_batch`]'s sequential loop, so a
/// batch meters exactly what the same scores one by one would: one hit
/// or miss per item, and a duplicate later in the batch is a hit.
///
/// The cache keys on the *full submission bytes* — an earlier revision
/// keyed on a 64-bit FNV-1a hash alone, which would silently serve one
/// submission's score for a colliding one. Lock acquisition recovers
/// from poisoning: a panicking worker (now isolated by the engine's
/// `catch_unwind`) must not wedge the cache for every other shard, and
/// a cache map is valid after any interrupted insert.
#[derive(Debug)]
pub struct CachedAv {
    inner: CommercialAv,
    cache: std::sync::Mutex<std::collections::HashMap<Vec<u8>, f32>>,
}

impl CachedAv {
    /// Wrap a trained AV.
    pub fn new(inner: CommercialAv) -> CachedAv {
        CachedAv { inner, cache: std::sync::Mutex::new(std::collections::HashMap::new()) }
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, std::collections::HashMap<Vec<u8>, f32>> {
        self.cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The wrapped AV.
    pub fn inner(&self) -> &CommercialAv {
        &self.inner
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.cache().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Apply a weekly update to the wrapped AV. The cache is invalidated:
    /// freshly mined signatures change verdicts for already-seen bytes.
    pub fn weekly_update(&mut self, submissions: &[&[u8]]) -> usize {
        let added = self.inner.weekly_update(submissions);
        self.cache().clear();
        added
    }
}

impl Detector for CachedAv {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, bytes: &[u8]) -> f32 {
        if let Some(&s) = self.cache().get(bytes) {
            mpass_engine::metrics::counter("av/cache_hit", 1);
            return s;
        }
        mpass_engine::metrics::counter("av/cache_miss", 1);
        let s = self.inner.score(bytes);
        self.cache().insert(bytes.to_vec(), s);
        s
    }

    fn raw_score(&self, bytes: &[u8]) -> f32 {
        self.inner.raw_score(bytes)
    }

    fn threshold(&self) -> f32 {
        self.inner.threshold()
    }
}

impl crate::traits::DetectorExt for CachedAv {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Verdict;
    use mpass_corpus::{CorpusConfig, Dataset};

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 24,
            n_benign: 24,
            seed: 13,
            no_slack_fraction: 0.1,
        })
    }

    fn one_av(ds: &Dataset) -> CommercialAv {
        let samples: Vec<_> = ds.samples.iter().collect();
        CommercialAv::train(default_profiles().remove(0), &TrainingSet::new(&samples))
    }

    /// Digests of each default profile's `score`, `ml_score` and
    /// `heuristic_score` bits over the feature golden's inputs, with every
    /// AV trained on the quick corpus. Taken before the AV moved onto one
    /// scan per query; any drift in a component trips this.
    #[test]
    fn av_components_golden_regression() {
        use crate::features::tests::{fnv1a64, golden_inputs, quick_config};
        let corpus = Dataset::generate(&quick_config());
        let samples: Vec<_> = corpus.samples.iter().collect();
        let set = TrainingSet::new(&samples);
        let inputs = golden_inputs();
        let digests: Vec<(String, u64)> = default_profiles()
            .into_iter()
            .map(|profile| {
                let av = CommercialAv::train(profile, &set);
                let bits = inputs.iter().flat_map(|bytes| {
                    [av.score(bytes), av.ml_score(bytes), av.heuristic_score(bytes)]
                        .into_iter()
                        .flat_map(|v| v.to_bits().to_le_bytes())
                });
                (av.name().to_owned(), fnv1a64(bits))
            })
            .collect();
        let golden = [
            ("AV1", 0xaf3a_021b_d8c9_d8e3),
            ("AV2", 0x480a_d008_eeab_4fb0),
            ("AV3", 0xd206_1653_5a34_5a57),
            ("AV4", 0x6125_8c2f_c926_d697),
            ("AV5", 0x36d8_3dac_463b_8031),
        ];
        let golden: Vec<(String, u64)> =
            golden.iter().map(|&(name, d)| (name.to_owned(), d)).collect();
        assert_eq!(digests, golden);
    }

    #[test]
    fn five_distinct_profiles() {
        let ps = default_profiles();
        assert_eq!(ps.len(), 5);
        let names: std::collections::HashSet<_> = ps.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn detects_malware_passes_benign() {
        let ds = dataset();
        let av = one_av(&ds);
        let mal_detected = ds
            .malware()
            .iter()
            .filter(|s| av.classify(&s.bytes).is_malicious())
            .count();
        let ben_passed = ds
            .benign()
            .iter()
            .filter(|s| av.classify(&s.bytes).is_benign())
            .count();
        assert!(mal_detected >= 22, "detected {mal_detected}/24 malware");
        assert!(ben_passed >= 22, "passed {ben_passed}/24 benign");
    }

    #[test]
    fn heuristics_flag_tail_entry_sections() {
        let ds = dataset();
        let av = one_av(&ds);
        let s = ds.malware()[0];
        let base_h = av.heuristic_score(&s.bytes);
        let mut pe = s.pe().unwrap().clone();
        let rva = pe
            .add_section(".newsec", vec![0x90; 512], mpass_pe::SectionFlags::CODE)
            .unwrap();
        pe.set_entry_point(rva).unwrap();
        let h = av.heuristic_score(&pe.to_bytes());
        assert!(h > base_h, "tail entry must raise heuristic: {base_h} -> {h}");
        assert!(h >= 0.5);
    }

    #[test]
    fn unparseable_bytes_are_flagged() {
        let ds = dataset();
        let av = one_av(&ds);
        assert_eq!(av.classify(&[0u8; 300]), Verdict::Malicious);
    }

    #[test]
    fn weekly_update_learns_fixed_patterns() {
        let ds = dataset();
        let mut av = one_av(&ds);
        // Craft 10 "AEs": same malware with one fixed appended pattern.
        let pattern = b"#FIXED-ATTACK-STUB-PATTERN#";
        let subs: Vec<Vec<u8>> = ds.malware()[..10]
            .iter()
            .map(|s| {
                let mut pe = s.pe().unwrap().clone();
                pe.append_overlay(pattern);
                pe.to_bytes()
            })
            .collect();
        let sub_refs: Vec<&[u8]> = subs.iter().map(|v| v.as_slice()).collect();
        let added = av.weekly_update(&sub_refs);
        assert!(added > 0, "fixed pattern must be mined");
        // A *new* sample carrying the pattern is now signature-detected.
        let mut pe = ds.malware()[11].pe().unwrap().clone();
        pe.append_overlay(pattern);
        assert_eq!(av.score(&pe.to_bytes()), 0.99);
    }

    #[test]
    fn weekly_update_ignores_diverse_submissions() {
        let ds = dataset();
        let mut av = one_av(&ds);
        // Every "AE" appends different random-looking content.
        let subs: Vec<Vec<u8>> = ds.malware()[..10]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut pe = s.pe().unwrap().clone();
                let junk: Vec<u8> =
                    (0..200u64).map(|j| ((i as u64 * 97 + j * 13 + i as u64 * j) % 256) as u8).collect();
                pe.append_overlay(&junk);
                pe.to_bytes()
            })
            .collect();
        let sub_refs: Vec<&[u8]> = subs.iter().map(|v| v.as_slice()).collect();
        let before = av.signature_count();
        av.weekly_update(&sub_refs);
        // Only grams shared across >= 30% of submissions qualify; the junk
        // differs per submission. Shared grams from the underlying corpus
        // generator may be mined but the per-AE junk must not explode the
        // store.
        assert!(av.signature_count() - before <= av.profile().mine_cap);
    }

    #[test]
    fn cached_av_matches_and_counts() {
        let ds = dataset();
        let av = one_av(&ds);
        let cached = CachedAv::new(av.clone());
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        for s in ds.malware()[..4].iter() {
            assert_eq!(cached.score(&s.bytes), av.score(&s.bytes));
            assert_eq!(cached.score(&s.bytes), av.score(&s.bytes)); // hit
        }
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard.counters["av/cache_miss"], 4);
        assert_eq!(shard.counters["av/cache_hit"], 4);
        assert_eq!(cached.len(), 4);
    }

    /// Batch scoring must meter the cache per item (not per batch) and
    /// score byte-identical duplicates against the inner AV only once,
    /// exactly as a sequential replay does.
    #[test]
    fn batched_cache_counts_per_item_and_dedups_inner_scoring() {
        let ds = dataset();
        let av = one_av(&ds);
        let cached = CachedAv::new(av.clone());
        let a = ds.malware()[0].bytes.clone();
        let b = ds.malware()[1].bytes.clone();
        let c = ds.benign()[0].bytes.clone();
        // Pre-cache `a` so the batch sees a genuine cache hit too.
        cached.score(&a);
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let items: Vec<&[u8]> = vec![&a, &b, &b, &c, &b];
        let mut scores = Vec::new();
        cached.score_batch(&items, &mut scores);
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        // Per item: a=hit, b=miss, b=dup hit, c=miss, b=dup hit.
        assert_eq!(shard.counters["av/cache_hit"], 3);
        assert_eq!(shard.counters["av/cache_miss"], 2);
        // The two unique misses were inserted exactly once each.
        assert_eq!(cached.len(), 3);
        for (i, bytes) in items.iter().enumerate() {
            assert_eq!(scores[i].to_bits(), av.score(bytes).to_bits(), "item {i}");
        }
        // A sequential replay over a fresh wrapper yields the same metric
        // totals as the batch did.
        let seq = CachedAv::new(av.clone());
        seq.score(&a);
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let mut seq_scores = Vec::new();
        for bytes in &items {
            seq_scores.push(seq.score(bytes));
        }
        let shard2 = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard2.counters["av/cache_hit"], 3);
        assert_eq!(shard2.counters["av/cache_miss"], 2);
        for (s1, s2) in scores.iter().zip(&seq_scores) {
            assert_eq!(s1.to_bits(), s2.to_bits());
        }
    }

    #[test]
    fn cache_keys_on_full_bytes_not_a_hash() {
        let ds = dataset();
        let av = one_av(&ds);
        let cached = CachedAv::new(av.clone());
        // Distinct submissions each get their own entry and their own
        // correct score; a hash-keyed cache could conflate them.
        let a = &ds.malware()[0].bytes;
        let b = &ds.benign()[0].bytes;
        assert_eq!(cached.score(a), av.score(a));
        assert_eq!(cached.score(b), av.score(b));
        assert_eq!(cached.len(), 2);
        // Served from cache, still per-submission.
        assert_eq!(cached.score(a), av.score(a));
        assert_eq!(cached.score(b), av.score(b));
    }

    #[test]
    fn cached_av_invalidates_on_weekly_update() {
        let ds = dataset();
        let mut cached = CachedAv::new(one_av(&ds));
        let pattern = b"#FIXED-ATTACK-STUB-PATTERN#";
        let probe = {
            let mut pe = ds.malware()[11].pe().unwrap().clone();
            pe.append_overlay(pattern);
            pe.to_bytes()
        };
        let before = cached.score(&probe);
        let subs: Vec<Vec<u8>> = ds.malware()[..10]
            .iter()
            .map(|s| {
                let mut pe = s.pe().unwrap().clone();
                pe.append_overlay(pattern);
                pe.to_bytes()
            })
            .collect();
        let sub_refs: Vec<&[u8]> = subs.iter().map(|v| v.as_slice()).collect();
        assert!(cached.weekly_update(&sub_refs) > 0);
        // A stale cache would keep returning `before`; invalidation lets
        // the new signature fire.
        assert_eq!(cached.score(&probe), 0.99);
        assert_ne!(cached.score(&probe), before);
    }

    #[test]
    fn benign_reference_prevents_self_poisoning() {
        let ds = dataset();
        let mut av = one_av(&ds);
        // Submissions are literally benign files: nothing should be mined
        // that then flags other benign files.
        let subs: Vec<&[u8]> = ds.benign()[..10].iter().map(|s| s.bytes.as_slice()).collect();
        av.weekly_update(&subs);
        let passed = ds
            .benign()
            .iter()
            .filter(|s| av.classify(&s.bytes).is_benign())
            .count();
        assert!(passed >= 22, "benign still passes after update: {passed}/24");
    }
}
