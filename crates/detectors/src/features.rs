//! EMBER-style static feature extraction for the tree/dense detectors.
//!
//! Features cover exactly the signal families real static detectors use:
//! byte-distribution statistics, per-section-kind structure and entropy,
//! header metadata, statically visible API invocations (the "invocations to
//! sensitive APIs" the paper names as carried by code sections), and string
//! indicators. Extraction is container-neutral: it reads images through the
//! [`BinaryFormat`] trait, so PE and Mach-O samples land in the same
//! feature space (the PE path is bit-identical to the historical PE-only
//! extractor). Unparseable files fall back to whole-file byte statistics.

use mpass_binary::{BinaryFormat, BinaryImage, Loadable, SectionKind};
use mpass_pe::{entropy, window_entropy_into};
use mpass_vm::{api, INSTR_SIZE};
use serde::{Deserialize, Serialize};

/// Number of coarse byte-histogram buckets.
const HIST_BUCKETS: usize = 32;
/// Section kinds receiving dedicated feature slots.
const KINDS: [SectionKind; 6] = [
    SectionKind::Code,
    SectionKind::Data,
    SectionKind::ReadOnlyData,
    SectionKind::Resource,
    SectionKind::Relocation,
    SectionKind::Other,
];
/// Substrings whose presence is a string-indicator feature.
const SUSPICIOUS_STRINGS: &[&str] =
    &["http://", "ENCRYPT", "vssadmin", "stratum+", "\\Run\\", "botnet_"];

/// Dual-use import names that receive an indicator feature. The first four
/// are PE import symbols; the last is the Mach-O dylib the corpus treats as
/// dual-use (a Mach-O image's import surface is its dylib list).
const DUAL_USE_IMPORTS: &[&str] = &[
    "VirtualAllocEx",
    "WriteProcessMemory",
    "CreateRemoteThread",
    "AdjustTokenPrivileges",
    "/usr/lib/libproc.dylib",
];

/// Total feature dimensionality.
pub const FEATURE_DIM: usize = HIST_BUCKETS     // byte histogram
    + 4                                          // global: entropy, log-size, max/mean window entropy
    + 6                                          // header features
    + KINDS.len() * 3                            // per-kind: present, size ratio, entropy
    + 32                                         // static API call counts (ids 1..=32)
    + SUSPICIOUS_STRINGS.len()                   // string indicators
    + 3                                          // overlay: present, size ratio, entropy
    + 4; // imports: present, dll count, symbol count, dual-use fraction

/// Stateless extractor producing fixed-size feature vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureExtractor;

/// Reusable scratch buffers for [`FeatureExtractor::extract_with`].
/// Batched scoring extracts thousands of candidates; holding the
/// window-entropy buffer, the section-concatenation buffer, and the API
/// counter array across items makes that loop allocation-free.
#[derive(Debug, Clone)]
pub struct FeatureScratch {
    we: Vec<f64>,
    all: Vec<u8>,
    api: [usize; 33],
}

impl Default for FeatureScratch {
    fn default() -> Self {
        FeatureScratch { we: Vec::new(), all: Vec::new(), api: [0; 33] }
    }
}

impl FeatureScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        FeatureScratch::default()
    }
}

impl FeatureExtractor {
    /// Create an extractor.
    pub fn new() -> Self {
        FeatureExtractor
    }

    /// The dimensionality of extracted vectors.
    pub fn dim(&self) -> usize {
        FEATURE_DIM
    }

    /// Extract features from raw file bytes.
    pub fn extract(&self, bytes: &[u8]) -> Vec<f32> {
        let mut f = Vec::with_capacity(FEATURE_DIM);
        self.extract_into(bytes, &mut f);
        f
    }

    /// Extract features into a reused buffer (cleared first), with private
    /// scratch allocated per call. Prefer [`FeatureExtractor::extract_with`]
    /// in batched loops so the scratch survives across items.
    pub fn extract_into(&self, bytes: &[u8], f: &mut Vec<f32>) {
        let mut scratch = FeatureScratch::new();
        self.extract_with(bytes, &mut scratch, f);
    }

    /// Extract features into a reused buffer (cleared first), reusing
    /// `scratch` across calls. The arithmetic is identical to
    /// [`FeatureExtractor::extract_into`] — only the allocations move.
    pub fn extract_with(&self, bytes: &[u8], scratch: &mut FeatureScratch, f: &mut Vec<f32>) {
        f.clear();
        // --- byte histogram (coarse, normalized) ---
        let hist = mpass_pe::byte_histogram(bytes);
        let total = bytes.len().max(1) as f32;
        for bucket in 0..HIST_BUCKETS {
            let lo = bucket * (256 / HIST_BUCKETS);
            let hi = lo + 256 / HIST_BUCKETS;
            let count: u64 = hist[lo..hi].iter().sum();
            f.push(count as f32 / total);
        }
        // --- global statistics ---
        f.push(entropy(bytes) as f32 / 8.0);
        f.push((bytes.len() as f32).ln() / 16.0);
        window_entropy_into(bytes, 256, &mut scratch.we);
        let max_we = scratch.we.iter().cloned().fold(0.0f64, f64::max);
        let mean_we = scratch.we.iter().sum::<f64>() / scratch.we.len().max(1) as f64;
        f.push(max_we as f32 / 8.0);
        f.push(mean_we as f32 / 8.0);

        let image = BinaryImage::parse_auto(bytes).ok();
        let metas: Vec<_> = image
            .iter()
            .flat_map(|img| (0..img.section_count()).filter_map(|i| img.section_meta(i)))
            .collect();
        // --- header features ---
        match &image {
            Some(image) => {
                f.push(metas.len() as f32 / 16.0);
                let ts = image.timestamp();
                f.push(if ts == 0 || ts > 0x7000_0000 { 1.0 } else { 0.0 });
                f.push((ts as f32) / (u32::MAX as f32));
                let entry = image.entry_point();
                let entry_idx = image.section_index_containing_va(entry).unwrap_or(0);
                f.push(entry_idx as f32 / 16.0);
                let last = metas.len().saturating_sub(1);
                f.push(if entry_idx == last && last > 0 { 1.0 } else { 0.0 });
                let std_names = metas.iter().filter(|m| m.standard_name).count();
                f.push(1.0 - std_names as f32 / metas.len().max(1) as f32);
            }
            None => f.extend_from_slice(&[0.0; 6]),
        }
        // --- per-kind section features ---
        match &image {
            Some(image) => {
                for kind in KINDS {
                    let all = &mut scratch.all;
                    all.clear();
                    let mut present = false;
                    for (i, _) in metas.iter().enumerate().filter(|(_, m)| m.kind == kind) {
                        if let Some(d) = image.section_data(i) {
                            present = true;
                            all.extend_from_slice(d);
                        }
                    }
                    if !present {
                        f.extend_from_slice(&[0.0, 0.0, 0.0]);
                    } else {
                        f.push(1.0);
                        f.push(all.len() as f32 / total);
                        f.push(entropy(all) as f32 / 8.0);
                    }
                }
            }
            None => f.extend_from_slice(&[0.0; 18]),
        }
        // --- static API invocation counts ---
        count_api_opcodes_into(bytes, &mut scratch.api);
        let code_units = (bytes.len() / INSTR_SIZE).max(1) as f32;
        for id in 1..=32usize {
            f.push(scratch.api[id] as f32 * 64.0 / code_units);
        }
        // --- string indicators ---
        for s in SUSPICIOUS_STRINGS {
            f.push(if contains_subslice(bytes, s.as_bytes()) { 1.0 } else { 0.0 });
        }
        // --- overlay features ---
        match &image {
            Some(image) if !image.overlay().is_empty() => {
                f.push(1.0);
                f.push(image.overlay().len() as f32 / total);
                f.push(entropy(image.overlay()) as f32 / 8.0);
            }
            _ => f.extend_from_slice(&[0.0, 0.0, 0.0]),
        }
        // --- import-surface features ---
        match image.as_ref().and_then(|image| image.imports_summary()) {
            Some(summary) => {
                let dual = summary
                    .symbols
                    .iter()
                    .filter(|n| DUAL_USE_IMPORTS.contains(&n.as_str()))
                    .count();
                f.push(1.0);
                f.push(summary.libraries as f32 / 16.0);
                f.push(summary.symbol_count as f32 / 128.0);
                f.push(dual as f32 / summary.symbols.len().max(1) as f32);
            }
            None => f.extend_from_slice(&[0.0; 4]),
        }
        debug_assert_eq!(f.len(), FEATURE_DIM);
    }
}

/// Count statically visible `CallApi` encodings anywhere in the file (any
/// byte offset — detectors cannot assume instruction alignment). `counts`
/// is zeroed first and indexed by API id; id 0 is never counted. A fixed
/// array replaces the old per-call hash map: ids are dense in `1..=32`, so
/// direct indexing is both faster and allocation-free.
fn count_api_opcodes_into(bytes: &[u8], counts: &mut [usize; 33]) {
    counts.fill(0);
    if bytes.len() < INSTR_SIZE {
        return;
    }
    for i in 0..=bytes.len() - INSTR_SIZE {
        // CallApi encodes as [0x30, 0, 0, 0, id_lo, id_hi, 0, 0].
        if bytes[i] == 0x30
            && bytes[i + 1] == 0
            && bytes[i + 2] == 0
            && bytes[i + 3] == 0
            && bytes[i + 6] == 0
            && bytes[i + 7] == 0
        {
            let id = u16::from_le_bytes([bytes[i + 4], bytes[i + 5]]);
            if (1..=32).contains(&id) {
                counts[id as usize] += 1;
            }
        }
    }
}

/// Whether `needle` occurs in `haystack`.
pub(crate) fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Count of statically visible *suspicious* API invocations — a convenience
/// used by tests and the ablation analysis.
pub fn suspicious_api_count(bytes: &[u8]) -> usize {
    let mut counts = [0usize; 33];
    count_api_opcodes_into(bytes, &mut counts);
    counts
        .iter()
        .enumerate()
        .filter(|(id, _)| api::ApiId(*id as u16).is_suspicious())
        .map(|(_, c)| *c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};

    fn tiny() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 8,
            n_benign: 8,
            seed: 11,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn dimension_is_stable() {
        let fx = FeatureExtractor::new();
        let ds = tiny();
        for s in &ds.samples {
            assert_eq!(fx.extract(&s.bytes).len(), FEATURE_DIM);
        }
        // Non-PE garbage still extracts.
        assert_eq!(fx.extract(&[0u8; 100]).len(), FEATURE_DIM);
        assert_eq!(fx.extract(&[]).len(), FEATURE_DIM);
    }

    #[test]
    fn features_are_finite_and_bounded() {
        let fx = FeatureExtractor::new();
        for s in &tiny().samples {
            for (i, v) in fx.extract(&s.bytes).iter().enumerate() {
                assert!(v.is_finite(), "feature {i} not finite");
                assert!(*v >= 0.0, "feature {i} negative: {v}");
            }
        }
    }

    #[test]
    fn malware_has_suspicious_api_features() {
        let ds = tiny();
        for s in ds.malware() {
            assert!(suspicious_api_count(&s.bytes) >= 3, "{}", s.name);
        }
        for s in ds.benign() {
            assert!(suspicious_api_count(&s.bytes) <= 1, "{}", s.name);
        }
    }

    #[test]
    fn classes_are_separable_in_feature_space() {
        // A trivial centroid classifier over our features must beat chance
        // comfortably, otherwise detectors have nothing to learn.
        let fx = FeatureExtractor::new();
        let ds = tiny();
        let mean = |samples: &[&mpass_corpus::Sample]| -> Vec<f32> {
            let mut m = vec![0.0f32; FEATURE_DIM];
            for s in samples {
                for (mi, v) in m.iter_mut().zip(fx.extract(&s.bytes)) {
                    *mi += v;
                }
            }
            m.iter().map(|v| v / samples.len() as f32).collect()
        };
        let mal_c = mean(&ds.malware());
        let ben_c = mean(&ds.benign());
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        };
        let mut correct = 0;
        for s in &ds.samples {
            let f = fx.extract(&s.bytes);
            let pred_mal = dist(&f, &mal_c) < dist(&f, &ben_c);
            if pred_mal == (s.label == mpass_corpus::Label::Malware) {
                correct += 1;
            }
        }
        // The corpus deliberately avoids linear shortcuts (packed benign,
        // dropper malware, neutral strings); a naive centroid only needs to
        // beat chance clearly.
        assert!(correct >= 12, "centroid classifier got {correct}/16");
    }

    #[test]
    fn overlay_features_respond() {
        let fx = FeatureExtractor::new();
        let ds = tiny();
        let s = &ds.samples[0];
        let base = fx.extract(&s.bytes);
        let mut pe = s.pe().unwrap().clone();
        pe.append_overlay(&[0xAB; 2048]);
        let with = fx.extract(&pe.to_bytes());
        let off = FEATURE_DIM - 7; // overlay features precede the 4 import features
        assert_eq!(base[off], 0.0);
        assert_eq!(with[off], 1.0);
        assert!(with[off + 1] > 0.0);
    }

    #[test]
    fn macho_samples_share_the_feature_space() {
        let fx = FeatureExtractor::new();
        let ds = Dataset::generate_mixed(
            &CorpusConfig { n_malware: 8, n_benign: 8, seed: 11, no_slack_fraction: 0.0 },
            1.0,
        );
        for s in &ds.samples {
            assert_eq!(s.format(), mpass_binary::Format::MachO, "{}", s.name);
            let f = fx.extract(&s.bytes);
            assert_eq!(f.len(), FEATURE_DIM);
            for (i, v) in f.iter().enumerate() {
                assert!(v.is_finite() && *v >= 0.0, "{}: feature {i} = {v}", s.name);
            }
            // Structural features must engage: sections were found and at
            // least one landed in the Code bucket.
            let hdr = HIST_BUCKETS + 4;
            assert!(f[hdr] > 0.0, "{}: no sections seen", s.name);
            assert_eq!(f[hdr + 6], 1.0, "{}: no code section seen", s.name);
        }
        // Suspicious-API separation carries over to Mach-O code sections.
        // Load-command words can alias the CallApi encoding (a 0x30 u32
        // followed by a small u32), so benign counts are compared in
        // aggregate rather than held to the PE corpus's exact bound.
        for s in ds.malware() {
            assert!(suspicious_api_count(&s.bytes) >= 3, "{}", s.name);
        }
        let mal: usize = ds.malware().iter().map(|s| suspicious_api_count(&s.bytes)).sum();
        let ben: usize = ds.benign().iter().map(|s| suspicious_api_count(&s.bytes)).sum();
        assert!(
            mal > 2 * ben.max(1),
            "static API signal does not separate: malware {mal} vs benign {ben}"
        );
    }

    #[test]
    fn macho_dylib_surface_reaches_import_features() {
        let fx = FeatureExtractor::new();
        let ds = Dataset::generate_mixed(
            &CorpusConfig { n_malware: 4, n_benign: 4, seed: 5, no_slack_fraction: 0.0 },
            1.0,
        );
        let present = FEATURE_DIM - 4;
        for s in &ds.samples {
            let f = fx.extract(&s.bytes);
            assert_eq!(f[present], 1.0, "{}: dylib list invisible", s.name);
            assert!(f[present + 1] > 0.0, "{}: zero libraries", s.name);
        }
    }

    #[test]
    fn api_counter_detects_unaligned_patterns() {
        let mut bytes = vec![0u8; 64];
        // Place a CallApi(20) pattern at an odd offset.
        let enc = mpass_vm::Instr::CallApi(mpass_vm::api::ENCRYPT_USER_FILES).encode();
        bytes[13..21].copy_from_slice(&enc);
        assert_eq!(suspicious_api_count(&bytes), 1);
    }
}
