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
//!
//! Every query reads one `Scan`: one parse and one byte histogram per
//! section, shared by [`extract`] and the commercial AVs' packer
//! heuristics.

use mpass_binary::{BinaryFormat, BinaryImage, Loadable, SectionKind, SectionMeta};
use mpass_pe::{byte_histogram, entropy, histogram_entropy};
use mpass_vm::{api, INSTR_SIZE};

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

/// The [`FEATURE_DIM`] features of raw file bytes.
pub fn extract(bytes: &[u8]) -> Vec<f32> {
    Scan::new(bytes).features()
}

/// One section as a scan sees it.
pub(crate) struct ScannedSection {
    /// The section's metadata (name, kind, ...).
    pub(crate) meta: SectionMeta,
    /// Length of the section's data.
    pub(crate) len: usize,
    /// Byte counts of the section's data.
    pub(crate) hist: [u64; 256],
}

/// One query's view of a file: the parse and each section's byte counts,
/// taken once and read by both the features and the AV heuristics.
pub(crate) struct Scan<'a> {
    pub(crate) bytes: &'a [u8],
    /// The parse, when the bytes are a supported executable.
    pub(crate) image: Option<BinaryImage>,
    /// Every section of `image`, in section order (empty without one).
    pub(crate) sections: Vec<ScannedSection>,
    /// The section containing the entry point.
    pub(crate) entry_section: Option<usize>,
}

impl<'a> Scan<'a> {
    /// Parse `bytes` and count each section's bytes.
    pub(crate) fn new(bytes: &'a [u8]) -> Scan<'a> {
        let image = BinaryImage::parse_auto(bytes).ok();
        let sections = image
            .iter()
            .flat_map(|image| {
                (0..image.section_count()).filter_map(|i| {
                    let data = image.section_data(i)?;
                    let meta = image.section_meta(i)?;
                    Some(ScannedSection { meta, len: data.len(), hist: byte_histogram(data) })
                })
            })
            .collect();
        let entry_section = image
            .as_ref()
            .and_then(|image| image.section_index_containing_va(image.entry_point()));
        Scan { bytes, image, sections, entry_section }
    }

    /// The [`FEATURE_DIM`] features.
    pub(crate) fn features(&self) -> Vec<f32> {
        let bytes = self.bytes;
        let mut f = Vec::with_capacity(FEATURE_DIM);
        // --- byte histogram (coarse, normalized) ---
        let hist = byte_histogram(bytes);
        let total = bytes.len().max(1) as f32;
        for bucket in hist.chunks(256 / HIST_BUCKETS) {
            f.push(bucket.iter().sum::<u64>() as f32 / total);
        }
        // --- global statistics ---
        f.push(histogram_entropy(&hist, bytes.len()) as f32 / 8.0);
        f.push((bytes.len() as f32).ln() / 16.0);
        // Max and mean over the 256-byte windows; the tail window may be
        // short. The mean's sum starts at -0.0, as `Iterator::sum` does,
        // so an empty file keeps its historical -0.0.
        let (mut max_we, mut sum_we, mut windows) = (0.0f64, -0.0f64, 0usize);
        for window in bytes.chunks(256) {
            let e = entropy(window);
            max_we = max_we.max(e);
            sum_we += e;
            windows += 1;
        }
        f.push(max_we as f32 / 8.0);
        f.push((sum_we / windows.max(1) as f64) as f32 / 8.0);
        // --- header features ---
        match &self.image {
            Some(image) => {
                let n = self.sections.len();
                f.push(n as f32 / 16.0);
                let ts = image.timestamp();
                f.push(if ts == 0 || ts > 0x7000_0000 { 1.0 } else { 0.0 });
                f.push((ts as f32) / (u32::MAX as f32));
                let entry_idx = self.entry_section.unwrap_or(0);
                f.push(entry_idx as f32 / 16.0);
                let last = n.saturating_sub(1);
                f.push(if entry_idx == last && last > 0 { 1.0 } else { 0.0 });
                let std_names = self.sections.iter().filter(|s| s.meta.standard_name).count();
                f.push(1.0 - std_names as f32 / n.max(1) as f32);
            }
            None => f.extend_from_slice(&[0.0; 6]),
        }
        // --- per-kind section features ---
        // A kind's entropy comes from its sections' summed counts, which
        // is bit-identical to the entropy of their concatenation.
        for kind in KINDS {
            let (mut present, mut len, mut kind_hist) = (false, 0usize, [0u64; 256]);
            for s in self.sections.iter().filter(|s| s.meta.kind == kind) {
                present = true;
                len += s.len;
                for (h, c) in kind_hist.iter_mut().zip(&s.hist) {
                    *h += c;
                }
            }
            if present {
                f.push(1.0);
                f.push(len as f32 / total);
                f.push(histogram_entropy(&kind_hist, len) as f32 / 8.0);
            } else {
                f.extend_from_slice(&[0.0, 0.0, 0.0]);
            }
        }
        // --- static API invocation counts ---
        let api = api_counts(bytes);
        let code_units = (bytes.len() / INSTR_SIZE).max(1) as f32;
        for count in &api[1..] {
            f.push(*count as f32 * 64.0 / code_units);
        }
        // --- string indicators ---
        for s in SUSPICIOUS_STRINGS {
            f.push(if contains_subslice(bytes, s.as_bytes()) { 1.0 } else { 0.0 });
        }
        // --- overlay features ---
        match &self.image {
            Some(image) if !image.overlay().is_empty() => {
                f.push(1.0);
                f.push(image.overlay().len() as f32 / total);
                f.push(entropy(image.overlay()) as f32 / 8.0);
            }
            _ => f.extend_from_slice(&[0.0, 0.0, 0.0]),
        }
        // --- import-surface features ---
        match self.image.as_ref().and_then(|image| image.imports_summary()) {
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
        f
    }
}

/// Count statically visible `CallApi` encodings anywhere in the file (any
/// byte offset — detectors cannot assume instruction alignment), indexed
/// by API id. Ids are dense in `1..=32`; id 0 is never counted.
fn api_counts(bytes: &[u8]) -> [usize; 33] {
    let mut counts = [0usize; 33];
    for w in bytes.windows(INSTR_SIZE) {
        // CallApi encodes as [0x30, 0, 0, 0, id_lo, id_hi, 0, 0].
        if let [0x30, 0, 0, 0, lo, hi, 0, 0] = *w {
            let id = u16::from_le_bytes([lo, hi]);
            if (1..=32).contains(&id) {
                counts[id as usize] += 1;
            }
        }
    }
    counts
}

/// Whether `needle` occurs in `haystack`.
pub(crate) fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Count of statically visible *suspicious* API invocations — a convenience
/// used by tests and the ablation analysis.
pub fn suspicious_api_count(bytes: &[u8]) -> usize {
    api_counts(bytes)
        .iter()
        .enumerate()
        .filter(|(id, _)| api::ApiId(*id as u16).is_suspicious())
        .map(|(_, c)| *c)
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};

    pub(crate) fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The quick world's corpus configuration.
    pub(crate) fn quick_config() -> CorpusConfig {
        CorpusConfig { n_malware: 20, n_benign: 20, seed: 0xDAC2023, no_slack_fraction: 0.1 }
    }

    /// Inputs the golden regressions digest: the quick corpus's PE
    /// samples, Mach-O samples from the same configuration, every
    /// malformed fixture, short and chunk-boundary buffers (256 is the
    /// window length), and one sample grown to GAMMA size (148,000
    /// bytes) by appending benign bytes past a 256-byte boundary.
    pub(crate) fn golden_inputs() -> Vec<Vec<u8>> {
        let pe = Dataset::generate(&quick_config());
        let macho = Dataset::generate_mixed(&quick_config(), 1.0);
        let mut inputs: Vec<Vec<u8>> =
            pe.samples.iter().chain(&macho.samples).map(|s| s.bytes.clone()).collect();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/malformed");
        let mut fixtures: Vec<_> = std::fs::read_dir(dir)
            .expect("malformed fixtures")
            .map(|e| e.expect("fixture entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "bin"))
            .collect();
        fixtures.sort();
        assert_eq!(fixtures.len(), 17, "malformed fixture count");
        inputs.extend(fixtures.iter().map(|p| std::fs::read(p).expect("fixture bytes")));
        for len in [0usize, 1, 7, 255, 256, 257, 511, 512, 513] {
            inputs.push((0..len).map(|i| (i * 131 % 251) as u8).collect());
        }
        let mut large = pe.samples[0].bytes.clone();
        let benign: Vec<u8> = pe.benign().iter().flat_map(|s| s.bytes.iter().copied()).collect();
        large.extend(benign.iter().cycle().take(148_000 - large.len()));
        inputs.push(large);
        inputs
    }

    /// Digest of every feature's bits over [`golden_inputs`], taken
    /// before extraction moved onto one scan per query. Any drift in a
    /// feature's value trips this.
    #[test]
    fn feature_scan_golden_regression() {
        let inputs = golden_inputs();
        assert_eq!(inputs.len(), 40 + 40 + 17 + 9 + 1);
        let digest = fnv1a64(
            inputs.iter().flat_map(|bytes| extract(bytes)).flat_map(|v| v.to_bits().to_le_bytes()),
        );
        assert_eq!(digest, 0xac94_c24e_6adc_f929);
        // An empty file has no windows; its mean window entropy is the
        // empty f64 sum, which is -0.0.
        assert_eq!(extract(&[])[HIST_BUCKETS + 3].to_bits(), 0x8000_0000);
    }

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
        let ds = tiny();
        for s in &ds.samples {
            assert_eq!(extract(&s.bytes).len(), FEATURE_DIM);
        }
        // Non-PE garbage still extracts.
        assert_eq!(extract(&[0u8; 100]).len(), FEATURE_DIM);
        assert_eq!(extract(&[]).len(), FEATURE_DIM);
    }

    #[test]
    fn features_are_finite_and_bounded() {
        for s in &tiny().samples {
            for (i, v) in extract(&s.bytes).iter().enumerate() {
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
        let ds = tiny();
        let mean = |samples: &[&mpass_corpus::Sample]| -> Vec<f32> {
            let mut m = vec![0.0f32; FEATURE_DIM];
            for s in samples {
                for (mi, v) in m.iter_mut().zip(extract(&s.bytes)) {
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
            let f = extract(&s.bytes);
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
        let ds = tiny();
        let s = &ds.samples[0];
        let base = extract(&s.bytes);
        let mut pe = s.pe().unwrap().clone();
        pe.append_overlay(&[0xAB; 2048]);
        let with = extract(&pe.to_bytes());
        let off = FEATURE_DIM - 7; // overlay features precede the 4 import features
        assert_eq!(base[off], 0.0);
        assert_eq!(with[off], 1.0);
        assert!(with[off + 1] > 0.0);
    }

    #[test]
    fn macho_samples_share_the_feature_space() {
        let ds = Dataset::generate_mixed(
            &CorpusConfig { n_malware: 8, n_benign: 8, seed: 11, no_slack_fraction: 0.0 },
            1.0,
        );
        for s in &ds.samples {
            assert_eq!(s.format(), mpass_binary::Format::MachO, "{}", s.name);
            let f = extract(&s.bytes);
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
        let ds = Dataset::generate_mixed(
            &CorpusConfig { n_malware: 4, n_benign: 4, seed: 5, no_slack_fraction: 0.0 },
            1.0,
        );
        let present = FEATURE_DIM - 4;
        for s in &ds.samples {
            let f = extract(&s.bytes);
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
