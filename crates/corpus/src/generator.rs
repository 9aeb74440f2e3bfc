//! Generation of complete synthetic PE and Mach-O samples and datasets.

use crate::behavior::{synthesize_program, BehaviorSpec};
use mpass_binary::{BinaryFormat, BinaryImage, Format, SectionKind};
use mpass_macho::{EntryStyle, MachoBuilder, MachoFile};
use mpass_pe::{ImportEntry, ImportTable, PeBuilder, PeFile, SectionFlags};
use mpass_vm::Instr;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Ground-truth label of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Label {
    /// Performs suspicious API calls.
    Malware,
    /// Performs only benign API calls.
    Benign,
}

impl Label {
    /// 1.0 for malware, 0.0 for benign — the training target convention.
    pub fn target(self) -> f32 {
        match self {
            Label::Malware => 1.0,
            Label::Benign => 0.0,
        }
    }
}

/// One synthetic sample: the parsed image, its serialized bytes and label.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Stable identifier (`mal_17`, `ben_204`, …).
    pub name: String,
    /// Ground-truth label.
    pub label: Label,
    /// The parsed binary image (PE or Mach-O).
    pub image: BinaryImage,
    /// Serialized on-disk bytes (cached; always equals
    /// `image.to_bytes()`).
    pub bytes: Vec<u8>,
}

impl Sample {
    /// Wrap a parsed image with its label, caching the serialized bytes.
    /// Accepts a `PeFile`, `MachoFile` or `BinaryImage` directly.
    pub fn new(name: String, label: Label, image: impl Into<BinaryImage>) -> Self {
        let image = image.into();
        let bytes = image.to_bytes();
        Sample { name, label, image, bytes }
    }

    /// The container format this sample ships in.
    pub fn format(&self) -> Format {
        self.image.format()
    }

    /// The wrapped PE, when this sample is one. PE-specific pipelines
    /// (packers, import stamping) branch on this and skip other formats.
    pub fn pe(&self) -> Option<&PeFile> {
        self.image.as_pe()
    }

    /// The wrapped Mach-O, when this sample is one.
    pub fn macho(&self) -> Option<&MachoFile> {
        self.image.as_macho()
    }

    /// On-disk size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }
}

/// Configuration for corpus generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of malware samples.
    pub n_malware: usize,
    /// Number of benign samples.
    pub n_benign: usize,
    /// Master seed; the corpus is a pure function of the config.
    pub seed: u64,
    /// Fraction of malware built without header slack, forcing the attack
    /// onto the overlay-append fallback path (paper §III-C).
    pub no_slack_fraction: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { n_malware: 120, n_benign: 120, seed: 0xDAC2023, no_slack_fraction: 0.15 }
    }
}

/// A labelled dataset with deterministic train/test splitting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// All samples, malware first.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Generate the full corpus for `config`.
    pub fn generate(config: &CorpusConfig) -> Dataset {
        let mut samples = Vec::with_capacity(config.n_malware + config.n_benign);
        for i in 0..config.n_malware {
            let mut rng = ChaCha8Rng::seed_from_u64(
                config.seed ^ 0x4D41_4C00 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let no_slack = rng.gen_bool(config.no_slack_fraction);
            let pe = generate_malware_pe(&mut rng, no_slack);
            samples.push(Sample::new(format!("mal_{i}"), Label::Malware, pe));
        }
        for i in 0..config.n_benign {
            let mut rng = ChaCha8Rng::seed_from_u64(
                config.seed ^ 0x4245_4E00 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let pe = generate_benign_pe(&mut rng);
            samples.push(Sample::new(format!("ben_{i}"), Label::Benign, pe));
        }
        Dataset { samples }
    }

    /// Generate a mixed-format corpus: each sample is Mach-O with
    /// probability `macho_fraction`, PE otherwise. Deterministic in
    /// `(config, macho_fraction)`; the PE-only corpus from
    /// [`Dataset::generate`] is untouched by this addition (its RNG
    /// streams are consumed identically), and `generate_mixed(c, 0.0)`
    /// reproduces it byte for byte.
    pub fn generate_mixed(config: &CorpusConfig, macho_fraction: f64) -> Dataset {
        let mut samples = Vec::with_capacity(config.n_malware + config.n_benign);
        for i in 0..config.n_malware {
            let mut rng = ChaCha8Rng::seed_from_u64(
                config.seed ^ 0x4D41_4C00 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let no_slack = rng.gen_bool(config.no_slack_fraction);
            // The format draw comes from a forked stream so the PE path
            // consumes exactly the draws generate() does.
            let macho = ChaCha8Rng::seed_from_u64(config.seed ^ 0x4D58_0000 ^ i as u64)
                .gen_bool(macho_fraction);
            let image = if macho {
                BinaryImage::from(generate_malware_macho(&mut rng, no_slack))
            } else {
                BinaryImage::from(generate_malware_pe(&mut rng, no_slack))
            };
            samples.push(Sample::new(format!("mal_{i}"), Label::Malware, image));
        }
        for i in 0..config.n_benign {
            let mut rng = ChaCha8Rng::seed_from_u64(
                config.seed ^ 0x4245_4E00 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let macho = ChaCha8Rng::seed_from_u64(config.seed ^ 0x424D_0000 ^ i as u64)
                .gen_bool(macho_fraction);
            let image = if macho {
                BinaryImage::from(generate_benign_macho(&mut rng))
            } else {
                BinaryImage::from(generate_benign_pe(&mut rng))
            };
            samples.push(Sample::new(format!("ben_{i}"), Label::Benign, image));
        }
        Dataset { samples }
    }

    /// Split into (train, test) with every k-th sample per class held out.
    pub fn split(&self, holdout_every: usize) -> (Vec<&Sample>, Vec<&Sample>) {
        let mut train = Vec::new();
        let mut test = Vec::new();
        let mut per_class = std::collections::HashMap::new();
        for s in &self.samples {
            let c = per_class.entry(s.label).or_insert(0usize);
            if *c % holdout_every == holdout_every - 1 {
                test.push(s);
            } else {
                train.push(s);
            }
            *c += 1;
        }
        (train, test)
    }

    /// All malware samples.
    pub fn malware(&self) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.label == Label::Malware).collect()
    }

    /// All benign samples.
    pub fn benign(&self) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.label == Label::Benign).collect()
    }
}

/// Random printable ASCII "string table" content.
pub(crate) fn string_table<R: Rng + ?Sized>(strings: &[&str], pad_to: usize, rng: &mut R) -> Vec<u8> {
    let mut out = Vec::with_capacity(pad_to);
    while out.len() < pad_to {
        let s = strings[rng.gen_range(0..strings.len())];
        out.extend_from_slice(s.as_bytes());
        out.push(0);
    }
    out.truncate(pad_to);
    out
}

/// Low-entropy structured data: a random 16-byte record repeated. The
/// record is drawn fresh per call so that two independently generated
/// data regions share no byte n-grams.
pub(crate) fn structured_data<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Vec<u8> {
    let record: Vec<u8> =
        (0..16).map(|i| if i < 12 { rng.gen_range(0..48) } else { rng.gen_range(0..8) }).collect();
    (0..len).map(|i| record[i % record.len()]).collect()
}

/// High-entropy data simulating an encrypted/packed payload.
fn encrypted_payload<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// Random lowercase token for string templating.
fn token<R: Rng + ?Sized>(rng: &mut R, len_lo: usize, len_hi: usize) -> String {
    let len = rng.gen_range(len_lo..=len_hi);
    (0..len).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect()
}

/// Hostile configuration strings, templated per sample: the 2000-sample
/// corpora the paper draws from span many malware *families* — fixed
/// literal strings across all samples would hand byte-level models a
/// single-family shortcut no real detector enjoys. Template skeletons
/// (`/gate.php`, `vssadmin`, `stratum+tcp`) stay recognizable; hosts,
/// keys and paths vary.
fn hostile_strings<R: Rng + ?Sized>(rng: &mut R) -> Vec<String> {
    let mut all = vec![
        format!("http://{}.{}/{}.php", token(rng, 5, 10), token(rng, 2, 3), token(rng, 4, 7)),
        format!("cmd.exe /c vssadmin delete shadows /{}", token(rng, 3, 5)),
        format!("SOFTWARE\\{}\\Run\\{}", token(rng, 4, 8), token(rng, 4, 8)),
        "YOUR FILES HAVE BEEN ENCRYPTED".to_owned(),
        format!("botnet_{}_key_{}", token(rng, 3, 6), rng.gen_range(1..9)),
        format!("stratum+tcp://{}.{}:3333", token(rng, 5, 9), token(rng, 2, 3)),
    ];
    // Most families ship the full complement; a few drop one string.
    if rng.gen_bool(0.3) {
        let i = rng.gen_range(0..all.len());
        all.remove(i);
    }
    all
}

/// Benign configuration strings, templated the same way (update URLs,
/// telemetry endpoints, settings) so "strings in the data section" is not
/// itself a label.
fn benign_config_strings<R: Rng + ?Sized>(rng: &mut R) -> Vec<String> {
    vec![
        format!("https://update.{}.com/check", token(rng, 5, 10)),
        format!("[settings] lang={} theme={}", token(rng, 2, 2), token(rng, 4, 6)),
        format!("api_key={:08x}{:08x}", rng.gen::<u32>(), rng.gen::<u32>()),
        format!("C:\\Program Files\\{}\\app.cfg", token(rng, 5, 10)),
    ]
}

fn strings_block(strings: &[String], pad_to: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(pad_to);
    'outer: loop {
        for s in strings {
            if out.len() + s.len() + 1 > pad_to {
                break 'outer;
            }
            out.extend_from_slice(s.as_bytes());
            out.push(0);
        }
        if strings.is_empty() {
            break;
        }
    }
    out.resize(pad_to, 0);
    out
}

/// Strings found in read-only data regardless of class — linker and
/// runtime boilerplate. Keeping `.rdata` class-neutral concentrates the
/// discriminative signal in code and data sections, matching the paper's
/// PEM finding.
pub(crate) const NEUTRAL_STRINGS: &[&str] = &[
    "Copyright (c) Contoso Corporation",
    "usage: app [options] <file>",
    "en-US resources loaded",
    "SELECT name FROM settings",
    "application/json",
    "File saved successfully.",
    "kernel32.dll",
    "GetLastError",
    "operator new",
    "bad_alloc",
];

const ODD_NAMES: &[&str] = &[".xpk1", ".enc", ".vmp0", ".x9", ".krn"];

/// First-section RVA under the default alignment (code is always first).
const TEXT_RVA: u32 = 0x1000;

/// Encode a program the way a real compiler's output looks: the encoding
/// bytes the MVM decoder ignores are filled with arbitrary values, so code
/// sections are byte-dense like x86 text rather than zero-padded records.
/// `CallApi` keeps its canonical encoding — call sites to the OS are the
/// fixed patterns static detectors key on, mirroring real import thunks.
fn encode_program<R: Rng + ?Sized>(instrs: &[Instr], rng: &mut R) -> Vec<u8> {
    let mut out = Vec::with_capacity(instrs.len() * mpass_vm::INSTR_SIZE);
    for i in instrs {
        let mut bytes = i.encode();
        if !matches!(i, Instr::CallApi(_)) {
            for (j, free) in i.dont_care_mask().iter().enumerate() {
                if *free {
                    bytes[j] = rng.gen();
                }
            }
        }
        out.extend_from_slice(&bytes);
    }
    out
}

/// Imports virtually every Windows program declares.
const COMMON_IMPORTS: &[(&str, &[&str])] = &[
    ("KERNEL32.dll", &[
        "CreateFileW", "ReadFile", "WriteFile", "CloseHandle", "GetLastError",
        "HeapAlloc", "HeapFree", "GetModuleHandleW", "ExitProcess",
    ]),
    ("USER32.dll", &["MessageBoxW", "LoadStringW", "GetSystemMetrics"]),
    ("ADVAPI32.dll", &["RegOpenKeyExW", "RegQueryValueExW", "RegCloseKey"]),
];

/// Dual-use imports: common in malware, but also in debuggers, backup
/// tools and AV software itself — a deliberately *weak* signal, matching
/// the paper's footnote 5 ("import tables ... their effect on attacks is
/// negligible").
const DUAL_USE_IMPORTS: &[&str] =
    &["VirtualAllocEx", "WriteProcessMemory", "CreateRemoteThread", "AdjustTokenPrivileges"];

/// Stamp a realistic import table onto a freshly built sample.
fn stamp_imports<R: Rng + ?Sized>(pe: &mut PeFile, malicious: bool, rng: &mut R) {
    let mut table = ImportTable::new();
    for (dll, funcs) in COMMON_IMPORTS {
        let take = rng.gen_range(funcs.len() / 2..=funcs.len());
        let entries = funcs
            .iter()
            .take(take)
            .map(|f| ImportEntry::by_name(f))
            .collect();
        table.add(dll, entries);
    }
    // Malware imports dual-use APIs marginally more often than benign
    // software — distributions overlap almost entirely, making the import
    // table the near-signal-free channel the paper's footnote 5 describes
    // ("import tables ... their effect on attacks is negligible").
    let p_dual = if malicious { 0.25 } else { 0.18 };
    if rng.gen_bool(p_dual) {
        let f = DUAL_USE_IMPORTS[rng.gen_range(0..DUAL_USE_IMPORTS.len())];
        table.add("KERNEL32.dll", vec![ImportEntry::by_name(f)]);
    }
    // Best-effort: samples without header slack simply ship without an
    // import directory (packed/stripped binaries do exist).
    let _ = pe.set_imports(&table);
}

/// Generate one malware image.
///
/// Layout: `.text` (program with ≥3 suspicious API calls), `.data`
/// (high-entropy encrypted payload + config bytes the program reads its
/// API arguments from), `.rdata` (hostile strings), `.rsrc`, with odd
/// section names or timestamps for a fraction of samples.
pub fn generate_malware_pe<R: Rng + ?Sized>(rng: &mut R, no_slack: bool) -> PeFile {
    let data_len = rng.gen_range(1024..3072usize);
    // Code is first at TEXT_RVA; data section RVA depends on code size, so
    // compute the program first against a provisional RVA, then rebuild
    // with the real one (two-pass layout).
    let spec = BehaviorSpec::malicious(
        rng.gen_range(3..8),
        rng.gen_range(1..5),
        0, // provisional; patched below
        data_len as u32,
        rng,
    );
    let prog_seed: u64 = rng.gen();
    let provisional = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code_len = provisional.len() * mpass_vm::INSTR_SIZE;
    let data_rva = TEXT_RVA
        + ((code_len as u32).div_ceil(mpass_pe::DEFAULT_SECTION_ALIGNMENT)
            * mpass_pe::DEFAULT_SECTION_ALIGNMENT)
            .max(mpass_pe::DEFAULT_SECTION_ALIGNMENT);
    let spec = BehaviorSpec { data_rva, ..spec };
    let program = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code = encode_program(&program, rng);

    // Two malware morphologies, as in real corpora:
    //  * payload carriers (~60 %): encrypted payload + hostile
    //    configuration strings in the data section — data-borne signal;
    //  * droppers/downloaders (~40 %): unremarkable data sections — their
    //    *code* (suspicious API invocations) is the only static giveaway.
    // Without the second kind, detectors never need the code channel and
    // PEM could not reproduce the paper's "code is top-1" finding.
    let carrier = rng.gen_bool(0.85);
    let mut data = if carrier {
        encrypted_payload(data_len, rng)
    } else {
        structured_data(data_len, rng)
    };
    // Plant a few readable config bytes at the positions the program reads.
    for (i, b) in data.iter_mut().enumerate().take(64) {
        if i % 7 == 3 {
            *b = 0x40 + (i as u8 % 26);
        }
    }
    if carrier {
        // Hostile configuration strings (C2 URLs, ransom notes,
        // persistence keys) live in the *data* section — where PEM says
        // the malicious features are and where MPass's encoding reaches.
        let strings =
            strings_block(&hostile_strings(rng), 256.min(data_len.saturating_sub(96)));
        let at = 64;
        data[at..at + strings.len()].copy_from_slice(&strings);
    }
    let rdata = string_table(NEUTRAL_STRINGS, rng.gen_range(256..1024), rng);
    // Resources are mostly mundane (icons, manifests) even in malware;
    // keeping them structured leaves the discriminative signal in code and
    // data, where the paper locates it.
    let rsrc = structured_data(rng.gen_range(512..3072), rng);

    let mut b = PeBuilder::new();
    if no_slack {
        b.set_header_slack(0);
    }
    // Section naming and timestamps follow the same distribution as
    // benign software: in a multi-family corpus those header fields are
    // not class-correlated, and leaving them correlated here would hand
    // byte-level models a header shortcut that hides the code signal PEM
    // is supposed to surface (headers are not a section and never appear
    // in Eq. 1's attribution).
    let text_name = if rng.gen_bool(0.05) { ODD_NAMES[rng.gen_range(0..ODD_NAMES.len())] } else { ".text" };
    b.add_section(text_name, code, SectionFlags::CODE).expect("code section");
    b.add_section(".data", data, SectionFlags::DATA).expect("data section");
    b.add_section(".rdata", rdata, SectionFlags::RDATA).expect("rdata section");
    b.add_section(".rsrc", rsrc, SectionFlags::RSRC).expect("rsrc section");
    if rng.gen_bool(0.5) {
        // Half of malware keeps relocations; the rest ship stripped.
        let reloc = structured_data(rng.gen_range(128..512), rng);
        b.add_section(".reloc", reloc, SectionFlags::RDATA).expect("reloc section");
    }
    b.set_entry_section(text_name, 0).expect("entry");
    b.set_timestamp(rng.gen_range(0x5000_0000..0x6400_0000));
    let mut pe = b.build().expect("malware build");
    stamp_imports(&mut pe, true, rng);
    pe.update_checksum();
    if no_slack {
        // Emulate images whose section table exactly fills the header
        // region (the case where the paper's attack cannot create a new
        // section and falls back to overlay appending): keep appending tiny
        // filler sections until the alignment padding is consumed.
        let mut i = 0;
        while pe.can_add_section() && i < 32 {
            let data = structured_data(rng.gen_range(16..64), rng);
            pe.add_section(&format!(".fil{i}"), data, SectionFlags::RDATA)
                .expect("filler section");
            i += 1;
        }
        pe.update_checksum();
    }
    debug_assert_eq!(
        pe.section(".data").unwrap().header().virtual_address,
        data_rva,
        "two-pass layout mismatch"
    );
    pe
}

/// Generate one benign image: benign program, structured low-entropy data,
/// friendly strings, larger resources, a `.reloc` section and sane
/// timestamps.
pub fn generate_benign_pe<R: Rng + ?Sized>(rng: &mut R) -> PeFile {
    let data_len = rng.gen_range(1024..3072usize);
    let spec = BehaviorSpec::benign(rng.gen_range(3..9), 0, data_len as u32, rng);
    let prog_seed: u64 = rng.gen();
    let provisional = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code_len = provisional.len() * mpass_vm::INSTR_SIZE;
    let data_rva = TEXT_RVA
        + ((code_len as u32).div_ceil(mpass_pe::DEFAULT_SECTION_ALIGNMENT)
            * mpass_pe::DEFAULT_SECTION_ALIGNMENT)
            .max(mpass_pe::DEFAULT_SECTION_ALIGNMENT);
    let spec = BehaviorSpec { data_rva, ..spec };
    let program = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code = encode_program(&program, rng);

    // A third of benign programs ship compressed/encrypted assets in
    // their data section (installers, games, DRM-protected apps): data
    // entropy alone must not separate the classes, otherwise detectors
    // would never need the code-section signal the paper's PEM finds
    // dominant.
    let mut data = if rng.gen_bool(0.33) {
        encrypted_payload(data_len, rng)
    } else {
        structured_data(data_len, rng)
    };
    // Benign programs read their runtime configuration from the same
    // leading data-section bytes malware does — the layout convention is a
    // property of the (shared) toolchain, not of the class.
    for (i, b) in data.iter_mut().enumerate().take(64) {
        if i % 7 == 3 {
            *b = 0x40 + (i as u8 % 26);
        }
    }
    // Benign software keeps configuration strings in its data section too.
    let strings = strings_block(&benign_config_strings(rng), 256.min(data_len.saturating_sub(96)));
    if data_len > 96 + strings.len() {
        data[64..64 + strings.len()].copy_from_slice(&strings);
    }
    let rdata = string_table(NEUTRAL_STRINGS, rng.gen_range(256..1024), rng);
    let rsrc = structured_data(rng.gen_range(512..3072), rng);
    let reloc = structured_data(rng.gen_range(128..512), rng);

    let mut b = PeBuilder::new();
    b.add_section(".text", code, SectionFlags::CODE).expect("code section");
    b.add_section(".data", data, SectionFlags::DATA).expect("data section");
    b.add_section(".rdata", rdata, SectionFlags::RDATA).expect("rdata section");
    b.add_section(".rsrc", rsrc, SectionFlags::RSRC).expect("rsrc section");
    b.add_section(".reloc", reloc, SectionFlags::RDATA).expect("reloc section");
    b.set_entry_section(".text", 0).expect("entry");
    b.set_timestamp(rng.gen_range(0x5000_0000..0x6400_0000));
    let mut pe = b.build().expect("benign build");
    stamp_imports(&mut pe, false, rng);
    pe.update_checksum();
    pe
}

/// Dylibs virtually every macOS program links.
const COMMON_DYLIBS: &[&str] =
    &["/usr/lib/libSystem.B.dylib", "/usr/lib/libc++.1.dylib", "/usr/lib/libobjc.A.dylib"];

/// Dual-use dylib analogue of [`DUAL_USE_IMPORTS`]: process inspection is
/// common in malware *and* in profilers/monitors — a weak signal by design.
const DUAL_USE_DYLIB: &str = "/usr/lib/libproc.dylib";

/// Mach-O section names a small fraction of malware invents, the analogue
/// of [`ODD_NAMES`].
const MACHO_ODD_NAMES: &[&str] = &["__xpk1", "__enc0", "__vmp0", "__x9", "__krn0"];

/// Mach-O images map their first section at this address (the builder's
/// small base keeps flat loader mappings proportional to content size).
const MACHO_TEXT_VA: u32 = 0x1000;

/// Mach-O segments are page aligned; the section after `code_len` bytes of
/// text lands here. Mirrors the PE two-pass layout computation.
fn macho_data_va(code_len: usize) -> u32 {
    MACHO_TEXT_VA + (code_len as u32).div_ceil(0x1000).max(1) * 0x1000
}

/// Link a realistic dylib set onto a builder; the Mach-O twin of
/// [`stamp_imports`].
fn stamp_dylibs<R: Rng + ?Sized>(b: &mut MachoBuilder, malicious: bool, rng: &mut R) {
    let take = rng.gen_range(COMMON_DYLIBS.len().div_ceil(2)..=COMMON_DYLIBS.len());
    for dylib in COMMON_DYLIBS.iter().take(take) {
        b.add_dylib(dylib, rng.gen_range(0x5000_0000..0x6400_0000));
    }
    let p_dual = if malicious { 0.25 } else { 0.18 };
    if rng.gen_bool(p_dual) {
        b.add_dylib(DUAL_USE_DYLIB, rng.gen_range(0x5000_0000..0x6400_0000));
    }
}

/// Generate one Mach-O malware image: same program synthesis, morphology
/// mix and string planting as [`generate_malware_pe`], expressed in Mach-O
/// sections (`__text`/`__data`/`__const`).
pub fn generate_malware_macho<R: Rng + ?Sized>(rng: &mut R, no_slack: bool) -> MachoFile {
    let data_len = rng.gen_range(1024..3072usize);
    let spec = BehaviorSpec::malicious(
        rng.gen_range(3..8),
        rng.gen_range(1..5),
        0, // provisional; patched below
        data_len as u32,
        rng,
    );
    let prog_seed: u64 = rng.gen();
    let provisional = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code_len = provisional.len() * mpass_vm::INSTR_SIZE;
    let spec = BehaviorSpec { data_rva: macho_data_va(code_len), ..spec };
    let program = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code = encode_program(&program, rng);

    let carrier = rng.gen_bool(0.85);
    let mut data = if carrier {
        encrypted_payload(data_len, rng)
    } else {
        structured_data(data_len, rng)
    };
    for (i, b) in data.iter_mut().enumerate().take(64) {
        if i % 7 == 3 {
            *b = 0x40 + (i as u8 % 26);
        }
    }
    if carrier {
        let strings = strings_block(&hostile_strings(rng), 256.min(data_len.saturating_sub(96)));
        let at = 64;
        data[at..at + strings.len()].copy_from_slice(&strings);
    }
    let rodata = string_table(NEUTRAL_STRINGS, rng.gen_range(256..1024), rng);

    let mut b = MachoBuilder::new();
    if no_slack {
        b.set_header_slack(0);
    }
    let text_name = if rng.gen_bool(0.05) {
        MACHO_ODD_NAMES[rng.gen_range(0..MACHO_ODD_NAMES.len())]
    } else {
        "__text"
    };
    b.add_section(text_name, &code, SectionKind::Code)
        .add_section("__data", &data, SectionKind::Data)
        .add_section("__const", &rodata, SectionKind::ReadOnlyData);
    // Half of malware keeps a literal pool like benign builds; the rest
    // ship stripped (the Mach-O twin of the PE `.reloc` convention). A
    // class-correlated section list would be a load-command shortcut that
    // byte-level models mine instead of the code/data signal — and one
    // the attack's modification engine could never erase.
    if rng.gen_bool(0.5) {
        let cstrings = string_table(NEUTRAL_STRINGS, rng.gen_range(128..512), rng);
        b.add_section("__cstring", &cstrings, SectionKind::ReadOnlyData);
    }
    stamp_dylibs(&mut b, true, rng);
    if rng.gen_bool(0.2) {
        b.set_entry_style(EntryStyle::UnixThread);
    }
    b.set_entry_section(text_name, 0);
    let macho = b.build().expect("macho malware build");
    debug_assert_eq!(
        macho.sections().nth(1).map(|s| s.addr),
        Some(u64::from(spec.data_rva)),
        "two-pass mach-o layout mismatch"
    );
    macho
}

/// Generate one Mach-O benign image, mirroring [`generate_benign_pe`].
pub fn generate_benign_macho<R: Rng + ?Sized>(rng: &mut R) -> MachoFile {
    let data_len = rng.gen_range(1024..3072usize);
    let spec = BehaviorSpec::benign(rng.gen_range(3..9), 0, data_len as u32, rng);
    let prog_seed: u64 = rng.gen();
    let provisional = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code_len = provisional.len() * mpass_vm::INSTR_SIZE;
    let spec = BehaviorSpec { data_rva: macho_data_va(code_len), ..spec };
    let program = {
        let mut prng = ChaCha8Rng::seed_from_u64(prog_seed);
        synthesize_program(&spec, &mut prng)
    };
    let code = encode_program(&program, rng);

    let mut data = if rng.gen_bool(0.33) {
        encrypted_payload(data_len, rng)
    } else {
        structured_data(data_len, rng)
    };
    for (i, b) in data.iter_mut().enumerate().take(64) {
        if i % 7 == 3 {
            *b = 0x40 + (i as u8 % 26);
        }
    }
    let strings = strings_block(&benign_config_strings(rng), 256.min(data_len.saturating_sub(96)));
    if data_len > 96 + strings.len() {
        data[64..64 + strings.len()].copy_from_slice(&strings);
    }
    let rodata = string_table(NEUTRAL_STRINGS, rng.gen_range(256..1024), rng);
    let cstrings = string_table(NEUTRAL_STRINGS, rng.gen_range(128..512), rng);

    let mut b = MachoBuilder::new();
    b.add_section("__text", &code, SectionKind::Code)
        .add_section("__data", &data, SectionKind::Data)
        .add_section("__const", &rodata, SectionKind::ReadOnlyData)
        .add_section("__cstring", &cstrings, SectionKind::ReadOnlyData);
    stamp_dylibs(&mut b, false, rng);
    b.set_entry_section("__text", 0);
    b.build().expect("macho benign build")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_vm::Vm;

    fn tiny() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 12,
            n_benign: 12,
            seed: 7,
            no_slack_fraction: 0.25,
        })
    }

    #[test]
    fn corpus_sizes_and_labels() {
        let ds = tiny();
        assert_eq!(ds.samples.len(), 24);
        assert_eq!(ds.malware().len(), 12);
        assert_eq!(ds.benign().len(), 12);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.bytes, y.bytes, "{}", x.name);
        }
    }

    #[test]
    fn every_sample_parses_and_round_trips() {
        for s in tiny().samples {
            let re = mpass_pe::PeFile::parse(&s.bytes).unwrap();
            assert_eq!(re.to_bytes(), s.bytes, "{}", s.name);
        }
    }

    #[test]
    fn malware_behaves_maliciously_and_halts() {
        for s in tiny().malware() {
            let exec = Vm::load_binary(s.pe().unwrap(), mpass_vm::VmLimits::default()).run();
            assert!(exec.completed(), "{}: {:?}", s.name, exec.outcome);
            assert!(exec.suspicious_calls().count() >= 3, "{}", s.name);
        }
    }

    #[test]
    fn benign_behaves_benignly_and_halts() {
        for s in tiny().benign() {
            let exec = Vm::load_binary(s.pe().unwrap(), mpass_vm::VmLimits::default()).run();
            assert!(exec.completed(), "{}: {:?}", s.name, exec.outcome);
            // At most the single dual-use call some benign programs make.
            assert!(exec.suspicious_calls().count() <= 1, "{}", s.name);
        }
    }

    #[test]
    fn malware_morphologies_differ_in_data_entropy() {
        // Payload carriers have near-random data sections; droppers and
        // most benign samples have structured ones. The *maximum* data
        // entropy over malware must therefore be high, while both classes
        // contain low-entropy members (no entropy shortcut).
        let ds = tiny();
        let entropies = |samples: &[&Sample]| -> Vec<f64> {
            samples.iter().map(|s| s.pe().unwrap().section(".data").unwrap().entropy()).collect()
        };
        let mal = entropies(&ds.malware());
        let ben = entropies(&ds.benign());
        // Carriers mix an encrypted payload with a plaintext string block,
        // so ~7 bits/byte; droppers and typical benign data are structured
        // records well below 5.
        assert!(mal.iter().cloned().fold(0.0, f64::max) > 6.8, "no payload carriers");
        assert!(mal.iter().cloned().fold(f64::INFINITY, f64::min) < 5.0, "no droppers");
        assert!(ben.iter().cloned().fold(f64::INFINITY, f64::min) < 5.0);
    }

    #[test]
    fn some_malware_lacks_header_slack() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 40,
            n_benign: 1,
            seed: 3,
            no_slack_fraction: 0.3,
        });
        let blocked = ds.malware().iter().filter(|s| !s.pe().unwrap().can_add_section()).count();
        assert!(blocked > 0, "expected some no-slack samples");
        assert!(blocked < 40, "expected some samples with slack");
    }

    #[test]
    fn split_is_disjoint_and_stratified() {
        let ds = tiny();
        let (train, test) = ds.split(4);
        assert_eq!(train.len() + test.len(), ds.samples.len());
        assert_eq!(test.len(), 6); // every 4th of 12 per class => 3 + 3
        let test_mal = test.iter().filter(|s| s.label == Label::Malware).count();
        assert_eq!(test_mal, 3);
        let train_names: std::collections::HashSet<_> =
            train.iter().map(|s| &s.name).collect();
        assert!(test.iter().all(|s| !train_names.contains(&s.name)));
    }

    #[test]
    fn label_targets() {
        assert_eq!(Label::Malware.target(), 1.0);
        assert_eq!(Label::Benign.target(), 0.0);
    }

    fn mixed() -> Dataset {
        Dataset::generate_mixed(
            &CorpusConfig { n_malware: 12, n_benign: 12, seed: 7, no_slack_fraction: 0.25 },
            0.5,
        )
    }

    #[test]
    fn mixed_zero_fraction_reproduces_pe_corpus() {
        let cfg = CorpusConfig { n_malware: 6, n_benign: 6, seed: 7, no_slack_fraction: 0.25 };
        let pe_only = Dataset::generate(&cfg);
        let mixed = Dataset::generate_mixed(&cfg, 0.0);
        for (a, b) in pe_only.samples.iter().zip(&mixed.samples) {
            assert_eq!(a.bytes, b.bytes, "{}", a.name);
        }
    }

    #[test]
    fn mixed_corpus_contains_both_formats_deterministically() {
        let a = mixed();
        let b = mixed();
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.bytes, y.bytes, "{}", x.name);
        }
        let machos = a.samples.iter().filter(|s| s.format() == Format::MachO).count();
        assert!(machos > 0, "no mach-o samples at 50% fraction");
        assert!(machos < a.samples.len(), "no pe samples at 50% fraction");
    }

    #[test]
    fn macho_samples_parse_and_round_trip() {
        for s in mixed().samples {
            let img = BinaryImage::parse_auto(&s.bytes).unwrap();
            assert_eq!(img.to_bytes(), s.bytes, "{}", s.name);
            assert_eq!(img.format(), s.format(), "{}", s.name);
        }
    }

    #[test]
    fn macho_malware_behaves_maliciously_and_halts() {
        let ds = mixed();
        let mut checked = 0;
        for s in ds.malware() {
            if s.format() != Format::MachO {
                continue;
            }
            let exec = Vm::load_binary(s.image.as_dyn(), mpass_vm::VmLimits::default()).run();
            assert!(exec.completed(), "{}: {:?}", s.name, exec.outcome);
            assert!(exec.suspicious_calls().count() >= 3, "{}", s.name);
            checked += 1;
        }
        assert!(checked > 0, "no mach-o malware generated");
    }

    #[test]
    fn macho_benign_behaves_benignly_and_halts() {
        let ds = mixed();
        for s in ds.benign() {
            if s.format() != Format::MachO {
                continue;
            }
            let exec = Vm::load_binary(s.image.as_dyn(), mpass_vm::VmLimits::default()).run();
            assert!(exec.completed(), "{}: {:?}", s.name, exec.outcome);
            assert!(exec.suspicious_calls().count() <= 1, "{}", s.name);
        }
    }

    #[test]
    fn some_macho_malware_lacks_header_slack() {
        let ds = Dataset::generate_mixed(
            &CorpusConfig { n_malware: 40, n_benign: 1, seed: 3, no_slack_fraction: 0.3 },
            1.0,
        );
        let blocked = ds
            .malware()
            .iter()
            .filter(|s| !s.macho().unwrap().can_add_sections(1))
            .count();
        assert!(blocked > 0, "expected some no-slack mach-o samples");
        assert!(blocked < 40, "expected some mach-o samples with slack");
    }
}
