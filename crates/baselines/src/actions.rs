//! The shared PE-manipulation action set of the append/header baselines.
//!
//! RLA and MAB both act on a malware file through a discrete action set
//! drawn from the literature: append to the overlay, add a benign section,
//! rename sections, rewrite the timestamp, bump the image version. None of
//! these touch code or data sections — the structural limitation the paper
//! identifies in all existing attacks.
//!
//! Payload-carrying actions pull from a [`ActionLibrary`]: a *fixed* set
//! of benign chunks harvested once when the attack is constructed (the
//! real tools ship static payload corpora). Fixed payloads reused across
//! all generated AEs are what AV n-gram learning latches onto in Fig. 4.

use mpass_corpus::BenignPool;
use mpass_pe::{ImportEntry, PeFile, SectionFlags};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One manipulation action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PeAction {
    /// Append library payload `i` to the overlay.
    AppendOverlay(usize),
    /// Add a new section holding library payload `i` (falls back to
    /// overlay when the section table is full).
    AddSection(usize),
    /// Rename the first renameable section to a benign-looking name.
    RenameSection,
    /// Rewrite the COFF timestamp.
    SetTimestamp,
    /// Rewrite the image-version fields.
    SetImageVersion,
    /// Append a set of innocuous imports (common library functions) to the
    /// import table — a classic gym-malware manipulation.
    AddBenignImports,
    /// In-place keystream "packing" of one randomly chosen section
    /// *without* installing recovery (RLA's hazardous action: evades well
    /// but corrupts execution whenever the packed section is actually used
    /// at runtime).
    UnsafePackSection,
}

/// Imports the `AddBenignImports` action pads with.
const BENIGN_IMPORT_PAD: &[(&str, &[&str])] = &[
    ("SHELL32.dll", &["ShellExecuteW", "SHGetFolderPathW"]),
    ("GDI32.dll", &["CreateFontW", "TextOutW", "DeleteObject"]),
    ("OLE32.dll", &["CoInitialize", "CoCreateInstance"]),
];

/// Fixed library of benign payload chunks plus the action vocabulary.
#[derive(Debug, Clone)]
pub struct ActionLibrary {
    payloads: Vec<Vec<u8>>,
    include_unsafe: bool,
}

const RENAME_POOL: &[&str] = &[".textbss", ".didat", ".gfids", ".00cfg"];

impl ActionLibrary {
    /// Harvest `n_payloads` chunks of `payload_len` bytes from the benign
    /// pool, deterministically from `seed`.
    pub fn harvest(
        pool: &BenignPool,
        n_payloads: usize,
        payload_len: usize,
        seed: u64,
        include_unsafe: bool,
    ) -> ActionLibrary {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let payloads =
            (0..n_payloads).map(|_| pool.random_chunk(payload_len, &mut rng)).collect();
        ActionLibrary { payloads, include_unsafe }
    }

    /// The action vocabulary this library supports.
    pub fn action_space(&self) -> Vec<PeAction> {
        let mut actions = Vec::new();
        for i in 0..self.payloads.len() {
            actions.push(PeAction::AppendOverlay(i));
            actions.push(PeAction::AddSection(i));
        }
        actions.push(PeAction::RenameSection);
        actions.push(PeAction::SetTimestamp);
        actions.push(PeAction::SetImageVersion);
        actions.push(PeAction::AddBenignImports);
        if self.include_unsafe {
            actions.push(PeAction::UnsafePackSection);
        }
        actions
    }

    /// Apply `action` to `pe`. Actions are best-effort: inapplicable
    /// actions (duplicate names, full section table) degrade to their
    /// nearest applicable effect rather than failing, matching how the
    /// original tools behave.
    pub fn apply<R: Rng + ?Sized>(&self, pe: &mut PeFile, action: PeAction, rng: &mut R) {
        match action {
            PeAction::AppendOverlay(i) => {
                pe.append_overlay(&self.payloads[i % self.payloads.len()]);
            }
            PeAction::AddSection(i) => {
                let payload = &self.payloads[i % self.payloads.len()];
                let name = format!(".ax{}", rng.gen_range(0..100));
                if pe.section(&name).is_some()
                    || pe.add_section(&name, payload.clone(), SectionFlags::RDATA).is_err()
                {
                    pe.append_overlay(payload);
                }
            }
            PeAction::RenameSection => {
                let target = pe
                    .sections()
                    .iter()
                    .map(|s| s.name())
                    .find(|n| !RENAME_POOL.contains(&n.as_str()));
                if let Some(old) = target {
                    let new = RENAME_POOL[rng.gen_range(0..RENAME_POOL.len())];
                    let _ = pe.rename_section(&old, new);
                }
            }
            PeAction::SetTimestamp => {
                pe.set_timestamp(rng.gen_range(0x3500_0000..0x6400_0000));
            }
            PeAction::SetImageVersion => {
                pe.set_image_version(rng.gen_range(1..15), rng.gen_range(0..9999));
            }
            PeAction::AddBenignImports => {
                let mut table = pe.imports().ok().flatten().unwrap_or_default();
                let (dll, funcs) = BENIGN_IMPORT_PAD[rng.gen_range(0..BENIGN_IMPORT_PAD.len())];
                table.add(
                    dll,
                    funcs.iter().map(|f| ImportEntry::by_name(f)).collect(),
                );
                // Best-effort like the rest of the action set: images
                // without header slack keep their old table.
                let _ = pe.set_imports(&table);
            }
            PeAction::UnsafePackSection => {
                // gym-malware's section manipulations avoid the obvious
                // suicide of rewriting the entry section, but pack data /
                // read-only / resource sections indiscriminately — data
                // sections read at runtime are what breaks.
                let entry = pe.section_index_containing_rva(pe.entry_point());
                let candidates: Vec<usize> = (0..pe.sections().len())
                    .filter(|&i| Some(i) != entry)
                    .collect();
                if candidates.is_empty() {
                    return;
                }
                let idx = candidates[rng.gen_range(0..candidates.len())];
                let mut state: u32 = 0x1234_5678 ^ (idx as u32).wrapping_mul(0x9E37);
                let sec = &mut pe.sections_mut()[idx];
                for b in sec.data_mut().iter_mut() {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    *b ^= (state >> 24) as u8;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_sandbox::Sandbox;

    fn world() -> (Dataset, ActionLibrary) {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 4,
            n_benign: 2,
            seed: 61,
            no_slack_fraction: 0.0,
        });
        let pool = BenignPool::generate(3, 5);
        let lib = ActionLibrary::harvest(&pool, 4, 512, 9, true);
        (ds, lib)
    }

    #[test]
    fn action_space_enumerates() {
        let (_, lib) = world();
        let space = lib.action_space();
        assert_eq!(space.len(), 4 * 2 + 4 + 1);
    }

    #[test]
    fn safe_actions_preserve_functionality() {
        let (ds, lib) = world();
        let sandbox = Sandbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for s in ds.malware() {
            let mut pe = s.pe().unwrap().clone();
            for action in lib.action_space() {
                if action == PeAction::UnsafePackSection {
                    continue;
                }
                lib.apply(&mut pe, action, &mut rng);
            }
            pe.update_checksum();
            let v = sandbox.verify_functionality(&s.bytes, &pe.to_bytes());
            assert!(v.is_preserved(), "{}: {v}", s.name);
        }
    }

    #[test]
    fn unsafe_pack_sometimes_breaks() {
        let (ds, lib) = world();
        let sandbox = Sandbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut broken = 0;
        let mut total = 0;
        for s in ds.malware() {
            for _ in 0..6 {
                let mut pe = s.pe().unwrap().clone();
                lib.apply(&mut pe, PeAction::UnsafePackSection, &mut rng);
                total += 1;
                if !sandbox.verify_functionality(&s.bytes, &pe.to_bytes()).is_preserved() {
                    broken += 1;
                }
            }
        }
        assert!(broken > 0, "unsafe packing never broke anything ({total} trials)");
        assert!(broken < total, "unsafe packing always broke ({broken}/{total})");
    }

    #[test]
    fn payloads_are_fixed_across_instances() {
        let pool = BenignPool::generate(3, 5);
        let a = ActionLibrary::harvest(&pool, 4, 512, 9, false);
        let b = ActionLibrary::harvest(&pool, 4, 512, 9, false);
        assert_eq!(a.payloads, b.payloads, "library must be deterministic per seed");
    }

    #[test]
    fn modified_files_still_parse() {
        let (ds, lib) = world();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let s = &ds.samples[0];
        let mut pe = s.pe().unwrap().clone();
        for _ in 0..10 {
            let space = lib.action_space();
            let action = space[rng.gen_range(0..space.len())];
            lib.apply(&mut pe, action, &mut rng);
        }
        let bytes = pe.to_bytes();
        assert!(PeFile::parse(&bytes).is_ok());
    }
}
