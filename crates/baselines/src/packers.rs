//! Simulated packers/protectors for the Table IV comparison: UPX, PESpin
//! and ASPack.
//!
//! Each profile keystream-encodes every section behind a *fixed* decode
//! stub laid out sequentially (real packers ship one stub per version),
//! with the packer's characteristic section name and marker bytes. That
//! fixed, detector-visible structure — plus the entry point landing in the
//! stub section and the uniformly high entropy — is exactly why generic
//! obfuscation underperforms a detector-aware attack in the paper.

use mpass_core::recovery::{compute_keys, generate_recovery_stub, EncodedRegion};
use mpass_core::shuffle::layout_sequential;
use mpass_core::{Attack, AttackOutcome, HardLabelTarget};
use mpass_corpus::Sample;
use mpass_detectors::Verdict;
use mpass_pe::{PeError, PeFile, SectionFlags};
use serde::{Deserialize, Serialize};

/// Static identity of one simulated packer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackerProfile {
    /// Display name.
    pub name: &'static str,
    /// Name given to the stub section.
    pub section_name: &'static str,
    /// Characteristic marker bytes embedded before the stub.
    pub marker: &'static [u8],
    /// Fixed keystream seed (the packer's "encryption key schedule").
    pub keystream_seed: u64,
}

/// A packer profile typical of *benign* software distribution
/// (installer self-extractors). Worlds pack a fraction of their benign
/// corpus with it so detectors learn that packing artifacts alone are not
/// malice — mirroring the packed goodware in EMBER-scale training sets
/// ("When malware is packin' heat", NDSS 2020).
pub fn benign_packer_profile() -> PackerProfile {
    PackerProfile {
        name: "InstallPak",
        section_name: ".ipack",
        marker: b"InstallPak SFX v3.1 (c) Contoso Deployment Tools\x00",
        keystream_seed: 0x4950_414B,
    }
}

/// The three obfuscators of Table IV.
pub fn packer_profiles() -> [PackerProfile; 3] {
    [
        PackerProfile {
            name: "UPX",
            section_name: "UPX1",
            marker: b"UPX!4.02\x00\x00$Info: This file is packed with the UPX executable packer$\x00",
            keystream_seed: 0x5550_5801,
        },
        PackerProfile {
            name: "PESpin",
            section_name: ".pespin",
            marker: b"PESpin v1.33 protected\x00\x00(c) cyberbob\x00",
            keystream_seed: 0x5045_5350,
        },
        PackerProfile {
            name: "ASPack",
            section_name: ".aspack",
            marker: b".aspack\x00.adata\x00ASPack 2.12\x00",
            keystream_seed: 0x4153_5041,
        },
    ]
}

/// A simulated packer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packer {
    profile: PackerProfile,
}

impl Packer {
    /// Build a packer from a profile.
    pub fn new(profile: PackerProfile) -> Packer {
        Packer { profile }
    }

    /// The packer's profile.
    pub fn profile(&self) -> &PackerProfile {
        &self.profile
    }

    /// Deterministic keystream bytes (fixed per packer, independent of the
    /// input — the learnable weakness).
    fn keystream(&self, len: usize) -> Vec<u8> {
        let mut state = self.profile.keystream_seed as u32 ^ 0xA5A5_5A5A;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    /// Pack a PE: encode all non-empty sections, add the stub section,
    /// retarget the entry point.
    ///
    /// # Errors
    ///
    /// Returns [`PeError::NoHeaderSpace`] when the image cannot take
    /// another section (packers fail on such inputs).
    pub fn pack(&self, pe: &PeFile) -> Result<Vec<u8>, PeError> {
        let mut pe = pe.clone();
        let original_entry = pe.entry_point();
        if !pe.can_add_section() {
            return Err(PeError::NoHeaderSpace);
        }
        let new_rva = pe.next_free_rva();
        let marker = self.profile.marker;
        // Layout of the stub section: [marker][keys][stub].
        let mut regions = Vec::new();
        let mut keys_blob: Vec<u8> = Vec::new();
        let section_count = pe.sections().len();
        for i in 0..section_count {
            let (rva, original) = {
                let s = &pe.sections()[i];
                if s.data().is_empty() {
                    continue;
                }
                (s.header().virtual_address, s.data().to_vec())
            };
            let cover = self.keystream(original.len());
            let keys = compute_keys(&original, &cover);
            regions.push(EncodedRegion {
                rva,
                len: original.len() as u32,
                key_rva: new_rva + (marker.len() + keys_blob.len()) as u32,
            });
            keys_blob.extend_from_slice(&keys);
            pe.sections_mut()[i].data_mut().copy_from_slice(&cover);
        }
        let stub_base = new_rva + (marker.len() + keys_blob.len()) as u32;
        let stub = generate_recovery_stub(&regions, original_entry);
        let stub_bytes = layout_sequential(&stub, stub_base);
        let mut content = marker.to_vec();
        content.extend_from_slice(&keys_blob);
        content.extend_from_slice(&stub_bytes);
        pe.add_section(self.profile.section_name, content, SectionFlags::CODE)?;
        pe.set_entry_point(stub_base)?;
        pe.update_checksum();
        Ok(pe.to_bytes())
    }
}

impl Attack for Packer {
    fn name(&self) -> &str {
        self.profile.name
    }

    /// Packing is a pure function of the input bytes; no state carries
    /// across samples, so per-sample journal replay is sound.
    fn stateful_across_samples(&self) -> bool {
        false
    }

    /// Packers are one-shot transformations: a single query decides.
    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome {
        let original_size = sample.size();
        // PE-only baseline: non-PE containers fail to pack.
        match sample.pe().ok_or(()).and_then(|pe| self.pack(pe).map_err(|_| ())) {
            Ok(bytes) => {
                if target.query(&bytes).is_ok_and(Verdict::is_benign) {
                    AttackOutcome::evaded(sample, target.queries(), bytes, original_size)
                } else {
                    AttackOutcome::failed(sample, target.queries(), original_size, bytes.len())
                }
            }
            Err(_) => AttackOutcome::failed(sample, target.queries(), original_size, original_size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_sandbox::Sandbox;

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 6,
            n_benign: 2,
            seed: 101,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn packing_preserves_functionality() {
        let ds = dataset();
        let sandbox = Sandbox::new();
        for profile in packer_profiles() {
            let packer = Packer::new(profile);
            for s in ds.malware().into_iter().take(3) {
                let packed = packer.pack(s.pe().unwrap()).unwrap();
                let v = sandbox.verify_functionality(&s.bytes, &packed);
                assert!(v.is_preserved(), "{} on {}: {v}", profile.name, s.name);
            }
        }
    }

    #[test]
    fn packed_sections_are_high_entropy() {
        let ds = dataset();
        let packer = Packer::new(packer_profiles()[0]);
        let s = ds.malware()[0];
        let packed = PeFile::parse(&packer.pack(s.pe().unwrap()).unwrap()).unwrap();
        let text = packed
            .sections()
            .iter()
            .find(|x| x.name() == s.pe().unwrap().sections()[0].name())
            .unwrap();
        assert!(text.entropy() > 7.0, "entropy {}", text.entropy());
    }

    #[test]
    fn marker_and_section_name_present() {
        let ds = dataset();
        for profile in packer_profiles() {
            let packer = Packer::new(profile);
            let packed = packer.pack(ds.malware()[0].pe().unwrap()).unwrap();
            let pe = PeFile::parse(&packed).unwrap();
            assert!(pe.section(profile.section_name).is_some(), "{}", profile.name);
            let found = packed
                .windows(profile.marker.len().min(12))
                .any(|w| w == &profile.marker[..profile.marker.len().min(12)]);
            assert!(found, "{} marker missing", profile.name);
        }
    }

    #[test]
    fn packed_output_is_identical_in_structure_across_samples() {
        // The stub bytes (fixed layout + fixed keystream) must repeat
        // across samples: extract the stub section contents' tail (stub
        // code) and compare.
        let ds = dataset();
        let packer = Packer::new(packer_profiles()[1]);
        let a = packer.pack(ds.malware()[0].pe().unwrap()).unwrap();
        let b = packer.pack(ds.malware()[1].pe().unwrap()).unwrap();
        let grams: std::collections::HashSet<&[u8]> = a.windows(12).collect();
        let shared = b.windows(12).filter(|w| grams.contains(w)).count();
        assert!(shared > 50, "only {shared} shared 12-grams between packed outputs");
    }

    #[test]
    fn entry_point_moves_to_stub_section() {
        let ds = dataset();
        let packer = Packer::new(packer_profiles()[2]);
        let packed = PeFile::parse(&packer.pack(ds.malware()[0].pe().unwrap()).unwrap()).unwrap();
        let entry_sec = packed.section_containing_rva(packed.entry_point()).unwrap();
        assert_eq!(entry_sec.name(), packer.profile().section_name);
    }
}
