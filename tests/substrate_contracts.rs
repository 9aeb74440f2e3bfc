//! Cross-crate substrate contracts: every corpus sample must be a valid,
//! executable PE; structural edits and packers must preserve behaviour.

use mpass::baselines::{benign_packer_profile, packer_profiles, Packer};
use mpass::corpus::{CorpusConfig, Dataset};
use mpass::pe::PeFile;
use mpass::sandbox::Sandbox;

fn dataset() -> Dataset {
    Dataset::generate(&CorpusConfig {
        n_malware: 10,
        n_benign: 10,
        seed: 0x17E5,
        no_slack_fraction: 0.2,
    })
}

#[test]
fn every_sample_parses_round_trips_and_halts() {
    let ds = dataset();
    let sandbox = Sandbox::new();
    for s in &ds.samples {
        let pe = PeFile::parse(&s.bytes).expect("sample parses");
        assert_eq!(pe.to_bytes(), s.bytes, "{} round-trip", s.name);
        let exec = sandbox.run_image(&pe);
        assert!(exec.completed(), "{}: {:?}", s.name, exec.outcome);
        assert!(!exec.trace.is_empty(), "{} has no behaviour", s.name);
    }
}

#[test]
fn malware_and_benign_differ_behaviourally() {
    let ds = dataset();
    let sandbox = Sandbox::new();
    for s in ds.malware() {
        let exec = sandbox.run_image(s.pe().unwrap());
        assert!(exec.suspicious_calls().count() >= 3, "{}", s.name);
    }
    for s in ds.benign() {
        let exec = sandbox.run_image(s.pe().unwrap());
        assert!(exec.suspicious_calls().count() <= 1, "{}", s.name);
    }
}

#[test]
fn all_packers_preserve_functionality_on_all_samples() {
    let ds = dataset();
    let sandbox = Sandbox::new();
    let mut profiles = packer_profiles().to_vec();
    profiles.push(benign_packer_profile());
    for profile in profiles {
        let packer = Packer::new(profile);
        for s in &ds.samples {
            match packer.pack(s.pe().unwrap()) {
                Ok(packed) => {
                    let v = sandbox.verify_functionality(&s.bytes, &packed);
                    assert!(v.is_preserved(), "{} on {}: {v}", profile.name, s.name);
                }
                Err(e) => {
                    // Only acceptable failure: a full section table.
                    assert!(
                        !s.pe().unwrap().can_add_section(),
                        "{} failed on {} with slack available: {e}",
                        profile.name,
                        s.name
                    );
                }
            }
        }
    }
}

#[test]
fn packed_samples_hide_static_api_opcodes() {
    let ds = dataset();
    let packer = Packer::new(packer_profiles()[0]);
    for s in ds.malware() {
        if let Ok(packed) = packer.pack(s.pe().unwrap()) {
            let before = mpass::detectors::features::suspicious_api_count(&s.bytes);
            let after = mpass::detectors::features::suspicious_api_count(&packed);
            assert!(before >= 3, "{}", s.name);
            assert!(after < before, "{}: {after} !< {before}", s.name);
        }
    }
}
