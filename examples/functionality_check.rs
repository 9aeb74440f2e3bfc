//! Runtime-recovery demo: encode a malware's code and data sections,
//! inject the shuffled recovery stub, and prove in the sandbox that the
//! modified binary still exhibits byte-identical API behaviour.
//!
//! ```sh
//! cargo run --release --example functionality_check
//! ```

use mpass::core::modify::{modify, ModificationConfig};
use mpass::corpus::{BenignPool, CorpusConfig, Dataset};
use mpass::sandbox::Sandbox;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let dataset = Dataset::generate(&CorpusConfig {
        n_malware: 3,
        n_benign: 2,
        seed: 11,
        no_slack_fraction: 0.0,
    });
    let pool = BenignPool::generate(5, 2);
    let sandbox = Sandbox::new();
    let mut rng = ChaCha8Rng::seed_from_u64(1);

    for sample in dataset.malware() {
        let original = sandbox.execute(&sample.bytes).expect("sample parses");
        println!("== {} ==", sample.name);
        println!("original behaviour ({} API calls):", original.trace.len());
        for ev in original.trace.iter().take(6) {
            println!("   {} (arg {:#x})", ev.api, ev.arg);
        }
        if original.trace.len() > 6 {
            println!("   ... {} more", original.trace.len() - 6);
        }

        let modified =
            modify(sample, &pool, &ModificationConfig::default(), &mut rng).expect("modify");
        println!(
            "modified: mode {:?}, {} optimizable positions, size {} -> {} bytes",
            modified.mode,
            modified.position_count(),
            sample.size(),
            modified.bytes.len()
        );
        let after = sandbox.execute(&modified.bytes).expect("AE parses");
        println!("modified behaviour: {} API calls", after.trace.len());
        let verdict = sandbox.verify_functionality(&sample.bytes, &modified.bytes);
        println!("functionality verdict: {verdict}");
        assert!(verdict.is_preserved());

        // Show that the original code bytes are gone from the file yet
        // recovered at runtime.
        use mpass::binary::{BinaryFormat, Loadable};
        let image = modified.reparse().expect("structure intact");
        let entry_section = image
            .section_index_containing_va(image.entry_point())
            .and_then(|i| image.section_meta(i))
            .expect("entry mapped")
            .name;
        println!("entry point now in section {entry_section:?} (the recovery stub)\n");
    }
    println!("all modified samples preserved their behaviour");
}
