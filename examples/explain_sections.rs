//! PEM demo (§III-B): which PE sections drive detector decisions?
//!
//! Trains the three differentiable detectors, runs the Problem-space
//! Explainability Method over a malware population and prints the
//! per-model section rankings and the common critical sections.
//!
//! ```sh
//! cargo run --release --example explain_sections
//! ```

use mpass::core::pem::{run_pem, PemConfig};
use mpass::corpus::{CorpusConfig, Dataset};
use mpass::detectors::train::training_pairs;
use mpass::detectors::{ByteConvConfig, DetectorExt, MalConv, MalGcg, MalGcgConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let dataset = Dataset::generate(&CorpusConfig {
        n_malware: 40,
        n_benign: 40,
        seed: 3,
        no_slack_fraction: 0.0,
    });
    let samples: Vec<_> = dataset.samples.iter().collect();
    let pairs = training_pairs(&samples);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut malconv = MalConv::new(ByteConvConfig::default(), &mut rng);
    malconv.train(&pairs, 5, 5e-3, &mut rng);
    let mut nonneg = MalConv::nonneg(ByteConvConfig::default(), &mut rng);
    nonneg.train(&pairs, 10, 5e-3, &mut rng);
    let mut malgcg = MalGcg::new(MalGcgConfig::default(), &mut rng);
    malgcg.train(&pairs, 5, 5e-3, &mut rng);

    let population: Vec<_> = dataset.malware().into_iter().take(16).collect();
    let models: Vec<(&str, &dyn DetectorExt)> =
        vec![("MalConv", &malconv), ("NonNeg", &nonneg), ("MalGCG", &malgcg)];
    let report = run_pem(&models, &population, &PemConfig::default());

    println!("Shapley-value section ranking (average over {} malware):", population.len());
    for m in &report.per_model {
        println!("  model {}:", m.model);
        for (kind, phi) in &m.ranking {
            println!("    {kind:<10} φ = {phi:+.4}");
        }
        if let Some(r) = m.top2_over_top3() {
            println!("    top-2 / top-3 ratio: {r:.2}x");
        }
    }
    println!(
        "common critical sections (S̃ = ∩ per-model top-k): {:?}",
        report.common_critical.iter().map(|k| k.to_string()).collect::<Vec<_>>()
    );
}
