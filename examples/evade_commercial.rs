//! Attack a simulated commercial ML AV (ensemble + packer heuristics +
//! signature store) with MPass and with the MAB baseline, then let the AV
//! run a weekly learning update and watch which attack's AEs survive.
//!
//! ```sh
//! cargo run --release --example evade_commercial
//! ```

use mpass::baselines::{Mab, MabConfig};
use mpass::core::{Attack, HardLabelTarget, MPassAttack, MPassConfig};
use mpass::corpus::{BenignPool, CorpusConfig, Dataset};
use mpass::detectors::commercial::default_profiles;
use mpass::detectors::train::{training_pairs, TrainingSet};
use mpass::detectors::{ByteConvConfig, CommercialAv, Detector, MalConv, MalGcg, MalGcgConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let dataset = Dataset::generate(&CorpusConfig {
        n_malware: 40,
        n_benign: 40,
        seed: 9,
        no_slack_fraction: 0.1,
    });
    let samples: Vec<_> = dataset.samples.iter().collect();
    let pairs = training_pairs(&samples);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut malconv = MalConv::new(ByteConvConfig::default(), &mut rng);
    malconv.train(&pairs, 5, 5e-3, &mut rng);
    let mut nonneg = MalConv::nonneg(ByteConvConfig::default(), &mut rng);
    nonneg.train(&pairs, 10, 5e-3, &mut rng);
    let mut malgcg = MalGcg::new(MalGcgConfig::default(), &mut rng);
    malgcg.train(&pairs, 5, 5e-3, &mut rng);

    let av = CommercialAv::train(default_profiles().remove(2), &TrainingSet::new(&samples));
    println!("target: {} (threshold {})", av.name(), av.threshold());

    let pool = BenignPool::generate(10, 3);
    let mut mpass = MPassAttack::new(
        vec![&malconv, &nonneg, &malgcg],
        &pool,
        MPassConfig::builder().seed(9).build().expect("default MPass config is valid"),
    );
    let mut mab = Mab::new(&pool, MabConfig::default());

    let mut mpass_aes: Vec<Vec<u8>> = Vec::new();
    let mut mab_aes: Vec<Vec<u8>> = Vec::new();
    let mut attacked = 0;
    for sample in dataset.malware() {
        if !av.classify(&sample.bytes).is_malicious() {
            continue;
        }
        attacked += 1;
        if attacked > 15 {
            break;
        }
        let mut oracle = HardLabelTarget::new(&av, 100);
        if let Some(ae) = mpass.attack(sample, &mut oracle).adversarial {
            mpass_aes.push(ae);
        }
        let mut oracle = HardLabelTarget::new(&av, 100);
        if let Some(ae) = mab.attack(sample, &mut oracle).adversarial {
            mab_aes.push(ae);
        }
    }
    let n = attacked.min(15);
    println!("MPass evaded {}/{n}; MAB evaded {}/{n}", mpass_aes.len(), mab_aes.len());

    // Weekly learning update: the AV mines shared n-grams from submissions.
    for (name, aes) in [("MPass", &mpass_aes), ("MAB", &mab_aes)] {
        if aes.is_empty() {
            continue;
        }
        let mut updated = av.clone();
        let subs: Vec<&[u8]> = aes.iter().map(|v| v.as_slice()).collect();
        let added = updated.weekly_update(&subs);
        let still = aes.iter().filter(|ae| updated.classify(ae).is_benign()).count();
        println!(
            "{name}: AV learned {added} signatures; {still}/{} AEs still bypass",
            aes.len()
        );
    }
}
