//! # mpass-baselines — the attacks MPass is compared against
//!
//! Reimplementations of the paper's four baseline attacks, the three
//! obfuscators of Table IV, and the two ablation attackers of Tables V/VI.
//! Every attack implements [`mpass_core::Attack`] against the same
//! hard-label [`mpass_core::HardLabelTarget`] oracle:
//!
//! * [`Rla`] — RL-Attack (Anderson et al., Black Hat 2017): tabular
//!   Q-learning over a fixed PE-manipulation action set. Faithfully
//!   includes gym-malware's defect: one action (in-place section packing
//!   without proper recovery) occasionally corrupts functionality — the
//!   paper finds 23 % of RLA's AEs broken.
//! * [`Mab`] — MAB-malware (Song et al., ASIA CCS 2022): Thompson-sampling
//!   multi-armed bandit over manipulation actions, sharing arm statistics
//!   across samples.
//! * [`Gamma`] — GAMMA (Demetrio et al., TIFS 2021): genetic optimization
//!   of benign-section injection from a fixed donor set; powerful but with
//!   an enormous appending rate.
//! * [`MalRnn`] — MalRNN (Ebrahimi et al.): a byte-level generative
//!   language model producing benign-looking append content. The RNN is
//!   substituted with an order-2 byte Markov model (see DESIGN.md) — same
//!   role, same learnable repetitiveness.
//! * [`Packer`] / [`packer_profiles`] — simulated UPX, PESpin and ASPack:
//!   whole-file keystream encoding behind a *fixed* decode stub, fixed
//!   marker bytes and fixed section names (Table IV).
//! * [`RandomData`] — the Table VI control: random bytes at exactly
//!   MPass's modification positions (hash-change strawman).
//! * [`other_sec`] — the Table V ablation: the full MPass pipeline pointed
//!   at *non-critical* sections.
//!
//! All baselines share [`ActionLibrary`], a fixed library of benign
//! payload chunks harvested once per attack instance — fixed content is
//! both realistic (these tools ship with static payload corpora) and what
//! makes their perturbations minable by AV continual learning (Fig. 4).

mod ablation;
mod actions;
mod gamma;
mod mab;
mod malrnn;
mod packers;
mod rla;

pub use ablation::{other_sec, RandomData};
pub use actions::{ActionLibrary, PeAction};
pub use gamma::{Gamma, GammaConfig};
pub use mab::{Mab, MabConfig};
pub use malrnn::{ByteLm, MalRnn, MalRnnConfig};
pub use packers::{benign_packer_profile, packer_profiles, Packer, PackerProfile};
pub use rla::{Rla, RlaConfig};

use mpass_corpus::Sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The per-sample random stream of a baseline attack: its base `seed`
/// folded with an FNV-style hash of the sample name, so every sample's
/// attack is reproducible on its own.
fn sample_rng(seed: u64, sample: &Sample) -> ChaCha8Rng {
    let h = sample.name.bytes().fold(0u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    ChaCha8Rng::seed_from_u64(seed ^ h)
}
