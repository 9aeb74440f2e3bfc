//! # mpass-experiments — regenerating the paper's evaluation
//!
//! One runner per table/figure of *MPass* (DAC 2023), all operating on a
//! shared [`World`]: the synthetic corpus, the benign-content pool, four
//! trained offline detectors and five simulated commercial AVs. Every
//! (attack, target) table is a campaign grid of
//! [`orchestrator::run_grid`]: Tables I–III over the offline detectors,
//! Figure 3 and Tables IV–VI over the AVs, with Tables IV–VI as views
//! over [`commercial::CommercialResults`].
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | §III-B PEM claim | [`pem::run`] | `exp_pem` |
//! | Table I (ASR) + II (AVQ) + III (APR) | [`offline::run`] | `exp_offline` |
//! | §IV-A functionality check | [`functionality::run`] over Table I's cells | `exp_offline` |
//! | Figure 3 (commercial ASR) | [`commercial::run`] | `exp_commercial` |
//! | Table IV (packers) | [`commercial::run`] over [`packers::ROSTER`] | `exp_packers` |
//! | Figure 4 (AV learning) | [`learning::run`] | `exp_learning` |
//! | Table V (Other-sec) + VI (random data) | [`commercial::run`] over [`ablation::ROSTER`] | `exp_ablation` |
//! | §VI adversarial training | [`advtrain::run`] | `exp_advtrain` |
//! | Design ablations | [`design::run`] | `exp_design` |
//! | Multi-format demo (Mach-O) | [`macho_demo::run`] | `exp_macho` |
//! | Everything above but Mach-O, one world | — | `exp_all` |
//!
//! Every binary accepts `--quick` for a down-scaled run and writes JSON
//! results under `results/`. The four campaign binaries (`exp_offline`,
//! `exp_commercial`, `exp_packers`, `exp_ablation`) share one main,
//! [`orchestrator::campaign_main`], the only parser of `--faults`,
//! `--resume` and `--processes`; every other binary refuses those flags.

pub mod ablation;
pub mod advtrain;
pub mod campaign;
pub mod commercial;
pub mod design;
pub mod functionality;
pub mod journal;
pub mod learning;
pub mod macho_demo;
pub mod offline;
pub mod orchestrator;
pub mod packers;
pub mod pem;
pub mod report;
pub mod table;
pub mod world;

pub use journal::CampaignJournal;
pub use orchestrator::{CampaignKind, Manifest};
pub use world::{World, WorldConfig};
