//! # mpass-detectors — learning-based static malware detectors
//!
//! The paper evaluates MPass against four state-of-the-art offline models
//! and five commercial ML AVs. This crate reimplements all nine targets on
//! top of the [`mpass_ml`] substrate, trained in-process on the synthetic
//! [`mpass_corpus`] corpus:
//!
//! | Paper target | Implementation |
//! |---|---|
//! | MalConv (Raff et al.) | [`MalConv`]: byte embedding → gated 1-D conv → global max pool → dense head |
//! | NonNeg (Fleshman et al.) | [`MalConv::nonneg`]: same architecture with a non-negative dense head (convs unconstrained) |
//! | LightGBM / EMBER | [`LightGbm`]: gradient-boosted trees over [`features::extract`] EMBER-style features |
//! | MalGCG (Raff et al. 2021) | [`MalGcg`]: two stacked byte convolutions with mixed mean/max pooling |
//! | MAX / CrowdStrike / Acronis / SentinelOne / Cylance | [`CommercialAv`] profiles AV₁–AV₅: ML ensemble + packer heuristics + an n-gram signature store with weekly [`CommercialAv::weekly_update`] learning |
//!
//! Two capability levels mirror the paper's threat model:
//!
//! * [`Detector`] — the hard-label black-box interface every attack
//!   queries ([`Detector::classify`]); scores exist internally but the
//!   attacks in `mpass-core`/`mpass-baselines` never read them.
//! * [`WhiteBoxModel`] — the *known models* used by MPass's ensemble
//!   transfer optimization, exposing the byte-embedding table and the
//!   gradient of the benign-direction loss w.r.t. input embeddings.
//!   `LightGbm` deliberately does not implement it (paper footnote 6:
//!   trees cannot be back-propagated).

//!
//! The query *transport* is modelled separately from the models: every
//! detector is a perfectly reliable [`Oracle`], and
//! [`UnreliableOracle`] wraps any detector in a seeded, replayable
//! fault-injection schedule (timeouts, rate limits, outages) for the
//! fault-tolerance experiments.

pub mod commercial;
pub mod features;
mod lightgbm;
mod malconv;
mod malgcg;
pub mod oracle;
#[cfg(test)]
mod session_check;
mod signatures;
pub mod snapshot;
pub mod swap;
mod traits;
pub mod train;

pub use commercial::{AvProfile, CachedAv, CommercialAv};
pub use lightgbm::LightGbm;
pub use malconv::{ByteConvConfig, MalConv};
pub use malgcg::{MalGcg, MalGcgConfig};
pub use oracle::{FaultProfile, Oracle, UnreliableOracle};
pub use signatures::SignatureStore;
pub use snapshot::detector_from_snapshot;
pub use swap::SwappableDetector;
pub use traits::{benign_loss, Detector, DetectorExt, Verdict, WhiteBoxModel, WhiteBoxSession};
