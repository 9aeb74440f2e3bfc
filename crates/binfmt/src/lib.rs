//! # mpass-binfmt — the format-neutral binary-container layer
//!
//! MPass's attack pipeline (shuffle + recovery stub, PEM section
//! attribution, modifiable-position perturbation) is conceptually
//! container-agnostic: it needs sections it can classify and rewrite, an
//! entry point it can retarget, slack it can fill and bytes it can
//! re-serialize. This crate defines that contract once:
//!
//! * [`BinaryFormat`] — the trait every backend implements (`mpass-pe`,
//!   `mpass-macho`), and its supertrait [`Loadable`], the read half the
//!   VM's loader takes.
//! * [`Format`] / [`detect_format`] — container identification by magic.
//! * [`SectionKind`] — the shared section-role vocabulary.
//! * [`SectionMeta`], [`ModifiableRegion`], [`ImportSummary`] — the
//!   format-neutral views consumers read.
//! * [`BinaryError`] — typed failures with the format detail erased.
//! * [`ParseMode`] — loader-tolerant vs. strict ingestion, shared by both
//!   backends.
//!
//! The crate deliberately has no backend dependencies; `mpass-binary`
//! closes the loop with a `BinaryImage` enum over the concrete backends.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![deny(missing_docs)]

mod error;
mod kind;
mod meta;
mod traits;

pub use error::BinaryError;
pub use kind::{SectionKind, SectionTraits};
pub use meta::{ImportSummary, ModifiableKind, ModifiableRegion, SectionMeta};
pub use traits::{BinaryFormat, Loadable};

use serde::{Deserialize, Serialize};
use std::fmt;

/// How tolerant parsing is of structural anomalies.
///
/// `LoaderTolerant` mirrors what a real loader would accept; `Strict`
/// additionally rejects anomalies so build/edit pipelines fail fast on
/// corrupt intermediates instead of propagating them. Both backends honor
/// both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ParseMode {
    /// Enforce only what mapping requires: magics, alignment sanity and
    /// in-bounds raw extents for sections that carry data.
    #[default]
    LoaderTolerant,
    /// Additionally reject structural anomalies a linker would never emit
    /// (escaping section tables, overlapping raw data, overflowing
    /// extents, undersized image sizes).
    Strict,
}

/// A supported container format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Format {
    /// Windows Portable Executable.
    Pe,
    /// Apple Mach object format (64-bit).
    MachO,
}

impl Format {
    /// The conventional short name (`pe`, `macho`) used by CLI flags.
    pub fn short_name(self) -> &'static str {
        match self {
            Format::Pe => "pe",
            Format::MachO => "macho",
        }
    }

    /// Parse a CLI-style format name (the inverse of [`short_name`]).
    ///
    /// [`short_name`]: Format::short_name
    pub fn from_short_name(name: &str) -> Option<Format> {
        match name {
            "pe" => Some(Format::Pe),
            "macho" | "mach-o" => Some(Format::MachO),
            _ => None,
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Mach-O 64-bit magic, little endian on disk (`cf fa ed fe`).
pub const MH_MAGIC_64: u32 = 0xFEED_FACF;
/// Mach-O 64-bit magic, byte swapped (`fe ed fa cf` on disk).
pub const MH_CIGAM_64: u32 = 0xCFFA_EDFE;
/// Mach-O 32-bit magic (unsupported variant, still detected).
pub const MH_MAGIC_32: u32 = 0xFEED_FACE;
/// Fat/universal wrapper magic (big endian on disk: `ca fe ba be`).
pub const FAT_MAGIC: u32 = 0xCAFE_BABE;

/// Identify the container format of `bytes` by magic.
///
/// `MZ` detects as PE; any of the Mach-O family magics (64-bit, byte
/// swapped, 32-bit, fat wrapper) detect as Mach-O — the backend then
/// reports unsupported variants with a typed error, so that "this is a fat
/// binary" and "this is not an executable at all" stay distinguishable.
pub fn detect_format(bytes: &[u8]) -> Result<Format, BinaryError> {
    let mut found = [0u8; 4];
    for (dst, src) in found.iter_mut().zip(bytes) {
        *dst = *src;
    }
    if bytes.len() >= 2 && &bytes[..2] == b"MZ" {
        return Ok(Format::Pe);
    }
    if bytes.len() >= 4 {
        let le = u32::from_le_bytes(found);
        let be = u32::from_be_bytes(found);
        if le == MH_MAGIC_64
            || le == MH_CIGAM_64
            || le == MH_MAGIC_32
            || be == FAT_MAGIC
        {
            return Ok(Format::MachO);
        }
    }
    Err(BinaryError::UnknownMagic { found })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_detection() {
        assert_eq!(detect_format(b"MZ\x90\x00rest"), Ok(Format::Pe));
        assert_eq!(detect_format(&0xFEED_FACF_u32.to_le_bytes()), Ok(Format::MachO));
        assert_eq!(detect_format(&0xFEED_FACE_u32.to_le_bytes()), Ok(Format::MachO));
        assert_eq!(detect_format(&0xCAFE_BABE_u32.to_be_bytes()), Ok(Format::MachO));
        assert_eq!(
            detect_format(b"\x7fELF"),
            Err(BinaryError::UnknownMagic { found: *b"\x7fELF" })
        );
        assert_eq!(detect_format(b"M"), Err(BinaryError::UnknownMagic { found: [b'M', 0, 0, 0] }));
        assert_eq!(detect_format(&[]), Err(BinaryError::UnknownMagic { found: [0; 4] }));
    }

    #[test]
    fn format_names_round_trip() {
        for f in [Format::Pe, Format::MachO] {
            assert_eq!(Format::from_short_name(f.short_name()), Some(f));
            assert_eq!(f.to_string(), f.short_name());
        }
        assert_eq!(Format::from_short_name("elf"), None);
        assert_eq!(Format::from_short_name("mach-o"), Some(Format::MachO));
    }
}
