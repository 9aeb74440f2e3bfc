//! Closed multi-format binary image.
//!
//! [`BinaryImage`] wraps the two container backends — `mpass-pe` and
//! `mpass-macho` — in one enum that implements
//! [`mpass_binfmt::BinaryFormat`] by delegation. The enum solves what
//! `Box<dyn BinaryFormat>` cannot: images stored inside corpus samples
//! need `Clone`, `PartialEq` and serde, none of which survive type
//! erasure. Pipelines that only read or edit take `&dyn BinaryFormat` /
//! `&mut dyn BinaryFormat`; everything that owns an image holds a
//! `BinaryImage`.
//!
//! Format detection is by magic: `MZ` parses as PE, the `MH_MAGIC_64`
//! family as Mach-O, anything else is a typed
//! [`BinaryError::UnknownMagic`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![deny(missing_docs)]

pub use mpass_binfmt::{
    detect_format, BinaryError, BinaryFormat, Format, ImportSummary, Loadable, ModifiableKind,
    ModifiableRegion, ParseMode, SectionKind, SectionMeta,
};
pub use mpass_macho::{MachoError, MachoFile};
pub use mpass_pe::{PeError, PeFile};

use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A parsed binary in any supported container format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BinaryImage {
    /// A Windows Portable Executable. Boxed: `PeFile` is ~5× the size of
    /// `MachoFile`, and corpus samples store thousands of these enums.
    Pe(Box<PeFile>),
    /// A 64-bit Mach-O image.
    MachO(MachoFile),
}

impl From<PeFile> for BinaryImage {
    fn from(pe: PeFile) -> Self {
        BinaryImage::Pe(Box::new(pe))
    }
}

impl From<MachoFile> for BinaryImage {
    fn from(m: MachoFile) -> Self {
        BinaryImage::MachO(m)
    }
}

impl BinaryImage {
    /// Detect the container format by magic and parse accordingly
    /// (loader-tolerant mode).
    ///
    /// # Errors
    ///
    /// [`BinaryError::UnknownMagic`] when the bytes start with no known
    /// magic; otherwise whatever the chosen backend reports.
    pub fn parse_auto(bytes: &[u8]) -> Result<Self, BinaryError> {
        Self::parse_auto_with(bytes, ParseMode::LoaderTolerant)
    }

    /// Detect the format by magic and parse under an explicit mode.
    ///
    /// # Errors
    ///
    /// Same surface as [`BinaryImage::parse_auto`].
    pub fn parse_auto_with(bytes: &[u8], mode: ParseMode) -> Result<Self, BinaryError> {
        Self::parse_as(detect_format(bytes)?, bytes, mode)
    }

    /// Parse as a specific format, overriding detection (the CLI's
    /// `--format` escape hatch).
    ///
    /// # Errors
    ///
    /// Whatever the chosen backend reports.
    pub fn parse_as(format: Format, bytes: &[u8], mode: ParseMode) -> Result<Self, BinaryError> {
        match format {
            Format::Pe => Ok(BinaryImage::Pe(Box::new(PeFile::parse_with(bytes, mode)?))),
            Format::MachO => Ok(BinaryImage::MachO(MachoFile::parse_with(bytes, mode)?)),
        }
    }

    /// The wrapped PE, when this image is one. Format-specific pipelines
    /// (packer baselines, import stamping) use this instead of the trait
    /// and skip or fail cleanly on other formats.
    pub fn as_pe(&self) -> Option<&PeFile> {
        match self {
            BinaryImage::Pe(pe) => Some(pe.as_ref()),
            _ => None,
        }
    }

    /// The wrapped Mach-O, when this image is one.
    pub fn as_macho(&self) -> Option<&MachoFile> {
        match self {
            BinaryImage::MachO(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as the format-neutral trait object.
    pub fn as_dyn(&self) -> &dyn BinaryFormat {
        match self {
            BinaryImage::Pe(pe) => pe.as_ref(),
            BinaryImage::MachO(m) => m,
        }
    }

    /// Mutably borrow as the format-neutral trait object.
    pub fn as_dyn_mut(&mut self) -> &mut dyn BinaryFormat {
        match self {
            BinaryImage::Pe(pe) => pe.as_mut(),
            BinaryImage::MachO(m) => m,
        }
    }
}

impl Loadable for BinaryImage {
    fn entry_point(&self) -> u64 {
        self.as_dyn().entry_point()
    }

    fn map_image_bounded(&self, max_bytes: usize) -> Result<Vec<u8>, BinaryError> {
        self.as_dyn().map_image_bounded(max_bytes)
    }
}

impl BinaryFormat for BinaryImage {
    fn format(&self) -> Format {
        self.as_dyn().format()
    }

    fn to_bytes(&self) -> Vec<u8> {
        self.as_dyn().to_bytes()
    }

    fn file_len(&self) -> usize {
        self.as_dyn().file_len()
    }

    fn section_count(&self) -> usize {
        self.as_dyn().section_count()
    }

    fn section_meta(&self, index: usize) -> Option<SectionMeta> {
        self.as_dyn().section_meta(index)
    }

    fn section_data(&self, index: usize) -> Option<&[u8]> {
        self.as_dyn().section_data(index)
    }

    fn section_data_mut(&mut self, index: usize) -> Option<&mut [u8]> {
        self.as_dyn_mut().section_data_mut(index)
    }

    fn add_section(
        &mut self,
        name: &str,
        data: Vec<u8>,
        kind: SectionKind,
    ) -> Result<u64, BinaryError> {
        self.as_dyn_mut().add_section(name, data, kind)
    }

    fn can_add_sections(&self, n: usize) -> bool {
        self.as_dyn().can_add_sections(n)
    }

    fn next_free_va(&self) -> u64 {
        self.as_dyn().next_free_va()
    }

    fn set_entry_point(&mut self, va: u64) -> Result<(), BinaryError> {
        self.as_dyn_mut().set_entry_point(va)
    }

    fn section_index_containing_va(&self, va: u64) -> Option<usize> {
        self.as_dyn().section_index_containing_va(va)
    }

    fn va_to_file_offset(&self, va: u64) -> Option<usize> {
        self.as_dyn().va_to_file_offset(va)
    }

    fn read_virtual(&self, va: u64, len: usize) -> Vec<u8> {
        self.as_dyn().read_virtual(va, len)
    }

    fn write_virtual(&mut self, va: u64, bytes: &[u8]) -> Result<(), BinaryError> {
        self.as_dyn_mut().write_virtual(va, bytes)
    }

    fn overlay(&self) -> &[u8] {
        self.as_dyn().overlay()
    }

    fn append_overlay(&mut self, bytes: &[u8]) {
        self.as_dyn_mut().append_overlay(bytes);
    }

    fn truncate_overlay(&mut self, len: usize) {
        self.as_dyn_mut().truncate_overlay(len);
    }


    fn randomize_free_headers(&mut self, rng: &mut dyn RngCore) {
        self.as_dyn_mut().randomize_free_headers(rng);
    }

    fn finalize(&mut self) {
        self.as_dyn_mut().finalize();
    }

    fn timestamp(&self) -> u32 {
        self.as_dyn().timestamp()
    }

    fn modifiable_positions(&self) -> Vec<ModifiableRegion> {
        self.as_dyn().modifiable_positions()
    }

    fn imports_summary(&self) -> Option<ImportSummary> {
        self.as_dyn().imports_summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_macho::MachoBuilder;
    use mpass_pe::{PeBuilder, SectionFlags};

    fn pe() -> PeFile {
        let mut b = PeBuilder::new();
        b.add_section(".text", vec![0x90; 64], SectionFlags::CODE).unwrap();
        b.build().unwrap()
    }

    fn macho() -> MachoFile {
        let mut b = MachoBuilder::new();
        b.add_section("__text", &[0x90; 64], SectionKind::Code).set_entry_section("__text", 0);
        b.build().unwrap()
    }

    #[test]
    fn auto_detection_routes_by_magic() {
        let pe_img = BinaryImage::parse_auto(&pe().to_bytes()).unwrap();
        assert_eq!(pe_img.format(), Format::Pe);
        assert!(pe_img.as_pe().is_some() && pe_img.as_macho().is_none());

        let macho_img = BinaryImage::parse_auto(&MachoFile::to_bytes(&macho())).unwrap();
        assert_eq!(macho_img.format(), Format::MachO);
        assert!(macho_img.as_macho().is_some() && macho_img.as_pe().is_none());

        let err = BinaryImage::parse_auto(b"\x7fELF....what").unwrap_err();
        assert!(matches!(err, BinaryError::UnknownMagic { .. }), "{err:?}");
    }

    #[test]
    fn enum_round_trips_both_formats() {
        for img in [BinaryImage::from(pe()), BinaryImage::from(macho())] {
            let re = BinaryImage::parse_auto(&img.to_bytes()).unwrap();
            assert_eq!(re, img);
        }
    }

    #[test]
    fn serde_round_trips_the_enum() {
        let img = BinaryImage::from(macho());
        let json = serde_json::to_string(&img).unwrap();
        let back: BinaryImage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn parse_as_overrides_detection() {
        // Forcing the wrong format yields that backend's typed error
        // instead of misparsing.
        let err =
            BinaryImage::parse_as(Format::MachO, &pe().to_bytes(), ParseMode::LoaderTolerant)
                .unwrap_err();
        assert!(matches!(err, BinaryError::BadMagic { .. }), "{err:?}");
    }
}
