//! # mpass-pe — Portable Executable substrate
//!
//! A from-scratch implementation of the on-disk Windows PE (Portable
//! Executable) format, sufficient for every manipulation the MPass attack
//! and its baselines perform:
//!
//! * parsing and byte-exact re-serialization of PE images
//!   ([`PeFile::parse`], [`PeFile::to_bytes`]), and a borrowed parse
//!   ([`PeView`]) that maps an image for execution without copying its
//!   sections,
//! * construction of fresh executables ([`PeBuilder`]),
//! * structural edits: adding sections, renaming sections, rewriting the
//!   entry point, appending overlay data, and patching header fields that do
//!   not affect program semantics (timestamp, checksum),
//! * classification of sections into the semantic kinds PEM reasons about
//!   ([`SectionKind`]),
//! * byte-level utilities such as Shannon [`entropy`].
//!
//! The format implemented here follows the real PE/COFF layout (DOS header,
//! `PE\0\0` signature, COFF file header, PE32 optional header with data
//! directories, section table, aligned raw section data, trailing overlay),
//! including the import directory ([`ImportTable`]). Export tables and
//! relocations are omitted: neither the paper's attack nor its baselines
//! touch them, and the MVM execution substrate resolves "API calls" by
//! immediate identifiers rather than import thunks — import tables are
//! static metadata here, exactly the role footnote 5 assigns them.
//!
//! ## Example
//!
//! ```
//! use mpass_pe::{PeBuilder, SectionFlags};
//!
//! # fn main() -> Result<(), mpass_pe::PeError> {
//! let mut builder = PeBuilder::new();
//! builder.add_section(".text", vec![0x90; 64], SectionFlags::CODE)?;
//! builder.add_section(".data", vec![0u8; 32], SectionFlags::DATA)?;
//! builder.set_entry_section(".text", 0)?;
//! let pe = builder.build()?;
//! let bytes = pe.to_bytes();
//! let reparsed = mpass_pe::PeFile::parse(&bytes)?;
//! assert_eq!(reparsed.sections().len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Hostile input
//!
//! Every parsing and editing entry point is total over arbitrary bytes:
//! malformed input yields a typed [`PeError`], never a panic, and all
//! layout arithmetic is performed in 64 bits so hostile 32-bit header
//! fields cannot overflow. See [`ParseMode`] for the strict vs.
//! loader-tolerant validation split.

// Untrusted bytes reach nearly every function in this crate; failures must
// surface as typed errors, never as panics (tests assert freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod binfmt_impl;
mod builder;
mod edit;
mod entropy;
mod error;
mod headers;
mod imports;
mod map;
mod parse;
mod section;
mod view;
mod write;

pub use builder::PeBuilder;
pub use entropy::{byte_histogram, entropy, histogram_entropy};
pub use error::PeError;
pub use imports::{ImportEntry, ImportTable, ImportedDll, IMPORT_DIRECTORY_INDEX};
pub use headers::{
    CoffHeader, DataDirectory, DosHeader, DosHeaderView, OptionalHeader, DATA_DIRECTORY_COUNT,
    DOS_HEADER_SIZE, DOS_MAGIC, OPTIONAL_HEADER_SIZE, PE32_MAGIC, PE_SIGNATURE,
};
pub use parse::ParseMode;
pub use section::{
    classify_section, Section, SectionFlags, SectionHeader, SectionKind, SECTION_HEADER_SIZE,
};
pub use view::{PeView, SectionView};

use map::Headers;

use serde::{Deserialize, Serialize};

/// Default file alignment used when building or normalizing images.
pub const DEFAULT_FILE_ALIGNMENT: u32 = 0x200;
/// Default in-memory section alignment.
pub const DEFAULT_SECTION_ALIGNMENT: u32 = 0x1000;
/// Default preferred image base.
pub const DEFAULT_IMAGE_BASE: u32 = 0x0040_0000;

/// An in-memory representation of a parsed (or constructed) PE file.
///
/// The struct owns every byte needed to re-serialize the image:
/// headers, the full section table with raw data, and the overlay (bytes
/// past the end of the last section's raw data, a region widely abused by
/// appending attacks).
///
/// Invariants maintained by all mutating methods:
/// * section raw offsets are ascending and aligned to
///   [`OptionalHeader::file_alignment`],
/// * section virtual addresses are ascending and aligned to
///   [`OptionalHeader::section_alignment`],
/// * `coff.number_of_sections` always equals `sections.len()`,
/// * `optional.size_of_image` covers the last section's virtual extent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeFile {
    pub(crate) dos: DosHeader,
    pub(crate) coff: CoffHeader,
    pub(crate) optional: OptionalHeader,
    pub(crate) sections: Vec<Section>,
    pub(crate) overlay: Vec<u8>,
}

impl PeFile {
    /// The DOS header of the image.
    pub fn dos(&self) -> &DosHeader {
        &self.dos
    }

    /// The COFF file header.
    pub fn coff(&self) -> &CoffHeader {
        &self.coff
    }

    /// The PE32 optional header.
    pub fn optional(&self) -> &OptionalHeader {
        &self.optional
    }

    /// All sections in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Mutable access to the sections.
    ///
    /// Callers that change raw data sizes must re-normalize with
    /// [`PeFile::refresh_layout`] before serializing; in-place overwrites of
    /// equal length are always safe.
    pub fn sections_mut(&mut self) -> &mut [Section] {
        &mut self.sections
    }

    /// The overlay: bytes stored after the last section's raw data.
    pub fn overlay(&self) -> &[u8] {
        &self.overlay
    }

    /// Look up a section by name (exact match on the trimmed name).
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name() == name)
    }

    /// Mutable lookup by name.
    pub fn section_mut(&mut self, name: &str) -> Option<&mut Section> {
        self.sections.iter_mut().find(|s| s.name() == name)
    }

    /// The section whose virtual range contains `rva`, if any.
    pub fn section_containing_rva(&self, rva: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains_rva(rva))
    }

    /// Index of the section whose virtual range contains `rva`.
    pub fn section_index_containing_rva(&self, rva: u32) -> Option<usize> {
        self.sections.iter().position(|s| s.contains_rva(rva))
    }

    /// The RVA of the program entry point.
    pub fn entry_point(&self) -> u32 {
        self.optional.address_of_entry_point
    }

    /// Total on-disk size of the serialized image.
    pub fn file_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Translate a relative virtual address to a file offset.
    ///
    /// Returns `None` when `rva` falls outside every section's raw data
    /// (virtual-only space such as `.bss` padding has no file backing).
    pub fn rva_to_offset(&self, rva: u32) -> Option<u32> {
        if rva < self.optional.size_of_headers && (rva as usize) < self.header_size() {
            return Some(rva);
        }
        for s in &self.sections {
            let h = s.header();
            // 64-bit arithmetic: hostile headers may place sections where
            // `virtual_address + size` or the resulting offset wraps u32.
            let end = h.virtual_address as u64 + h.size_of_raw_data.max(1) as u64;
            if rva >= h.virtual_address && (rva as u64) < end {
                let off =
                    h.pointer_to_raw_data as u64 + (rva - h.virtual_address) as u64;
                return u32::try_from(off).ok();
            }
        }
        None
    }

    /// Translate a file offset to an RVA, the inverse of
    /// [`PeFile::rva_to_offset`] for offsets inside section raw data.
    pub fn offset_to_rva(&self, offset: u32) -> Option<u32> {
        if (offset as usize) < self.header_size() {
            return Some(offset);
        }
        for s in &self.sections {
            let h = s.header();
            let end = h.pointer_to_raw_data as u64 + h.size_of_raw_data as u64;
            if offset >= h.pointer_to_raw_data && (offset as u64) < end {
                let rva = h.virtual_address as u64 + (offset - h.pointer_to_raw_data) as u64;
                return u32::try_from(rva).ok();
            }
        }
        None
    }

    /// Read `len` bytes at virtual address `rva`, zero-filling virtual-only
    /// space, exactly as the loader would map the image.
    pub fn read_virtual(&self, rva: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (i, byte) in out.iter_mut().enumerate() {
            let Some(addr) = rva.checked_add(i as u32) else { break };
            if let Some(s) = self.section_containing_rva(addr) {
                let rel = (addr - s.header().virtual_address) as usize;
                if rel < s.data().len() {
                    *byte = s.data()[rel];
                }
            }
        }
        out
    }

    /// Size in bytes of everything before the first section's raw data
    /// (DOS header + stub + PE signature + COFF + optional header + section
    /// table), before alignment to `size_of_headers`.
    pub(crate) fn header_size(&self) -> usize {
        self.headers().unpadded_len(self.sections.len())
    }

    /// First RVA beyond the virtual extent of the last section, aligned to
    /// the section alignment. This is where a newly added section lands.
    pub fn next_free_rva(&self) -> u32 {
        let align = self.optional.section_alignment.max(1) as u64;
        let end = self
            .sections
            .iter()
            .map(|s| s.header().virtual_address as u64 + s.header().virtual_size.max(1) as u64)
            .max()
            .unwrap_or((self.optional.size_of_headers as u64).max(align));
        // Saturate at u32::MAX: hostile layouts near the top of the address
        // space yield an RVA that add_section then rejects as malformed.
        u32::try_from(end.div_ceil(align) * align).unwrap_or(u32::MAX)
    }

    /// Map the whole image into a flat buffer of `size_of_image` bytes, the
    /// way the OS loader would (headers at 0, sections at their RVAs).
    ///
    /// `size_of_image` is attacker-controlled (up to 4 GiB); callers
    /// handling untrusted images should prefer [`PeFile::map_image_bounded`]
    /// so a hostile header cannot force a giant allocation.
    pub fn map_image(&self) -> Vec<u8> {
        self.headers().map(self.optional.size_of_image as usize, self.section_parts())
    }

    /// Like [`PeFile::map_image`], but refuses to allocate more than
    /// `max_bytes`.
    ///
    /// # Errors
    ///
    /// [`PeError::Malformed`] when `size_of_image` exceeds `max_bytes`.
    pub fn map_image_bounded(&self, max_bytes: usize) -> Result<Vec<u8>, PeError> {
        self.headers().map_bounded(max_bytes, self.section_parts())
    }

    /// The headers, borrowed, as serialization and mapping read them.
    pub(crate) fn headers(&self) -> Headers<'_> {
        Headers { dos: self.dos.view(), coff: &self.coff, optional: &self.optional }
    }

    /// Each section's header with its data, as the mapping reads them.
    fn section_parts(&self) -> impl Iterator<Item = (&SectionHeader, &[u8])> + Clone {
        self.sections.iter().map(|s| (&s.header, s.data.as_slice()))
    }

    /// True when the appending space between `size_of_headers` and the first
    /// section is large enough for another section header; adding a section
    /// never fails in this implementation, so this mirrors the paper's
    /// "malware without sufficient space" case by inspecting the header gap.
    pub fn can_add_section(&self) -> bool {
        self.can_add_sections(1)
    }

    /// Whether the header region can take `n` more section headers without
    /// relocating raw data.
    pub fn can_add_sections(&self, n: usize) -> bool {
        let needed = self.header_size() + n * SECTION_HEADER_SIZE;
        let first_raw = self
            .sections
            .iter()
            .map(|s| s.header().pointer_to_raw_data)
            .filter(|&p| p != 0)
            .min()
            .unwrap_or(self.optional.size_of_headers);
        needed <= first_raw as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pe() -> PeFile {
        let mut b = PeBuilder::new();
        b.add_section(".text", vec![0xCC; 100], SectionFlags::CODE).unwrap();
        b.add_section(".data", vec![0xAA; 50], SectionFlags::DATA).unwrap();
        b.set_entry_section(".text", 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn section_lookup_by_name() {
        let pe = sample_pe();
        assert!(pe.section(".text").is_some());
        assert!(pe.section(".data").is_some());
        assert!(pe.section(".nope").is_none());
    }

    #[test]
    fn rva_offset_round_trip() {
        let pe = sample_pe();
        let text = pe.section(".text").unwrap();
        let rva = text.header().virtual_address + 10;
        let off = pe.rva_to_offset(rva).unwrap();
        assert_eq!(pe.offset_to_rva(off), Some(rva));
    }

    #[test]
    fn entry_point_lands_in_text() {
        let pe = sample_pe();
        let sec = pe.section_containing_rva(pe.entry_point()).unwrap();
        assert_eq!(sec.name(), ".text");
        assert_eq!(pe.entry_point() - sec.header().virtual_address, 4);
    }

    #[test]
    fn map_image_places_sections_at_rvas() {
        let pe = sample_pe();
        let image = pe.map_image();
        let text = pe.section(".text").unwrap();
        let va = text.header().virtual_address as usize;
        assert_eq!(&image[va..va + 100], &vec![0xCC; 100][..]);
    }

    #[test]
    fn read_virtual_zero_fills_gaps() {
        let pe = sample_pe();
        let text = pe.section(".text").unwrap();
        // Read past the raw data into the aligned virtual tail.
        let rva = text.header().virtual_address + 90;
        let bytes = pe.read_virtual(rva, 64);
        assert_eq!(&bytes[..10], &vec![0xCC; 10][..]);
        assert!(bytes[10..].iter().take(20).all(|&b| b == 0));
    }

    #[test]
    fn next_free_rva_is_aligned_and_beyond_sections() {
        let pe = sample_pe();
        let rva = pe.next_free_rva();
        assert_eq!(rva % pe.optional().section_alignment, 0);
        for s in pe.sections() {
            assert!(rva >= s.header().virtual_address + s.header().virtual_size);
        }
    }
}
