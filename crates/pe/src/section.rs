//! Section table entries, section flags, and the semantic section kinds the
//! problem-space explainability method (PEM) reasons over.

use crate::error::PeError;
use crate::headers::put_u32;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Serialized size of one section header.
pub const SECTION_HEADER_SIZE: usize = 40;

/// Section characteristic flags (`IMAGE_SCN_*`), exposed as plain constants
/// on a newtype so arbitrary flag combinations remain representable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SectionFlags(pub u32);

impl SectionFlags {
    /// `IMAGE_SCN_CNT_CODE | MEM_EXECUTE | MEM_READ`.
    pub const CODE: SectionFlags = SectionFlags(0x6000_0020);
    /// `IMAGE_SCN_CNT_INITIALIZED_DATA | MEM_READ | MEM_WRITE`.
    pub const DATA: SectionFlags = SectionFlags(0xC000_0040);
    /// `IMAGE_SCN_CNT_INITIALIZED_DATA | MEM_READ` (read-only data).
    pub const RDATA: SectionFlags = SectionFlags(0x4000_0040);
    /// Resource section flags.
    pub const RSRC: SectionFlags = SectionFlags(0x4000_0040);
    /// `IMAGE_SCN_CNT_UNINITIALIZED_DATA | MEM_READ | MEM_WRITE`.
    pub const BSS: SectionFlags = SectionFlags(0xC000_0080);

    /// Whether the code-content bit is set.
    pub fn is_code(self) -> bool {
        self.0 & 0x0000_0020 != 0
    }

    /// Whether the initialized-data bit is set.
    pub fn is_initialized_data(self) -> bool {
        self.0 & 0x0000_0040 != 0
    }

    /// Whether the executable-memory bit is set.
    pub fn is_executable(self) -> bool {
        self.0 & 0x2000_0000 != 0
    }

    /// Whether the writable-memory bit is set.
    pub fn is_writable(self) -> bool {
        self.0 & 0x8000_0000 != 0
    }
}

impl fmt::LowerHex for SectionFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

// The semantic section-kind vocabulary now lives in the format-neutral
// layer (PEM and the feature extractor reason over it for every container
// format); re-exported here so existing `mpass_pe::SectionKind` paths keep
// working.
pub use mpass_binfmt::SectionKind;
use mpass_binfmt::SectionTraits;

impl SectionFlags {
    /// The format-neutral permission traits these characteristics encode,
    /// used as the classification fallback for unconventional names.
    pub fn traits(self) -> SectionTraits {
        SectionTraits {
            code: self.is_code() || self.is_executable(),
            uninitialized: self.0 & 0x0000_0080 != 0,
            initialized_data: self.is_initialized_data(),
            writable: self.is_writable(),
        }
    }
}

/// Classify a PE section by conventional name first, falling back to its
/// characteristics (previously `SectionKind::classify`).
pub fn classify_section(name: &str, flags: SectionFlags) -> SectionKind {
    match name {
        ".text" | ".code" | "CODE" => SectionKind::Code,
        ".data" | "DATA" => SectionKind::Data,
        ".rdata" => SectionKind::ReadOnlyData,
        ".rsrc" => SectionKind::Resource,
        ".reloc" => SectionKind::Relocation,
        ".idata" => SectionKind::Import,
        ".bss" => SectionKind::Bss,
        ".tls" => SectionKind::Tls,
        _ => SectionKind::from_traits(flags.traits()),
    }
}

/// One entry of the section table (`IMAGE_SECTION_HEADER`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionHeader {
    /// Raw 8-byte name, NUL padded.
    pub name: [u8; 8],
    /// Size of the section when mapped (may exceed raw size).
    pub virtual_size: u32,
    /// RVA the section is mapped at.
    pub virtual_address: u32,
    /// Size of the raw data on disk (file-aligned).
    pub size_of_raw_data: u32,
    /// File offset of the raw data.
    pub pointer_to_raw_data: u32,
    /// Deprecated relocation pointer.
    pub pointer_to_relocations: u32,
    /// Deprecated line-number pointer.
    pub pointer_to_linenumbers: u32,
    /// Deprecated relocation count.
    pub number_of_relocations: u16,
    /// Deprecated line-number count.
    pub number_of_linenumbers: u16,
    /// `IMAGE_SCN_*` flags.
    pub characteristics: SectionFlags,
}

impl SectionHeader {
    pub(crate) fn parse(buf: &[u8], at: usize) -> Result<Self, PeError> {
        // One bounds check for the whole entry; the fixed offsets below
        // then index a slice of known length.
        let b = buf.get(at..at + SECTION_HEADER_SIZE).ok_or(PeError::Truncated {
            context: "section header",
            needed: at + SECTION_HEADER_SIZE,
            available: buf.len(),
        })?;
        let u16_at = |o: usize| u16::from_le_bytes([b[o], b[o + 1]]);
        let u32_at = |o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        let mut name = [0u8; 8];
        name.copy_from_slice(&b[..8]);
        Ok(SectionHeader {
            name,
            virtual_size: u32_at(8),
            virtual_address: u32_at(12),
            size_of_raw_data: u32_at(16),
            pointer_to_raw_data: u32_at(20),
            pointer_to_relocations: u32_at(24),
            pointer_to_linenumbers: u32_at(28),
            number_of_relocations: u16_at(32),
            number_of_linenumbers: u16_at(34),
            characteristics: SectionFlags(u32_at(36)),
        })
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.name);
        put_u32(out, self.virtual_size);
        put_u32(out, self.virtual_address);
        put_u32(out, self.size_of_raw_data);
        put_u32(out, self.pointer_to_raw_data);
        put_u32(out, self.pointer_to_relocations);
        put_u32(out, self.pointer_to_linenumbers);
        crate::headers::put_u16(out, self.number_of_relocations);
        crate::headers::put_u16(out, self.number_of_linenumbers);
        put_u32(out, self.characteristics.0);
    }

    /// The section name with trailing NULs stripped. Invalid UTF-8 bytes are
    /// replaced, matching how analysis tools display hostile names.
    pub fn name_str(&self) -> String {
        let end = self.name.iter().position(|&b| b == 0).unwrap_or(8);
        String::from_utf8_lossy(&self.name[..end]).into_owned()
    }

    /// Encode a string into the 8-byte padded name field.
    ///
    /// # Errors
    ///
    /// Returns [`PeError::NameTooLong`] when `name` exceeds eight bytes.
    pub fn encode_name(name: &str) -> Result<[u8; 8], PeError> {
        let bytes = name.as_bytes();
        if bytes.len() > 8 {
            return Err(PeError::NameTooLong(name.to_owned()));
        }
        let mut out = [0u8; 8];
        out[..bytes.len()].copy_from_slice(bytes);
        Ok(out)
    }
}

/// A section header together with its owned raw data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section {
    pub(crate) header: SectionHeader,
    pub(crate) data: Vec<u8>,
}

impl Section {
    /// Create a section from a header and its raw data.
    pub fn new(header: SectionHeader, data: Vec<u8>) -> Self {
        Section { header, data }
    }

    /// The section header.
    pub fn header(&self) -> &SectionHeader {
        &self.header
    }

    /// The raw on-disk bytes of the section.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw bytes. In-place overwrites of equal length keep the image
    /// consistent; growing the vector requires
    /// [`crate::PeFile::refresh_layout`].
    pub fn data_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// The display name.
    pub fn name(&self) -> String {
        self.header.name_str()
    }

    /// The semantic [`SectionKind`].
    pub fn kind(&self) -> SectionKind {
        classify_section(&self.name(), self.header.characteristics)
    }

    /// Whether `rva` falls inside this section's virtual extent.
    pub fn contains_rva(&self, rva: u32) -> bool {
        // 64-bit end: hostile headers near the top of the address space
        // would otherwise wrap `virtual_address + size`.
        let size = self.header.virtual_size.max(self.header.size_of_raw_data).max(1);
        let end = self.header.virtual_address as u64 + size as u64;
        rva >= self.header.virtual_address && (rva as u64) < end
    }

    /// Shannon entropy of the raw data in bits per byte.
    pub fn entropy(&self) -> f64 {
        crate::entropy::entropy(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_classification() {
        assert!(SectionFlags::CODE.is_code());
        assert!(SectionFlags::CODE.is_executable());
        assert!(!SectionFlags::CODE.is_writable());
        assert!(SectionFlags::DATA.is_writable());
        assert!(SectionFlags::DATA.is_initialized_data());
        assert!(!SectionFlags::RDATA.is_writable());
    }

    #[test]
    fn kind_by_name_beats_flags() {
        assert_eq!(classify_section(".text", SectionFlags::DATA), SectionKind::Code);
        assert_eq!(classify_section(".data", SectionFlags::CODE), SectionKind::Data);
    }

    #[test]
    fn kind_by_flags_for_unknown_names() {
        assert_eq!(classify_section("UPX1", SectionFlags::CODE), SectionKind::Code);
        assert_eq!(classify_section(".xyz", SectionFlags::DATA), SectionKind::Data);
        assert_eq!(classify_section(".xyz", SectionFlags::RDATA), SectionKind::ReadOnlyData);
        assert_eq!(classify_section(".xyz", SectionFlags::BSS), SectionKind::Bss);
        assert_eq!(classify_section(".xyz", SectionFlags(0)), SectionKind::Other);
    }

    #[test]
    fn critical_kinds_match_paper() {
        assert!(SectionKind::Code.is_critical_in_paper());
        assert!(SectionKind::Data.is_critical_in_paper());
        assert!(!SectionKind::Resource.is_critical_in_paper());
        assert!(!SectionKind::ReadOnlyData.is_critical_in_paper());
    }

    #[test]
    fn name_encode_decode() {
        let n = SectionHeader::encode_name(".text").unwrap();
        assert_eq!(&n, b".text\0\0\0");
        let h = SectionHeader {
            name: n,
            virtual_size: 0,
            virtual_address: 0,
            size_of_raw_data: 0,
            pointer_to_raw_data: 0,
            pointer_to_relocations: 0,
            pointer_to_linenumbers: 0,
            number_of_relocations: 0,
            number_of_linenumbers: 0,
            characteristics: SectionFlags::CODE,
        };
        assert_eq!(h.name_str(), ".text");
    }

    #[test]
    fn name_too_long_rejected() {
        assert!(matches!(
            SectionHeader::encode_name("waytoolongname"),
            Err(PeError::NameTooLong(_))
        ));
    }

    #[test]
    fn full_width_name_round_trips() {
        let n = SectionHeader::encode_name("12345678").unwrap();
        assert_eq!(&n, b"12345678");
    }

    #[test]
    fn header_round_trip() {
        let h = SectionHeader {
            name: SectionHeader::encode_name(".demo").unwrap(),
            virtual_size: 0x500,
            virtual_address: 0x1000,
            size_of_raw_data: 0x600,
            pointer_to_raw_data: 0x400,
            pointer_to_relocations: 0,
            pointer_to_linenumbers: 0,
            number_of_relocations: 0,
            number_of_linenumbers: 0,
            characteristics: SectionFlags::CODE,
        };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), SECTION_HEADER_SIZE);
        assert_eq!(SectionHeader::parse(&buf, 0).unwrap(), h);
    }

    #[test]
    fn contains_rva_uses_virtual_extent() {
        let h = SectionHeader {
            name: SectionHeader::encode_name(".t").unwrap(),
            virtual_size: 0x1000,
            virtual_address: 0x2000,
            size_of_raw_data: 0x200,
            pointer_to_raw_data: 0x400,
            pointer_to_relocations: 0,
            pointer_to_linenumbers: 0,
            number_of_relocations: 0,
            number_of_linenumbers: 0,
            characteristics: SectionFlags::CODE,
        };
        let s = Section::new(h, vec![0; 0x200]);
        assert!(s.contains_rva(0x2000));
        assert!(s.contains_rva(0x2FFF));
        assert!(!s.contains_rva(0x3000));
        assert!(!s.contains_rva(0x1FFF));
    }
}
