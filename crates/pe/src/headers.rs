//! PE header structures: DOS header, COFF file header, PE32 optional header
//! and data directories, with byte-exact read/write routines.

use crate::error::PeError;
use serde::{Deserialize, Serialize};

/// `MZ` — the DOS header magic.
pub const DOS_MAGIC: u16 = 0x5A4D;
/// `PE\0\0` — the PE signature that `e_lfanew` points at.
pub const PE_SIGNATURE: [u8; 4] = *b"PE\0\0";
/// Magic of the 32-bit optional header.
pub const PE32_MAGIC: u16 = 0x010B;
/// Size of the serialized DOS header (without the stub).
pub const DOS_HEADER_SIZE: usize = 64;
/// Number of data-directory entries in the optional header.
pub const DATA_DIRECTORY_COUNT: usize = 16;
/// Serialized size of the PE32 optional header including data directories.
pub const OPTIONAL_HEADER_SIZE: usize = 96 + DATA_DIRECTORY_COUNT * 8;

pub(crate) fn read_u16(buf: &[u8], at: usize, context: &'static str) -> Result<u16, PeError> {
    buf.get(at..at + 2)
        .map(|b| u16::from_le_bytes([b[0], b[1]]))
        .ok_or(PeError::Truncated { context, needed: at + 2, available: buf.len() })
}

pub(crate) fn read_u32(buf: &[u8], at: usize, context: &'static str) -> Result<u32, PeError> {
    buf.get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(PeError::Truncated { context, needed: at + 4, available: buf.len() })
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The legacy DOS header (`IMAGE_DOS_HEADER`). Only the magic and
/// `e_lfanew` matter to the PE loader; the remaining fields and the DOS stub
/// are preserved verbatim so that byte-identical round-trips are possible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DosHeader {
    /// Must be [`DOS_MAGIC`].
    pub e_magic: u16,
    /// The 58 bytes between the magic and `e_lfanew`, kept opaque.
    pub reserved: Vec<u8>,
    /// File offset of the PE signature.
    pub e_lfanew: u32,
    /// DOS stub program between the DOS header and the PE signature.
    pub stub: Vec<u8>,
}

impl DosHeader {
    /// A minimal header whose `e_lfanew` immediately follows a canonical
    /// 64-byte DOS stub.
    pub fn minimal() -> Self {
        let stub: Vec<u8> = b"This program cannot be run in DOS mode.\r\r\n$\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
            .to_vec();
        DosHeader {
            e_magic: DOS_MAGIC,
            reserved: vec![0u8; DOS_HEADER_SIZE - 2 - 4],
            e_lfanew: (DOS_HEADER_SIZE + stub.len()) as u32,
            stub,
        }
    }

    /// This header with its opaque bytes borrowed.
    pub fn view(&self) -> DosHeaderView<'_> {
        DosHeaderView {
            e_magic: self.e_magic,
            reserved: &self.reserved,
            e_lfanew: self.e_lfanew,
            stub: &self.stub,
        }
    }
}

/// A [`DosHeader`] whose `reserved` bytes and stub are borrowed from the
/// parsed input, as [`crate::PeView`] holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DosHeaderView<'a> {
    /// Must be [`DOS_MAGIC`].
    pub e_magic: u16,
    /// The 58 bytes between the magic and `e_lfanew`, kept opaque.
    pub reserved: &'a [u8],
    /// File offset of the PE signature.
    pub e_lfanew: u32,
    /// DOS stub program between the DOS header and the PE signature.
    pub stub: &'a [u8],
}

impl<'a> DosHeaderView<'a> {
    pub(crate) fn parse(buf: &'a [u8]) -> Result<Self, PeError> {
        let e_magic = read_u16(buf, 0, "dos header")?;
        if e_magic != DOS_MAGIC {
            return Err(PeError::BadMagic { context: "dos header", found: e_magic as u32 });
        }
        if buf.len() < DOS_HEADER_SIZE {
            return Err(PeError::Truncated {
                context: "dos header",
                needed: DOS_HEADER_SIZE,
                available: buf.len(),
            });
        }
        let e_lfanew = read_u32(buf, 0x3C, "dos header e_lfanew")?;
        if (e_lfanew as usize) < DOS_HEADER_SIZE || e_lfanew as usize > buf.len() {
            return Err(PeError::InvalidHeader {
                field: "e_lfanew",
                reason: format!("{e_lfanew:#x} outside image"),
            });
        }
        let reserved = &buf[2..0x3C];
        let stub = &buf[DOS_HEADER_SIZE..e_lfanew as usize];
        Ok(DosHeaderView { e_magic, reserved, e_lfanew, stub })
    }

    /// Copy the borrowed bytes into an owned [`DosHeader`].
    pub fn to_owned(self) -> DosHeader {
        DosHeader {
            e_magic: self.e_magic,
            reserved: self.reserved.to_vec(),
            e_lfanew: self.e_lfanew,
            stub: self.stub.to_vec(),
        }
    }

    pub(crate) fn write(self, out: &mut Vec<u8>) {
        put_u16(out, self.e_magic);
        out.extend_from_slice(self.reserved);
        put_u32(out, self.e_lfanew);
        out.extend_from_slice(self.stub);
    }
}

/// The COFF file header (`IMAGE_FILE_HEADER`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoffHeader {
    /// Target machine; `0x014C` (i386) by default.
    pub machine: u16,
    /// Number of entries in the section table.
    pub number_of_sections: u16,
    /// Link time as a Unix timestamp. One of the semantics-free fields the
    /// attack may rewrite.
    pub time_date_stamp: u32,
    /// Deprecated COFF symbol table pointer (kept for fidelity).
    pub pointer_to_symbol_table: u32,
    /// Deprecated COFF symbol count.
    pub number_of_symbols: u32,
    /// Size of the optional header that follows.
    pub size_of_optional_header: u16,
    /// File characteristic flags (`IMAGE_FILE_*`).
    pub characteristics: u16,
}

impl CoffHeader {
    /// Serialized size in bytes.
    pub const SIZE: usize = 20;
    /// `IMAGE_FILE_MACHINE_I386`.
    pub const MACHINE_I386: u16 = 0x014C;
    /// `IMAGE_FILE_EXECUTABLE_IMAGE | IMAGE_FILE_32BIT_MACHINE`.
    pub const CHARACTERISTICS_EXE: u16 = 0x0102;

    pub(crate) fn parse(buf: &[u8], at: usize) -> Result<Self, PeError> {
        Ok(CoffHeader {
            machine: read_u16(buf, at, "coff machine")?,
            number_of_sections: read_u16(buf, at + 2, "coff number_of_sections")?,
            time_date_stamp: read_u32(buf, at + 4, "coff time_date_stamp")?,
            pointer_to_symbol_table: read_u32(buf, at + 8, "coff symbol table")?,
            number_of_symbols: read_u32(buf, at + 12, "coff symbol count")?,
            size_of_optional_header: read_u16(buf, at + 16, "coff optional size")?,
            characteristics: read_u16(buf, at + 18, "coff characteristics")?,
        })
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        put_u16(out, self.machine);
        put_u16(out, self.number_of_sections);
        put_u32(out, self.time_date_stamp);
        put_u32(out, self.pointer_to_symbol_table);
        put_u32(out, self.number_of_symbols);
        put_u16(out, self.size_of_optional_header);
        put_u16(out, self.characteristics);
    }
}

impl Default for CoffHeader {
    fn default() -> Self {
        CoffHeader {
            machine: Self::MACHINE_I386,
            number_of_sections: 0,
            time_date_stamp: 0x5F00_0000,
            pointer_to_symbol_table: 0,
            number_of_symbols: 0,
            size_of_optional_header: OPTIONAL_HEADER_SIZE as u16,
            characteristics: Self::CHARACTERISTICS_EXE,
        }
    }
}

/// One entry of the optional header's data-directory array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataDirectory {
    /// RVA of the table this directory describes (0 when absent).
    pub virtual_address: u32,
    /// Size of the table in bytes.
    pub size: u32,
}

/// The PE32 optional header (`IMAGE_OPTIONAL_HEADER32`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptionalHeader {
    /// [`PE32_MAGIC`].
    pub magic: u16,
    /// Linker major version (cosmetic).
    pub major_linker_version: u8,
    /// Linker minor version (cosmetic).
    pub minor_linker_version: u8,
    /// Sum of all code sections' raw sizes.
    pub size_of_code: u32,
    /// Sum of all initialized-data sections' raw sizes.
    pub size_of_initialized_data: u32,
    /// Sum of uninitialized-data sizes.
    pub size_of_uninitialized_data: u32,
    /// RVA where execution starts.
    pub address_of_entry_point: u32,
    /// RVA of the first code byte.
    pub base_of_code: u32,
    /// RVA of the first data byte (PE32 only).
    pub base_of_data: u32,
    /// Preferred load address.
    pub image_base: u32,
    /// In-memory alignment of sections.
    pub section_alignment: u32,
    /// On-disk alignment of section raw data.
    pub file_alignment: u32,
    /// Required OS major version.
    pub major_operating_system_version: u16,
    /// Required OS minor version.
    pub minor_operating_system_version: u16,
    /// Image major version (semantics-free).
    pub major_image_version: u16,
    /// Image minor version (semantics-free).
    pub minor_image_version: u16,
    /// Subsystem major version.
    pub major_subsystem_version: u16,
    /// Subsystem minor version.
    pub minor_subsystem_version: u16,
    /// Reserved, must be zero.
    pub win32_version_value: u32,
    /// Virtual size of the mapped image, section-aligned.
    pub size_of_image: u32,
    /// Bytes of headers at the start of the file, file-aligned.
    pub size_of_headers: u32,
    /// PE checksum (optional for EXEs; recomputed on demand).
    pub checksum: u32,
    /// `IMAGE_SUBSYSTEM_*`; 3 = console.
    pub subsystem: u16,
    /// DLL characteristic flags.
    pub dll_characteristics: u16,
    /// Stack reserve size.
    pub size_of_stack_reserve: u32,
    /// Stack commit size.
    pub size_of_stack_commit: u32,
    /// Heap reserve size.
    pub size_of_heap_reserve: u32,
    /// Heap commit size.
    pub size_of_heap_commit: u32,
    /// Obsolete loader flags.
    pub loader_flags: u32,
    /// Number of data directories that follow (always 16 here).
    pub number_of_rva_and_sizes: u32,
    /// The data-directory array.
    pub data_directories: [DataDirectory; DATA_DIRECTORY_COUNT],
}

impl Default for OptionalHeader {
    fn default() -> Self {
        OptionalHeader {
            magic: PE32_MAGIC,
            major_linker_version: 14,
            minor_linker_version: 0,
            size_of_code: 0,
            size_of_initialized_data: 0,
            size_of_uninitialized_data: 0,
            address_of_entry_point: 0,
            base_of_code: crate::DEFAULT_SECTION_ALIGNMENT,
            base_of_data: 0,
            image_base: crate::DEFAULT_IMAGE_BASE,
            section_alignment: crate::DEFAULT_SECTION_ALIGNMENT,
            file_alignment: crate::DEFAULT_FILE_ALIGNMENT,
            major_operating_system_version: 6,
            minor_operating_system_version: 0,
            major_image_version: 0,
            minor_image_version: 0,
            major_subsystem_version: 6,
            minor_subsystem_version: 0,
            win32_version_value: 0,
            size_of_image: 0,
            size_of_headers: 0,
            checksum: 0,
            subsystem: 3,
            dll_characteristics: 0,
            size_of_stack_reserve: 0x0010_0000,
            size_of_stack_commit: 0x1000,
            size_of_heap_reserve: 0x0010_0000,
            size_of_heap_commit: 0x1000,
            loader_flags: 0,
            number_of_rva_and_sizes: DATA_DIRECTORY_COUNT as u32,
            data_directories: [DataDirectory::default(); DATA_DIRECTORY_COUNT],
        }
    }
}

impl OptionalHeader {
    pub(crate) fn parse(buf: &[u8], at: usize) -> Result<Self, PeError> {
        let magic = read_u16(buf, at, "optional magic")?;
        if magic != PE32_MAGIC {
            return Err(PeError::BadMagic { context: "optional header", found: magic as u32 });
        }
        let b = |o: usize| -> Result<u8, PeError> {
            buf.get(at + o).copied().ok_or(PeError::Truncated {
                context: "optional header",
                needed: at + o + 1,
                available: buf.len(),
            })
        };
        let mut h = OptionalHeader {
            magic,
            major_linker_version: b(2)?,
            minor_linker_version: b(3)?,
            size_of_code: read_u32(buf, at + 4, "size_of_code")?,
            size_of_initialized_data: read_u32(buf, at + 8, "size_of_initialized_data")?,
            size_of_uninitialized_data: read_u32(buf, at + 12, "size_of_uninitialized_data")?,
            address_of_entry_point: read_u32(buf, at + 16, "address_of_entry_point")?,
            base_of_code: read_u32(buf, at + 20, "base_of_code")?,
            base_of_data: read_u32(buf, at + 24, "base_of_data")?,
            image_base: read_u32(buf, at + 28, "image_base")?,
            section_alignment: read_u32(buf, at + 32, "section_alignment")?,
            file_alignment: read_u32(buf, at + 36, "file_alignment")?,
            major_operating_system_version: read_u16(buf, at + 40, "os major")?,
            minor_operating_system_version: read_u16(buf, at + 42, "os minor")?,
            major_image_version: read_u16(buf, at + 44, "image major")?,
            minor_image_version: read_u16(buf, at + 46, "image minor")?,
            major_subsystem_version: read_u16(buf, at + 48, "subsystem major")?,
            minor_subsystem_version: read_u16(buf, at + 50, "subsystem minor")?,
            win32_version_value: read_u32(buf, at + 52, "win32 version")?,
            size_of_image: read_u32(buf, at + 56, "size_of_image")?,
            size_of_headers: read_u32(buf, at + 60, "size_of_headers")?,
            checksum: read_u32(buf, at + 64, "checksum")?,
            subsystem: read_u16(buf, at + 68, "subsystem")?,
            dll_characteristics: read_u16(buf, at + 70, "dll characteristics")?,
            size_of_stack_reserve: read_u32(buf, at + 72, "stack reserve")?,
            size_of_stack_commit: read_u32(buf, at + 76, "stack commit")?,
            size_of_heap_reserve: read_u32(buf, at + 80, "heap reserve")?,
            size_of_heap_commit: read_u32(buf, at + 84, "heap commit")?,
            loader_flags: read_u32(buf, at + 88, "loader flags")?,
            number_of_rva_and_sizes: read_u32(buf, at + 92, "rva count")?,
            data_directories: [DataDirectory::default(); DATA_DIRECTORY_COUNT],
        };
        if h.file_alignment == 0 || !h.file_alignment.is_power_of_two() {
            return Err(PeError::InvalidHeader {
                field: "file_alignment",
                reason: format!("{} is not a power of two", h.file_alignment),
            });
        }
        if h.section_alignment < h.file_alignment {
            return Err(PeError::InvalidHeader {
                field: "section_alignment",
                reason: "smaller than file_alignment".into(),
            });
        }
        let n = (h.number_of_rva_and_sizes as usize).min(DATA_DIRECTORY_COUNT);
        for (i, dir) in h.data_directories.iter_mut().take(n).enumerate() {
            dir.virtual_address = read_u32(buf, at + 96 + i * 8, "data directory rva")?;
            dir.size = read_u32(buf, at + 96 + i * 8 + 4, "data directory size")?;
        }
        Ok(h)
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        put_u16(out, self.magic);
        out.push(self.major_linker_version);
        out.push(self.minor_linker_version);
        put_u32(out, self.size_of_code);
        put_u32(out, self.size_of_initialized_data);
        put_u32(out, self.size_of_uninitialized_data);
        put_u32(out, self.address_of_entry_point);
        put_u32(out, self.base_of_code);
        put_u32(out, self.base_of_data);
        put_u32(out, self.image_base);
        put_u32(out, self.section_alignment);
        put_u32(out, self.file_alignment);
        put_u16(out, self.major_operating_system_version);
        put_u16(out, self.minor_operating_system_version);
        put_u16(out, self.major_image_version);
        put_u16(out, self.minor_image_version);
        put_u16(out, self.major_subsystem_version);
        put_u16(out, self.minor_subsystem_version);
        put_u32(out, self.win32_version_value);
        put_u32(out, self.size_of_image);
        put_u32(out, self.size_of_headers);
        put_u32(out, self.checksum);
        put_u16(out, self.subsystem);
        put_u16(out, self.dll_characteristics);
        put_u32(out, self.size_of_stack_reserve);
        put_u32(out, self.size_of_stack_commit);
        put_u32(out, self.size_of_heap_reserve);
        put_u32(out, self.size_of_heap_commit);
        put_u32(out, self.loader_flags);
        put_u32(out, self.number_of_rva_and_sizes);
        for d in &self.data_directories {
            put_u32(out, d.virtual_address);
            put_u32(out, d.size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dos_round_trip() {
        let h = DosHeader::minimal();
        let mut buf = Vec::new();
        h.view().write(&mut buf);
        let h2 = DosHeaderView::parse(&buf).unwrap();
        assert_eq!(h2, h.view());
        assert_eq!(h2.to_owned(), h);
    }

    #[test]
    fn dos_rejects_bad_magic() {
        let mut buf = Vec::new();
        DosHeader::minimal().view().write(&mut buf);
        buf[0] = b'X';
        assert!(matches!(DosHeaderView::parse(&buf), Err(PeError::BadMagic { .. })));
    }

    #[test]
    fn coff_round_trip() {
        let h = CoffHeader { number_of_sections: 3, time_date_stamp: 42, ..CoffHeader::default() };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), CoffHeader::SIZE);
        assert_eq!(CoffHeader::parse(&buf, 0).unwrap(), h);
    }

    #[test]
    fn optional_round_trip() {
        let mut h = OptionalHeader {
            address_of_entry_point: 0x1234,
            size_of_image: 0x6000,
            size_of_headers: 0x400,
            ..OptionalHeader::default()
        };
        h.data_directories[2] = DataDirectory { virtual_address: 0x3000, size: 0x80 };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), OPTIONAL_HEADER_SIZE);
        assert_eq!(OptionalHeader::parse(&buf, 0).unwrap(), h);
    }

    #[test]
    fn optional_rejects_zero_alignment() {
        let h = OptionalHeader { file_alignment: 0, ..OptionalHeader::default() };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert!(matches!(
            OptionalHeader::parse(&buf, 0),
            Err(PeError::InvalidHeader { field: "file_alignment", .. })
        ));
    }

    #[test]
    fn optional_rejects_wrong_magic() {
        let h = OptionalHeader::default();
        let mut buf = Vec::new();
        h.write(&mut buf);
        buf[0] = 0x0B;
        buf[1] = 0x02; // PE32+
        assert!(matches!(OptionalHeader::parse(&buf, 0), Err(PeError::BadMagic { .. })));
    }

    #[test]
    fn truncated_reads_error() {
        assert!(matches!(
            CoffHeader::parse(&[0u8; 4], 0),
            Err(PeError::Truncated { .. })
        ));
    }
}
