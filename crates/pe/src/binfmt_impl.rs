//! [`BinaryFormat`] implementation: `PeFile` as the first backend of the
//! format-neutral binary layer.
//!
//! Everything here delegates to the existing inherent API so that the PE
//! path through format-generic pipelines stays bit-exact with the
//! PE-specific code it replaced: same flag constants per section kind,
//! same RNG draw order for header randomization, same address arithmetic.

use crate::section::classify_section;
use crate::{PeError, PeFile, PeView, SectionFlags};
use mpass_binfmt::{
    BinaryError, BinaryFormat, Format, ImportSummary, Loadable, ModifiableKind,
    ModifiableRegion, SectionKind, SectionMeta,
};
use rand::{Rng, RngCore};

impl From<PeError> for BinaryError {
    fn from(e: PeError) -> Self {
        match e {
            PeError::Truncated { context, needed, available } => {
                BinaryError::Truncated { context, needed, available }
            }
            PeError::BadMagic { context, found } => BinaryError::BadMagic { context, found },
            PeError::InvalidHeader { field, reason } => {
                BinaryError::InvalidHeader { field, reason }
            }
            PeError::DuplicateSection(n) => BinaryError::DuplicateSection(n),
            PeError::MissingSection(n) => BinaryError::MissingSection(n),
            PeError::NameTooLong(n) => BinaryError::NameTooLong(n),
            PeError::NoHeaderSpace => BinaryError::NoHeaderSpace,
            PeError::UnmappedRva(rva) => BinaryError::UnmappedAddress(rva as u64),
            other => BinaryError::Malformed(other.to_string()),
        }
    }
}

/// Section names real PE toolchains emit; anything else reads as invented.
const STANDARD_NAMES: &[&str] =
    &[".text", ".data", ".rdata", ".rsrc", ".reloc", ".bss", ".idata", ".tls"];

/// The characteristics each format-neutral kind serializes with when the
/// attack adds a section through the trait. `Code` and `Resource` must map
/// to the exact constants the PE-specific pipeline used (stub and keys
/// sections respectively) to keep seeded attacks byte-identical.
fn flags_for_kind(kind: SectionKind) -> SectionFlags {
    match kind {
        SectionKind::Code => SectionFlags::CODE,
        SectionKind::Resource => SectionFlags::RSRC,
        SectionKind::Data | SectionKind::Tls | SectionKind::Other => SectionFlags::DATA,
        SectionKind::ReadOnlyData | SectionKind::Relocation | SectionKind::Import => {
            SectionFlags::RDATA
        }
        SectionKind::Bss => SectionFlags::BSS,
    }
}

fn rva32(va: u64) -> Result<u32, BinaryError> {
    u32::try_from(va).map_err(|_| BinaryError::UnmappedAddress(va))
}

impl Loadable for PeFile {
    fn entry_point(&self) -> u64 {
        PeFile::entry_point(self) as u64
    }

    fn map_image_bounded(&self, max_bytes: usize) -> Result<Vec<u8>, BinaryError> {
        Ok(PeFile::map_image_bounded(self, max_bytes)?)
    }
}

/// The sandbox loads candidates through the view, so no section byte is
/// copied before mapping.
impl Loadable for PeView<'_> {
    fn entry_point(&self) -> u64 {
        PeView::entry_point(self) as u64
    }

    fn map_image_bounded(&self, max_bytes: usize) -> Result<Vec<u8>, BinaryError> {
        Ok(PeView::map_image_bounded(self, max_bytes)?)
    }
}

impl BinaryFormat for PeFile {
    fn format(&self) -> Format {
        Format::Pe
    }

    fn to_bytes(&self) -> Vec<u8> {
        PeFile::to_bytes(self)
    }

    fn section_count(&self) -> usize {
        self.sections().len()
    }

    fn section_meta(&self, index: usize) -> Option<SectionMeta> {
        let s = self.sections().get(index)?;
        let h = s.header();
        let name = s.name();
        Some(SectionMeta {
            kind: classify_section(&name, h.characteristics),
            standard_name: STANDARD_NAMES.contains(&name.as_str()),
            name,
            virtual_address: h.virtual_address as u64,
            virtual_size: h.virtual_size as u64,
            file_offset: h.pointer_to_raw_data as usize,
            // PEM's ablation contract: the span actually written verbatim
            // into the file (hostile headers may declare more than exists).
            file_size: s.data().len().min(h.size_of_raw_data as usize),
            executable: h.characteristics.is_executable() || h.characteristics.is_code(),
            writable: h.characteristics.is_writable(),
        })
    }

    fn section_data(&self, index: usize) -> Option<&[u8]> {
        self.sections().get(index).map(|s| s.data())
    }

    fn section_data_mut(&mut self, index: usize) -> Option<&mut [u8]> {
        self.sections_mut().get_mut(index).map(|s| s.data_mut().as_mut_slice())
    }

    fn add_section(
        &mut self,
        name: &str,
        data: Vec<u8>,
        kind: SectionKind,
    ) -> Result<u64, BinaryError> {
        let rva = PeFile::add_section(self, name, data, flags_for_kind(kind))?;
        Ok(rva as u64)
    }

    fn can_add_sections(&self, n: usize) -> bool {
        PeFile::can_add_sections(self, n)
    }

    fn next_free_va(&self) -> u64 {
        self.next_free_rva() as u64
    }

    fn set_entry_point(&mut self, va: u64) -> Result<(), BinaryError> {
        PeFile::set_entry_point(self, rva32(va)?)?;
        Ok(())
    }

    fn section_index_containing_va(&self, va: u64) -> Option<usize> {
        self.section_index_containing_rva(u32::try_from(va).ok()?)
    }

    fn va_to_file_offset(&self, va: u64) -> Option<usize> {
        let off = self.rva_to_offset(u32::try_from(va).ok()?)?;
        Some(off as usize)
    }

    fn read_virtual(&self, va: u64, len: usize) -> Vec<u8> {
        match u32::try_from(va) {
            Ok(rva) => PeFile::read_virtual(self, rva, len),
            Err(_) => vec![0; len],
        }
    }

    fn write_virtual(&mut self, va: u64, bytes: &[u8]) -> Result<(), BinaryError> {
        PeFile::write_virtual(self, rva32(va)?, bytes)?;
        Ok(())
    }

    fn overlay(&self) -> &[u8] {
        PeFile::overlay(self)
    }

    fn append_overlay(&mut self, bytes: &[u8]) {
        PeFile::append_overlay(self, bytes);
    }

    fn truncate_overlay(&mut self, len: usize) {
        PeFile::truncate_overlay(self, len);
    }

    fn randomize_free_headers(&mut self, rng: &mut dyn RngCore) {
        // Draw order and ranges are frozen: this is the exact sequence the
        // modification engine performed inline before the trait existed,
        // and seeded campaigns must replay byte-identically through it.
        self.set_timestamp(rng.gen_range(0x3000_0000..0x6500_0000));
        self.set_image_version(rng.gen_range(0..20), rng.gen_range(0..100));
    }

    fn finalize(&mut self) {
        self.update_checksum();
    }

    fn timestamp(&self) -> u32 {
        self.coff().time_date_stamp
    }

    fn modifiable_positions(&self) -> Vec<ModifiableRegion> {
        let mut out = Vec::new();
        // Gap between the last header structure and the first raw data.
        let used = self.header_size();
        let first_raw = self
            .sections()
            .iter()
            .filter(|s| s.header().size_of_raw_data > 0)
            .map(|s| s.header().pointer_to_raw_data as usize)
            .min();
        if let Some(first) = first_raw {
            if first > used {
                out.push(ModifiableRegion {
                    kind: ModifiableKind::HeaderGap,
                    file_offset: used,
                    len: first - used,
                });
            }
        }
        // Alignment slack inside each section's on-disk extent.
        for s in self.sections() {
            let h = s.header();
            let raw = h.size_of_raw_data as usize;
            let used = s.data().len().min(raw);
            // Bytes the loader maps but execution never references only
            // exist past virtual_size; stay conservative and only expose
            // the tail beyond the stored data.
            if raw > used && h.pointer_to_raw_data > 0 {
                out.push(ModifiableRegion {
                    kind: ModifiableKind::SectionSlack,
                    file_offset: h.pointer_to_raw_data as usize + used,
                    len: raw - used,
                });
            }
        }
        // The overlay trails the serialized file.
        let overlay = PeFile::overlay(self);
        if !overlay.is_empty() {
            let total = self.to_bytes().len();
            out.push(ModifiableRegion {
                kind: ModifiableKind::Overlay,
                file_offset: total - overlay.len(),
                len: overlay.len(),
            });
        }
        out
    }

    fn imports_summary(&self) -> Option<ImportSummary> {
        let table = self.imports().ok().flatten()?;
        Some(ImportSummary {
            libraries: table.dlls.len(),
            symbol_count: table.symbol_count(),
            symbols: table.names().iter().map(|n| n.to_string()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeBuilder, SECTION_HEADER_SIZE};

    fn build() -> PeFile {
        let mut b = PeBuilder::new();
        b.add_section(".text", vec![0x90; 300], SectionFlags::CODE).unwrap();
        b.add_section(".data", vec![0x42; 100], SectionFlags::DATA).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn trait_view_matches_inherent_view() {
        let pe = build();
        let dynpe: &dyn BinaryFormat = &pe;
        assert_eq!(dynpe.format(), Format::Pe);
        assert_eq!(dynpe.section_count(), 2);
        assert_eq!(dynpe.entry_point(), PeFile::entry_point(&pe) as u64);
        assert_eq!(dynpe.to_bytes(), PeFile::to_bytes(&pe));
        let meta = dynpe.section_meta(0).unwrap();
        assert_eq!(meta.name, ".text");
        assert_eq!(meta.kind, SectionKind::Code);
        assert!(meta.standard_name && meta.executable && !meta.writable);
        assert_eq!(meta.virtual_address, pe.sections()[0].header().virtual_address as u64);
        assert!(dynpe.section_meta(2).is_none());
    }

    #[test]
    fn trait_add_section_matches_flag_constants() {
        let mut a = build();
        let mut b = build();
        let rva_a =
            BinaryFormat::add_section(&mut a, ".xkeys", vec![7; 64], SectionKind::Resource)
                .unwrap();
        let rva_b = PeFile::add_section(&mut b, ".xkeys", vec![7; 64], SectionFlags::RSRC).unwrap();
        assert_eq!(rva_a, rva_b as u64);
        assert_eq!(PeFile::to_bytes(&a), PeFile::to_bytes(&b));
    }

    #[test]
    fn randomize_free_headers_matches_inline_sequence() {
        use rand::SeedableRng;
        let mut a = build();
        let mut b = build();
        let mut r1 = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        a.randomize_free_headers(&mut r1);
        // The historical inline sequence from the modification engine.
        b.set_timestamp(r2.gen_range(0x3000_0000..0x6500_0000));
        b.set_image_version(r2.gen_range(0..20), r2.gen_range(0..100));
        assert_eq!(PeFile::to_bytes(&a), PeFile::to_bytes(&b));
        assert_eq!(r1.next_u64(), r2.next_u64(), "same number of draws");
    }

    #[test]
    fn modifiable_positions_cover_gap_and_overlay() {
        let mut pe = build();
        pe.append_overlay(&[0xAB; 128]);
        let regions = pe.modifiable_positions();
        let bytes = PeFile::to_bytes(&pe);
        assert!(regions.iter().any(|r| r.kind == ModifiableKind::Overlay && r.len == 128));
        for r in &regions {
            assert!(r.file_range().end <= bytes.len(), "{r:?} out of bounds");
        }
        // Rewriting every reported byte must keep the image parseable and
        // structurally identical.
        let mut mutated = bytes.clone();
        for r in &regions {
            for b in &mut mutated[r.file_range()] {
                *b = 0x5A;
            }
        }
        let re = PeFile::parse(&mutated).unwrap();
        assert_eq!(re.sections().len(), pe.sections().len());
        assert_eq!(re.entry_point(), pe.entry_point());
    }

    #[test]
    fn error_conversion_is_faithful() {
        let e: BinaryError = PeError::UnmappedRva(0x40).into();
        assert_eq!(e, BinaryError::UnmappedAddress(0x40));
        let e: BinaryError = PeError::NoHeaderSpace.into();
        assert_eq!(e, BinaryError::NoHeaderSpace);
    }

    #[test]
    fn section_header_size_is_stable() {
        // modifiable_positions' header-gap math rests on header_size();
        // anchor the constant it builds on.
        assert_eq!(SECTION_HEADER_SIZE, 40);
    }
}
