//! [`BinaryFormat`] implementation: `MachoFile` as the second backend of
//! the format-neutral binary layer.

use crate::{MachoFile, MachoSection, Segment64};
use mpass_binfmt::{
    BinaryError, BinaryFormat, Format, ImportSummary, Loadable, ModifiableKind,
    ModifiableRegion, SectionKind, SectionMeta, SectionTraits,
};
use rand::RngCore;

/// Section names real Mach-O toolchains emit; anything else reads as
/// invented (the format-neutral analogue of PE's `.text`/`.data` list).
const STANDARD_NAMES: &[&str] = &["__text", "__data", "__const", "__bss", "__cstring", "__stubs"];

/// Classify a Mach-O section: well-known toolchain names first, then the
/// flag/protection traits — the same two-step scheme `mpass_pe` uses.
pub fn classify_section(name: &str, sect: &MachoSection, seg: &Segment64) -> SectionKind {
    match name {
        "__text" | "__stubs" | "__stub_helper" => SectionKind::Code,
        "__data" => SectionKind::Data,
        "__const" | "__cstring" | "__rodata" => SectionKind::ReadOnlyData,
        "__bss" | "__common" => SectionKind::Bss,
        "__thread_data" | "__thread_bss" | "__thread_vars" => SectionKind::Tls,
        "__la_symbol_ptr" | "__got" | "__nl_symbol_ptr" => SectionKind::Import,
        _ => SectionKind::from_traits(SectionTraits {
            code: sect.has_instructions() || seg.is_executable(),
            uninitialized: sect.is_zerofill(),
            initialized_data: !sect.is_zerofill() && !sect.data.is_empty(),
            writable: seg.is_writable(),
        }),
    }
}

impl Loadable for MachoFile {
    fn entry_point(&self) -> u64 {
        MachoFile::entry_point(self)
    }

    fn map_image_bounded(&self, max_bytes: usize) -> Result<Vec<u8>, BinaryError> {
        Ok(MachoFile::map_image_bounded(self, max_bytes)?)
    }
}

impl BinaryFormat for MachoFile {
    fn format(&self) -> Format {
        Format::MachO
    }

    fn to_bytes(&self) -> Vec<u8> {
        MachoFile::to_bytes(self)
    }

    fn section_count(&self) -> usize {
        MachoFile::section_count(self)
    }

    fn section_meta(&self, index: usize) -> Option<SectionMeta> {
        let (seg, s) = self.section_at(index)?;
        let name = s.name();
        Some(SectionMeta {
            kind: classify_section(&name, s, seg),
            standard_name: STANDARD_NAMES.contains(&name.as_str()),
            name,
            virtual_address: s.addr,
            virtual_size: s.size,
            file_offset: s.offset as usize,
            file_size: s.data.len(),
            executable: s.has_instructions() || seg.is_executable(),
            writable: seg.is_writable(),
        })
    }

    fn section_data(&self, index: usize) -> Option<&[u8]> {
        self.section_at(index).map(|(_, s)| s.data.as_slice())
    }

    fn section_data_mut(&mut self, index: usize) -> Option<&mut [u8]> {
        self.section_at_mut(index).map(|s| s.data.as_mut_slice())
    }

    fn add_section(
        &mut self,
        name: &str,
        data: Vec<u8>,
        kind: SectionKind,
    ) -> Result<u64, BinaryError> {
        Ok(MachoFile::add_section(self, name, data, kind)?)
    }

    fn can_add_sections(&self, n: usize) -> bool {
        MachoFile::can_add_sections(self, n)
    }

    fn next_free_va(&self) -> u64 {
        MachoFile::next_free_va(self)
    }

    fn set_entry_point(&mut self, va: u64) -> Result<(), BinaryError> {
        Ok(MachoFile::set_entry_point(self, va)?)
    }

    fn section_index_containing_va(&self, va: u64) -> Option<usize> {
        MachoFile::section_index_containing_va(self, va)
    }

    fn va_to_file_offset(&self, va: u64) -> Option<usize> {
        MachoFile::va_to_file_offset(self, va)
    }

    fn read_virtual(&self, va: u64, len: usize) -> Vec<u8> {
        MachoFile::read_virtual(self, va, len)
    }

    fn write_virtual(&mut self, va: u64, bytes: &[u8]) -> Result<(), BinaryError> {
        Ok(MachoFile::write_virtual(self, va, bytes)?)
    }

    fn overlay(&self) -> &[u8] {
        &self.overlay
    }

    fn append_overlay(&mut self, bytes: &[u8]) {
        MachoFile::append_overlay(self, bytes);
    }

    fn truncate_overlay(&mut self, len: usize) {
        MachoFile::truncate_overlay(self, len);
    }

    fn randomize_free_headers(&mut self, rng: &mut dyn RngCore) {
        MachoFile::randomize_free_headers(self, rng);
    }

    fn finalize(&mut self) {
        // Mach-O carries no whole-file checksum; counts are derived at
        // serialization time, so there is nothing to recompute.
    }

    fn timestamp(&self) -> u32 {
        MachoFile::timestamp(self)
    }

    fn modifiable_positions(&self) -> Vec<ModifiableRegion> {
        let mut out = Vec::new();
        let cmds_end = crate::cmds::MACH_HEADER_SIZE + self.sizeofcmds() as usize;
        // Gap between the load-command region and the first section's data.
        let mut spans: Vec<(usize, usize)> = self
            .sections()
            .filter(|s| !s.is_zerofill() && s.offset != 0)
            .map(|s| (s.offset as usize, s.offset as usize + s.data.len()))
            .collect();
        spans.sort_unstable();
        if let Some(&(first, _)) = spans.first() {
            if first > cmds_end {
                out.push(ModifiableRegion {
                    kind: ModifiableKind::HeaderGap,
                    file_offset: cmds_end,
                    len: first - cmds_end,
                });
            }
        }
        // Alignment slack between consecutive sections' on-disk extents.
        let mut covered_end = spans.first().map(|&(_, e)| e).unwrap_or(cmds_end);
        for &(start, end) in spans.iter().skip(1) {
            if start > covered_end {
                out.push(ModifiableRegion {
                    kind: ModifiableKind::SectionSlack,
                    file_offset: covered_end,
                    len: start - covered_end,
                });
            }
            covered_end = covered_end.max(end);
        }
        // The overlay trails the serialized file.
        if !self.overlay.is_empty() {
            out.push(ModifiableRegion {
                kind: ModifiableKind::Overlay,
                file_offset: self.data_end(),
                len: self.overlay.len(),
            });
        }
        out
    }

    fn imports_summary(&self) -> Option<ImportSummary> {
        let names = self.dylib_names();
        if names.is_empty() {
            return None;
        }
        // Dylib linkage names the library surface but not individual
        // symbols in this substrate; symbol granularity stays empty.
        Some(ImportSummary { libraries: names.len(), symbol_count: 0, symbols: names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntryStyle, MachoBuilder};

    fn build() -> MachoFile {
        let mut b = MachoBuilder::new();
        b.add_section("__text", &[0x90; 300], SectionKind::Code)
            .add_section("__data", &[0x42; 100], SectionKind::Data)
            .add_dylib("/usr/lib/libSystem.B.dylib", 0x5000_0000)
            .set_entry_section("__text", 0);
        b.build().unwrap()
    }

    #[test]
    fn trait_view_matches_inherent_view() {
        let m = build();
        let dynm: &dyn BinaryFormat = &m;
        assert_eq!(dynm.format(), Format::MachO);
        assert_eq!(dynm.section_count(), 2);
        assert_eq!(dynm.entry_point(), MachoFile::entry_point(&m));
        assert_eq!(dynm.to_bytes(), MachoFile::to_bytes(&m));
        let meta = dynm.section_meta(0).unwrap();
        assert_eq!(meta.name, "__text");
        assert_eq!(meta.kind, SectionKind::Code);
        assert!(meta.standard_name && meta.executable && !meta.writable);
        assert!(dynm.section_meta(2).is_none());
    }

    #[test]
    fn add_section_round_trips_and_maps() {
        let mut m = build();
        assert!(BinaryFormat::can_add_sections(&m, 2));
        let va =
            BinaryFormat::add_section(&mut m, "__keys", vec![7u8; 64], SectionKind::Resource)
                .unwrap();
        assert_eq!(BinaryFormat::section_index_containing_va(&m, va), Some(2));
        let re = MachoFile::parse(&BinaryFormat::to_bytes(&m)).unwrap();
        assert_eq!(re, m);
        assert_eq!(BinaryFormat::read_virtual(&re, va, 4), vec![7u8; 4]);
    }

    #[test]
    fn entry_retarget_both_styles() {
        for style in [EntryStyle::Main, EntryStyle::UnixThread] {
            let mut b = MachoBuilder::new();
            b.add_section("__text", &[0x90; 64], SectionKind::Code)
                .set_entry_style(style)
                .set_entry_section("__text", 8);
            let mut m = b.build().unwrap();
            let old = Loadable::entry_point(&m);
            assert_eq!(old, 0x1008, "{style:?}");
            let target = old + 16;
            BinaryFormat::set_entry_point(&mut m, target).unwrap();
            assert_eq!(Loadable::entry_point(&m), target, "{style:?}");
            let re = MachoFile::parse(&m.to_bytes()).unwrap();
            assert_eq!(re.entry_point(), target, "{style:?}");
        }
    }

    #[test]
    fn modifiable_positions_are_behaviour_free() {
        let mut m = build();
        m.append_overlay(&[0xAB; 128]);
        let regions = BinaryFormat::modifiable_positions(&m);
        let bytes = m.to_bytes();
        assert!(regions.iter().any(|r| r.kind == ModifiableKind::Overlay && r.len == 128));
        assert!(regions.iter().any(|r| r.kind == ModifiableKind::HeaderGap));
        let mut mutated = bytes.clone();
        for r in &regions {
            assert!(r.file_range().end <= mutated.len(), "{r:?} out of bounds");
            for b in &mut mutated[r.file_range()] {
                *b = 0x5A;
            }
        }
        let re = MachoFile::parse(&mutated).unwrap();
        assert_eq!(re.section_count(), m.section_count());
        assert_eq!(re.entry_point(), m.entry_point());
        for i in 0..re.section_count() {
            assert_eq!(
                BinaryFormat::section_data(&re, i),
                BinaryFormat::section_data(&m, i),
                "section {i} bytes changed"
            );
        }
    }

    #[test]
    fn randomize_free_headers_keeps_structure() {
        use rand::SeedableRng;
        let mut m = build();
        let before = m.clone();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        BinaryFormat::randomize_free_headers(&mut m, &mut rng);
        assert_ne!(m.header.reserved, before.header.reserved);
        assert_ne!(MachoFile::timestamp(&m), MachoFile::timestamp(&before));
        assert_eq!(m.section_count(), before.section_count());
        assert_eq!(m.entry_point(), before.entry_point());
        let re = MachoFile::parse(&m.to_bytes()).unwrap();
        assert_eq!(re, m);
    }

    #[test]
    fn imports_surface_dylibs() {
        let m = build();
        let summary = BinaryFormat::imports_summary(&m).unwrap();
        assert_eq!(summary.libraries, 1);
        assert_eq!(summary.symbols, vec!["/usr/lib/libSystem.B.dylib".to_owned()]);
        let mut b = MachoBuilder::new();
        b.add_section("__text", &[0x90; 16], SectionKind::Code).set_entry_section("__text", 0);
        assert!(BinaryFormat::imports_summary(&b.build().unwrap()).is_none());
    }
}
