//! Serialization of a [`PeFile`] back to on-disk bytes, plus the PE
//! checksum algorithm.

use crate::PeFile;

/// Round `v` up to a multiple of `align`, saturating at `u32::MAX` instead
/// of overflowing on hostile values near the top of the 32-bit range.
fn align_up(v: u32, align: u32) -> u32 {
    if align <= 1 {
        v
    } else {
        u32::try_from((v as u64).div_ceil(align as u64) * align as u64).unwrap_or(u32::MAX)
    }
}

impl PeFile {
    /// Serialize the image to its on-disk byte representation.
    ///
    /// The output places headers first (zero-padded to `size_of_headers`),
    /// then each section's raw data at its `pointer_to_raw_data`, then the
    /// overlay. Mutating methods keep those pointers consistent, so the
    /// result always re-parses to an equal [`PeFile`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.optional.size_of_headers as usize + 1024);
        self.headers().write(&mut out, self.sections.iter().map(|s| &s.header));
        // Pad headers out to size_of_headers.
        let hdr = self.optional.size_of_headers as usize;
        if out.len() < hdr {
            out.resize(hdr, 0);
        }
        for s in &self.sections {
            // A zero-size section stores no bytes, and — because parsing
            // only bounds-checks raw extents of sections that carry data —
            // its pointer may hostilely sit anywhere in the 32-bit range;
            // padding out to it would allocate gigabytes for nothing.
            if s.header.size_of_raw_data == 0 {
                continue;
            }
            let start = s.header.pointer_to_raw_data as usize;
            let end = start + s.header.size_of_raw_data as usize;
            if out.len() < end {
                out.resize(end, 0);
            }
            let n = s.data.len().min(s.header.size_of_raw_data as usize);
            out[start..start + n].copy_from_slice(&s.data[..n]);
        }
        out.extend_from_slice(&self.overlay);
        out
    }

    /// Recompute raw/virtual layout after structural edits (section data
    /// resized, sections added or removed).
    ///
    /// Assigns ascending, aligned `pointer_to_raw_data` / `virtual_address`
    /// values in table order, updates `size_of_raw_data`, `virtual_size`,
    /// `size_of_image`, `size_of_headers`, `size_of_code`,
    /// `size_of_initialized_data` and the section count.
    pub fn refresh_layout(&mut self) {
        let file_align = self.optional.file_alignment.max(1);
        let sect_align = self.optional.section_alignment.max(1);

        self.coff.number_of_sections = self.sections.len() as u16;
        // Never shrink the header region: preserving pre-existing slack keeps
        // round-trips stable and leaves room for future section headers.
        let hdr = align_up(
            u32::try_from(self.header_size())
                .unwrap_or(u32::MAX)
                .max(self.optional.size_of_headers),
            file_align,
        );
        self.optional.size_of_headers = hdr;

        // Accumulate in 64 bits and saturate: on pathological layouts (many
        // near-4GiB sections) the assigned addresses pin at u32::MAX rather
        // than wrapping, and serialization/strict parsing reject from there.
        let sat = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let mut raw = hdr as u64;
        let mut rva = align_up(hdr.max(sect_align), sect_align) as u64;
        let mut size_of_code = 0u64;
        let mut size_of_init = 0u64;
        for s in &mut self.sections {
            let raw_size = align_up(sat(s.data.len() as u64), file_align);
            s.data.resize(raw_size as usize, 0);
            s.header.size_of_raw_data = raw_size;
            s.header.pointer_to_raw_data = if raw_size == 0 { 0 } else { sat(raw) };
            if s.header.virtual_size == 0 || s.header.virtual_size < s.data.len() as u32 {
                s.header.virtual_size = s.data.len() as u32;
            }
            s.header.virtual_address = sat(rva);
            raw += raw_size as u64;
            rva = align_up(sat(rva + s.header.virtual_size.max(1) as u64), sect_align) as u64;
            if s.header.characteristics.is_code() {
                size_of_code += raw_size as u64;
            } else if s.header.characteristics.is_initialized_data() {
                size_of_init += raw_size as u64;
            }
        }
        self.optional.size_of_image = sat(rva);
        self.optional.size_of_code = sat(size_of_code);
        self.optional.size_of_initialized_data = sat(size_of_init);
        if let Some(first_code) =
            self.sections.iter().find(|s| s.header.characteristics.is_code())
        {
            self.optional.base_of_code = first_code.header.virtual_address;
        }
        if let Some(first_data) =
            self.sections.iter().find(|s| !s.header.characteristics.is_code())
        {
            self.optional.base_of_data = first_data.header.virtual_address;
        }
    }

    /// Compute the standard PE checksum over the serialized image (the
    /// checksum field itself is treated as zero, per the algorithm).
    pub fn compute_checksum(&self) -> u32 {
        let bytes = self.to_bytes();
        let checksum_offset = self.dos.e_lfanew as usize + 4 + crate::CoffHeader::SIZE + 64;
        let mut sum: u64 = 0;
        let mut i = 0;
        while i + 1 < bytes.len() {
            if i == checksum_offset || i == checksum_offset + 2 {
                i += 2;
                continue;
            }
            sum += u16::from_le_bytes([bytes[i], bytes[i + 1]]) as u64;
            sum = (sum & 0xFFFF) + (sum >> 16);
            i += 2;
        }
        if i < bytes.len() {
            sum += bytes[i] as u64;
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        sum = (sum & 0xFFFF) + (sum >> 16);
        (sum as u32) + bytes.len() as u32
    }

    /// Store the current [`PeFile::compute_checksum`] into the header.
    pub fn update_checksum(&mut self) {
        self.optional.checksum = 0;
        self.optional.checksum = self.compute_checksum();
    }
}

#[cfg(test)]
mod tests {
    use crate::{PeBuilder, PeFile, SectionFlags};

    fn build() -> PeFile {
        let mut b = PeBuilder::new();
        b.add_section(".text", vec![0x90; 300], SectionFlags::CODE).unwrap();
        b.add_section(".data", vec![0x42; 100], SectionFlags::DATA).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn raw_data_is_file_aligned() {
        let pe = build();
        for s in pe.sections() {
            assert_eq!(s.header().pointer_to_raw_data % pe.optional().file_alignment, 0);
            assert_eq!(s.header().size_of_raw_data % pe.optional().file_alignment, 0);
        }
    }

    #[test]
    fn virtual_addresses_section_aligned_and_ascending() {
        let pe = build();
        let mut last = 0;
        for s in pe.sections() {
            let va = s.header().virtual_address;
            assert_eq!(va % pe.optional().section_alignment, 0);
            assert!(va > last);
            last = va;
        }
    }

    #[test]
    fn size_of_image_covers_all_sections() {
        let pe = build();
        for s in pe.sections() {
            assert!(
                s.header().virtual_address + s.header().virtual_size
                    <= pe.optional().size_of_image
            );
        }
    }

    #[test]
    fn size_of_code_and_data_accumulate() {
        let pe = build();
        assert_eq!(pe.optional().size_of_code, pe.section(".text").unwrap().header().size_of_raw_data);
        assert_eq!(
            pe.optional().size_of_initialized_data,
            pe.section(".data").unwrap().header().size_of_raw_data
        );
    }

    #[test]
    fn refresh_layout_after_growth() {
        let mut pe = build();
        pe.section_mut(".data").unwrap().data_mut().extend_from_slice(&[7u8; 5000]);
        pe.refresh_layout();
        let bytes = pe.to_bytes();
        let pe2 = PeFile::parse(&bytes).unwrap();
        assert_eq!(pe, pe2);
        assert!(pe2.section(".data").unwrap().data().len() >= 5100);
    }

    #[test]
    fn checksum_changes_with_content() {
        let mut pe = build();
        let c1 = pe.compute_checksum();
        pe.section_mut(".text").unwrap().data_mut()[0] = 0xEE;
        let c2 = pe.compute_checksum();
        assert_ne!(c1, c2);
    }

    #[test]
    fn checksum_field_excluded_from_itself() {
        let mut pe = build();
        pe.update_checksum();
        let stored = pe.optional().checksum;
        // Recomputing with the stored checksum in place must give the same
        // value because the field is skipped.
        assert_eq!(pe.compute_checksum(), stored);
    }
}
