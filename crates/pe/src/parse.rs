//! Parsing a PE image from raw bytes.

use crate::error::PeError;
use crate::headers::{CoffHeader, DosHeaderView, OptionalHeader, PE_SIGNATURE};
use crate::section::{Section, SectionHeader, SECTION_HEADER_SIZE};
use crate::view::{PeView, SectionView};
use crate::PeFile;

// How much structural validation parsing applies beyond what the loader
// itself needs. The mode vocabulary is shared across container backends
// (the Mach-O substrate honors the same two levels), so the enum lives in
// the format-neutral layer; re-exported here for existing paths.
pub use mpass_binfmt::ParseMode;

impl PeFile {
    /// Parse a PE image from its on-disk bytes.
    ///
    /// Parsing is strict about the structures the loader needs (magics,
    /// alignments, in-bounds section table) and tolerant about everything
    /// else, mirroring the Windows loader. Bytes past the end of the last
    /// section's raw data are captured as the overlay.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] when the image is truncated, a magic value
    /// mismatches, or a header field is malformed.
    ///
    /// ```
    /// # fn main() -> Result<(), mpass_pe::PeError> {
    /// let mut b = mpass_pe::PeBuilder::new();
    /// b.add_section(".text", vec![0x90; 16], mpass_pe::SectionFlags::CODE)?;
    /// let original = b.build()?;
    /// let parsed = mpass_pe::PeFile::parse(&original.to_bytes())?;
    /// assert_eq!(parsed, original);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(bytes: &[u8]) -> Result<PeFile, PeError> {
        Self::parse_with(bytes, ParseMode::LoaderTolerant)
    }

    /// Parse with [`ParseMode::Strict`] validation. Shorthand for
    /// [`PeFile::parse_with`].
    ///
    /// # Errors
    ///
    /// Everything [`PeFile::parse`] rejects, plus [`PeError::Malformed`]
    /// for the structural anomalies listed on [`ParseMode::Strict`].
    pub fn parse_strict(bytes: &[u8]) -> Result<PeFile, PeError> {
        Self::parse_with(bytes, ParseMode::Strict)
    }

    /// Parse a PE image under an explicit [`ParseMode`]. The result equals
    /// [`PeView::parse_with`] followed by [`PeView::to_owned`], error for
    /// error; the parser copies each section as it accepts it.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] when the image is truncated, a magic value
    /// mismatches, a header field is malformed, or (in strict mode) a
    /// structural invariant is violated.
    pub fn parse_with(bytes: &[u8], mode: ParseMode) -> Result<PeFile, PeError> {
        let p = parse_parts::<Section>(bytes, mode)?;
        Ok(PeFile {
            dos: p.dos.to_owned(),
            coff: p.coff,
            optional: p.optional,
            sections: p.sections,
            overlay: p.overlay.to_vec(),
        })
    }
}

impl<'a> PeView<'a> {
    /// Parse a PE image in place with [`ParseMode::LoaderTolerant`]
    /// validation; [`PeFile::parse`] accepts and rejects the same bytes.
    ///
    /// # Errors
    ///
    /// Everything [`PeFile::parse`] rejects, with the same error.
    pub fn parse(bytes: &'a [u8]) -> Result<PeView<'a>, PeError> {
        Self::parse_with(bytes, ParseMode::LoaderTolerant)
    }

    /// Parse a PE image in place under an explicit [`ParseMode`].
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] when the image is truncated, a magic value
    /// mismatches, a header field is malformed, or (in strict mode) a
    /// structural invariant is violated.
    pub fn parse_with(bytes: &'a [u8], mode: ParseMode) -> Result<PeView<'a>, PeError> {
        let p = parse_parts::<SectionView<'a>>(bytes, mode)?;
        Ok(PeView {
            dos: p.dos,
            coff: p.coff,
            optional: p.optional,
            sections: p.sections,
            overlay: p.overlay,
        })
    }
}

/// How a representation stores each section the parser accepts: borrowed
/// by [`PeView`], copied by [`PeFile`].
trait ParsedSection<'a> {
    fn new(header: SectionHeader, data: &'a [u8]) -> Self;
    fn header(&self) -> &SectionHeader;
}

impl<'a> ParsedSection<'a> for SectionView<'a> {
    fn new(header: SectionHeader, data: &'a [u8]) -> Self {
        SectionView { header, data }
    }

    fn header(&self) -> &SectionHeader {
        &self.header
    }
}

impl ParsedSection<'_> for Section {
    fn new(header: SectionHeader, data: &[u8]) -> Self {
        Section::new(header, data.to_vec())
    }

    fn header(&self) -> &SectionHeader {
        &self.header
    }
}

/// What the parser accepted, before it is wrapped as a [`PeView`] or a
/// [`PeFile`].
struct Parts<'a, S> {
    dos: DosHeaderView<'a>,
    coff: CoffHeader,
    optional: OptionalHeader,
    sections: Vec<S>,
    overlay: &'a [u8],
}

/// The one PE parser: every check and error of either [`ParseMode`], with
/// each accepted section stored as `S`. Generic so the owned parse copies
/// a section as it accepts it rather than building a view first; inlined
/// into its one caller per representation, so the parts are built where
/// the result goes.
#[inline]
fn parse_parts<'a, S: ParsedSection<'a>>(
    bytes: &'a [u8],
    mode: ParseMode,
) -> Result<Parts<'a, S>, PeError> {
    let dos = DosHeaderView::parse(bytes)?;
    let sig_at = dos.e_lfanew as usize;
    let sig = bytes.get(sig_at..sig_at + 4).ok_or(PeError::Truncated {
        context: "pe signature",
        needed: sig_at + 4,
        available: bytes.len(),
    })?;
    if sig != PE_SIGNATURE {
        return Err(PeError::BadMagic {
            context: "pe signature",
            found: u32::from_le_bytes([sig[0], sig[1], sig[2], sig[3]]),
        });
    }
    let coff_at = sig_at + 4;
    let coff = CoffHeader::parse(bytes, coff_at)?;
    let opt_at = coff_at + CoffHeader::SIZE;
    let optional = OptionalHeader::parse(bytes, opt_at)?;

    // Serialization-faithfulness invariants, enforced in every mode:
    // anything accepted here must re-serialize to an image that parses
    // back equal (the round-trip contract the AE gate and the fuzz
    // harness rely on). The writer only emits the PE32 dialect with a
    // full optional header, and places the overlay after the last data
    // byte, so inputs outside that shape cannot round-trip.
    if coff.size_of_optional_header as usize != crate::OPTIONAL_HEADER_SIZE {
        return Err(PeError::Malformed(format!(
            "size_of_optional_header {} (the PE32 dialect requires {})",
            coff.size_of_optional_header,
            crate::OPTIONAL_HEADER_SIZE
        )));
    }
    if optional.size_of_headers as u64 > bytes.len() as u64 {
        return Err(PeError::Malformed(format!(
            "size_of_headers {:#x} past the file end ({:#x} bytes)",
            optional.size_of_headers,
            bytes.len()
        )));
    }

    let table_at = opt_at + coff.size_of_optional_header as usize;
    let n_sections = coff.number_of_sections as usize;
    let mut sections = Vec::with_capacity(n_sections);
    let mut raw_end = optional.size_of_headers as usize;
    for i in 0..n_sections {
        let header = SectionHeader::parse(bytes, table_at + i * SECTION_HEADER_SIZE)?;
        let start = header.pointer_to_raw_data as usize;
        let len = header.size_of_raw_data as usize;
        let data = if len == 0 {
            &[][..]
        } else {
            bytes.get(start..start + len).ok_or(PeError::Truncated {
                context: "section raw data",
                needed: start + len,
                available: bytes.len(),
            })?
        };
        // Zero-size sections store no bytes and are skipped by
        // `to_bytes`, so their (possibly hostile) raw pointer must not
        // drag the overlay anchor: the anchor has to land exactly where
        // serialization will end, or the overlay drifts on round trip.
        if len > 0 {
            raw_end = raw_end.max(start + len);
        }
        sections.push(S::new(header, data));
    }
    // The overlay starts where the declared data region ends; if the
    // headers themselves spill past it, re-serialization would push the
    // overlay to a different offset and the round trip breaks.
    let table_end = table_at + n_sections * SECTION_HEADER_SIZE;
    if table_end > raw_end {
        return Err(PeError::Malformed(format!(
            "section table ends at {table_end:#x}, past the declared data \
             region ({raw_end:#x})"
        )));
    }
    let overlay = bytes.get(raw_end..).unwrap_or_default();
    if mode == ParseMode::Strict {
        validate_strict(&optional, &sections, bytes.len(), table_at)?;
    }
    Ok(Parts { dos, coff, optional, sections, overlay })
}


/// The additional invariants [`ParseMode::Strict`] enforces. All arithmetic
/// is performed in 64 bits so hostile 32-bit fields cannot overflow the
/// checks themselves.
fn validate_strict<'a, S: ParsedSection<'a>>(
    optional: &OptionalHeader,
    sections: &[S],
    file_len: usize,
    table_at: usize,
) -> Result<(), PeError> {
    let table_end = table_at + sections.len() * SECTION_HEADER_SIZE;
    if table_end > optional.size_of_headers as usize {
        return Err(PeError::Malformed(format!(
            "section table ends at {table_end:#x}, past size_of_headers {:#x}",
            optional.size_of_headers
        )));
    }
    let mut raw_spans: Vec<(u64, u64, String)> = Vec::with_capacity(sections.len());
    for s in sections {
        let h = s.header();
        let name = h.name_str();
        let raw_start = h.pointer_to_raw_data as u64;
        let raw_len = h.size_of_raw_data as u64;
        if raw_len == 0 && raw_start as usize > file_len {
            return Err(PeError::Malformed(format!(
                "zero-size section {name:?} points at {raw_start:#x}, past the file end"
            )));
        }
        if h.virtual_address as u64 + (h.virtual_size.max(h.size_of_raw_data)) as u64
            > u32::MAX as u64
        {
            return Err(PeError::Malformed(format!(
                "section {name:?} virtual extent overflows the 32-bit address space"
            )));
        }
        if h.virtual_address as u64 + (h.virtual_size.max(h.size_of_raw_data).max(1)) as u64
            > optional.size_of_image as u64
        {
            return Err(PeError::Malformed(format!(
                "section {name:?} extends past size_of_image {:#x}",
                optional.size_of_image
            )));
        }
        if raw_len > 0 {
            raw_spans.push((raw_start, raw_start + raw_len, name));
        }
    }
    raw_spans.sort_by_key(|&(start, _, _)| start);
    for pair in raw_spans.windows(2) {
        let (_, prev_end, ref prev_name) = pair[0];
        let (next_start, _, ref next_name) = pair[1];
        if next_start < prev_end {
            return Err(PeError::Malformed(format!(
                "raw data of {next_name:?} overlaps {prev_name:?}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeBuilder, SectionFlags};

    fn build() -> PeFile {
        let mut b = PeBuilder::new();
        b.add_section(".text", (0..200u16).map(|i| i as u8).collect(), SectionFlags::CODE)
            .unwrap();
        b.add_section(".data", vec![0x11; 80], SectionFlags::DATA).unwrap();
        b.add_section(".rsrc", vec![0x22; 40], SectionFlags::RSRC).unwrap();
        b.set_entry_section(".text", 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_equality() {
        let pe = build();
        let bytes = pe.to_bytes();
        let pe2 = PeFile::parse(&bytes).unwrap();
        assert_eq!(pe, pe2);
        assert_eq!(pe2.to_bytes(), bytes);
    }

    #[test]
    fn overlay_preserved() {
        let mut pe = build();
        pe.append_overlay(b"OVERLAYDATA");
        let pe2 = PeFile::parse(&pe.to_bytes()).unwrap();
        assert_eq!(pe2.overlay(), b"OVERLAYDATA");
    }

    #[test]
    fn empty_input_fails() {
        assert!(matches!(PeFile::parse(&[]), Err(PeError::Truncated { .. })));
    }

    #[test]
    fn non_mz_fails() {
        assert!(matches!(
            PeFile::parse(&[0u8; 512]),
            Err(PeError::BadMagic { context: "dos header", .. })
        ));
    }

    #[test]
    fn corrupted_signature_fails() {
        let pe = build();
        let mut bytes = pe.to_bytes();
        let at = pe.dos().e_lfanew as usize;
        bytes[at] = b'X';
        assert!(matches!(
            PeFile::parse(&bytes),
            Err(PeError::BadMagic { context: "pe signature", .. })
        ));
    }

    #[test]
    fn truncated_section_data_fails() {
        let pe = build();
        let bytes = pe.to_bytes();
        let cut = pe.optional().size_of_headers as usize + 10;
        assert!(matches!(
            PeFile::parse(&bytes[..cut]),
            Err(PeError::Truncated { context: "section raw data", .. })
        ));
    }

    #[test]
    fn section_count_matches_header() {
        let pe = build();
        assert_eq!(pe.coff().number_of_sections as usize, pe.sections().len());
    }

    #[test]
    fn tolerant_rejects_wrong_optional_header_size() {
        let pe = build();
        let mut bytes = pe.to_bytes();
        let coff_at = pe.dos().e_lfanew as usize + 4;
        // size_of_optional_header lives 16 bytes into the COFF header.
        bytes[coff_at + 16..coff_at + 18].copy_from_slice(&0x00F0u16.to_le_bytes());
        assert!(matches!(PeFile::parse(&bytes), Err(PeError::Malformed(_))));
    }

    #[test]
    fn tolerant_rejects_size_of_headers_past_file_end() {
        let pe = build();
        let mut bytes = pe.to_bytes();
        let opt_at = pe.dos().e_lfanew as usize + 4 + CoffHeader::SIZE;
        bytes[opt_at + 60..opt_at + 64].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
        assert!(matches!(PeFile::parse(&bytes), Err(PeError::Malformed(_))));
    }

    #[test]
    fn tolerant_rejects_headers_spilling_past_data_region() {
        let pe = build();
        let mut bytes = pe.to_bytes();
        let opt_at = pe.dos().e_lfanew as usize + 4 + CoffHeader::SIZE;
        // Shrink size_of_headers below the section table's end while also
        // zeroing every section's raw extent, so nothing covers the
        // headers: the overlay anchor would drift on re-serialization.
        bytes[opt_at + 60..opt_at + 64].copy_from_slice(&0u32.to_le_bytes());
        let table_at = opt_at + pe.coff().size_of_optional_header as usize;
        for i in 0..pe.sections().len() {
            let entry = table_at + i * SECTION_HEADER_SIZE;
            bytes[entry + 16..entry + 24].copy_from_slice(&[0u8; 8]);
        }
        assert!(matches!(PeFile::parse(&bytes), Err(PeError::Malformed(_))));
    }

    #[test]
    fn strict_accepts_well_formed_images() {
        let pe = build();
        assert_eq!(PeFile::parse_strict(&pe.to_bytes()).unwrap(), pe);
    }

    #[test]
    fn strict_rejects_zero_size_section_pointing_past_file() {
        let mut pe = build();
        pe.sections[0].header.size_of_raw_data = 0;
        pe.sections[0].header.pointer_to_raw_data = 0xFFF0_0000;
        pe.sections[0].data.clear();
        let bytes = pe.to_bytes();
        // Loader-tolerant parsing still accepts it...
        PeFile::parse(&bytes).unwrap();
        // ...strict parsing names the anomaly.
        assert!(matches!(PeFile::parse_strict(&bytes), Err(PeError::Malformed(_))));
    }

    #[test]
    fn strict_rejects_virtual_extent_overflow() {
        let mut pe = build();
        pe.sections[2].header.virtual_address = 0xFFFF_F000;
        pe.sections[2].header.virtual_size = 0x2000;
        let bytes = pe.to_bytes();
        PeFile::parse(&bytes).unwrap();
        assert!(matches!(PeFile::parse_strict(&bytes), Err(PeError::Malformed(_))));
    }

    #[test]
    fn strict_rejects_overlapping_raw_data() {
        let mut pe = build();
        pe.sections[1].header.pointer_to_raw_data = pe.sections[0].header.pointer_to_raw_data;
        let bytes = pe.to_bytes();
        PeFile::parse(&bytes).unwrap();
        assert!(matches!(PeFile::parse_strict(&bytes), Err(PeError::Malformed(_))));
    }

    #[test]
    fn strict_rejects_section_past_size_of_image() {
        let mut pe = build();
        pe.optional.size_of_image = pe.sections[0].header.virtual_address;
        let bytes = pe.to_bytes();
        PeFile::parse(&bytes).unwrap();
        assert!(matches!(PeFile::parse_strict(&bytes), Err(PeError::Malformed(_))));
    }
}
