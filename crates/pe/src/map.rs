//! Mapping a parsed image the way the loader does. One routine serves both
//! representations: [`crate::PeFile`] hands it its owned sections and
//! [`crate::PeView`] the slices it borrowed from the input.

use crate::error::PeError;
use crate::headers::{CoffHeader, DosHeaderView, OptionalHeader, PE_SIGNATURE};
use crate::section::{SectionHeader, SECTION_HEADER_SIZE};

/// The parsed headers of an image, borrowed from whichever representation
/// holds them.
#[derive(Clone, Copy)]
pub(crate) struct Headers<'h> {
    pub(crate) dos: DosHeaderView<'h>,
    pub(crate) coff: &'h CoffHeader,
    pub(crate) optional: &'h OptionalHeader,
}

impl Headers<'_> {
    /// Size in bytes of the headers with `n_sections` section headers:
    /// DOS header and stub, signature, COFF and optional headers, then the
    /// section table, before alignment to `size_of_headers`.
    pub(crate) fn unpadded_len(self, n_sections: usize) -> usize {
        self.dos.e_lfanew as usize
            + PE_SIGNATURE.len()
            + CoffHeader::SIZE
            + crate::OPTIONAL_HEADER_SIZE
            + n_sections * SECTION_HEADER_SIZE
    }

    /// Append the headers, unpadded: DOS header and stub, signature, COFF
    /// and optional headers, then the section table.
    pub(crate) fn write<'s>(
        self,
        out: &mut Vec<u8>,
        table: impl Iterator<Item = &'s SectionHeader>,
    ) {
        self.dos.write(out);
        out.extend_from_slice(&PE_SIGNATURE);
        self.coff.write(out);
        self.optional.write(out);
        for header in table {
            header.write(out);
        }
    }

    /// Like [`Headers::map`] at `size_of_image`, but refuses to allocate
    /// more than `max_bytes`.
    pub(crate) fn map_bounded<'s>(
        self,
        max_bytes: usize,
        sections: impl Iterator<Item = (&'s SectionHeader, &'s [u8])> + Clone,
    ) -> Result<Vec<u8>, PeError> {
        let size = self.optional.size_of_image as usize;
        if size > max_bytes {
            return Err(PeError::Malformed(format!(
                "size_of_image {size:#x} exceeds the mapping ceiling {max_bytes:#x}"
            )));
        }
        Ok(self.map(size, sections))
    }

    /// Map the image into a flat, zero-filled buffer of `size` bytes:
    /// headers at 0, each section's data at its virtual address.
    ///
    /// The first `size_of_headers` bytes equal those of the serialized file
    /// without serializing the sections: the headers, zero-padded, under
    /// the raw data of every section that starts below their end, laid on
    /// in table order as serialization lays it.
    pub(crate) fn map<'s>(
        self,
        size: usize,
        sections: impl Iterator<Item = (&'s SectionHeader, &'s [u8])> + Clone,
    ) -> Vec<u8> {
        let mut image = vec![0u8; size];
        let hdr_len = (self.optional.size_of_headers as usize).min(size);
        let table = sections.clone().map(|(header, _)| header);
        let mut headers = Vec::with_capacity(self.unpadded_len(table.clone().count()));
        self.write(&mut headers, table);
        let n = headers.len().min(hdr_len);
        image[..n].copy_from_slice(&headers[..n]);
        for (h, data) in sections.clone() {
            let start = h.pointer_to_raw_data as usize;
            if h.size_of_raw_data == 0 || start >= hdr_len {
                continue;
            }
            let end = (start + data.len().min(h.size_of_raw_data as usize)).min(hdr_len);
            image[start..end].copy_from_slice(&data[..end - start]);
        }
        for (h, data) in sections {
            let start = h.virtual_address as usize;
            if start >= size {
                continue;
            }
            let n = data.len().min(size - start);
            image[start..start + n].copy_from_slice(&data[..n]);
        }
        image
    }
}
