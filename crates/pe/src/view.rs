//! [`PeView`]: a parsed PE image that borrows its section data and overlay
//! from the input bytes instead of copying them.

use crate::error::PeError;
use crate::headers::{CoffHeader, DosHeaderView, OptionalHeader};
use crate::map::Headers;
use crate::section::{Section, SectionHeader};
use crate::PeFile;

/// A section header together with its raw data, borrowed from the input.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionView<'a> {
    pub(crate) header: SectionHeader,
    pub(crate) data: &'a [u8],
}

impl<'a> SectionView<'a> {
    /// The section header.
    pub fn header(&self) -> &SectionHeader {
        &self.header
    }

    /// The raw on-disk bytes of the section.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// The display name.
    pub fn name(&self) -> String {
        self.header.name_str()
    }
}

/// A PE image parsed in place: the headers are decoded, while the DOS
/// header's opaque bytes, every section's raw data and the overlay stay
/// slices of the input.
///
/// [`PeView::parse_with`] and [`PeFile::parse_with`] run one parser with
/// every check and error of either [`crate::ParseMode`]; the view borrows
/// each section the parser accepts where the owned parse copies it, so
/// `PeView::parse_with(b, m).map(|v| v.to_owned())` equals
/// `PeFile::parse_with(b, m)`. Loading an image for execution needs only
/// the view: [`PeView::map_image_bounded`] maps it through the same routine
/// as [`PeFile::map_image_bounded`], reading each section straight from
/// the input.
#[derive(Debug, Clone, PartialEq)]
pub struct PeView<'a> {
    pub(crate) dos: DosHeaderView<'a>,
    pub(crate) coff: CoffHeader,
    pub(crate) optional: OptionalHeader,
    pub(crate) sections: Vec<SectionView<'a>>,
    pub(crate) overlay: &'a [u8],
}

impl<'a> PeView<'a> {
    /// The DOS header of the image.
    pub fn dos(&self) -> DosHeaderView<'a> {
        self.dos
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
    pub fn sections(&self) -> &[SectionView<'a>] {
        &self.sections
    }

    /// The overlay: bytes stored after the last section's raw data.
    pub fn overlay(&self) -> &'a [u8] {
        self.overlay
    }

    /// The RVA of the program entry point.
    pub fn entry_point(&self) -> u32 {
        self.optional.address_of_entry_point
    }

    /// Copy the borrowed bytes into an owned, editable [`PeFile`].
    pub fn to_owned(&self) -> PeFile {
        PeFile {
            dos: self.dos.to_owned(),
            coff: self.coff,
            optional: self.optional.clone(),
            sections: self
                .sections
                .iter()
                .map(|s| Section::new(s.header.clone(), s.data.to_vec()))
                .collect(),
            overlay: self.overlay.to_vec(),
        }
    }

    /// Map the image the way the loader would, reading each section from
    /// the input; byte for byte what [`PeFile::map_image_bounded`] maps for
    /// [`PeView::to_owned`].
    ///
    /// # Errors
    ///
    /// [`PeError::Malformed`] when `size_of_image` exceeds `max_bytes`.
    pub fn map_image_bounded(&self, max_bytes: usize) -> Result<Vec<u8>, PeError> {
        let headers = Headers { dos: self.dos, coff: &self.coff, optional: &self.optional };
        headers.map_bounded(max_bytes, self.sections.iter().map(|s| (&s.header, s.data)))
    }
}
