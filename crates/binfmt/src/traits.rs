//! The [`BinaryFormat`] trait: the one API every container backend speaks,
//! and [`Loadable`], the read half a loader needs.

use crate::{BinaryError, Format, ImportSummary, ModifiableRegion, SectionKind, SectionMeta};
use rand::RngCore;

/// What a loader reads of a parsed image: where execution starts and the
/// image as mapped into memory.
///
/// Every [`BinaryFormat`] is `Loadable`, and so are read-only parses that
/// are not editable containers (`mpass_pe::PeView` borrows its sections
/// from the input bytes). The VM loads through this trait.
pub trait Loadable {
    /// Virtual address execution starts at.
    fn entry_point(&self) -> u64;

    /// Map the image as the loader would, failing when the mapped size
    /// exceeds `max_bytes`.
    fn map_image_bounded(&self, max_bytes: usize) -> Result<Vec<u8>, BinaryError>;
}

/// A parsed, editable, re-serializable binary container.
///
/// This is the contract the whole attack pipeline is written against:
/// corpus generation builds images through it, feature extraction reads
/// them, the shuffle + recovery-stub attack edits them, PEM ablates their
/// file spans and the sandbox maps them for execution. `mpass-pe` and
/// `mpass-macho` are the two backends; `mpass-binary` wraps them in a
/// closed enum for storage.
///
/// Invariants every implementation must uphold:
///
/// * **Round trip** — `parse(to_bytes(x)) == x` for any `x` the backend
///   accepts (each backend exposes its own inherent `parse`, since a
///   constructor cannot live on a dyn-compatible trait).
/// * **Address honesty** — `entry_point` (from [`Loadable`]), section
///   metadata and `read_virtual`/`write_virtual` all use the same native
///   address space (RVAs for PE, absolute `vmaddr` for Mach-O).
/// * **No panics** — malformed state surfaces as [`BinaryError`], never as
///   a panic; backends deny `unwrap`/`expect`/`panic` outside tests.
pub trait BinaryFormat: Loadable {
    /// Which container format this image is.
    fn format(&self) -> Format;

    /// Serialize back to on-disk bytes.
    fn to_bytes(&self) -> Vec<u8>;

    /// Total size of the serialized file in bytes.
    fn file_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Number of sections in the image.
    fn section_count(&self) -> usize;

    /// Format-neutral metadata for section `index`.
    fn section_meta(&self, index: usize) -> Option<SectionMeta>;

    /// Raw data of section `index`.
    fn section_data(&self, index: usize) -> Option<&[u8]>;

    /// Mutable raw data of section `index`.
    fn section_data_mut(&mut self, index: usize) -> Option<&mut [u8]>;

    /// Append a section; returns the virtual address it was placed at.
    fn add_section(
        &mut self,
        name: &str,
        data: Vec<u8>,
        kind: SectionKind,
    ) -> Result<u64, BinaryError>;

    /// True when `n` more sections fit without displacing existing data.
    fn can_add_sections(&self, n: usize) -> bool;

    /// The virtual address the next added section would receive.
    fn next_free_va(&self) -> u64;

    /// Retarget the entry point to `va` (must map into a section).
    fn set_entry_point(&mut self, va: u64) -> Result<(), BinaryError>;

    /// Index of the section whose mapped extent contains `va`.
    fn section_index_containing_va(&self, va: u64) -> Option<usize>;

    /// File offset backing virtual address `va`, when it has raw backing.
    fn va_to_file_offset(&self, va: u64) -> Option<usize>;

    /// Read `len` bytes of mapped memory starting at `va` (zero filled
    /// where nothing maps).
    fn read_virtual(&self, va: u64, len: usize) -> Vec<u8>;

    /// Write into mapped sections starting at `va`.
    fn write_virtual(&mut self, va: u64, bytes: &[u8]) -> Result<(), BinaryError>;

    /// Bytes past the last section's raw data (ignored by loaders).
    fn overlay(&self) -> &[u8];

    /// Append bytes to the overlay.
    fn append_overlay(&mut self, bytes: &[u8]);

    /// Truncate the overlay to `len` bytes.
    fn truncate_overlay(&mut self, len: usize);

    /// Randomize the header fields the loader ignores (timestamps, version
    /// stamps, reserved words) — the header leg of the paper's modifiable
    /// positions. Draw order is part of each backend's stability contract:
    /// seeded attacks must replay identically.
    fn randomize_free_headers(&mut self, rng: &mut dyn RngCore);

    /// Recompute any derived header fields (checksums) after edits.
    fn finalize(&mut self);

    /// The link/build timestamp field, or 0 when the format carries none.
    fn timestamp(&self) -> u32 {
        0
    }

    /// Enumerate every byte span of the serialized file that can be
    /// rewritten without changing behaviour (§III-B's modifiable
    /// positions, per format).
    fn modifiable_positions(&self) -> Vec<ModifiableRegion>;

    /// Summarize the imported API surface; `None` when the image declares
    /// no import metadata (distinct from an empty table).
    fn imports_summary(&self) -> Option<ImportSummary> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trait must stay dyn-compatible: `Box<dyn BinaryFormat>` is one
    // of the two sanctioned consumption styles.
    #[test]
    fn trait_is_dyn_compatible() {
        fn _takes_dyn(_: &dyn BinaryFormat) {}
        fn _upcasts(image: &dyn BinaryFormat) -> &dyn Loadable {
            image
        }
    }
}
