//! 64-bit Mach-O container backend for the MPass binary layer.
//!
//! This crate is the second [`mpass_binfmt::BinaryFormat`] backend,
//! alongside `mpass-pe`. It parses little-endian `MH_MAGIC_64` images
//! (executables built by [`MachoBuilder`] or found in the wild), supports
//! the same edit surface the attack pipeline needs — section addition,
//! entry-point retargeting across both `LC_MAIN` and `LC_UNIXTHREAD`,
//! virtual writes, overlay appends, free-header randomization — and
//! serializes round-trip-faithfully: `parse(to_bytes(x)) == x` for every
//! image it accepts.
//!
//! Scope is deliberately the same as the PE backend's: enough structure for
//! the paper's threat model (static detectors reading headers, sections and
//! import names), with everything else carried verbatim as opaque load
//! commands so hostile inputs neither panic nor lose bytes. Fat/universal
//! wrappers, 32-bit images and byte-swapped images are detected and
//! rejected with typed errors rather than misparsed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![deny(missing_docs)]

mod binfmt_impl;
pub mod builder;
pub mod cmds;
mod edit;
mod error;
mod parse;
mod write;

pub use binfmt_impl::classify_section;
pub use builder::{EntryStyle, MachoBuilder};
pub use cmds::{
    encode_name16, name16_str, LoadCommand, MachHeader, MachoSection, Segment64,
    CPU_SUBTYPE_X86_64_ALL, CPU_TYPE_X86_64, LC_LOAD_DYLIB, LC_MAIN, LC_SEGMENT_64, LC_UNIXTHREAD,
    MACH_HEADER_SIZE, MH_EXECUTE, SECTION_ENTRY_SIZE, SEGMENT_CMD_SIZE, S_ATTR_PURE_INSTRUCTIONS,
    S_ATTR_SOME_INSTRUCTIONS, S_ZEROFILL, VM_PROT_EXECUTE, VM_PROT_READ, VM_PROT_WRITE,
    X86_THREAD_STATE64,
};
pub use error::MachoError;
// The shared mode/format vocabulary lives in mpass-binfmt; re-export so
// this crate is usable standalone, mirroring `mpass_pe::ParseMode`.
pub use mpass_binfmt::ParseMode;

use serde::{Deserialize, Serialize};

/// A parsed 64-bit Mach-O image.
///
/// `magic`, `ncmds` and `sizeofcmds` are not stored: the magic is fixed
/// (`MH_MAGIC_64`) and the counts are derived from [`MachoFile::commands`]
/// at serialization time, so edits cannot desynchronize them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachoFile {
    /// Header fields carried verbatim.
    pub header: MachHeader,
    /// Load commands in file order. Segments own their section data.
    pub commands: Vec<LoadCommand>,
    /// Bytes past the last mapped section's file extent.
    pub overlay: Vec<u8>,
}

impl MachoFile {
    /// Iterate the segment load commands.
    pub fn segments(&self) -> impl Iterator<Item = &Segment64> {
        self.commands.iter().filter_map(|c| match c {
            LoadCommand::Segment(seg) => Some(seg),
            _ => None,
        })
    }

    /// Iterate the segment load commands mutably.
    pub fn segments_mut(&mut self) -> impl Iterator<Item = &mut Segment64> {
        self.commands.iter_mut().filter_map(|c| match c {
            LoadCommand::Segment(seg) => Some(seg),
            _ => None,
        })
    }

    /// Flat iterator over all sections in command order, the order the
    /// [`mpass_binfmt::BinaryFormat`] index space uses.
    pub fn sections(&self) -> impl Iterator<Item = &MachoSection> {
        self.segments().flat_map(|seg| seg.sections.iter())
    }

    /// Number of sections across all segments.
    pub fn section_count(&self) -> usize {
        self.segments().map(|seg| seg.sections.len()).sum()
    }

    /// Section at flat index `index`, with its owning segment.
    pub fn section_at(&self, index: usize) -> Option<(&Segment64, &MachoSection)> {
        let mut remaining = index;
        for seg in self.segments() {
            if remaining < seg.sections.len() {
                return seg.sections.get(remaining).map(|s| (seg, s));
            }
            remaining -= seg.sections.len();
        }
        None
    }

    /// Mutable section at flat index `index`.
    pub fn section_at_mut(&mut self, index: usize) -> Option<&mut MachoSection> {
        let mut remaining = index;
        for seg in self.segments_mut() {
            if remaining < seg.sections.len() {
                return seg.sections.get_mut(remaining);
            }
            remaining -= seg.sections.len();
        }
        None
    }

    /// Flat index of the section whose mapped extent contains `va`.
    pub fn section_index_containing_va(&self, va: u64) -> Option<usize> {
        self.sections().position(|s| s.contains_va(va))
    }

    /// The section whose file extent contains `fileoff` (zerofill sections
    /// have no file extent and never match).
    pub fn section_containing_fileoff(&self, fileoff: u64) -> Option<&MachoSection> {
        self.sections().find(|s| {
            !s.is_zerofill()
                && s.offset != 0
                && fileoff >= u64::from(s.offset)
                && fileoff < u64::from(s.offset).saturating_add(s.size.max(1))
        })
    }

    /// File offset backing virtual address `va`, when a file-backed section
    /// maps it.
    pub fn va_to_file_offset(&self, va: u64) -> Option<usize> {
        let s = self.sections().find(|s| !s.is_zerofill() && s.offset != 0 && s.contains_va(va))?;
        usize::try_from(u64::from(s.offset) + (va - s.addr)).ok()
    }

    /// Virtual address execution starts at: `LC_MAIN`'s `entryoff`
    /// translated through the section that maps it, or `LC_UNIXTHREAD`'s
    /// stored instruction pointer. 0 when the image declares no entry.
    pub fn entry_point(&self) -> u64 {
        for cmd in &self.commands {
            match cmd {
                LoadCommand::Main { entryoff, .. } => {
                    if let Some(s) = self.section_containing_fileoff(*entryoff) {
                        return s.addr + (*entryoff - u64::from(s.offset));
                    }
                    return *entryoff;
                }
                LoadCommand::UnixThread { state, .. } => {
                    let at = cmds::RIP_REGISTER_INDEX * 8;
                    if let Some(b) = state.get(at..at + 8) {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(b);
                        return u64::from_le_bytes(a);
                    }
                    return 0;
                }
                _ => {}
            }
        }
        0
    }

    /// Names of the linked libraries (`LC_LOAD_DYLIB`), the Mach-O import
    /// surface this substrate models. Non-UTF8 name bytes (possible in
    /// hostile inputs; the struct carries them verbatim) decode lossily
    /// here, at the display boundary.
    pub fn dylib_names(&self) -> Vec<String> {
        self.commands
            .iter()
            .filter_map(|c| match c {
                LoadCommand::LoadDylib { name, .. } => {
                    Some(String::from_utf8_lossy(name).into_owned())
                }
                _ => None,
            })
            .collect()
    }

    /// Read `len` bytes of mapped memory starting at `va`, zero filled
    /// where nothing maps (zerofill sections read as zeros).
    pub fn read_virtual(&self, va: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for s in self.sections() {
            if s.size == 0 {
                continue;
            }
            let s_end = s.addr.saturating_add(s.size);
            let lo = va.max(s.addr);
            let hi = va.saturating_add(len as u64).min(s_end);
            if lo >= hi {
                continue;
            }
            for off in lo..hi {
                let dst = (off - va) as usize;
                let src = (off - s.addr) as usize;
                out[dst] = s.data.get(src).copied().unwrap_or(0);
            }
        }
        out
    }
}
