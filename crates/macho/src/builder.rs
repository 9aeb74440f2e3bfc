//! Synthetic Mach-O construction, mirroring `mpass_pe::PeBuilder`.
//!
//! The builder produces minimal but well-formed `MH_EXECUTE` images: one
//! single-section segment per added section, page-aligned virtual
//! addresses starting at a small base so flat loader mappings stay cheap,
//! optional linked dylibs, and an entry point expressed either as
//! `LC_MAIN` (file offset) or `LC_UNIXTHREAD` (register state).

use crate::cmds::{
    encode_name16, LoadCommand, MachHeader, MachoSection, Segment64, CPU_SUBTYPE_X86_64_ALL,
    CPU_TYPE_X86_64, DYLIB_CMD_FIXED, MACH_HEADER_SIZE, MH_EXECUTE, RIP_REGISTER_INDEX,
    SECTION_ENTRY_SIZE, SEGMENT_CMD_SIZE, S_ATTR_PURE_INSTRUCTIONS, S_ATTR_SOME_INSTRUCTIONS,
    S_ZEROFILL, VM_PROT_EXECUTE, VM_PROT_READ, VM_PROT_WRITE, X86_THREAD_STATE64,
};
use crate::{MachoError, MachoFile};
use mpass_binfmt::SectionKind;

/// Lowest virtual address the builder maps at. Kept deliberately small so
/// the sandbox's flat memory image stays proportional to content size.
const BASE_VA: u64 = 0x1000;
/// Page alignment for mapped segments.
const PAGE: u64 = 0x1000;
/// File alignment for section data.
const FILE_ALIGN: usize = 16;

/// How the built image declares its entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStyle {
    /// `LC_MAIN`: entry as a file offset (the modern toolchain default).
    Main,
    /// `LC_UNIXTHREAD`: entry as initial register state.
    UnixThread,
}

struct PendingSection {
    name: String,
    kind: SectionKind,
    data: Vec<u8>,
}

struct PendingDylib {
    name: String,
    timestamp: u32,
    current_version: u32,
    compat_version: u32,
}

/// Builder for synthetic 64-bit Mach-O executables.
pub struct MachoBuilder {
    sections: Vec<PendingSection>,
    dylibs: Vec<PendingDylib>,
    entry: Option<(String, u64)>,
    entry_style: EntryStyle,
    header_slack: usize,
}

impl Default for MachoBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MachoBuilder {
    /// Start an empty builder. By default the load-command region reserves
    /// room for two future sections, like the PE builder's header slack.
    pub fn new() -> Self {
        MachoBuilder {
            sections: Vec::new(),
            dylibs: Vec::new(),
            entry: None,
            entry_style: EntryStyle::Main,
            header_slack: 2,
        }
    }

    /// Reserve load-command room for `sections` future section additions
    /// (0 produces an image where `add_section` must fall back to overlay
    /// appending, the paper's no-space case).
    pub fn set_header_slack(&mut self, sections: usize) -> &mut Self {
        self.header_slack = sections;
        self
    }

    /// Choose how the entry point is declared.
    pub fn set_entry_style(&mut self, style: EntryStyle) -> &mut Self {
        self.entry_style = style;
        self
    }

    /// Append a section with the given payload, classified as `kind`.
    pub fn add_section(&mut self, name: &str, data: &[u8], kind: SectionKind) -> &mut Self {
        self.sections.push(PendingSection {
            name: name.to_owned(),
            kind,
            data: data.to_vec(),
        });
        self
    }

    /// Link a dylib by install name (the Mach-O import surface).
    pub fn add_dylib(&mut self, name: &str, timestamp: u32) -> &mut Self {
        self.dylibs.push(PendingDylib {
            name: name.to_owned(),
            timestamp,
            current_version: 0x0001_0000,
            compat_version: 0x0001_0000,
        });
        self
    }

    /// Declare the entry point at `offset` bytes into section `name`.
    pub fn set_entry_section(&mut self, name: &str, offset: u64) -> &mut Self {
        self.entry = Some((name.to_owned(), offset));
        self
    }

    /// Build the image.
    ///
    /// # Errors
    ///
    /// [`MachoError::DuplicateSection`] on repeated names,
    /// [`MachoError::NameTooLong`] past 16 bytes, and
    /// [`MachoError::MissingSection`] when the declared entry section does
    /// not exist.
    pub fn build(&self) -> Result<MachoFile, MachoError> {
        for (i, s) in self.sections.iter().enumerate() {
            if self.sections[..i].iter().any(|p| p.name == s.name) {
                return Err(MachoError::DuplicateSection(s.name.clone()));
            }
        }
        if let Some((entry_name, _)) = &self.entry {
            if !self.sections.iter().any(|s| &s.name == entry_name) {
                return Err(MachoError::MissingSection(entry_name.clone()));
            }
        }

        let mut commands: Vec<LoadCommand> = Vec::new();
        let mut sizeofcmds = 0usize;
        for _ in &self.sections {
            sizeofcmds += SEGMENT_CMD_SIZE + SECTION_ENTRY_SIZE;
        }
        for d in &self.dylibs {
            sizeofcmds += dylib_cmdsize(&d.name);
        }
        sizeofcmds += match self.entry_style {
            EntryStyle::Main => 24,
            EntryStyle::UnixThread => 16 + 21 * 8,
        };
        let data_start =
            MACH_HEADER_SIZE + sizeofcmds + self.header_slack * (SEGMENT_CMD_SIZE + SECTION_ENTRY_SIZE);

        let mut file_cursor = data_start;
        let mut va_cursor = BASE_VA;
        let mut entry_va = 0u64;
        let mut entry_fileoff = 0u64;

        for pending in &self.sections {
            let (segname, initprot, maxprot, flags) = section_profile(pending.kind);
            let zerofill = flags & S_ZEROFILL != 0;
            let size = pending.data.len() as u64;
            let fileoff = align_up(file_cursor, FILE_ALIGN);
            let vmaddr = va_cursor;

            if let Some((entry_name, offset)) = &self.entry {
                if entry_name == &pending.name {
                    entry_va = vmaddr + offset;
                    entry_fileoff = fileoff as u64 + offset;
                }
            }

            let section = MachoSection {
                sectname: encode_name16(&pending.name)?,
                segname: encode_name16(segname)?,
                addr: vmaddr,
                size,
                offset: if zerofill {
                    0
                } else {
                    u32::try_from(fileoff).map_err(|_| MachoError::Malformed(
                        "section data placement exceeds the 4 GiB file-offset space".to_owned(),
                    ))?
                },
                align: 4,
                reloff: 0,
                nreloc: 0,
                flags,
                reserved: [0; 3],
                data: if zerofill { Vec::new() } else { pending.data.clone() },
            };
            commands.push(LoadCommand::Segment(Segment64 {
                segname: encode_name16(segname)?,
                vmaddr,
                vmsize: align_up_u64(size.max(1), PAGE),
                fileoff: if zerofill { 0 } else { fileoff as u64 },
                filesize: if zerofill { 0 } else { size },
                maxprot,
                initprot,
                flags: 0,
                sections: vec![section],
            }));

            va_cursor = align_up_u64(vmaddr + size.max(1), PAGE);
            if !zerofill {
                file_cursor = fileoff + pending.data.len();
            }
        }

        for d in &self.dylibs {
            commands.push(LoadCommand::LoadDylib {
                name: d.name.as_bytes().to_vec(),
                cmdsize: dylib_cmdsize(&d.name) as u32,
                timestamp: d.timestamp,
                current_version: d.current_version,
                compat_version: d.compat_version,
            });
        }

        match self.entry_style {
            EntryStyle::Main => {
                commands.push(LoadCommand::Main { entryoff: entry_fileoff, stacksize: 0 });
            }
            EntryStyle::UnixThread => {
                let mut state = vec![0u8; 21 * 8];
                if let Some(slot) =
                    state.get_mut(RIP_REGISTER_INDEX * 8..RIP_REGISTER_INDEX * 8 + 8)
                {
                    slot.copy_from_slice(&entry_va.to_le_bytes());
                }
                commands.push(LoadCommand::UnixThread { flavor: X86_THREAD_STATE64, state });
            }
        }

        Ok(MachoFile {
            header: MachHeader {
                cputype: CPU_TYPE_X86_64,
                cpusubtype: CPU_SUBTYPE_X86_64_ALL,
                filetype: MH_EXECUTE,
                flags: 0,
                reserved: 0,
            },
            commands,
            overlay: Vec::new(),
        })
    }
}

fn section_profile(kind: SectionKind) -> (&'static str, u32, u32, u32) {
    match kind {
        SectionKind::Code => (
            "__TEXT",
            VM_PROT_READ | VM_PROT_EXECUTE,
            VM_PROT_READ | VM_PROT_WRITE | VM_PROT_EXECUTE,
            S_ATTR_PURE_INSTRUCTIONS | S_ATTR_SOME_INSTRUCTIONS,
        ),
        SectionKind::Bss => (
            "__DATA",
            VM_PROT_READ | VM_PROT_WRITE,
            VM_PROT_READ | VM_PROT_WRITE,
            S_ZEROFILL,
        ),
        SectionKind::ReadOnlyData
        | SectionKind::Resource
        | SectionKind::Import
        | SectionKind::Relocation => ("__DATA_CONST", VM_PROT_READ, VM_PROT_READ, 0),
        _ => ("__DATA", VM_PROT_READ | VM_PROT_WRITE, VM_PROT_READ | VM_PROT_WRITE, 0),
    }
}

fn dylib_cmdsize(name: &str) -> usize {
    align_up(DYLIB_CMD_FIXED + name.len() + 1, 8)
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

fn align_up_u64(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}
