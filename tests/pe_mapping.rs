//! The borrowed parse and both mappings against the owned parse and a
//! reference mapping.
//!
//! `PeView` is the one PE parser and `PeFile::parse_with` copies what it
//! borrowed, so the view copied to an owned image must equal the owned
//! parse, on success and on error alike, and every read accessor must
//! agree. Both representations map through one routine that builds only
//! the header prefix of the image instead of serializing the whole file.
//! The reference here keeps the definition that routine replaced: the
//! first `size_of_headers` bytes of `to_bytes()`, then every section's
//! data at its virtual address. All of it must hold on the quick corpus,
//! on every checked-in malformed PE in both parse modes, on seeded header
//! mutations of a built image (those that fail to parse included) and on
//! a layout whose section raw data starts inside the header region.
//!
//! The sandbox loads every PE it runs through the view; executing bytes
//! must equal running their owned parse, in outcome, steps and trace.

use mpass::binary::{BinaryImage, Loadable};
use mpass::core::modify::{modify, ModificationConfig};
use mpass::corpus::{BenignPool, Dataset};
use mpass::experiments::WorldConfig;
use mpass::pe::{
    CoffHeader, ParseMode, PeBuilder, PeFile, PeView, SectionFlags, OPTIONAL_HEADER_SIZE,
    SECTION_HEADER_SIZE,
};
use mpass::sandbox::{Sandbox, SandboxError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Largest image either mapping may allocate.
const CEILING: usize = 16 << 20;

/// The mapping as it was defined before the header-only prefix.
fn reference(pe: &PeFile) -> Option<Vec<u8>> {
    let size = pe.optional().size_of_image as usize;
    if size > CEILING {
        return None;
    }
    let mut image = vec![0u8; size];
    let file = pe.to_bytes();
    let hdr = (pe.optional().size_of_headers as usize).min(file.len()).min(size);
    image[..hdr].copy_from_slice(&file[..hdr]);
    for s in pe.sections() {
        let start = s.header().virtual_address as usize;
        if start >= size {
            continue;
        }
        let n = s.data().len().min(size - start);
        image[start..start + n].copy_from_slice(&s.data()[..n]);
    }
    Some(image)
}

fn assert_maps_as_reference(name: &str, pe: &PeFile) {
    let got = pe.map_image_bounded(CEILING).ok();
    assert!(got == reference(pe), "{name}: mapped image differs from the reference");
}

/// Parse `bytes` both ways in `mode` and check that they agree: the view
/// copied to an owned image equals the owned parse (or both fail with
/// the same error), every read accessor agrees, and both mappings equal
/// the reference. Returns the owned parse.
fn parse_both(name: &str, bytes: &[u8], mode: ParseMode) -> Option<PeFile> {
    let owned = PeFile::parse_with(bytes, mode);
    let view = PeView::parse_with(bytes, mode);
    assert_eq!(
        view.as_ref().map(PeView::to_owned).map_err(Clone::clone),
        owned,
        "{name} ({mode:?}): the view parse differs from the owned parse"
    );
    let (view, pe) = (view.ok()?, owned.ok()?);
    assert_eq!(view.dos(), pe.dos().view(), "{name}: dos header");
    assert_eq!(view.coff(), pe.coff(), "{name}: coff header");
    assert_eq!(view.optional(), pe.optional(), "{name}: optional header");
    assert_eq!(view.sections().len(), pe.sections().len(), "{name}: section count");
    for (v, s) in view.sections().iter().zip(pe.sections()) {
        assert_eq!(v.header(), s.header(), "{name}: section header");
        assert_eq!(v.data(), s.data(), "{name}: section data");
        assert_eq!(v.name(), s.name(), "{name}: section name");
    }
    assert_eq!(view.overlay(), pe.overlay(), "{name}: overlay");
    assert_eq!(view.entry_point(), pe.entry_point(), "{name}: entry point");
    let (view_dyn, pe_dyn): (&dyn Loadable, &dyn Loadable) = (&view, &pe);
    assert_eq!(view_dyn.entry_point(), pe_dyn.entry_point(), "{name}: loader entry point");
    assert_maps_as_reference(name, &pe);
    let expected = reference(&pe);
    assert!(
        view.map_image_bounded(CEILING).ok() == expected,
        "{name}: the view's mapped image differs from the reference"
    );
    assert!(
        view_dyn.map_image_bounded(CEILING).ok() == expected,
        "{name}: the view's loader mapping differs from the reference"
    );
    Some(pe)
}

/// Whether some section's raw data starts inside the header region, so
/// the mapping has to lay it over the headers.
fn raw_data_under_headers(pe: &PeFile) -> bool {
    pe.sections().iter().any(|s| {
        s.header().size_of_raw_data > 0
            && s.header().pointer_to_raw_data < pe.optional().size_of_headers
    })
}

/// File offsets of the optional header and the section table.
fn header_offsets(pe: &PeFile) -> (usize, usize) {
    let optional = pe.dos().e_lfanew as usize + 4 + CoffHeader::SIZE;
    (optional, optional + OPTIONAL_HEADER_SIZE)
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn built() -> PeFile {
    let mut b = PeBuilder::new();
    b.add_section(".text", vec![0xC3; 700], SectionFlags::CODE).expect("section");
    b.add_section(".data", (0..=255).collect(), SectionFlags::DATA).expect("section");
    b.set_entry_section(".text", 0).expect("entry");
    b.build().expect("build")
}

#[test]
fn quick_corpus_maps_as_the_reference() {
    let ds = Dataset::generate(&WorldConfig::quick().corpus);
    assert!(ds.samples.len() >= 40);
    for s in &ds.samples {
        let pe = s.image.as_pe().unwrap_or_else(|| panic!("{}: not a PE", s.name));
        assert_maps_as_reference(&s.name, pe);
        for mode in [ParseMode::LoaderTolerant, ParseMode::Strict] {
            let parsed = parse_both(&s.name, &s.bytes, mode);
            assert!(parsed.as_ref() == Some(pe), "{}: does not parse back", s.name);
        }
    }
}

#[test]
fn malformed_fixtures_that_parse_map_as_the_reference() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/malformed");
    let mut parsed = 0;
    for entry in std::fs::read_dir(dir).expect("fixture directory exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        if !name.ends_with(".bin") || name.starts_with("macho_") {
            continue;
        }
        let bytes = std::fs::read(&path).expect("readable fixture");
        for mode in [ParseMode::LoaderTolerant, ParseMode::Strict] {
            if parse_both(&name, &bytes, mode).is_some() {
                parsed += 1;
            }
        }
    }
    assert!(parsed >= 8, "only {parsed} fixture parses");
}

#[test]
fn header_mutations_map_as_the_reference() {
    let base = built().to_bytes();
    let hdr = built().optional().size_of_headers as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(0x4D41_5049);
    let (mut parsed, mut overlaid) = (0, 0);
    for _ in 0..40_000 {
        let mut bytes = base.clone();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..hdr);
            bytes[at] = if rng.gen() { rng.gen() } else { bytes[at] ^ (1 << rng.gen_range(0..8)) };
        }
        let mode = if rng.gen() { ParseMode::LoaderTolerant } else { ParseMode::Strict };
        if let Some(pe) = parse_both("mutant", &bytes, mode) {
            parsed += 1;
            overlaid += usize::from(raw_data_under_headers(&pe));
        }
    }
    assert!(parsed >= 30_000, "only {parsed} mutants parse");
    assert!(overlaid >= 100, "only {overlaid} mutants put raw data under their headers");
}

#[test]
fn section_raw_data_inside_the_headers_is_laid_over_them() {
    let pe = built();
    let (optional, table) = header_offsets(&pe);
    let first = pe.sections()[0].header().pointer_to_raw_data;
    let mut bytes = pe.to_bytes();
    // Stretch the header region over `.text`'s raw data.
    put_u32(&mut bytes, optional + 60, first + 0x100);
    // Start `.data`'s raw data inside the header region, just past the
    // section table.
    let table_end = table + 2 * SECTION_HEADER_SIZE;
    put_u32(&mut bytes, table + SECTION_HEADER_SIZE + 20, table_end as u32);
    let mut overlaid = 0;
    for mode in [ParseMode::LoaderTolerant, ParseMode::Strict] {
        let Some(pe) = parse_both("raw data under headers", &bytes, mode) else { continue };
        assert!(raw_data_under_headers(&pe), "{mode:?}: layout lost");
        let image = pe.map_image_bounded(CEILING).expect("mapped");
        let data = pe.sections()[1].data();
        assert_eq!(&image[table_end..table_end + 16], &data[..16], "{mode:?}");
        overlaid += 1;
    }
    assert!(overlaid > 0, "the hand-built layout must parse in some mode");
}

/// `Sandbox::execute` on `bytes` against running their owned parse.
fn assert_executes_as_parsed_image(sb: &Sandbox, name: &str, bytes: &[u8]) {
    let want = BinaryImage::parse_auto(bytes)
        .map(|image| sb.run_image(&image))
        .map_err(SandboxError::Unparseable);
    assert_eq!(sb.execute(bytes), want, "{name}: execution differs from the parsed image's");
}

#[test]
fn sandbox_executes_bytes_as_their_parsed_image() {
    let sb = Sandbox::new();
    let cfg = WorldConfig::quick();
    let ds = Dataset::generate(&cfg.corpus);
    let pool = BenignPool::generate(cfg.benign_pool_programs, cfg.seed);
    let modification = ModificationConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A4D_B0C5);
    let mut executed = 0;
    for sample in &ds.samples {
        assert_executes_as_parsed_image(&sb, &sample.name, &sample.bytes);
        // A wave shaped like the validation benchmark's: `modify()`
        // outputs, whose recovery stubs run, and a data-corrupted variant
        // that diverges early.
        let mut wave = Vec::new();
        while wave.len() < 9 {
            if let Ok(ms) = modify(sample, &pool, &modification, &mut rng) {
                wave.push(ms.bytes);
            }
        }
        let mut pe = sample.image.as_pe().expect("quick corpus is PE").clone();
        if let Some(data) = pe.section_mut(".data") {
            for (j, b) in data.data_mut().iter_mut().take(96).enumerate() {
                *b = (*b ^ 0xA5).rotate_left(j as u32 % 7 + 1);
            }
        }
        wave.push(pe.to_bytes());
        for candidate in &wave {
            assert_executes_as_parsed_image(&sb, &sample.name, candidate);
            executed += 1;
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/malformed");
    for entry in std::fs::read_dir(dir).expect("fixture directory exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        if name.ends_with(".bin") {
            let bytes = std::fs::read(&path).expect("readable fixture");
            assert_executes_as_parsed_image(&sb, &name, &bytes);
            executed += 1;
        }
    }
    assert!(executed >= 100, "only {executed} candidates and fixtures executed");
}
