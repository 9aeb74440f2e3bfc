//! `PeFile::map_image_bounded` against a reference mapping.
//!
//! The mapping builds only the header prefix of the image instead of
//! serializing the whole file. The reference here keeps the definition it
//! replaces: the first `size_of_headers` bytes of `to_bytes()`, then every
//! section's data at its virtual address. The two must agree byte for
//! byte on the quick corpus, on every checked-in malformed PE that
//! parses, on seeded header mutations of a built image and on a layout
//! whose section raw data starts inside the header region.

use mpass::corpus::Dataset;
use mpass::experiments::WorldConfig;
use mpass::pe::{
    CoffHeader, ParseMode, PeBuilder, PeFile, SectionFlags, OPTIONAL_HEADER_SIZE,
    SECTION_HEADER_SIZE,
};
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
            if let Ok(pe) = PeFile::parse_with(&bytes, mode) {
                assert_maps_as_reference(&format!("{name} ({mode:?})"), &pe);
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
        if let Ok(pe) = PeFile::parse_with(&bytes, mode) {
            assert_maps_as_reference("mutant", &pe);
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
        let Ok(pe) = PeFile::parse_with(&bytes, mode) else { continue };
        assert!(raw_data_under_headers(&pe), "{mode:?}: layout lost");
        assert_maps_as_reference(&format!("{mode:?}"), &pe);
        let image = pe.map_image_bounded(CEILING).expect("mapped");
        let data = pe.sections()[1].data();
        assert_eq!(&image[table_end..table_end + 16], &data[..16], "{mode:?}");
        overlaid += 1;
    }
    assert!(overlaid > 0, "the hand-built layout must parse in some mode");
}
