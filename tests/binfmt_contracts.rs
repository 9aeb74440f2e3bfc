//! Trait-generic contract harness for every [`BinaryFormat`] backend.
//!
//! One set of property checks, written once against `&dyn BinaryFormat`,
//! replayed over both backends (PE and Mach-O) in both parse modes
//! (loader-tolerant and strict). Any future backend gets the same
//! treatment by adding its images to `subjects()`.
//!
//! The properties are the trait's documented invariants:
//!
//! * round trip — `parse(to_bytes(x)) == x`, in both modes;
//! * address honesty — section metadata, `va_to_file_offset` and
//!   `read_virtual` agree about where bytes live;
//! * edit coherence — added sections land at `next_free_va`, entry
//!   retargeting survives serialization, overlay append/truncate and
//!   virtual writes round-trip;
//! * inventory sanity — `modifiable_positions` spans lie inside the
//!   serialized file and never overlap each other.

use mpass::binary::{
    BinaryFormat, BinaryImage, Format, Loadable, ParseMode, SectionKind,
};
use mpass::corpus::{CorpusConfig, Dataset};

/// Every image the harness replays: a mixed corpus (PE and Mach-O
/// malware/benign in one world) plus each backend's no-slack variants.
fn subjects() -> Vec<(String, BinaryImage)> {
    let mut out = Vec::new();
    for (tag, fraction) in [("pe", 0.0f64), ("mixed", 0.5), ("macho", 1.0)] {
        let ds = Dataset::generate_mixed(
            &CorpusConfig {
                n_malware: 4,
                n_benign: 4,
                seed: 0xB1F0 ^ fraction.to_bits(),
                no_slack_fraction: 0.25,
            },
            fraction,
        );
        for s in ds.samples {
            out.push((format!("{tag}/{}", s.name), s.image));
        }
    }
    out
}

fn reparse(image: &BinaryImage, mode: ParseMode) -> BinaryImage {
    BinaryImage::parse_auto_with(&image.to_bytes(), mode).expect("serialized image parses")
}

#[test]
fn round_trip_holds_in_both_modes() {
    for (name, image) in subjects() {
        for mode in [ParseMode::LoaderTolerant, ParseMode::Strict] {
            let again = reparse(&image, mode);
            assert_eq!(again, image, "{name}: round trip diverged under {mode:?}");
        }
    }
}

#[test]
fn detection_matches_the_stored_format() {
    for (name, image) in subjects() {
        let detected = mpass::binary::detect_format(&image.to_bytes())
            .unwrap_or_else(|e| panic!("{name}: magic not detected: {e}"));
        assert_eq!(detected, image.format(), "{name}");
    }
}

#[test]
fn section_metadata_is_address_honest() {
    for (name, image) in subjects() {
        let file = image.to_bytes();
        for i in 0..image.section_count() {
            let meta = image.section_meta(i).unwrap_or_else(|| panic!("{name}: meta {i}"));
            let data = image.section_data(i).unwrap_or_else(|| panic!("{name}: data {i}"));

            // The declared file span holds exactly the section's bytes.
            let span = &file[meta.file_offset..meta.file_offset + meta.file_size];
            assert_eq!(span, &data[..meta.file_size], "{name}/{}: file span", meta.name);

            if meta.virtual_size == 0 {
                continue;
            }
            // The section's VA maps back to its own index and file offset.
            assert_eq!(
                image.section_index_containing_va(meta.virtual_address),
                Some(i),
                "{name}/{}: containing-va",
                meta.name
            );
            if meta.file_size > 0 {
                assert_eq!(
                    image.va_to_file_offset(meta.virtual_address),
                    Some(meta.file_offset),
                    "{name}/{}: va->file",
                    meta.name
                );
                // read_virtual agrees with the raw data.
                let probe = meta.file_size.min(64);
                assert_eq!(
                    image.read_virtual(meta.virtual_address, probe),
                    data[..probe].to_vec(),
                    "{name}/{}: read_virtual",
                    meta.name
                );
            }
        }
    }
}

#[test]
fn entry_point_maps_into_an_executable_section() {
    for (name, image) in subjects() {
        let entry = image.entry_point();
        let idx = image
            .section_index_containing_va(entry)
            .unwrap_or_else(|| panic!("{name}: entry {entry:#x} unmapped"));
        let meta = image.section_meta(idx).expect("mapped index has metadata");
        assert!(meta.executable, "{name}: entry section {} not executable", meta.name);
    }
}

#[test]
fn added_sections_land_at_next_free_va_and_survive_round_trip() {
    for (name, image) in subjects() {
        if !image.can_add_sections(1) {
            continue; // no-slack variants exercise the refusal path
        }
        let mut edited = image.clone();
        let promised = edited.next_free_va();
        let payload = vec![0xC3u8; 192];
        let secname = match edited.format() {
            Format::Pe => ".harn",
            Format::MachO => "__harn",
        };
        let va = edited
            .add_section(secname, payload.clone(), SectionKind::Data)
            .unwrap_or_else(|e| panic!("{name}: add_section: {e}"));
        assert_eq!(va, promised, "{name}: add_section broke the next_free_va promise");
        assert_eq!(edited.section_count(), image.section_count() + 1, "{name}");
        edited.finalize();

        let again = reparse(&edited, ParseMode::LoaderTolerant);
        let idx = again
            .section_index_containing_va(va)
            .unwrap_or_else(|| panic!("{name}: new section unmapped after round trip"));
        assert_eq!(
            again.section_data(idx).map(|d| &d[..payload.len()]),
            Some(payload.as_slice()),
            "{name}: new section data after round trip"
        );
    }
}

#[test]
fn entry_retargeting_survives_serialization() {
    for (name, image) in subjects() {
        if !image.can_add_sections(1) {
            continue;
        }
        let mut edited = image.clone();
        let secname = match edited.format() {
            Format::Pe => ".stub",
            Format::MachO => "__stub",
        };
        let va = edited
            .add_section(secname, vec![0x90u8; 64], SectionKind::Code)
            .unwrap_or_else(|e| panic!("{name}: add_section: {e}"));
        edited.set_entry_point(va).unwrap_or_else(|e| panic!("{name}: set_entry_point: {e}"));
        edited.finalize();
        let again = reparse(&edited, ParseMode::LoaderTolerant);
        assert_eq!(again.entry_point(), va, "{name}: retargeted entry lost in serialization");
    }
}

#[test]
fn unmapped_entry_is_refused() {
    for (name, image) in subjects() {
        let mut edited = image.clone();
        assert!(
            edited.set_entry_point(u64::MAX - 0xFFF).is_err(),
            "{name}: set_entry_point accepted an unmapped address"
        );
    }
}

#[test]
fn overlay_and_virtual_writes_round_trip() {
    for (name, image) in subjects() {
        let mut edited = image.clone();

        edited.append_overlay(b"HARNESS-OVERLAY");
        let again = reparse(&edited, ParseMode::LoaderTolerant);
        assert!(again.overlay().ends_with(b"HARNESS-OVERLAY"), "{name}: overlay lost");
        let kept = edited.overlay().len() - b"HARNESS-OVERLAY".len();
        edited.truncate_overlay(kept);
        assert_eq!(edited.overlay().len(), kept, "{name}: truncate_overlay");
        assert_eq!(
            reparse(&edited, ParseMode::LoaderTolerant),
            edited,
            "{name}: round trip after overlay truncate"
        );

        // A virtual write into the first writable, file-backed section is
        // visible to read_virtual and survives serialization.
        let target = (0..edited.section_count()).find_map(|i| {
            let m = edited.section_meta(i)?;
            (m.writable && m.file_size >= 8 && m.virtual_size >= 8).then_some(m)
        });
        if let Some(m) = target {
            edited.write_virtual(m.virtual_address, b"WRITTEN!").unwrap_or_else(|e| {
                panic!("{name}: write_virtual into {}: {e}", m.name);
            });
            assert_eq!(edited.read_virtual(m.virtual_address, 8), b"WRITTEN!".to_vec(), "{name}");
            let again = reparse(&edited, ParseMode::LoaderTolerant);
            assert_eq!(
                again.read_virtual(m.virtual_address, 8),
                b"WRITTEN!".to_vec(),
                "{name}: virtual write lost in serialization"
            );
        }
    }
}

#[test]
fn modifiable_positions_lie_within_the_file_and_do_not_overlap() {
    for (name, image) in subjects() {
        let len = image.file_len();
        let mut regions = image.modifiable_positions();
        assert!(!regions.is_empty(), "{name}: no modifiable positions at all");
        regions.sort_by_key(|r| r.file_offset);
        let mut prev_end = 0usize;
        for r in &regions {
            let range = r.file_range();
            assert!(range.end <= len, "{name}: {:?} spills past the file ({len})", r);
            assert!(
                range.start >= prev_end,
                "{name}: {:?} overlaps the previous region (prev end {prev_end})",
                r
            );
            prev_end = range.end;
        }
    }
}

#[test]
fn randomize_free_headers_is_deterministic_and_preserves_structure() {
    use rand::SeedableRng;
    for (name, image) in subjects() {
        let mut a = image.clone();
        let mut b = image.clone();
        let mut rng_a = rand_chacha::ChaCha8Rng::seed_from_u64(0xF4EE);
        let mut rng_b = rand_chacha::ChaCha8Rng::seed_from_u64(0xF4EE);
        a.randomize_free_headers(&mut rng_a);
        b.randomize_free_headers(&mut rng_b);
        assert_eq!(a, b, "{name}: header randomization not seed-deterministic");

        // Structure is untouched: same sections, same entry, same data.
        assert_eq!(a.section_count(), image.section_count(), "{name}");
        assert_eq!(a.entry_point(), image.entry_point(), "{name}");
        for i in 0..image.section_count() {
            assert_eq!(a.section_data(i), image.section_data(i), "{name}: section {i} data");
        }
        assert_eq!(reparse(&a, ParseMode::LoaderTolerant), a, "{name}: round trip after");
    }
}

#[test]
fn map_image_bounded_refuses_oversized_images_and_maps_sections() {
    for (name, image) in subjects() {
        assert!(
            image.map_image_bounded(16).is_err(),
            "{name}: a 16-byte budget cannot hold any real image"
        );
        let mapped = image
            .map_image_bounded(64 << 20)
            .unwrap_or_else(|e| panic!("{name}: map_image_bounded: {e}"));
        // Every file-backed section's bytes appear at its VA-relative slot.
        for i in 0..image.section_count() {
            let m = image.section_meta(i).expect("meta");
            if m.file_size == 0 || m.virtual_size == 0 {
                continue;
            }
            let base = image.read_virtual(m.virtual_address, m.file_size.min(32));
            let data = image.section_data(i).expect("data");
            assert_eq!(base, data[..m.file_size.min(32)].to_vec(), "{name}/{}", m.name);
        }
        assert!(!mapped.is_empty(), "{name}: empty mapping");
    }
}
