//! Structural candidate validation shared by the attack pipeline.
//!
//! Two gates in the pipeline apply the same structural predicate — the
//! oracle channel's AE-validation gate
//! ([`HardLabelTarget::with_ae_validation`](crate::attack::HardLabelTarget::with_ae_validation)),
//! which refuses to submit malformed candidates, and campaign ingestion,
//! which quarantines samples whose bytes would destabilize the mutation
//! machinery. Both demand that the bytes parse as a PE *and* survive a
//! serialize→parse round trip unchanged, so every byte string that crosses
//! either boundary is a well-formed, reproducible image.
//!
//! This module is that predicate, stated once: [`candidate_is_valid`] for
//! the boolean gate and [`candidate_reject_reason`] when the caller
//! journals a diagnostic. Behavioural (trace-digest) validation is a
//! separate, costlier layer — see `mpass_sandbox::Sandbox::validate_batch`.

use mpass_pe::PeFile;

/// The structural AE validation predicate: the candidate must parse and
/// its parsed form must survive a serialize→parse round trip unchanged.
pub fn candidate_is_valid(bytes: &[u8]) -> bool {
    candidate_reject_reason(bytes).is_none()
}

/// `None` when `bytes` pass the structural predicate; otherwise the
/// diagnostic reason they are rejected or quarantined with.
pub fn candidate_reject_reason(bytes: &[u8]) -> Option<String> {
    match PeFile::parse(bytes) {
        Err(e) => Some(format!("does not parse: {e}")),
        Ok(pe) => match PeFile::parse(&pe.to_bytes()) {
            Err(e) => Some(format!("round-trip does not re-parse: {e}")),
            Ok(pe2) if pe2 != pe => Some("round-trip does not reproduce the image".to_owned()),
            Ok(_) => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_is_rejected_with_reason() {
        assert!(!candidate_is_valid(b"MZ garbage"));
        let reason = candidate_reject_reason(b"MZ garbage").unwrap();
        assert!(reason.starts_with("does not parse: "), "{reason}");
    }

    #[test]
    fn well_formed_pe_is_accepted() {
        let good = {
            let mut pe = mpass_pe::PeBuilder::new();
            pe.add_section(".text", vec![0u8; 8], mpass_pe::SectionFlags::CODE).unwrap();
            pe.set_entry_section(".text", 0).unwrap();
            pe.build().unwrap().to_bytes()
        };
        assert!(candidate_is_valid(&good));
        assert_eq!(candidate_reject_reason(&good), None);
        assert!(!candidate_is_valid(&[0u8; 32]));
    }
}
