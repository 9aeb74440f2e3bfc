//! Byte-statistics utilities shared by detectors and the corpus generator.

/// Shannon entropy of a byte slice, in bits per byte (0.0..=8.0).
///
/// An empty slice has entropy 0 by convention.
///
/// ```
/// let uniform: Vec<u8> = (0..=255).collect();
/// assert!((mpass_pe::entropy(&uniform) - 8.0).abs() < 1e-9);
/// assert_eq!(mpass_pe::entropy(&[7u8; 1024]), 0.0);
/// ```
pub fn entropy(bytes: &[u8]) -> f64 {
    histogram_entropy(&byte_histogram(bytes), bytes.len())
}

/// Shannon entropy, in bits per byte, of `len` bytes whose counts are
/// `hist`. Summing the histograms of several slices and passing their
/// total length gives, bit for bit, the [`entropy`] of their
/// concatenation: the sum runs over the same counts in the same order.
pub fn histogram_entropy(hist: &[u64; 256], len: usize) -> f64 {
    let n = len as f64;
    let mut h = 0.0;
    for &count in hist.iter() {
        if count > 0 {
            let p = count as f64 / n;
            h -= p * p.log2();
        }
    }
    h
}

/// Counts of each byte value.
pub fn byte_histogram(bytes: &[u8]) -> [u64; 256] {
    let mut hist = [0u64; 256];
    for &b in bytes {
        hist[b as usize] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn constant_is_zero() {
        assert_eq!(entropy(&[0xAB; 4096]), 0.0);
    }

    #[test]
    fn uniform_is_eight() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 256) as u8).collect();
        assert!((entropy(&data) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn two_symbols_is_one_bit() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        assert!((entropy(&data) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_bounded() {
        let data = b"hello world, some text with structure".repeat(4);
        let h = entropy(&data);
        assert!(h > 0.0 && h < 8.0);
    }

    #[test]
    fn histogram_counts() {
        let hist = byte_histogram(&[1, 1, 2, 255]);
        assert_eq!(hist[1], 2);
        assert_eq!(hist[2], 1);
        assert_eq!(hist[255], 1);
        assert_eq!(hist[0], 0);
    }

    #[test]
    fn summed_histograms_give_the_concatenations_entropy() {
        let a: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let b = b"hello world, some text with structure".repeat(3);
        let mut hist = byte_histogram(&a);
        for (h, c) in hist.iter_mut().zip(byte_histogram(&b)) {
            *h += c;
        }
        let joined = [a.as_slice(), b.as_slice()].concat();
        assert_eq!(
            histogram_entropy(&hist, a.len() + b.len()).to_bits(),
            entropy(&joined).to_bits()
        );
    }
}
