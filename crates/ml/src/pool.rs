//! Global max pooling over convolution windows (MalConv's temporal-max
//! aggregation).

/// Max over windows per channel. Input is `[windows × channels]` flat;
/// returns `(pooled, argmax)` where both have length `channels` and
/// `argmax[c]` is the winning window index, needed for backprop.
///
/// # Panics
///
/// Panics when the input is empty or ragged.
pub fn global_max_pool(x: &[f32], channels: usize) -> (Vec<f32>, Vec<usize>) {
    assert!(channels > 0 && !x.is_empty(), "empty pooling input");
    assert_eq!(x.len() % channels, 0, "ragged pooling input");
    let windows = x.len() / channels;
    let mut pooled = vec![f32::NEG_INFINITY; channels];
    let mut argmax = vec![0usize; channels];
    for w in 0..windows {
        for c in 0..channels {
            let v = x[w * channels + c];
            if v > pooled[c] {
                pooled[c] = v;
                argmax[c] = w;
            }
        }
    }
    (pooled, argmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_max_per_channel() {
        // 3 windows × 2 channels.
        let x = vec![1.0, 9.0, 5.0, 2.0, 3.0, 4.0];
        let (pooled, argmax) = global_max_pool(&x, 2);
        assert_eq!(pooled, vec![5.0, 9.0]);
        assert_eq!(argmax, vec![1, 0]);
    }

    #[test]
    fn single_window_identity() {
        let x = vec![3.0, -1.0];
        let (pooled, argmax) = global_max_pool(&x, 2);
        assert_eq!(pooled, x);
        assert_eq!(argmax, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "empty pooling input")]
    fn empty_panics() {
        let _ = global_max_pool(&[], 4);
    }
}
