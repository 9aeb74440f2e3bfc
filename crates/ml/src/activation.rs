//! Element-wise activations with explicit backward passes.

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Rectified linear unit applied element-wise, returning a new vector.
pub fn relu(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// Backward of [`relu`]: passes gradient where the input was positive.
pub fn relu_backward(x: &[f32], grad_out: &[f32]) -> Vec<f32> {
    x.iter().zip(grad_out).map(|(&xi, &g)| if xi > 0.0 { g } else { 0.0 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // Numerically stable at extremes.
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(100.0) <= 1.0);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        for &x in &[-2.0f32, -0.3, 0.0, 0.7, 3.0] {
            let eps = 1e-3;
            let num = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            // σ' = σ(1 − σ), the form the MalConv gate backward uses.
            let ana = sigmoid(x) * (1.0 - sigmoid(x));
            assert!((num - ana).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn relu_and_backward() {
        let x = vec![-1.0, 0.0, 2.0];
        assert_eq!(relu(&x), vec![0.0, 0.0, 2.0]);
        assert_eq!(relu_backward(&x, &[1.0, 1.0, 1.0]), vec![0.0, 0.0, 1.0]);
    }
}
