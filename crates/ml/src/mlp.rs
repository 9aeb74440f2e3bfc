//! A small two-layer perceptron used as the neural component of the
//! simulated commercial AVs.

use crate::activation::{relu, relu_backward};
use crate::grads::Grads;
use crate::linear::Linear;
use crate::loss::{bce_with_logits, bce_with_logits_backward};
use crate::param::Adam;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// `in_dim → hidden → 1` binary classifier with ReLU hidden activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl Mlp {
    /// New MLP with random init.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, hidden: usize, rng: &mut R) -> Self {
        Mlp { l1: Linear::new(in_dim, hidden, rng), l2: Linear::new(hidden, 1, rng) }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.l1.in_dim()
    }

    /// Raw logit for one feature vector.
    pub fn logit(&self, x: &[f32]) -> f32 {
        let h = relu(&self.l1.forward(x));
        self.l2.forward(&h)[0]
    }

    /// Malicious probability.
    pub fn score(&self, x: &[f32]) -> f32 {
        crate::activation::sigmoid(self.logit(x))
    }

    /// One SGD/Adam epoch over `(features, label)` pairs in the given
    /// order; returns mean loss. Labels: 1.0 malicious, 0.0 benign.
    pub fn train_epoch(&mut self, data: &[(Vec<f32>, f32)], adam: &Adam) -> f32 {
        let mut total = 0.0;
        for (x, y) in data {
            let a1 = self.l1.forward(x);
            let h = relu(&a1);
            let logit = self.l2.forward(&h)[0];
            total += bce_with_logits(logit, *y);
            let dlogit = bce_with_logits_backward(logit, *y);
            let mut g1 = Grads::take((&mut self.l1.weight, &mut self.l1.bias));
            let mut g2 = Grads::take((&mut self.l2.weight, &mut self.l2.bias));
            let mut dh = vec![0.0; h.len()];
            self.l2.backward(&h, &[dlogit], Some(&mut dh), &mut g2);
            let da1 = relu_backward(&a1, &dh);
            self.l1.backward(x, &da1, None, &mut g1);
            g1.restore((&mut self.l1.weight, &mut self.l1.bias));
            g2.restore((&mut self.l2.weight, &mut self.l2.bias));
            adam.step(&mut self.l1.weight);
            adam.step(&mut self.l1.bias);
            adam.step(&mut self.l2.weight);
            adam.step(&mut self.l2.bias);
        }
        total / data.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn learns_linearly_separable_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut mlp = Mlp::new(2, 8, &mut rng);
        let mut data = Vec::new();
        for _ in 0..200 {
            let x1: f32 = rng.gen_range(-1.0..1.0);
            let x2: f32 = rng.gen_range(-1.0..1.0);
            let y = if x1 + x2 > 0.0 { 1.0 } else { 0.0 };
            data.push((vec![x1, x2], y));
        }
        let adam = Adam::with_lr(0.01);
        for _ in 0..30 {
            mlp.train_epoch(&data, &adam);
        }
        let correct = data
            .iter()
            .filter(|(x, y)| (mlp.score(x) > 0.5) == (*y > 0.5))
            .count();
        assert!(correct as f32 / data.len() as f32 > 0.95, "accuracy {correct}/200");
    }

    #[test]
    fn learns_xor() {
        // Nonlinear problem: requires the hidden layer to matter.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut mlp = Mlp::new(2, 16, &mut rng);
        let data: Vec<(Vec<f32>, f32)> = vec![
            (vec![0.0, 0.0], 0.0),
            (vec![0.0, 1.0], 1.0),
            (vec![1.0, 0.0], 1.0),
            (vec![1.0, 1.0], 0.0),
        ];
        let adam = Adam::with_lr(0.02);
        for _ in 0..800 {
            mlp.train_epoch(&data, &adam);
        }
        for (x, y) in &data {
            assert_eq!(mlp.score(x) > 0.5, *y > 0.5, "failed at {x:?}");
        }
    }

    #[test]
    fn score_is_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp = Mlp::new(3, 4, &mut rng);
        let s = mlp.score(&[0.5, -0.5, 1.0]);
        assert!((0.0..=1.0).contains(&s));
    }
}
