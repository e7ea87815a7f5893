//! The `ffnn` benchmark (Table IV): a fully-connected feedforward neural
//! network with nine hidden layers and `n` neurons per layer, with ReLU
//! activations.
//!
//! The paper's network is trained on MNIST; neither the dataset nor the
//! trained weights are available offline, so this module substitutes a
//! deterministic synthetic network and synthetic digit-like inputs
//! (documented in DESIGN.md). The substitution preserves everything the
//! evaluation measures: the compute shape (9 dense layers of `n×n`
//! matrix-vector products plus activations) and the error-accumulation
//! profile of deep multiply-add chains.

use crate::num::Numeric;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Number of hidden layers (the paper: nine).
pub const HIDDEN_LAYERS: usize = 9;

/// Input dimension of the synthetic "digit" inputs (MNIST is 28×28).
pub const INPUT_DIM: usize = 784;

/// A dense network: input layer `n×INPUT_DIM`, then `HIDDEN_LAYERS - 1`
/// hidden `n×n` layers, then a 10-way output layer.
#[derive(Debug, Clone)]
pub struct Ffnn {
    /// Neurons per hidden layer.
    pub width: usize,
    /// Row-major weight matrices.
    pub weights: Vec<Vec<f64>>,
    /// Bias vectors.
    pub biases: Vec<Vec<f64>>,
}

impl Ffnn {
    /// A deterministic synthetic network with `width` neurons per layer.
    /// Weights follow the usual 1/√fan_in scaling so activations stay in
    /// a realistic range through all nine layers.
    pub fn synthetic(width: usize, seed: u64) -> Ffnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![INPUT_DIM];
        dims.extend(std::iter::repeat_n(width, HIDDEN_LAYERS));
        dims.push(10);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in dims.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = 1.0 / (fan_in as f64).sqrt();
            weights.push((0..fan_in * fan_out).map(|_| rng.random_range(-scale..scale)).collect());
            biases.push((0..fan_out).map(|_| rng.random_range(-0.1..0.1)).collect());
        }
        Ffnn { width, weights, biases }
    }

    /// A deterministic synthetic "digit" input in `[0, 1]^784` with a
    /// blob structure loosely resembling a drawn digit.
    pub fn synthetic_input(seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let cx = rng.random_range(8.0..20.0);
        let cy = rng.random_range(8.0..20.0);
        (0..INPUT_DIM)
            .map(|i| {
                let (x, y) = ((i % 28) as f64, (i / 28) as f64);
                let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                ((-d2 / 40.0).exp() + rng.random_range(0.0..0.05)).min(1.0)
            })
            .collect()
    }

    /// Forward pass, generic over the numeric type.
    pub fn forward<T: Numeric>(&self, input: &[f64]) -> Vec<T> {
        let mut act: Vec<T> = input.iter().map(|&v| T::from_f64(v)).collect();
        let layers = self.weights.len();
        for (li, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let fan_in = act.len();
            let mut next = Vec::with_capacity(b.len());
            for (o, &bias) in b.iter().enumerate() {
                let mut acc = T::from_f64(bias);
                for (i, a) in act.iter().enumerate() {
                    acc = acc + T::from_f64(w[o * fan_in + i]) * *a;
                }
                // ReLU on all but the output layer.
                next.push(if li + 1 == layers { acc } else { acc.relu() });
            }
            act = next;
        }
        act
    }

    /// Forward pass with the output-neuron loop unrolled by `LANES`.
    pub fn forward_unrolled<T: Numeric, const LANES: usize>(&self, input: &[f64]) -> Vec<T> {
        let mut act: Vec<T> = input.iter().map(|&v| T::from_f64(v)).collect();
        let layers = self.weights.len();
        for (li, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let fan_in = act.len();
            let fan_out = b.len();
            let last = li + 1 == layers;
            let mut next = vec![T::zero(); fan_out];
            let mut o = 0;
            while o + LANES <= fan_out {
                let mut acc = [T::zero(); LANES];
                for (l, slot) in acc.iter_mut().enumerate() {
                    *slot = T::from_f64(b[o + l]);
                }
                for (i, a) in act.iter().enumerate() {
                    for (l, slot) in acc.iter_mut().enumerate() {
                        *slot = *slot + T::from_f64(w[(o + l) * fan_in + i]) * *a;
                    }
                }
                for (l, slot) in acc.iter().enumerate() {
                    next[o + l] = if last { *slot } else { slot.relu() };
                }
                o += LANES;
            }
            while o < fan_out {
                let mut acc = T::from_f64(b[o]);
                for (i, a) in act.iter().enumerate() {
                    acc = acc + T::from_f64(w[o * fan_in + i]) * *a;
                }
                next[o] = if last { acc } else { acc.relu() };
                o += 1;
            }
            act = next;
        }
        act
    }

    /// Interval operations of one forward pass (mul+add per weight).
    pub fn iops(&self) -> u64 {
        self.weights.iter().map(|w| 2 * w.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igen_interval::F64I;

    #[test]
    fn deterministic_and_shaped() {
        let n1 = Ffnn::synthetic(40, 7);
        let n2 = Ffnn::synthetic(40, 7);
        assert_eq!(n1.weights[0], n2.weights[0]);
        assert_eq!(n1.weights.len(), HIDDEN_LAYERS + 1);
        assert_eq!(n1.biases.last().unwrap().len(), 10);
        let input = Ffnn::synthetic_input(3);
        assert_eq!(input.len(), INPUT_DIM);
        assert!(input.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn interval_forward_contains_float_forward() {
        let net = Ffnn::synthetic(40, 42);
        let input = Ffnn::synthetic_input(1);
        let f: Vec<f64> = net.forward::<f64>(&input);
        let iv: Vec<F64I> = net.forward::<F64I>(&input);
        assert_eq!(f.len(), 10);
        for (k, (fv, ivv)) in f.iter().zip(&iv).enumerate() {
            assert!(ivv.contains(*fv), "logit {k}: {fv} outside {ivv}");
        }
        // Paper (Fig. 9b): >17 certified bits in double precision.
        let worst = iv.iter().map(|i| i.certified_bits()).fold(53.0, f64::min);
        assert!(worst > 17.0, "bits = {worst}");
    }

    #[test]
    fn unrolled_matches_scalar() {
        let net = Ffnn::synthetic(24, 5);
        let input = Ffnn::synthetic_input(9);
        let a: Vec<F64I> = net.forward::<F64I>(&input);
        let b: Vec<F64I> = net.forward_unrolled::<F64I, 4>(&input);
        assert_eq!(a, b);
    }

    #[test]
    fn dd_certifies_double_result() {
        use igen_interval::DdI;
        let net = Ffnn::synthetic(24, 11);
        let input = Ffnn::synthetic_input(2);
        let dd: Vec<DdI> = net.forward::<DdI>(&input);
        for v in &dd {
            assert!(v.certified_bits() > 68.0, "bits = {}", v.certified_bits());
            assert!(v.certified_f64().is_some());
        }
    }
}
