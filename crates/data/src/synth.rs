//! Seeded synthetic dataset generators.
//!
//! The generators reproduce the *statistical shape* of the paper's
//! evaluation datasets: example count, feature dimensionality, class count,
//! sparsity, and class separability. Convergence comparisons between SGD
//! variants depend on those shape parameters (gradient noise scale, update
//! cost, label structure) rather than on the exact real-world feature
//! values, which is what makes this substitution sound (see DESIGN.md §2).
//!
//! Single-label data is a mixture model: each class owns a random unit
//! center; an example is its class center scaled by `separability` plus
//! isotropic noise, with an optional sparse mask (only a fraction of
//! coordinates active, mimicking bag-of-words data like real-sim).
//!
//! Multi-label data (delicious-like) draws `avg_labels` labels per example
//! and sums the corresponding label centers before adding noise.

use hetero_tensor::{CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::dataset::{DenseDataset, Labels};

/// Configuration for the synthetic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of examples.
    pub examples: usize,
    /// Feature dimensionality.
    pub features: usize,
    /// Number of classes (single-label) or labels (multi-label).
    pub classes: usize,
    /// Mean labels per example; `None` ⇒ single-label.
    pub avg_labels: Option<f32>,
    /// Distance scale between class centers (0 = unlearnable noise).
    pub separability: f32,
    /// Per-example fraction of *active* (non-zero) features, in (0, 1].
    pub density: f32,
    /// Additive noise standard deviation.
    pub noise: f32,
    /// RNG seed; every byte of the dataset is a pure function of the config.
    pub seed: u64,
}

impl SynthConfig {
    /// A sensible default shape for tests: dense, well-separated, binary.
    pub fn small(examples: usize, features: usize, classes: usize, seed: u64) -> Self {
        SynthConfig {
            examples,
            features,
            classes,
            avg_labels: None,
            separability: 2.0,
            density: 1.0,
            noise: 1.0,
            seed,
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.features == 0 || self.classes == 0 {
            return Err("features and classes must be positive".into());
        }
        if !(0.0 < self.density && self.density <= 1.0) {
            return Err("density must be in (0, 1]".into());
        }
        if let Some(a) = self.avg_labels {
            if a <= 0.0 {
                return Err("avg_labels must be positive".into());
            }
        }
        Ok(())
    }

    /// Generate the dataset. A `density < 1` dataset is born CSR: only the
    /// active entries are stored, and the dense matrix is never built.
    pub fn generate(&self) -> DenseDataset {
        self.validate().expect("invalid SynthConfig");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let unit = Normal::new(0.0f32, 1.0).expect("valid normal");

        // Class centers: random unit-norm directions scaled by separability.
        let centers: Vec<Vec<f32>> = (0..self.classes)
            .map(|_| {
                let mut c: Vec<f32> = (0..self.features).map(|_| unit.sample(&mut rng)).collect();
                let norm = c.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
                let s = self.separability / norm;
                c.iter_mut().for_each(|v| *v *= s);
                c
            })
            .collect();

        let noise = Normal::new(0.0f32, self.noise).expect("valid normal");
        let mut x = Rows::new(self);

        match self.avg_labels {
            None => {
                let mut labels = Vec::with_capacity(self.examples);
                for _ in 0..self.examples {
                    let y = rng.gen_range(0..self.classes);
                    labels.push(y as u32);
                    x.push(self, &mut rng, &noise, &centers[y]);
                }
                x.into_dataset(self, "synthetic", Labels::Classes(labels))
            }
            Some(avg) => {
                let mut y = Matrix::zeros(self.examples, self.classes);
                let p_label = (avg / self.classes as f32).clamp(0.0, 1.0);
                let mut sum_center = vec![0.0f32; self.features];
                for i in 0..self.examples {
                    sum_center.iter_mut().for_each(|v| *v = 0.0);
                    let mut any = false;
                    for (c, center) in centers.iter().enumerate().take(self.classes) {
                        if rng.gen::<f32>() < p_label {
                            y.set(i, c, 1.0);
                            for (s, v) in sum_center.iter_mut().zip(center) {
                                *s += v;
                            }
                            any = true;
                        }
                    }
                    if !any {
                        // Guarantee ≥1 label, like real multi-label corpora.
                        let c = rng.gen_range(0..self.classes);
                        y.set(i, c, 1.0);
                        sum_center.copy_from_slice(&centers[c]);
                    }
                    x.push(self, &mut rng, &noise, &sum_center);
                }
                x.into_dataset(self, "synthetic-multilabel", Labels::MultiHot(y))
            }
        }
    }
}

/// The generated feature rows, in the store the dataset will keep: dense
/// when every feature is active, CSR arrays otherwise.
enum Rows {
    Dense(Vec<f32>),
    Csr {
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    },
}

impl Rows {
    fn new(cfg: &SynthConfig) -> Self {
        if cfg.density >= 1.0 {
            return Rows::Dense(Vec::with_capacity(cfg.examples * cfg.features));
        }
        // Room for the expected entry count and then some (its spread is
        // about its square root), so the arrays are allocated once.
        let expected = (cfg.examples * cfg.features) as f64 * cfg.density as f64;
        let nnz = (expected + 4.0 * expected.sqrt()) as usize + 64;
        let mut indptr = Vec::with_capacity(cfg.examples + 1);
        indptr.push(0);
        Rows::Csr {
            indptr,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Draw one example around `center`.
    fn push(&mut self, cfg: &SynthConfig, rng: &mut StdRng, noise: &Normal<f32>, center: &[f32]) {
        match self {
            Rows::Dense(x) => x.extend(center.iter().map(|c| c + noise.sample(rng))),
            Rows::Csr {
                indptr,
                indices,
                values,
            } => {
                // Sparse bag-of-words-like pattern: only a random subset of
                // coordinates is active; inactive ones are exactly zero and
                // not stored. One uniform per coordinate, then one normal
                // per active one, in coordinate order: the values are those
                // a dense fill of the same stream writes (the tests hold
                // every preset against one).
                for (j, c) in center.iter().enumerate() {
                    if rng.gen::<f32>() < cfg.density {
                        let v = c + noise.sample(rng);
                        // An exact zero is no entry, as in `to_csr`.
                        if v != 0.0 {
                            indices.push(j as u32);
                            values.push(v);
                        }
                    }
                }
                indptr.push(indices.len());
            }
        }
    }

    fn into_dataset(self, cfg: &SynthConfig, name: &str, labels: Labels) -> DenseDataset {
        match self {
            Rows::Dense(x) => DenseDataset::new(
                name,
                Matrix::from_vec(cfg.examples, cfg.features, x),
                labels,
            ),
            Rows::Csr {
                indptr,
                indices,
                values,
            } => {
                let x = CsrMatrix::from_parts(cfg.features, indptr, indices, values);
                DenseDataset::from_csr(name, x, labels)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PaperDataset;

    /// The dense generator every stored dataset must reproduce: each row
    /// drawn into a full dense matrix, zeros and all.
    fn reference(cfg: &SynthConfig) -> (Matrix, Labels) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let unit = Normal::new(0.0f32, 1.0).unwrap();
        let centers: Vec<Vec<f32>> = (0..cfg.classes)
            .map(|_| {
                let mut c: Vec<f32> = (0..cfg.features).map(|_| unit.sample(&mut rng)).collect();
                let norm = c.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
                let s = cfg.separability / norm;
                c.iter_mut().for_each(|v| *v *= s);
                c
            })
            .collect();
        let noise = Normal::new(0.0f32, cfg.noise).unwrap();
        let fill_row = |rng: &mut StdRng, center: &[f32], row: &mut [f32]| {
            if cfg.density >= 1.0 {
                for (r, c) in row.iter_mut().zip(center) {
                    *r = c + noise.sample(rng);
                }
            } else {
                for (r, c) in row.iter_mut().zip(center) {
                    if rng.gen::<f32>() < cfg.density {
                        *r = c + noise.sample(rng);
                    } else {
                        *r = 0.0;
                    }
                }
            }
        };
        let mut x = Matrix::zeros(cfg.examples, cfg.features);
        match cfg.avg_labels {
            None => {
                let mut labels = Vec::with_capacity(cfg.examples);
                for i in 0..cfg.examples {
                    let y = rng.gen_range(0..cfg.classes);
                    labels.push(y as u32);
                    fill_row(&mut rng, &centers[y], x.row_mut(i));
                }
                (x, Labels::Classes(labels))
            }
            Some(avg) => {
                let mut y = Matrix::zeros(cfg.examples, cfg.classes);
                let p_label = (avg / cfg.classes as f32).clamp(0.0, 1.0);
                let mut sum_center = vec![0.0f32; cfg.features];
                for i in 0..cfg.examples {
                    sum_center.iter_mut().for_each(|v| *v = 0.0);
                    let mut any = false;
                    for (c, center) in centers.iter().enumerate().take(cfg.classes) {
                        if rng.gen::<f32>() < p_label {
                            y.set(i, c, 1.0);
                            for (s, v) in sum_center.iter_mut().zip(center) {
                                *s += v;
                            }
                            any = true;
                        }
                    }
                    if !any {
                        let c = rng.gen_range(0..cfg.classes);
                        y.set(i, c, 1.0);
                        sum_center.copy_from_slice(&centers[c]);
                    }
                    fill_row(&mut rng, &sum_center, x.row_mut(i));
                }
                (x, Labels::MultiHot(y))
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Sparse configs are stored as CSR and hold exactly the reference's
    /// non-zeros; densified, they are the reference bit for bit — and so
    /// is every preset after its preprocessing, which on covtype densifies
    /// the CSR store inside `standardize`.
    #[test]
    fn generated_data_is_the_dense_reference_bit_for_bit() {
        let presets = PaperDataset::all()
            .into_iter()
            .flat_map(|p| [0.002, 0.01].map(|scale| (Some(p), p.synth_config(scale, 9))));
        let benchmark_shaped = SynthConfig {
            examples: 64,
            features: 20_958,
            classes: 2,
            avg_labels: None,
            separability: 2.5,
            density: 0.0025,
            noise: 1.0,
            seed: 1,
        };
        let dense = SynthConfig::small(40, 7, 3, 2);
        let cases = presets.chain([(None, benchmark_shaped), (None, dense)]);
        for (preset, cfg) in cases {
            let (x_ref, labels_ref) = reference(&cfg);
            let d = cfg.generate();
            if cfg.density < 1.0 {
                assert_eq!(
                    d.csr_store(),
                    Some(&CsrMatrix::from_dense(&x_ref, 0.0)),
                    "{cfg:?}"
                );
            } else {
                assert!(d.csr_store().is_none());
            }
            let (x, labels) = d.batch(0, d.len());
            assert!(bits(&x) == bits(&x_ref), "{cfg:?}");
            assert_eq!(labels, labels_ref);

            // `PaperDataset::generate`'s preprocessing, on either store.
            let Some(p) = preset else { continue };
            let preprocessed = |mut d: DenseDataset| {
                if p.stats().dense {
                    d.standardize();
                } else {
                    d.scale_to_unit_variance();
                }
                d.batch(0, d.len()).0
            };
            let want = preprocessed(DenseDataset::new("ref", x_ref, labels_ref));
            assert!(bits(&preprocessed(d)) == bits(&want), "{p:?} preprocessed");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SynthConfig::small(50, 10, 3, 7);
        assert_eq!(cfg.generate(), cfg.generate());
        let mut cfg2 = cfg.clone();
        cfg2.seed = 8;
        assert_ne!(
            cfg.generate().batch(0, 50).0,
            cfg2.generate().batch(0, 50).0
        );
    }

    #[test]
    fn shapes_match_config() {
        let cfg = SynthConfig::small(40, 12, 4, 1);
        let d = cfg.generate();
        assert_eq!(d.len(), 40);
        assert_eq!(d.features(), 12);
        assert!(d.num_classes() <= 4);
    }

    #[test]
    fn density_controls_sparsity() {
        let mut cfg = SynthConfig::small(200, 50, 2, 3);
        cfg.density = 0.1;
        let d = cfg.generate().density_at_most(1.0).unwrap();
        assert!(d > 0.03 && d < 0.2, "density {d}");
        cfg.density = 1.0;
        assert!(cfg.generate().density_at_most(0.99).is_none());
    }

    #[test]
    fn multilabel_has_at_least_one_label_each() {
        let mut cfg = SynthConfig::small(100, 10, 20, 5);
        cfg.avg_labels = Some(3.0);
        let d = cfg.generate();
        match &d.labels {
            Labels::MultiHot(y) => {
                for i in 0..y.rows() {
                    let count: f32 = y.row(i).iter().sum();
                    assert!(count >= 1.0, "example {i} has no labels");
                }
                // Mean labels per example should be near avg_labels.
                let total: f32 = (0..y.rows()).map(|i| y.row(i).iter().sum::<f32>()).sum();
                let mean = total / y.rows() as f32;
                assert!((mean - 3.0).abs() < 1.0, "mean labels {mean}");
            }
            _ => panic!("expected multihot"),
        }
    }

    #[test]
    fn separable_data_is_linearly_structured() {
        // With high separability and low noise, same-class examples should
        // be closer to their own class mean than to the other class mean.
        let mut cfg = SynthConfig::small(100, 20, 2, 11);
        cfg.separability = 5.0;
        cfg.noise = 0.5;
        let d = cfg.generate();
        let x = d.batch(0, d.len()).0;
        let labels = match &d.labels {
            Labels::Classes(v) => v.clone(),
            _ => panic!(),
        };
        let mut means = vec![vec![0.0f32; 20]; 2];
        let mut counts = [0usize; 2];
        for (i, &label) in labels.iter().enumerate() {
            let c = label as usize;
            counts[c] += 1;
            for (m, v) in means[c].iter_mut().zip(x.row(i)) {
                *m += v;
            }
        }
        for c in 0..2 {
            means[c]
                .iter_mut()
                .for_each(|m| *m /= counts[c].max(1) as f32);
        }
        let mut correct = 0;
        for (i, &label) in labels.iter().enumerate() {
            let dist =
                |m: &[f32]| -> f32 { x.row(i).iter().zip(m).map(|(a, b)| (a - b).powi(2)).sum() };
            let pred = if dist(&means[0]) < dist(&means[1]) {
                0
            } else {
                1
            };
            if pred == label as usize {
                correct += 1;
            }
        }
        assert!(
            correct as f32 / d.len() as f32 > 0.9,
            "only {correct}/100 separable"
        );
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = SynthConfig::small(10, 5, 2, 0);
        cfg.density = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = SynthConfig::small(10, 0, 2, 0);
        cfg.features = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SynthConfig::small(10, 5, 2, 0);
        cfg.avg_labels = Some(-1.0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_examples_ok() {
        let cfg = SynthConfig::small(0, 5, 2, 0);
        let d = cfg.generate();
        assert!(d.is_empty());
    }
}
