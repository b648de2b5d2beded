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
//!
//! The class centers are drawn first ([`centers`]), so they — the *task* —
//! depend only on the seed and the shape, never on the example count. A
//! sparse (`density < 1`) row is then drawn in O(its entries): the active
//! coordinates are walked by geometric gaps ([`Gaps`]), each coordinate
//! independently active with probability `density`, and only those draw a
//! value. Multi-label rows choose their labels the same way over the
//! classes. Dense configs draw every coordinate.

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

    /// Validate parameter ranges: every config that passes generates.
    pub fn validate(&self) -> Result<(), String> {
        if self.features == 0 || self.classes == 0 {
            return Err("features and classes must be positive".into());
        }
        if !(0.0 < self.density && self.density <= 1.0) {
            return Err("density must be in (0, 1]".into());
        }
        if !(self.noise.is_finite() && self.noise >= 0.0) {
            return Err("noise must be finite and non-negative".into());
        }
        if !self.separability.is_finite() {
            return Err("separability must be finite".into());
        }
        if let Some(a) = self.avg_labels {
            if !(a.is_finite() && a > 0.0) {
                return Err("avg_labels must be positive and finite".into());
            }
        }
        Ok(())
    }

    /// Generate the dataset. A `density < 1` dataset is born CSR: only the
    /// active entries are drawn and stored, and the dense matrix is never
    /// built.
    pub fn generate(&self) -> DenseDataset {
        self.validate().expect("invalid SynthConfig");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let centers = centers(self, &mut rng);
        let noise = Normal::new(0.0f32, self.noise).expect("valid normal");
        let mut x = Rows::new(self);

        match self.avg_labels {
            None => {
                let mut labels = Vec::with_capacity(self.examples);
                for _ in 0..self.examples {
                    let y = rng.gen_range(0..self.classes);
                    labels.push(y as u32);
                    let center = &centers[y];
                    x.push(self, &mut rng, &noise, |j| center[j]);
                }
                x.into_dataset(self, "synthetic", Labels::Classes(labels))
            }
            Some(avg) => {
                let mut y = Matrix::zeros(self.examples, self.classes);
                let p_label = (avg / self.classes as f32).clamp(0.0, 1.0);
                let label_gaps = Gaps::new(p_label);
                let mut on = Vec::new();
                for i in 0..self.examples {
                    on.clear();
                    label_gaps.walk(&mut rng, self.classes, |_, c| on.push(c));
                    if on.is_empty() {
                        // Guarantee ≥1 label, like real multi-label corpora.
                        on.push(rng.gen_range(0..self.classes));
                    }
                    for &c in &on {
                        y.set(i, c, 1.0);
                    }
                    // The labels' centers summed in class order, at the
                    // coordinates the row draws.
                    let center = |j: usize| on.iter().fold(0.0f32, |s, &c| s + centers[c][j]);
                    x.push(self, &mut rng, &noise, center);
                }
                x.into_dataset(self, "synthetic-multilabel", Labels::MultiHot(y))
            }
        }
    }
}

/// The class centers — the task — drawn first from the config's stream:
/// random unit-norm directions scaled by `separability`, one per class.
pub(crate) fn centers(cfg: &SynthConfig, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let unit = Normal::new(0.0f32, 1.0).expect("valid normal");
    (0..cfg.classes)
        .map(|_| {
            let mut c: Vec<f32> = (0..cfg.features).map(|_| unit.sample(rng)).collect();
            let norm = c.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            let s = cfg.separability / norm;
            c.iter_mut().for_each(|v| *v *= s);
            c
        })
        .collect()
}

/// A walk over `0..n` that visits each index independently with
/// probability `p`, in order, by geometric gaps: one uniform `u ∈ (0, 1]`
/// per visited index gives the count of indices skipped before it,
/// `⌊ln u / ln(1 − p)⌋`, whose law is P(gap ≥ k) = P(u ≤ (1 − p)^k) =
/// (1 − p)^k. A walk costs its visits, not `n`.
#[derive(Clone, Copy)]
struct Gaps {
    /// ln(1 − p), through `ln_1p` so that it keeps its digits at small `p`.
    ln_q: f64,
}

impl Gaps {
    fn new(p: f32) -> Self {
        Gaps {
            ln_q: (-f64::from(p)).ln_1p(),
        }
    }

    fn walk(self, rng: &mut StdRng, n: usize, mut visit: impl FnMut(&mut StdRng, usize)) {
        // `hetero_synth_gap_skips_one` is a mutation switch for
        // `scripts/check_mutation.sh`: the walk steps past the index after
        // every visited one, so no two neighbours are ever both visited.
        let step = if cfg!(hetero_synth_gap_skips_one) {
            2
        } else {
            1
        };
        let mut j = 0usize;
        while j < n {
            let u = 1.0 - rng.gen::<f64>();
            // The cast saturates: a gap past `usize::MAX` (or an infinite
            // one) ends the walk like any gap past `n`.
            j = j.saturating_add((u.ln() / self.ln_q) as usize);
            if j >= n {
                break;
            }
            visit(rng, j);
            j += step;
        }
    }
}

/// The generated feature rows, in the store the dataset will keep: dense
/// when every feature is active, CSR arrays otherwise.
enum Rows {
    Dense(Vec<f32>),
    Csr {
        gaps: Gaps,
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
            gaps: Gaps::new(cfg.density),
            indptr,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Draw one example: coordinate `j` is `center(j)` plus noise.
    fn push(
        &mut self,
        cfg: &SynthConfig,
        rng: &mut StdRng,
        noise: &Normal<f32>,
        center: impl Fn(usize) -> f32,
    ) {
        match self {
            Rows::Dense(x) => x.extend((0..cfg.features).map(|j| center(j) + noise.sample(rng))),
            Rows::Csr {
                gaps,
                indptr,
                indices,
                values,
            } => {
                // Sparse bag-of-words-like pattern: only a random subset of
                // coordinates is active, each one independently with
                // probability `density`; inactive ones are exactly zero and
                // never visited. The gap walk draws one uniform per active
                // coordinate, then its value: a row costs its entries.
                gaps.walk(rng, cfg.features, |rng, j| {
                    let v = center(j) + noise.sample(rng);
                    // An exact zero is no entry, as in `to_csr`.
                    if v != 0.0 {
                        indices.push(j as u32);
                        values.push(v);
                    }
                });
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
                ..
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

    /// The center loop every frozen task (the benchmark's included) was
    /// drawn with, before [`centers`] was factored out of `generate`.
    fn reference_centers(cfg: &SynthConfig, rng: &mut StdRng) -> Vec<Vec<f32>> {
        let unit = Normal::new(0.0f32, 1.0).unwrap();
        (0..cfg.classes)
            .map(|_| {
                let mut c: Vec<f32> = (0..cfg.features).map(|_| unit.sample(rng)).collect();
                let norm = c.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
                let s = cfg.separability / norm;
                c.iter_mut().for_each(|v| *v *= s);
                c
            })
            .collect()
    }

    /// The dense generator a single-label `density == 1` dataset must
    /// reproduce: every coordinate of every row drawn.
    fn dense_reference(cfg: &SynthConfig) -> (Matrix, Labels) {
        assert_eq!(cfg.density, 1.0);
        assert_eq!(cfg.avg_labels, None);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let centers = reference_centers(cfg, &mut rng);
        let noise = Normal::new(0.0f32, cfg.noise).unwrap();
        let mut x = Matrix::zeros(cfg.examples, cfg.features);
        let mut labels = Vec::with_capacity(cfg.examples);
        for i in 0..cfg.examples {
            let y = rng.gen_range(0..cfg.classes);
            labels.push(y as u32);
            for (r, c) in x.row_mut(i).iter_mut().zip(&centers[y]) {
                *r = c + noise.sample(&mut rng);
            }
        }
        (x, Labels::Classes(labels))
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The sparse configs whose law the tests hold: every preset at scales
    /// 0.002 and 0.01, the benchmark's 512-row full-width real-sim shape,
    /// and a multi-label config where most rows fall back to one label.
    fn sparse_cases() -> Vec<SynthConfig> {
        let mut cases: Vec<SynthConfig> = PaperDataset::all()
            .into_iter()
            .flat_map(|p| [0.002, 0.01].map(|scale| p.synth_config(scale, 9)))
            .collect();
        cases.push(SynthConfig {
            examples: 512,
            features: 20_958,
            classes: 2,
            avg_labels: None,
            separability: 2.5,
            density: 0.0025,
            noise: 1.0,
            seed: 1,
        });
        cases.push(SynthConfig {
            avg_labels: Some(0.5),
            density: 0.1,
            ..SynthConfig::small(2_000, 50, 8, 4)
        });
        cases
    }

    /// `got` within 4σ of a statistic with this mean and variance.
    fn assert_near(what: &str, cfg: &SynthConfig, got: f64, mean: f64, var: f64) {
        let z = (got - mean) / var.sqrt();
        assert!(
            z.abs() < 4.0,
            "{what}: {got} against {mean} ± {:.3} (z = {z:.2}) on {cfg:?}",
            var.sqrt()
        );
    }

    fn csr(cfg: &SynthConfig) -> CsrMatrix {
        cfg.generate()
            .csr_store()
            .expect("sparse data is stored CSR")
            .clone()
    }

    /// The tasks are unchanged: [`centers`] draws the reference loop's
    /// centers, bit for bit, and leaves the stream where it left it — for
    /// every preset, at a sample seed and at the benchmark's task seed.
    #[test]
    fn centers_are_the_frozen_tasks() {
        let tasks = PaperDataset::all().into_iter().flat_map(|p| {
            [(0.002, 9), (0.01, 9), (0.02, 2021), (1.0, 2021)]
                .map(|(s, seed)| p.synth_config(s, seed))
        });
        for cfg in tasks.chain(sparse_cases()) {
            let (mut a, mut b) = (
                StdRng::seed_from_u64(cfg.seed),
                StdRng::seed_from_u64(cfg.seed),
            );
            let got = centers(&cfg, &mut a);
            let want = reference_centers(&cfg, &mut b);
            let bits = |c: &[Vec<f32>]| c.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&got) == bits(&want), "{cfg:?}");
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{cfg:?}");
        }
    }

    /// Dense single-label configs are untouched by the gap walk: they are
    /// the dense reference bit for bit.
    #[test]
    fn generated_data_is_the_dense_reference_bit_for_bit() {
        let cfg = SynthConfig::small(40, 7, 3, 2);
        let (x_ref, labels_ref) = dense_reference(&cfg);
        let d = cfg.generate();
        assert!(d.csr_store().is_none());
        let (x, labels) = d.batch(0, d.len());
        assert!(bits(&x) == bits(&x_ref));
        assert_eq!(labels, labels_ref);
    }

    /// `PaperDataset::generate`'s preprocessing gives the same bits on the
    /// CSR store as on the same rows stored dense (covtype's `standardize`
    /// densifies the CSR store on the way).
    #[test]
    fn presets_preprocess_alike_on_either_store() {
        for p in PaperDataset::all() {
            let on_csr = p.synth_config(0.002, 9).generate();
            let (x, labels) = on_csr.batch(0, on_csr.len());
            let on_dense = DenseDataset::new("dense", x, labels);
            let preprocessed = |mut d: DenseDataset| {
                if p.stats().dense {
                    d.standardize();
                } else {
                    d.scale_to_unit_variance();
                }
                d.batch(0, d.len()).0
            };
            assert!(
                bits(&preprocessed(on_csr)) == bits(&preprocessed(on_dense)),
                "{p:?}"
            );
        }
    }

    /// Each (row, feature) is stored independently with probability
    /// `density`, so the entry count is Binomial(rows · features, density).
    #[test]
    fn stored_entries_are_binomial() {
        for cfg in sparse_cases() {
            let n = (cfg.examples * cfg.features) as f64;
            let p = f64::from(cfg.density);
            let nnz = csr(&cfg).nnz() as f64;
            assert_near("stored entries", &cfg, nnz, n * p, n * p * (1.0 - p));
        }
    }

    /// Neighbouring features are active together at rate `density²`: a
    /// walk that skipped or favoured the coordinate after an active one
    /// would show here first.
    #[test]
    fn adjacent_active_pairs_are_independent() {
        for cfg in sparse_cases() {
            let x = csr(&cfg);
            let pairs: usize = (0..x.rows())
                .map(|i| {
                    let columns: Vec<usize> = x.row_iter(i).map(|(j, _)| j).collect();
                    columns.windows(2).filter(|w| w[1] == w[0] + 1).count()
                })
                .sum();
            let (rows, f, p) = (
                cfg.examples as f64,
                cfg.features as f64,
                f64::from(cfg.density),
            );
            // Overlapping pairs share a coordinate, so they covary.
            let var = (f - 1.0) * p * p * (1.0 - p * p) + 2.0 * (f - 2.0) * (p.powi(3) - p.powi(4));
            assert_near(
                "adjacent active pairs",
                &cfg,
                pairs as f64,
                rows * (f - 1.0) * p * p,
                rows * var,
            );
        }
    }

    /// A row's entry count is Binomial(features, density): its sample
    /// variance against `f·p·(1 − p)`.
    #[test]
    fn row_counts_have_binomial_variance() {
        for cfg in sparse_cases() {
            let x = csr(&cfg);
            let counts: Vec<f64> = (0..x.rows())
                .map(|i| x.row_iter(i).count() as f64)
                .collect();
            let n = counts.len() as f64;
            let mean = counts.iter().sum::<f64>() / n;
            let s2 = counts.iter().map(|k| (k - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let (f, p) = (cfg.features as f64, f64::from(cfg.density));
            let var = f * p * (1.0 - p);
            let mu4 = var * (1.0 + 3.0 * (f - 2.0) * p * (1.0 - p));
            let var_s2 = (mu4 - var * var * (n - 3.0) / (n - 1.0)) / n;
            assert_near("per-row count variance", &cfg, s2, var, var_s2);
        }
    }

    /// Every stored value is its row's center (the labels' centers summed,
    /// for multi-label rows) plus `N(0, noise)`.
    #[test]
    fn values_are_center_plus_noise() {
        for cfg in sparse_cases() {
            let d = cfg.generate();
            let x = d.csr_store().unwrap();
            let centers = centers(&cfg, &mut StdRng::seed_from_u64(cfg.seed));
            let labels = |i: usize| -> Vec<usize> {
                match &d.labels {
                    Labels::Classes(y) => vec![y[i] as usize],
                    Labels::MultiHot(y) => {
                        (0..cfg.classes).filter(|&c| y.get(i, c) == 1.0).collect()
                    }
                }
            };
            let z: Vec<f64> = (0..x.rows())
                .flat_map(|i| {
                    let on = labels(i);
                    let centers = &centers;
                    x.row_iter(i).map(move |(j, v)| {
                        let c = on.iter().fold(0.0f32, |s, &l| s + centers[l][j]);
                        (f64::from(v) - f64::from(c)) / f64::from(cfg.noise)
                    })
                })
                .collect();
            let n = z.len() as f64;
            let mean = z.iter().sum::<f64>() / n;
            let var = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            assert_near("noise mean", &cfg, mean, 0.0, 1.0 / n);
            assert_near("noise variance", &cfg, var, 1.0, 2.0 / (n - 1.0));
        }
    }

    /// A multi-label row carries each class with probability
    /// `p = avg_labels / classes`, plus its share of the one-label fallback
    /// when it drew none: `p + (1 − p)^classes / classes`. Dense rows choose
    /// their labels by the same walk.
    #[test]
    fn labels_are_chosen_per_class_at_their_rate() {
        let dense = SynthConfig {
            avg_labels: Some(3.0),
            ..SynthConfig::small(2_000, 10, 20, 5)
        };
        for cfg in sparse_cases().into_iter().chain([dense]) {
            let Some(avg) = cfg.avg_labels else { continue };
            let Labels::MultiHot(y) = cfg.generate().labels else {
                panic!("multi-label configs make multi-hot labels")
            };
            let p = f64::from((avg / cfg.classes as f32).clamp(0.0, 1.0));
            let rate = p + (1.0 - p).powi(cfg.classes as i32) / cfg.classes as f64;
            let rows = cfg.examples as f64;
            for c in 0..cfg.classes {
                let count = (0..y.rows()).filter(|&i| y.get(i, c) == 1.0).count();
                let what = format!("rows labelled {c}");
                assert_near(
                    &what,
                    &cfg,
                    count as f64,
                    rows * rate,
                    rows * rate * (1.0 - rate),
                );
            }
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

    /// Every config `validate` passes generates. The non-finite and
    /// negative cases once passed it: a negative or non-finite `noise`
    /// then panicked inside `generate`, a non-finite `separability` made
    /// NaN centers, and a NaN `avg_labels` fell every row back to one
    /// random label. A zero `noise` is a valid, noiseless config.
    #[test]
    fn validate_rejects_bad_configs() {
        let base = SynthConfig::small(10, 5, 2, 0);
        for bad in [
            SynthConfig {
                density: 0.0,
                ..base.clone()
            },
            SynthConfig {
                features: 0,
                ..base.clone()
            },
            SynthConfig {
                avg_labels: Some(-1.0),
                ..base.clone()
            },
            SynthConfig {
                noise: -1.0,
                ..base.clone()
            },
            SynthConfig {
                noise: f32::NAN,
                ..base.clone()
            },
            SynthConfig {
                noise: f32::INFINITY,
                ..base.clone()
            },
            SynthConfig {
                separability: f32::NAN,
                ..base.clone()
            },
            SynthConfig {
                separability: f32::NEG_INFINITY,
                ..base.clone()
            },
            SynthConfig {
                avg_labels: Some(f32::NAN),
                ..base.clone()
            },
            SynthConfig {
                avg_labels: Some(f32::INFINITY),
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        let noiseless = SynthConfig { noise: 0.0, ..base };
        assert!(noiseless.validate().is_ok());
        assert_eq!(noiseless.generate().len(), 10);
    }

    #[test]
    fn zero_examples_ok() {
        let cfg = SynthConfig::small(0, 5, 2, 0);
        let d = cfg.generate();
        assert!(d.is_empty());
    }
}
