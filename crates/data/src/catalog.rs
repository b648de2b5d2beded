//! The paper's evaluation datasets (Table II) as named presets.
//!
//! Each preset carries the full-size statistics reported in the paper plus
//! the DNN depth §VII-A assigns it ("the number of hidden layers is set
//! inversely proportional to the dataset size": 4 for real-sim, 6 for
//! covtype, 8 for w8a and delicious). `generate(scale)` produces a
//! synthetic stand-in with the same proportions, shrunk by `scale` for
//! machines smaller than the paper's p3.16xlarge.

use serde::{Deserialize, Serialize};

use crate::dataset::DenseDataset;
use crate::synth::SynthConfig;

/// The four evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperDataset {
    /// Forest cover type — 581,012 × 54, binary (LIBSVM binary version).
    Covtype,
    /// w8a web page classification — 49,749 × 300, binary.
    W8a,
    /// delicious tagging — 16,105 × 500, **983-label multi-label**.
    Delicious,
    /// real-sim newsgroup posts — 72,309 × 20,958, binary, highly sparse.
    RealSim,
}

/// Table II statistics plus the paper's network depth for a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dataset name as the paper spells it.
    pub name: &'static str,
    /// Full-size example count.
    pub examples: usize,
    /// Feature dimensionality.
    pub features: usize,
    /// Classes (single-label) or labels (multi-label).
    pub classes: usize,
    /// Whether the dataset is multi-label.
    pub multilabel: bool,
    /// Approximate fraction of non-zero entries in the raw data.
    pub density: f32,
    /// Whether the dataset is treated as dense for preprocessing.
    ///
    /// Density alone is a poor gate: covtype at 0.22 is the paper's
    /// "dense" dataset (its non-zeros are real-valued cartographic
    /// features, not indicator bits), while w8a/delicious/real-sim are
    /// genuinely sparse. An explicit flag keeps the preprocessing choice
    /// reviewable instead of hiding it behind a threshold no preset meets.
    pub dense: bool,
    /// Hidden-layer count the paper assigns (§VII-A).
    pub hidden_layers: usize,
}

impl PaperDataset {
    /// All four datasets in the paper's presentation order.
    pub fn all() -> [PaperDataset; 4] {
        [
            PaperDataset::Covtype,
            PaperDataset::W8a,
            PaperDataset::Delicious,
            PaperDataset::RealSim,
        ]
    }

    /// Table II statistics for this dataset.
    pub fn stats(&self) -> DatasetStats {
        match self {
            PaperDataset::Covtype => DatasetStats {
                name: "covtype",
                examples: 581_012,
                features: 54,
                classes: 2,
                multilabel: false,
                density: 0.22,
                dense: true,
                hidden_layers: 6,
            },
            PaperDataset::W8a => DatasetStats {
                name: "w8a",
                examples: 49_749,
                features: 300,
                classes: 2,
                multilabel: false,
                density: 0.04,
                dense: false,
                hidden_layers: 8,
            },
            PaperDataset::Delicious => DatasetStats {
                name: "delicious",
                examples: 16_105,
                features: 500,
                classes: 983,
                multilabel: true,
                density: 0.04,
                dense: false,
                hidden_layers: 8,
            },
            PaperDataset::RealSim => DatasetStats {
                name: "real-sim",
                examples: 72_309,
                features: 20_958,
                classes: 2,
                multilabel: false,
                density: 0.0025,
                dense: false,
                hidden_layers: 4,
            },
        }
    }

    /// Synthetic-generator configuration at `scale ∈ (0, 1]` of full size.
    ///
    /// Examples and (for real-sim's extreme width) features shrink with
    /// `scale`; class structure, sparsity, and multi-labelness are kept.
    pub fn synth_config(&self, scale: f64, seed: u64) -> SynthConfig {
        assert!(scale > 0.0 && scale <= 1.0, "scale in (0, 1]");
        let s = self.stats();
        let examples = ((s.examples as f64 * scale).round() as usize).max(16);
        // Very wide feature spaces shrink with sqrt(scale) so small runs
        // stay "high-dimensional relative to examples" like the original.
        let features = if s.features > 1000 {
            ((s.features as f64 * scale.sqrt()).round() as usize).max(64)
        } else {
            s.features
        };
        let classes = if s.multilabel {
            ((s.classes as f64 * scale.sqrt()).round() as usize).clamp(8, s.classes)
        } else {
            s.classes
        };
        SynthConfig {
            examples,
            features,
            classes,
            avg_labels: if s.multilabel { Some(19.0) } else { None },
            separability: 2.5,
            density: s.density.max(0.002),
            noise: 1.0,
            seed: seed ^ (*self as u64).wrapping_mul(0x9e37_79b9),
        }
    }

    /// Generate the scaled synthetic stand-in.
    ///
    /// Dense datasets are standardized (zero mean / unit variance); sparse
    /// ones are only variance-scaled, since mean-centering would destroy
    /// the sparsity that makes them representative.
    pub fn generate(&self, scale: f64, seed: u64) -> DenseDataset {
        let mut d = self.synth_config(scale, seed).generate();
        // Gate on the explicit `dense` flag, not a density threshold: the
        // old `density >= 0.5` check was satisfied by no preset, so the
        // standardize() branch was dead and covtype shipped variance-scaled
        // only, contradicting the doc comment above.
        if self.stats().dense {
            d.standardize();
        } else {
            d.scale_to_unit_variance();
        }
        d.name = self.stats().name.to_string();
        d
    }

    /// The paper's hidden-layer count for this dataset.
    pub fn hidden_layers(&self) -> usize {
        self.stats().hidden_layers
    }

    /// Parse a dataset name (the paper's spelling, case-insensitive).
    pub fn from_name(name: &str) -> Option<PaperDataset> {
        match name.to_ascii_lowercase().as_str() {
            "covtype" => Some(PaperDataset::Covtype),
            "w8a" => Some(PaperDataset::W8a),
            "delicious" => Some(PaperDataset::Delicious),
            "real-sim" | "realsim" | "real_sim" => Some(PaperDataset::RealSim),
            _ => None,
        }
    }
}

impl std::fmt::Display for PaperDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.stats().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Labels;

    #[test]
    fn table2_stats_match_paper() {
        let c = PaperDataset::Covtype.stats();
        assert_eq!((c.examples, c.features, c.classes), (581_012, 54, 2));
        let w = PaperDataset::W8a.stats();
        assert_eq!((w.examples, w.features, w.classes), (49_749, 300, 2));
        let d = PaperDataset::Delicious.stats();
        assert_eq!((d.examples, d.features, d.classes), (16_105, 500, 983));
        assert!(d.multilabel);
        let r = PaperDataset::RealSim.stats();
        assert_eq!((r.examples, r.features, r.classes), (72_309, 20_958, 2));
    }

    #[test]
    fn depths_match_section_7a() {
        assert_eq!(PaperDataset::RealSim.hidden_layers(), 4);
        assert_eq!(PaperDataset::Covtype.hidden_layers(), 6);
        assert_eq!(PaperDataset::W8a.hidden_layers(), 8);
        assert_eq!(PaperDataset::Delicious.hidden_layers(), 8);
    }

    #[test]
    fn scaled_generation_keeps_proportions() {
        let d = PaperDataset::W8a.generate(0.01, 42);
        assert_eq!(d.features(), 300); // narrow feature spaces not shrunk
        assert!((490..=510).contains(&d.len()), "examples {}", d.len());
        assert_eq!(d.num_classes(), 2);
    }

    #[test]
    fn realsim_shrinks_features_with_sqrt_scale() {
        let d = PaperDataset::RealSim.generate(0.01, 42);
        // 20958 * 0.1 ≈ 2096
        assert!(
            (1800..=2400).contains(&d.features()),
            "features {}",
            d.features()
        );
        assert!(
            d.density_at_most(0.5).is_some(),
            "real-sim stand-in should stay sparse"
        );
    }

    #[test]
    fn delicious_is_multilabel() {
        let d = PaperDataset::Delicious.generate(0.02, 1);
        assert!(matches!(d.labels, Labels::MultiHot(_)));
        assert!(d.num_classes() >= 8);
    }

    #[test]
    fn from_name_roundtrip() {
        for p in PaperDataset::all() {
            assert_eq!(PaperDataset::from_name(p.stats().name), Some(p));
        }
        assert_eq!(
            PaperDataset::from_name("REAL-SIM"),
            Some(PaperDataset::RealSim)
        );
        assert_eq!(PaperDataset::from_name("imagenet"), None);
    }

    #[test]
    fn covtype_standardizes_to_zero_mean() {
        // Pins the fixed preprocessing gate: covtype is the dense preset,
        // so every feature column must come out mean≈0 / var≈1. Before the
        // fix it was only variance-scaled (column means stayed positive).
        let d = PaperDataset::Covtype.generate(0.002, 7);
        let (rows, cols) = (d.len(), d.features());
        let x = d.batch(0, rows).0;
        for c in 0..cols {
            let mut mean = 0.0f64;
            let mut var = 0.0f64;
            for r in 0..rows {
                mean += x.get(r, c) as f64;
            }
            mean /= rows as f64;
            for r in 0..rows {
                let dv = x.get(r, c) as f64 - mean;
                var += dv * dv;
            }
            var /= rows as f64;
            assert!(mean.abs() < 1e-3, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 0.1 || var < 1e-9, "col {c} var {var}");
        }
        // Sparse presets must stay un-centered (zeros preserved).
        let s = PaperDataset::W8a.generate(0.01, 7);
        assert!(
            s.density_at_most(0.5).is_some(),
            "w8a stand-in should stay sparse"
        );
    }

    #[test]
    fn dense_flag_matches_paper_presets() {
        assert!(PaperDataset::Covtype.stats().dense);
        assert!(!PaperDataset::W8a.stats().dense);
        assert!(!PaperDataset::Delicious.stats().dense);
        assert!(!PaperDataset::RealSim.stats().dense);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperDataset::Covtype.generate(0.001, 5);
        let b = PaperDataset::Covtype.generate(0.001, 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        PaperDataset::Covtype.generate(0.0, 1);
    }
}
