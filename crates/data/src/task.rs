//! The one task definition every entry point trains: a paper dataset at a
//! scale, floored at [`MIN_ROWS`] rows, and the §VII-A network for it.
//!
//! The paper compares its algorithms on one network per dataset (depth
//! inversely proportional to the dataset's size) with one set of
//! hyperparameters; a readout is comparable across the CLI, the figure
//! harness and the examples only if they all build the same task.

use hetero_nn::{Activation, LossKind, MlpSpec};

use crate::catalog::PaperDataset;
use crate::dataset::DenseDataset;

/// Fewest rows a task trains on. A GPU batch capped at an eighth of an
/// epoch is then at least 512 examples, and the adaptive controller's
/// lower GPU threshold (a sixteenth of the cap) at least 32.
pub const MIN_ROWS: usize = 4096;

/// Hidden-layer width of every task unless a caller sets its own (the
/// paper uses 512; 64 keeps a run at the default scale in seconds).
pub const DEFAULT_WIDTH: usize = 64;

/// A paper dataset at a scale, and the network trained on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Which of the paper's four datasets.
    pub dataset: PaperDataset,
    /// Effective scale: the requested one, raised to [`MIN_ROWS`] rows.
    scale: f64,
    /// Hidden-layer width.
    pub width: usize,
    /// Hidden-layer count (default: the paper's, §VII-A).
    pub depth: usize,
}

impl Task {
    /// `dataset` at `scale` of its Table II size, with the paper's depth
    /// and [`DEFAULT_WIDTH`]. A scale outside (0, 1], NaN included, is an
    /// error naming it. A scale below [`MIN_ROWS`] rows is raised to it,
    /// so the floor also fixes a shrunk feature or label count.
    pub fn new(dataset: PaperDataset, scale: f64) -> Result<Task, String> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(format!("scale must be in (0, 1], got {scale}"));
        }
        let floor = MIN_ROWS as f64 / dataset.stats().examples as f64;
        Ok(Task {
            dataset,
            scale: scale.max(floor).min(1.0),
            width: DEFAULT_WIDTH,
            depth: dataset.hidden_layers(),
        })
    }

    /// The task's synthetic stand-in, drawn from `seed`.
    pub fn generate(&self, seed: u64) -> DenseDataset {
        self.dataset.generate(self.scale, seed)
    }

    /// The network for `data` (this task's stand-in): `depth` sigmoid
    /// layers of `width` units and the preset's loss.
    pub fn net(&self, data: &DenseDataset) -> MlpSpec {
        MlpSpec {
            input_dim: data.features(),
            hidden: vec![self.width; self.depth],
            classes: data.num_classes(),
            activation: Activation::Sigmoid,
            loss: if self.dataset.stats().multilabel {
                LossKind::MultiLabelBce
            } else {
                LossKind::SoftmaxCrossEntropy
            },
        }
    }

    /// `name: rows × features, classes | depth × width` for `data` (this
    /// task's stand-in) — the line the CLI's header and the harness
    /// binaries print.
    pub fn line(&self, data: &DenseDataset) -> String {
        format!(
            "{}: {} examples × {} features, {} classes | {} hidden layers × {} units",
            self.dataset,
            data.len(),
            data.features(),
            data.num_classes(),
            self.depth,
            self.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scale_outside_the_unit_interval_is_refused_by_name() {
        for bad in [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            let e = Task::new(PaperDataset::W8a, bad).unwrap_err();
            assert!(e.contains("scale"), "{bad}: {e}");
        }
        assert!(Task::new(PaperDataset::W8a, 1.0).is_ok());
    }

    #[test]
    fn every_preset_has_the_floor_and_the_paper_depth() {
        for p in PaperDataset::all() {
            let task = Task::new(p, 1e-6).unwrap();
            let d = task.generate(3);
            assert!(d.len() >= MIN_ROWS, "{p}: {} rows", d.len());
            let spec = task.net(&d);
            assert_eq!(spec.hidden, vec![DEFAULT_WIDTH; p.hidden_layers()]);
        }
    }

    #[test]
    fn above_the_floor_it_is_the_presets_own_data() {
        let task = Task::new(PaperDataset::Covtype, 0.008).unwrap();
        assert_eq!(task.generate(5), PaperDataset::Covtype.generate(0.008, 5));
    }

    #[test]
    fn multilabel_presets_train_bce() {
        let task = Task::new(PaperDataset::Delicious, 0.001).unwrap();
        assert_eq!(task.net(&task.generate(1)).loss, LossKind::MultiLabelBce);
    }
}
