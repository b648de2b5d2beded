//! Per-layer health scans: gradient/update norms and NaN/Inf detection.
//!
//! The training-health watchdog (`hetero-flight`) needs, for every applied
//! gradient or merged replica delta, (a) the per-layer L2 norm of the
//! update and (b) whether any element was non-finite. [`MergeScan`] is the
//! allocation-free accumulator both producers fill:
//!
//! - CPU Hogwild lanes call [`scan_model`] on the workspace gradient —
//!   one extra SIMD pass over a buffer that is tiny next to the GEMMs that
//!   produced it;
//! - GPU merges hand [`crate::SharedModel::merge`] a scan,
//!   which folds the scan into the merge loop itself — zero extra
//!   passes over memory.
//!
//! Scans are read-only observations: they never change what is written to
//! the model, so enabling the watchdog cannot perturb training math.

use crate::model::Model;
use hetero_tensor::ops;

/// Accumulated scan results for one model layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerScan {
    /// Sum of squared *finite* elements seen so far (f64 accumulator).
    pub sumsq: f64,
    /// Count of NaN/±Inf elements seen so far.
    pub nonfinite: u64,
}

impl LayerScan {
    /// L2 norm of everything accumulated into this layer.
    pub fn norm(&self) -> f64 {
        self.sumsq.sqrt()
    }

    /// Accumulate one merged delta: its square if finite, else one more
    /// non-finite element.
    #[inline]
    pub(crate) fn observe(&mut self, delta: f32) {
        if delta.is_finite() {
            self.sumsq += delta as f64 * delta as f64;
        } else {
            self.nonfinite += 1;
        }
    }
}

/// Per-layer scan accumulator, sized once at worker startup and reused for
/// every batch (no allocations on the hot path).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeScan {
    layers: Vec<LayerScan>,
}

impl MergeScan {
    /// An accumulator with `num_layers` zeroed slots.
    pub fn new(num_layers: usize) -> Self {
        MergeScan {
            layers: vec![LayerScan::default(); num_layers],
        }
    }

    /// An accumulator shaped like `model` (one slot per layer).
    pub fn for_model(model: &Model) -> Self {
        Self::new(model.layers().len())
    }

    /// Zero every slot for the next batch (keeps the allocation).
    pub fn reset(&mut self) {
        self.layers
            .iter_mut()
            .for_each(|l| *l = LayerScan::default());
    }

    /// Per-layer accumulated results.
    pub fn layers(&self) -> &[LayerScan] {
        &self.layers
    }

    /// Fold what a merge saw of one stripe of layer `l` into that layer.
    #[inline]
    pub(crate) fn add(&mut self, l: usize, seen: LayerScan) {
        let slot = &mut self.layers[l];
        slot.sumsq += seen.sumsq;
        slot.nonfinite += seen.nonfinite;
    }

    /// `(layer index, L2 norm)` of the layer with the largest norm, or
    /// `None` for an empty accumulator.
    pub fn peak(&self) -> Option<(usize, f64)> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| (i, l.norm()))
            .fold(None, |best, (i, n)| match best {
                Some((_, bn)) if bn >= n => best,
                _ => Some((i, n)),
            })
    }
}

/// Accumulate a per-layer scan of `model` (weights + biases per layer)
/// into `scan` using the SIMD `sumsq_nonfinite` reduction.
///
/// Used on workspace *gradients* (a [`crate::Gradient`] is a `Model`) by
/// the CPU lanes, and on merged snapshots at eval time for weight norms.
///
/// # Panics
/// Panics if `scan` has fewer slots than `model` has layers.
pub fn scan_model(model: &Model, scan: &mut MergeScan) {
    assert!(
        scan.layers.len() >= model.layers().len(),
        "scan has {} slots for {} layers",
        scan.layers.len(),
        model.layers().len()
    );
    for (l, layer) in model.layers().iter().enumerate() {
        let (ws, wb) = ops::sumsq_nonfinite(layer.w.as_slice());
        let (bs, bb) = ops::sumsq_nonfinite(&layer.b);
        let slot = &mut scan.layers[l];
        slot.sumsq += ws + bs;
        slot.nonfinite += wb + bb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::spec::MlpSpec;

    fn model() -> Model {
        Model::new(MlpSpec::tiny(4, 2), InitScheme::Xavier, 7)
    }

    #[test]
    fn scan_matches_manual_norms() {
        let m = model();
        let mut scan = MergeScan::for_model(&m);
        scan_model(&m, &mut scan);
        for (l, layer) in m.layers().iter().enumerate() {
            let manual: f64 = layer
                .w
                .as_slice()
                .iter()
                .chain(&layer.b)
                .map(|&v| v as f64 * v as f64)
                .sum();
            assert!((scan.layers()[l].sumsq - manual).abs() < 1e-9);
            assert_eq!(scan.layers()[l].nonfinite, 0);
        }
        assert!(scan.peak().is_some());
    }

    #[test]
    fn poisoned_layer_is_counted_and_located() {
        let mut m = model();
        m.layers_mut()[1].b[0] = f32::NAN;
        let mut scan = MergeScan::for_model(&m);
        scan_model(&m, &mut scan);
        assert_eq!(scan.layers()[0].nonfinite, 0);
        assert_eq!(scan.layers()[1].nonfinite, 1);
        // The poisoned element is excluded from the norm, not NaN-ing it.
        assert!(scan.layers()[1].norm().is_finite());
    }

    #[test]
    fn reset_keeps_capacity_and_zeroes() {
        let m = model();
        let mut scan = MergeScan::for_model(&m);
        scan_model(&m, &mut scan);
        scan.reset();
        assert!(scan.layers().iter().all(|l| *l == LayerScan::default()));
    }
}
