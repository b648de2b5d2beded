//! The one rule for what a GPU step of a network costs its device: the
//! bytes it holds and the bytes it moves. The simulator charges a batch by
//! it and the threaded GPU worker reserves and accounts by it, so both
//! engines cap the GPU batch at the same size and pay the same transfers.

use hetero_nn::MlpSpec;
use hetero_sim::{DeviceModel, GpuModel};

/// Device bytes and link bytes of one network's GPU steps (§V, §VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Parameter bytes: the snapshot uploaded and the delta downloaded by
    /// every step.
    pub model: u64,
    /// Input bytes of one example, uploaded with its batch.
    pub example: u64,
    /// Device bytes one example holds during a step: its input plus an
    /// activation and a delta per hidden unit.
    pub per_example: u64,
    /// Training FLOPs per example (forward + backward + update).
    pub flops: u64,
}

impl Footprint {
    /// The footprint of `spec`.
    pub fn of(spec: &MlpSpec) -> Self {
        let example = 4 * spec.input_dim as u64;
        Footprint {
            model: spec.param_bytes(),
            example,
            per_example: example + 8 * spec.hidden.iter().sum::<usize>() as u64,
            flops: spec.train_flops_per_example(),
        }
    }

    /// Bytes resident for the whole run: the replica, its gradient and
    /// the workspace, 3× the parameters.
    pub fn resident_bytes(&self) -> u64 {
        3 * self.model
    }

    /// Device bytes a step over `len` examples reserves beside the
    /// resident ones.
    pub fn step_bytes(&self, len: usize) -> u64 {
        len as u64 * self.per_example
    }

    /// Host→device bytes of a batch of `len` examples.
    pub fn batch_bytes(&self, len: usize) -> u64 {
        len as u64 * self.example
    }

    /// The largest batch `g` holds beside the resident bytes.
    pub fn max_batch(&self, g: &GpuModel) -> usize {
        (g.memory.saturating_sub(self.resident_bytes()) / self.per_example.max(1)) as usize
    }

    /// Modelled `(H2D, D2H)` seconds of a step over `len` examples on
    /// `g`: the batch and the snapshot in, the delta out.
    pub fn transfer_secs(&self, g: &GpuModel, len: usize) -> (f64, f64) {
        let model = g.transfer_time(self.model);
        (g.transfer_time(self.batch_bytes(len)) + model, model)
    }

    /// Modelled seconds of a whole step over `len` examples on `g`:
    /// compute, then the transfers of [`transfer_secs`](Self::transfer_secs).
    pub fn step_secs(&self, g: &GpuModel, len: usize) -> f64 {
        g.batch_time(self.flops, len)
            + g.transfer_time(self.batch_bytes(len))
            + 2.0 * g.transfer_time(self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_capped_step_fits_beside_the_resident_bytes() {
        let spec = MlpSpec::tiny(54, 2);
        let fp = Footprint::of(&spec);
        let mut g = GpuModel::v100();
        g.memory = fp.resident_bytes() + fp.step_bytes(37) + fp.per_example - 1;
        assert_eq!(fp.max_batch(&g), 37);
        assert!(fp.resident_bytes() + fp.step_bytes(37) <= g.memory);
        assert!(fp.resident_bytes() + fp.step_bytes(38) > g.memory);
    }
}
