//! `GpuMlp`: a deep-copy replica on the device ledger, kept as a pinned
//! delegate because the frozen benchmark times it (its `gpu.*` layer rows
//! and GPU replay). ROADMAP item 7 deletes it; the engines' GPU worker
//! computes its update on the host `Lane` and reserves the same footprint.

use std::cell::RefCell;

use hetero_nn::{Model, Targets, Workspace};
use hetero_tensor::Matrix;

use crate::alloc::{BufferId, OomError};
use crate::device::GpuDevice;
use crate::footprint::Footprint;

/// A model replica whose resident bytes are reserved on `device`; its
/// parameters and its step run on the host.
pub struct GpuMlp<'d> {
    device: &'d GpuDevice,
    footprint: Footprint,
    /// The resident reservation, returned on drop.
    resident: BufferId,
    replica: RefCell<Model>,
    ws: Workspace,
}

impl<'d> GpuMlp<'d> {
    /// Reserve the model's resident bytes and upload a deep copy of it;
    /// fails with OOM if it does not fit.
    pub fn upload(device: &'d GpuDevice, model: &Model) -> Result<Self, OomError> {
        let footprint = Footprint::of(model.spec());
        let resident = device.mem().alloc(footprint.resident_bytes())?;
        Ok(GpuMlp {
            device,
            footprint,
            resident,
            replica: RefCell::new(model.clone()),
            ws: Workspace::new(model.spec()),
        })
    }

    /// Read the replica into an existing host model.
    pub fn download_into(&self, model: &mut Model) {
        model.copy_from(&self.replica.borrow());
    }

    /// Overwrite the replica from a host model.
    pub fn refresh(&self, model: &Model) {
        self.replica.borrow_mut().copy_from(model);
    }

    /// One SGD step of the replica over batch `x`; returns the batch loss.
    /// The step's bytes are reserved for its duration, so a batch the
    /// device cannot hold fails with OOM and leaves the replica untouched.
    pub fn train_step(
        &mut self,
        x: &Matrix,
        targets: Targets<'_>,
        eta: f32,
    ) -> Result<f32, OomError> {
        let mem = self.device.mem();
        let step = mem.alloc(self.footprint.step_bytes(x.rows()))?;
        let replica = self.replica.get_mut();
        let loss = self.ws.loss_and_gradient_into(replica, x, targets, true).0;
        replica.apply_gradient(self.ws.grad(), eta);
        let _ = mem.free(step);
        Ok(loss)
    }
}

impl Drop for GpuMlp<'_> {
    fn drop(&mut self) {
        let _ = self.device.mem().free(self.resident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_nn::{InitScheme, MlpSpec};

    fn host_model() -> Model {
        Model::new(MlpSpec::tiny(4, 3), InitScheme::Xavier, 21)
    }

    fn download(gpu: &GpuMlp<'_>) -> Model {
        let mut model = Model::zeros_like(gpu.ws.spec());
        gpu.download_into(&mut model);
        model
    }

    #[test]
    fn upload_refresh_download_roundtrip() {
        let dev = GpuDevice::v100();
        let m1 = host_model();
        let gpu = GpuMlp::upload(&dev, &m1).unwrap();
        assert_eq!(download(&gpu), m1);
        let m2 = Model::new(m1.spec().clone(), InitScheme::Constant(0.5), 0);
        gpu.refresh(&m2);
        assert_eq!(download(&gpu), m2);
        drop(gpu);
        assert_eq!(dev.mem().used_bytes(), 0);
    }

    #[test]
    fn steps_reduce_loss() {
        let dev = GpuDevice::v100();
        let mut gpu = GpuMlp::upload(&dev, &host_model()).unwrap();
        let x = Matrix::from_fn(6, 4, |i, j| ((i * 4 + j) as f32 * 0.37).sin());
        let y = [0, 1, 2, 0, 1, 2];
        let first = gpu.train_step(&x, Targets::Classes(&y), 0.5).unwrap();
        let mut last = first;
        for _ in 0..80 {
            last = gpu.train_step(&x, Targets::Classes(&y), 0.5).unwrap();
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn an_oversized_step_fails_and_leaks_nothing() {
        let mut perf = hetero_sim::GpuModel::v100();
        perf.memory = 40_000;
        let dev = GpuDevice::new(perf);
        let host = host_model();
        let mut gpu = GpuMlp::upload(&dev, &host).unwrap();
        let base = dev.mem().used_bytes();
        let x = Matrix::from_fn(2000, 4, |_, _| 0.5);
        let y = vec![0; 2000];
        assert!(gpu.train_step(&x, Targets::Classes(&y), 0.1).is_err());
        assert_eq!(dev.mem().used_bytes(), base, "leak after failed step");
        assert_eq!(download(&gpu), host, "a failed step moved the replica");
        drop(gpu);
        assert_eq!(dev.mem().used_bytes(), 0);
    }
}
