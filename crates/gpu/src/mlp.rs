//! `GpuMlp`: a deep-copy replica on the device ledger, kept as a pinned
//! delegate because the frozen benchmark times it (its `gpu.*` layer rows
//! and GPU replay). ROADMAP item 7 deletes it; the engines' GPU worker
//! computes its update on the host `Lane` and accounts the same footprint.

use std::cell::RefCell;

use hetero_nn::{MlpSpec, Model, Targets, Workspace};
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
        device.account_h2d(footprint.model);
        Ok(GpuMlp {
            device,
            footprint,
            resident,
            replica: RefCell::new(model.clone()),
            ws: Workspace::new(model.spec()),
        })
    }

    /// The network specification.
    pub fn spec(&self) -> &MlpSpec {
        self.ws.spec()
    }

    /// Read the replica back to the host.
    pub fn download(&self) -> Model {
        let mut model = Model::zeros_like(self.spec());
        self.download_into(&mut model);
        model
    }

    /// Read the replica into an existing host model.
    pub fn download_into(&self, model: &mut Model) {
        model.copy_from(&self.replica.borrow());
        self.device.account_d2h(self.footprint.model);
    }

    /// Overwrite the replica from a host model.
    pub fn refresh(&self, model: &Model) {
        self.replica.borrow_mut().copy_from(model);
        self.device.account_h2d(self.footprint.model);
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
        let (fp, device) = (self.footprint, self.device);
        let step = device.mem().alloc(fp.step_bytes(x.rows()))?;
        device.account_h2d(fp.batch_bytes(x.rows()));
        let replica = self.replica.get_mut();
        let loss = self.ws.loss_and_gradient_into(replica, x, targets, true).0;
        replica.apply_gradient(self.ws.grad(), eta);
        device.account_step(fp.flops, x.rows());
        let _ = device.mem().free(step);
        Ok(loss)
    }

    /// Free the replica's device memory now (dropping has the same effect).
    pub fn destroy(self) {}
}

impl Drop for GpuMlp<'_> {
    fn drop(&mut self) {
        let _ = self.device.mem().free(self.resident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_nn::InitScheme;

    fn host_model() -> Model {
        Model::new(MlpSpec::tiny(4, 3), InitScheme::Xavier, 21)
    }

    #[test]
    fn upload_refresh_download_roundtrip() {
        let dev = GpuDevice::v100();
        let m1 = host_model();
        let gpu = GpuMlp::upload(&dev, &m1).unwrap();
        assert_eq!(gpu.download(), m1);
        let m2 = Model::new(m1.spec().clone(), InitScheme::Constant(0.5), 0);
        gpu.refresh(&m2);
        assert_eq!(gpu.download(), m2);
        gpu.destroy();
        assert_eq!(dev.mem().used_bytes(), 0);
    }

    #[test]
    fn steps_reduce_loss_and_account_virtual_time() {
        let dev = GpuDevice::v100();
        let mut gpu = GpuMlp::upload(&dev, &host_model()).unwrap();
        let x = Matrix::from_fn(6, 4, |i, j| ((i * 4 + j) as f32 * 0.37).sin());
        let y = [0, 1, 2, 0, 1, 2];
        let t0 = dev.virtual_time();
        let first = gpu.train_step(&x, Targets::Classes(&y), 0.5).unwrap();
        assert!(dev.virtual_time() > t0);
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
        assert_eq!(gpu.download(), host, "a failed step moved the replica");
        drop(gpu);
        assert_eq!(dev.mem().used_bytes(), 0);
    }
}
