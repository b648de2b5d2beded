//! The GPU device facade the frozen benchmark times: a memory ledger and
//! a performance model. The engines hold a [`DeviceMemory`] and a
//! [`crate::Link`] instead.

use hetero_sim::{DeviceModel, GpuModel};

use crate::alloc::{BufferId, DeviceMemory, OomError};

/// A software GPU: a ledger over its global memory and the calibrated
/// model of its speed and link. The math of a step runs on host cores, on
/// host memory; nothing is copied.
pub struct GpuDevice {
    mem: DeviceMemory,
    perf: GpuModel,
}

impl GpuDevice {
    /// Create a device with the given performance model; memory capacity
    /// comes from the model.
    pub fn new(perf: GpuModel) -> Self {
        GpuDevice {
            mem: DeviceMemory::new(perf.memory),
            perf,
        }
    }

    /// A V100-modeled device (the paper's hardware).
    pub fn v100() -> Self {
        Self::new(GpuModel::v100())
    }

    /// The device memory ledger.
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The performance model.
    pub fn perf(&self) -> &GpuModel {
        &self.perf
    }

    /// Reserve a buffer for `data` and model its upload.
    pub fn h2d(&self, data: &[f32]) -> Result<BufferId, OomError> {
        let buf = self.mem.alloc(4 * data.len() as u64)?;
        self.h2d_into(data, buf);
        Ok(buf)
    }

    /// Model an upload of `data` into a buffer already reserved for it.
    pub fn h2d_into(&self, data: &[f32], _buf: BufferId) {
        // Black-boxed so a caller timing this in a loop times a call, not
        // an empty body the optimiser deleted.
        std::hint::black_box(self.perf.transfer_time(4 * data.len() as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_upload_reserves_its_bytes() {
        let dev = GpuDevice::v100();
        let buf = dev.h2d(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(dev.mem().used_bytes(), 12);
        dev.mem().free(buf).unwrap();
        assert_eq!(dev.mem().used_bytes(), 0);
    }

    #[test]
    fn oom_propagates_from_the_ledger() {
        let mut small = GpuModel::v100();
        small.memory = 1024; // 256 floats
        let dev = GpuDevice::new(small);
        assert!(dev.h2d(&[0.0; 200]).is_ok());
        assert!(dev.h2d(&[0.0; 200]).is_err());
    }
}
