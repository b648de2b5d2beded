//! Device-resident MLP replica — the unit a GPU worker trains.
//!
//! §V "GPU Workers": *"the model replica in the GPU worker is always a deep
//! copy of the global model"*, moved through explicit transfers, with
//! kernels invoked for the forward and backward passes and intermediate
//! outputs kept in device memory. [`GpuMlp`] is exactly that object:
//!
//! - [`GpuMlp::upload`] — deep-copy a host model into device buffers;
//! - [`GpuMlp::train_step`] — one SGD step fully on the device (forward,
//!   backward, parameter update), returning the batch loss;
//! - [`GpuMlp::download`] — read the replica back for merging into the
//!   global model.

use hetero_nn::{LossKind, Model, Targets};
use hetero_tensor::Matrix;

use crate::alloc::{BufferId, OomError};
use crate::device::GpuDevice;
use crate::kernels;

/// An MLP whose parameters live in device memory.
pub struct GpuMlp<'d> {
    device: &'d GpuDevice,
    spec: hetero_nn::MlpSpec,
    /// `spec.layer_dims()` cached at upload so the per-step path never
    /// rebuilds the Vec (`xtask audit`: `no_alloc` on the step loop).
    dims: Vec<(usize, usize)>,
    weights: Vec<BufferId>,
    biases: Vec<BufferId>,
    /// Persistent gradient workspaces (same shapes as the parameters).
    grad_w: Vec<BufferId>,
    grad_b: Vec<BufferId>,
    /// Persistent per-step scratch (batch, activations, deltas, host
    /// staging). Sized on first step and reused while the batch size stays
    /// the same, so steady-state steps perform no device or host
    /// allocations. Cleared wholesale on any step error so an OOM retry at
    /// a smaller batch starts from a clean pool.
    scratch: StepScratch,
}

/// Reusable buffers for [`GpuMlp::train_step`]; `(BufferId, len)` slots are
/// re-allocated only when the required length changes.
struct StepScratch {
    /// Device copy of the input batch.
    x: Option<(BufferId, usize)>,
    /// Per-layer activation buffers.
    acts: Vec<Option<(BufferId, usize)>>,
    /// Per-layer δ buffers (δ for layer l is written while layer l+1's is
    /// still being read, so each layer owns its own buffer).
    deltas: Vec<Option<(BufferId, usize)>>,
    /// Host staging matrix for the output probabilities / output delta.
    delta_host: Matrix,
}

impl Default for StepScratch {
    fn default() -> Self {
        StepScratch {
            x: None,
            acts: Vec::new(),
            deltas: Vec::new(),
            delta_host: Matrix::zeros(0, 0),
        }
    }
}

impl StepScratch {
    /// Return the buffer for `slot`, reusing it when the length matches and
    /// re-allocating otherwise.
    fn ensure(
        dev: &GpuDevice,
        slot: &mut Option<(BufferId, usize)>,
        len: usize,
    ) -> Result<BufferId, OomError> {
        if let Some((buf, have)) = *slot {
            if have == len {
                return Ok(buf);
            }
            let _ = dev.mem().free(buf);
            *slot = None;
        }
        let buf = dev.mem().alloc(len)?;
        *slot = Some((buf, len));
        Ok(buf)
    }

    /// The warmed activation buffer for layer `l` (must have been `ensure`d
    /// earlier in the same step).
    fn act(&self, l: usize) -> BufferId {
        self.acts[l].expect("activation slot warmed this step").0
    }

    /// Free every cached device buffer.
    fn clear(&mut self, dev: &GpuDevice) {
        for slot in std::iter::once(&mut self.x)
            .chain(self.acts.iter_mut())
            .chain(self.deltas.iter_mut())
        {
            if let Some((buf, _)) = slot.take() {
                let _ = dev.mem().free(buf);
            }
        }
    }
}

impl<'d> GpuMlp<'d> {
    /// Deep-copy `model` onto the device.
    ///
    /// Allocates parameters plus gradient workspace; fails with OOM if the
    /// model does not fit (a real constraint for the batch-size bounds in
    /// §VI-B).
    pub fn upload(device: &'d GpuDevice, model: &Model) -> Result<Self, OomError> {
        let spec = model.spec().clone();
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        let mut grad_w = Vec::new();
        let mut grad_b = Vec::new();
        // On a mid-upload OOM, free what was already allocated so a failed
        // upload leaves device memory exactly as it found it.
        let mut step = || -> Result<(), OomError> {
            for layer in model.layers() {
                weights.push(device.h2d(layer.w.as_slice())?);
                biases.push(device.h2d(&layer.b)?);
                grad_w.push(device.mem().alloc(layer.w.len())?);
                grad_b.push(device.mem().alloc(layer.b.len())?);
            }
            Ok(())
        };
        if let Err(e) = step() {
            for b in weights.iter().chain(&biases).chain(&grad_w).chain(&grad_b) {
                let _ = device.mem().free(*b);
            }
            return Err(e);
        }
        Ok(GpuMlp {
            device,
            dims: spec.layer_dims(),
            spec,
            weights,
            biases,
            grad_w,
            grad_b,
            scratch: StepScratch::default(),
        })
    }

    /// The network specification.
    pub fn spec(&self) -> &hetero_nn::MlpSpec {
        &self.spec
    }

    /// Read the device replica back to the host.
    pub fn download(&self) -> Model {
        let mut model = Model::zeros_like(&self.spec);
        self.download_into(&mut model);
        model
    }

    /// Read the device replica into an existing host model, reusing its
    /// buffers — the allocation-free counterpart of
    /// [`download`](Self::download) used by steady-state worker loops.
    pub fn download_into(&self, model: &mut Model) {
        assert_eq!(model.spec(), &self.spec, "replica spec mismatch");
        for (layer, (w, b)) in model
            .layers_mut()
            .iter_mut()
            .zip(self.weights.iter().zip(&self.biases))
        {
            self.device.d2h_into(*w, layer.w.as_mut_slice());
            self.device.d2h_into(*b, &mut layer.b);
        }
    }

    /// Overwrite the device replica from a host model (refresh before a new
    /// round of local steps).
    pub fn refresh(&self, model: &Model) {
        assert_eq!(model.spec(), &self.spec, "replica spec mismatch");
        for (layer, (w, b)) in model
            .layers()
            .iter()
            .zip(self.weights.iter().zip(&self.biases))
        {
            self.device.h2d_into(layer.w.as_slice(), *w);
            self.device.h2d_into(&layer.b, *b);
        }
    }

    /// One SGD step over batch `x` on the device; updates the replica in
    /// place and returns the batch loss.
    ///
    /// The batch is transferred H2D; activations and deltas live in
    /// persistent device scratch (never leaving device memory, per §V) that
    /// is reused across steps — a steady-state step at a fixed batch size
    /// performs no device allocations and no host allocations. The loss is
    /// read back from the output probabilities into reused host staging.
    ///
    /// On any error (device OOM) the whole scratch pool is released, so a
    /// retry at a smaller batch size (the coordinator's batch-halving
    /// fallback) starts against an empty pool.
    pub fn train_step(
        &mut self,
        x: &Matrix,
        targets: Targets<'_>,
        eta: f32,
    ) -> Result<f32, OomError> {
        match self.train_step_inner(x, targets, eta) {
            Ok(loss) => Ok(loss),
            Err(e) => {
                self.scratch.clear(self.device);
                Err(e)
            }
        }
    }

    fn train_step_inner(
        &mut self,
        x: &Matrix,
        targets: Targets<'_>,
        eta: f32,
    ) -> Result<f32, OomError> {
        let batch = x.rows();
        assert_eq!(x.cols(), self.spec.input_dim, "batch width");
        assert_eq!(targets.len(), batch, "target count");
        let dev = self.device;
        let n_layers = self.dims.len();
        self.scratch.acts.resize(n_layers, None);
        self.scratch.deltas.resize(n_layers, None);

        // --- Transfer the batch into the (reused) device input buffer.
        let x_buf = StepScratch::ensure(dev, &mut self.scratch.x, batch * self.spec.input_dim)?;
        dev.h2d_into(x.as_slice(), x_buf);

        // --- Forward: activations stay on device, in the warmed scratch
        //     slots (no per-step host bookkeeping Vec).
        dev.note_kernel("forward");
        for l in 0..n_layers {
            let (in_dim, out_dim) = self.dims[l];
            let act = StepScratch::ensure(dev, &mut self.scratch.acts[l], batch * out_dim)?;
            let input = if l == 0 {
                x_buf
            } else {
                self.scratch.act(l - 1)
            };
            // Layer 0 is stored `in × out` (X·W), every later layer
            // `out × in` (A·Wᵀ), as on the host.
            let product = if l == 0 {
                kernels::gemm_nn_bias
            } else {
                kernels::gemm_nt_bias
            };
            let (w, b) = (self.weights[l], self.biases[l]);
            product(dev.mem(), input, w, b, act, batch, in_dim, out_dim);
            if l + 1 == n_layers {
                match self.spec.loss {
                    LossKind::SoftmaxCrossEntropy => kernels::softmax_rows(dev.mem(), act, out_dim),
                    LossKind::MultiLabelBce => kernels::sigmoid(dev.mem(), act),
                }
            } else {
                // Paper networks use sigmoid hidden activations.
                kernels::sigmoid(dev.mem(), act);
            }
        }

        // --- Loss + output delta (probabilities come back to the host once,
        //     into the reused staging matrix).
        let classes = self.spec.classes;
        let out_act = self.scratch.act(n_layers - 1);
        let delta_host = &mut self.scratch.delta_host;
        delta_host.resize(batch, classes);
        dev.d2h_into(out_act, delta_host.as_mut_slice());
        let batch_loss = hetero_nn::loss(delta_host, targets, self.spec.loss);
        let inv_b = if batch > 0 { 1.0 / batch as f32 } else { 0.0 };
        match targets {
            Targets::Classes(labels) => {
                for (i, &y) in labels.iter().enumerate() {
                    let v = delta_host.get(i, y as usize) - 1.0;
                    delta_host.set(i, y as usize, v);
                }
            }
            Targets::MultiHot(y) => {
                hetero_tensor::ops::sub_assign(delta_host, y);
            }
        }
        hetero_tensor::ops::scale(inv_b, delta_host.as_mut_slice());
        let mut delta =
            StepScratch::ensure(dev, &mut self.scratch.deltas[n_layers - 1], batch * classes)?;
        dev.h2d_into(self.scratch.delta_host.as_slice(), delta);

        // --- Backward + update, layer by layer.
        dev.note_kernel("backward");
        for l in (0..n_layers).rev() {
            let (in_dim, out_dim) = self.dims[l];
            let input = if l == 0 {
                x_buf
            } else {
                self.scratch.act(l - 1)
            };
            // ∇W = δᵀ·input (layer 0, stored `in × out`: Xᵀ·δ), ∇b = colsum(δ)
            let (a, b, m, n) = if l == 0 {
                (input, delta, in_dim, out_dim)
            } else {
                (delta, input, out_dim, in_dim)
            };
            kernels::gemm_tn(dev.mem(), a, b, self.grad_w[l], batch, m, n);
            kernels::col_sum(dev.mem(), delta, self.grad_b[l], out_dim);
            if l > 0 {
                let prev =
                    StepScratch::ensure(dev, &mut self.scratch.deltas[l - 1], batch * in_dim)?;
                kernels::gemm_nn(
                    dev.mem(),
                    delta,
                    self.weights[l],
                    prev,
                    batch,
                    out_dim,
                    in_dim,
                );
                kernels::sigmoid_backward(dev.mem(), self.scratch.act(l - 1), prev);
                delta = prev;
            }
            // SGD update on device.
            kernels::axpy(dev.mem(), -eta, self.grad_w[l], self.weights[l]);
            kernels::axpy(dev.mem(), -eta, self.grad_b[l], self.biases[l]);
        }

        // Virtual cost of the whole step on the modeled hardware.
        dev.account_step(self.spec.train_flops_per_example(), batch);
        Ok(batch_loss)
    }

    /// Free all device allocations now (dropping has the same effect; this
    /// just makes the release point explicit at call sites).
    pub fn destroy(self) {}
}

impl Drop for GpuMlp<'_> {
    /// Return every parameter and workspace buffer to the device pool, even
    /// when the replica goes away on an unwind path (a quarantined worker
    /// must not strand its memory).
    fn drop(&mut self) {
        self.scratch.clear(self.device);
        for b in self
            .weights
            .drain(..)
            .chain(self.biases.drain(..))
            .chain(self.grad_w.drain(..))
            .chain(self.grad_b.drain(..))
        {
            let _ = self.device.mem().free(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_nn::{InitScheme, MlpSpec};

    fn host_model() -> Model {
        Model::new(MlpSpec::tiny(4, 3), InitScheme::Xavier, 21)
    }

    fn batch() -> (Matrix, Vec<u32>) {
        let x = Matrix::from_fn(6, 4, |i, j| ((i * 4 + j) as f32 * 0.37).sin());
        let y = vec![0, 1, 2, 0, 1, 2];
        (x, y)
    }

    #[test]
    fn upload_download_roundtrip() {
        let dev = GpuDevice::v100();
        let m = host_model();
        let g = GpuMlp::upload(&dev, &m).unwrap();
        assert_eq!(g.download(), m);
        g.destroy();
        assert_eq!(dev.mem().used_bytes(), 0);
    }

    #[test]
    fn train_step_matches_host_sgd() {
        let dev = GpuDevice::v100();
        let mut host = host_model();
        let mut gpu = GpuMlp::upload(&dev, &host).unwrap();
        let (x, y) = batch();

        let gpu_loss = gpu.train_step(&x, Targets::Classes(&y), 0.1).unwrap();
        let (host_loss, grad) =
            hetero_nn::loss_and_gradient(&host, &x, Targets::Classes(&y), false);
        host.apply_gradient(&grad, 0.1);

        assert!(
            (gpu_loss - host_loss).abs() < 1e-5,
            "{gpu_loss} vs {host_loss}"
        );
        let downloaded = gpu.download();
        let (a, b) = (downloaded.flatten(), host.flatten());
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
        gpu.destroy();
    }

    #[test]
    fn multiple_steps_reduce_loss() {
        let dev = GpuDevice::v100();
        let host = host_model();
        let mut gpu = GpuMlp::upload(&dev, &host).unwrap();
        let (x, y) = batch();
        let first = gpu.train_step(&x, Targets::Classes(&y), 0.5).unwrap();
        let mut last = first;
        for _ in 0..80 {
            last = gpu.train_step(&x, Targets::Classes(&y), 0.5).unwrap();
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
        gpu.destroy();
    }

    #[test]
    fn steady_state_steps_reuse_device_scratch() {
        let dev = GpuDevice::v100();
        let host = host_model();
        let mut gpu = GpuMlp::upload(&dev, &host).unwrap();
        let (x, y) = batch();
        // First step warms the scratch pool; every later step at the same
        // batch size must neither allocate nor free device buffers.
        gpu.train_step(&x, Targets::Classes(&y), 0.1).unwrap();
        let warmed = dev.mem().used_bytes();
        let live = dev.mem().live_buffers();
        for _ in 0..3 {
            gpu.train_step(&x, Targets::Classes(&y), 0.1).unwrap();
            assert_eq!(dev.mem().used_bytes(), warmed, "device scratch grew");
            assert_eq!(dev.mem().live_buffers(), live, "buffer churn");
        }
        gpu.destroy();
        assert_eq!(dev.mem().used_bytes(), 0);
    }

    #[test]
    fn train_step_accounts_virtual_time() {
        let dev = GpuDevice::v100();
        let host = host_model();
        let mut gpu = GpuMlp::upload(&dev, &host).unwrap();
        let t0 = dev.virtual_time();
        let (x, y) = batch();
        gpu.train_step(&x, Targets::Classes(&y), 0.1).unwrap();
        assert!(dev.virtual_time() > t0);
        gpu.destroy();
    }

    #[test]
    fn oom_mid_step_frees_temporaries() {
        let mut perf = hetero_sim::GpuModel::v100();
        // Room for the model + a couple of activations but not a huge batch.
        perf.memory = 40_000;
        let dev = GpuDevice::new(perf);
        let host = host_model();
        let mut gpu = GpuMlp::upload(&dev, &host).unwrap();
        let base = dev.mem().used_bytes();
        let x = Matrix::from_fn(2000, 4, |_, _| 0.5);
        let y: Vec<u32> = vec![0; 2000];
        let r = gpu.train_step(&x, Targets::Classes(&y), 0.1);
        assert!(r.is_err(), "expected OOM");
        assert_eq!(dev.mem().used_bytes(), base, "leak after failed step");
        gpu.destroy();
    }

    #[test]
    fn drop_frees_device_memory() {
        let dev = GpuDevice::v100();
        {
            let _gpu = GpuMlp::upload(&dev, &host_model()).unwrap();
            assert!(dev.mem().used_bytes() > 0);
        }
        assert_eq!(dev.mem().used_bytes(), 0);
        assert_eq!(dev.mem().live_buffers(), 0);
    }

    #[test]
    fn drop_frees_on_unwind() {
        let dev = GpuDevice::v100();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gpu = GpuMlp::upload(&dev, &host_model()).unwrap();
            panic!("simulated worker death");
        }));
        assert!(r.is_err());
        assert_eq!(dev.mem().used_bytes(), 0, "unwind stranded buffers");
    }

    #[test]
    fn failed_upload_leaves_no_allocations() {
        let dev = GpuDevice::v100();
        // Fail partway through: the first few buffers succeed, then OOM.
        dev.inject_oom_at(3);
        let err = GpuMlp::upload(&dev, &host_model());
        assert!(err.is_err(), "expected injected OOM");
        assert_eq!(dev.mem().used_bytes(), 0, "partial upload leaked");
        assert_eq!(dev.mem().live_buffers(), 0);
    }

    #[test]
    fn refresh_overwrites_replica() {
        let dev = GpuDevice::v100();
        let m1 = host_model();
        let m2 = Model::new(m1.spec().clone(), InitScheme::Constant(0.5), 0);
        let gpu = GpuMlp::upload(&dev, &m1).unwrap();
        gpu.refresh(&m2);
        assert_eq!(gpu.download(), m2);
        gpu.destroy();
    }

    #[test]
    fn multilabel_train_step_runs() {
        let spec = MlpSpec {
            input_dim: 4,
            hidden: vec![8],
            classes: 5,
            activation: hetero_nn::Activation::Sigmoid,
            loss: LossKind::MultiLabelBce,
        };
        let host = Model::new(spec, InitScheme::Xavier, 2);
        let dev = GpuDevice::v100();
        let mut gpu = GpuMlp::upload(&dev, &host).unwrap();
        let x = Matrix::from_fn(3, 4, |i, j| (i as f32 - j as f32) * 0.2);
        let y = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0, 1.0],
            &[1.0, 1.0, 0.0, 0.0, 0.0],
        ]);
        let l = gpu.train_step(&x, Targets::MultiHot(&y), 0.1).unwrap();
        assert!(l.is_finite() && l > 0.0);
        gpu.destroy();
    }
}
