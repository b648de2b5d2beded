//! Reusable per-worker training buffers — allocation-free steady state.
//!
//! [`forward`](crate::forward::forward) / [`backward`](crate::backward::backward)
//! allocate fresh activation, delta, and gradient matrices on every call,
//! which is fine for tests but dominates small-batch step time and churns
//! the allocator from every worker thread. [`Workspace`] owns all of those
//! buffers and exposes `_into` variants that reuse them: after the first
//! call at a given batch size (the *warm-up*), subsequent steps at the same
//! or a smaller batch size perform **zero heap allocations**.
//!
//! ## Ownership and threading rules
//!
//! A `Workspace` belongs to exactly **one worker** (thread / lane / device
//! pipeline) and is never shared: it is `Send` but deliberately offers no
//! interior mutability or cloning-on-use, so concurrent access does not
//! typecheck. Engines keep one workspace per worker lane alive across the
//! whole run. The allocation-free guarantee is monitored at runtime: any
//! buffer growth is counted in [`Workspace::growth_events`], and growth at
//! a batch size the workspace has already served trips a `debug_assert` —
//! the "no allocation in steady state" check used by the test suite and the
//! bench harness.
//!
//! Both the wrapper APIs and the `_into` forms run the exact same kernel
//! sequence, so `loss_and_gradient_into` is bit-identical to
//! [`loss_and_gradient`](crate::backward::loss_and_gradient).

use hetero_tensor::{CsrView, Matrix};

use crate::backward::{backward_with_scratch, Gradient};
use crate::forward::{forward_into_buffers, loss, ForwardPass, Input, Targets};
use crate::model::Model;
use crate::sparse_input::SparseScratch;
use crate::spec::MlpSpec;

/// Reusable forward/backward buffers for one worker (see module docs).
#[derive(Debug)]
pub struct Workspace {
    spec: MlpSpec,
    /// Per-layer activations, reused across steps (last = probabilities).
    pass: ForwardPass,
    /// Backprop δ ping-pong buffers.
    delta: Matrix,
    delta_next: Matrix,
    /// Gradient accumulator, shaped like the model once and overwritten
    /// in place every step.
    grad: Gradient,
    /// The layer-0 support of `grad`: `Some` while it came from a CSR
    /// batch, `None` while it is dense (or none was computed yet). Boxed so
    /// dense-only workspaces pay one pointer; its buffers are sized by the
    /// spec alone, so creation is the only allocation it ever does.
    sparse: Option<Box<SparseScratch>>,
    /// Largest batch size this workspace has already served.
    warmed_batch: usize,
    /// Number of calls that grew any internal buffer.
    growth_events: u64,
}

impl Workspace {
    /// Create an empty workspace for models of shape `spec`.
    ///
    /// Buffers are sized lazily on first use; use
    /// [`with_batch_capacity`](Self::with_batch_capacity) to pre-warm.
    pub fn new(spec: &MlpSpec) -> Self {
        Workspace {
            spec: spec.clone(),
            pass: ForwardPass {
                activations: Vec::new(),
            },
            delta: Matrix::zeros(0, 0),
            delta_next: Matrix::zeros(0, 0),
            grad: Model::zeros_like(spec),
            sparse: None,
            warmed_batch: 0,
            growth_events: 0,
        }
    }

    /// Create a workspace pre-sized for batches up to `batch` rows, so the
    /// first training step is already allocation-free.
    pub fn with_batch_capacity(spec: &MlpSpec, batch: usize) -> Self {
        let mut ws = Self::new(spec);
        let dims = spec.layer_dims();
        ws.pass
            .activations
            .resize_with(dims.len(), || Matrix::zeros(0, 0));
        let mut widest = 0;
        for (a, &(_, out_dim)) in ws.pass.activations.iter_mut().zip(&dims) {
            a.resize(batch, out_dim);
            widest = widest.max(out_dim);
        }
        ws.delta.resize(batch, widest);
        ws.delta_next.resize(batch, widest);
        ws.warmed_batch = batch;
        ws
    }

    /// The model spec this workspace is shaped for.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// The gradient produced by the most recent backward pass.
    pub fn grad(&self) -> &Gradient {
        &self.grad
    }

    /// Mutable access to the stored gradient — for in-place post-processing
    /// (clipping, fault injection) before the gradient is applied.
    pub fn grad_mut(&mut self) -> &mut Gradient {
        &mut self.grad
    }

    /// Number of calls that had to grow an internal buffer. Stable across
    /// steps at a fixed batch size once warmed — the bench harness asserts
    /// this stays flat in steady state.
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }

    /// Sum of buffer capacities — a fingerprint that changes iff some
    /// buffer reallocated or a new one appeared.
    fn capacity_fingerprint(&self) -> usize {
        self.pass
            .activations
            .iter()
            .map(Matrix::capacity)
            .sum::<usize>()
            + self.pass.activations.capacity()
            + self.delta.capacity()
            + self.delta_next.capacity()
            + self.sparse.as_ref().map_or(0, |s| s.capacity_fingerprint())
    }

    /// Panic unless `model` has the spec this workspace was built for.
    fn check_spec(&self, model: &Model) {
        assert_eq!(
            *model.spec(),
            self.spec,
            "workspace was built for a different model spec"
        );
    }

    /// Before a gradient of `x`, make `sparse` fit what the backward will
    /// leave in `grad`: a dense backward overwrites every row (no support),
    /// a CSR one needs the support of the gradient it replaces — created
    /// here when absent, re-zeroing the dense rows it takes over. Runs
    /// before `track`, so the one-time creation never counts against the
    /// steady-state invariant.
    fn prepare_gradient(&mut self, x: Input<'_>) {
        match x {
            Input::Dense(_) => self.sparse = None,
            Input::Csr(_) if self.sparse.is_none() => {
                self.sparse = Some(Box::new(SparseScratch::new(&mut self.grad)));
            }
            Input::Csr(_) => {}
        }
    }

    /// The input features the stored gradient's layer 0 is confined to —
    /// its support, the rows of `grad().layers()[0].w` that may be non-zero:
    /// `Some` iff it came from a CSR batch, ascending and duplicate-free.
    /// `None` means a dense gradient (or none yet) — an applier handed this
    /// alongside [`grad`](Self::grad) can never walk rows that describe
    /// some earlier batch.
    pub fn active_cols(&self) -> Option<&[u32]> {
        self.sparse.as_ref().map(|s| s.rows())
    }

    /// [`active_cols`](Self::active_cols), empty when the stored gradient
    /// is dense (kept: the frozen `benchmark/` calls it).
    pub fn sparse_active_cols(&self) -> &[u32] {
        self.active_cols().unwrap_or(&[])
    }

    /// Track buffer growth around a forward/backward call and enforce the
    /// steady-state no-allocation invariant in debug builds.
    fn track<R>(&mut self, batch: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.capacity_fingerprint();
        let out = f(self);
        if self.capacity_fingerprint() != before {
            self.growth_events += 1;
            debug_assert!(
                batch > self.warmed_batch,
                "workspace buffers grew at batch {batch} although batch \
                 {} was already served — steady state must be allocation-free",
                self.warmed_batch
            );
        }
        self.warmed_batch = self.warmed_batch.max(batch);
        out
    }

    /// Forward pass into the reused activation stack, for a dense batch
    /// (`&Matrix`) or a CSR one (`CsrView`: first layer sparse, the rest
    /// shared). Allocation-free once warmed.
    ///
    /// Same kernels as [`forward`](crate::forward::forward) — results are
    /// bit-identical; only the buffer ownership differs.
    // audit: no_alloc
    pub fn forward_into<'a>(
        &mut self,
        model: &Model,
        x: impl Into<Input<'a>>,
        parallel: bool,
    ) -> &ForwardPass {
        let x = x.into();
        self.check_spec(model);
        self.track(x.dims().0, |ws| {
            forward_into_buffers(model, x, parallel, &mut ws.pass.activations);
        });
        &self.pass
    }

    /// One-call loss + gradient — the allocation-free counterpart of
    /// [`loss_and_gradient`](crate::backward::loss_and_gradient), and
    /// bit-identical to it (both run the same kernel sequence).
    ///
    /// For a CSR batch the stored gradient is still globally exact: layer-0
    /// rows outside the batch support hold true zeros (the previous call's
    /// rows are re-zeroed), so full-pass consumers (clipping, merge scans)
    /// stay correct, while appliers may restrict themselves to
    /// [`active_cols`](Self::active_cols).
    // audit: no_alloc
    pub fn loss_and_gradient_into<'a>(
        &mut self,
        model: &Model,
        x: impl Into<Input<'a>>,
        targets: Targets<'_>,
        parallel: bool,
    ) -> (f32, &Gradient) {
        let x = x.into();
        self.check_spec(model);
        self.prepare_gradient(x);
        let l = self.track(x.dims().0, |ws| {
            forward_into_buffers(model, x, parallel, &mut ws.pass.activations);
            let l = loss(ws.pass.probs(), targets, model.spec().loss);
            backward_with_scratch(
                model,
                x,
                &ws.pass,
                targets,
                parallel,
                &mut ws.delta,
                &mut ws.delta_next,
                &mut ws.grad,
                ws.sparse.as_deref_mut(),
            );
            l
        });
        (l, &self.grad)
    }

    /// [`loss_and_gradient_into`](Self::loss_and_gradient_into) on a CSR
    /// batch (kept: the frozen `benchmark/` calls it).
    pub fn loss_and_gradient_sparse_into(
        &mut self,
        model: &Model,
        x: CsrView<'_>,
        targets: Targets<'_>,
        parallel: bool,
    ) -> (f32, &Gradient) {
        self.loss_and_gradient_into(model, x, targets, parallel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::loss_and_gradient;
    use crate::init::InitScheme;

    fn setup() -> (Model, Matrix, Vec<u32>) {
        let spec = MlpSpec::tiny(6, 3);
        let model = Model::new(spec, InitScheme::Xavier, 42);
        let x = Matrix::from_fn(9, 6, |i, j| ((i * 6 + j) as f32 * 0.31).sin());
        let labels: Vec<u32> = (0..9).map(|i| (i % 3) as u32).collect();
        (model, x, labels)
    }

    #[test]
    fn into_variant_bit_matches_allocating_variant() {
        let (model, x, labels) = setup();
        let (l_ref, g_ref) = loss_and_gradient(&model, &x, Targets::Classes(&labels), false);
        let mut ws = Workspace::new(model.spec());
        let (l, g) = ws.loss_and_gradient_into(&model, &x, Targets::Classes(&labels), false);
        assert_eq!(l.to_bits(), l_ref.to_bits());
        for (a, b) in g.flatten().iter().zip(g_ref.flatten().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn forward_into_matches_forward() {
        let (model, x, _) = setup();
        let reference = crate::forward::forward(&model, &x, false);
        let mut ws = Workspace::new(model.spec());
        let pass = ws.forward_into(&model, &x, false);
        assert_eq!(pass.activations.len(), reference.activations.len());
        for (a, b) in pass.activations.iter().zip(&reference.activations) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn steady_state_does_not_grow_buffers() {
        let (model, x, labels) = setup();
        let mut ws = Workspace::new(model.spec());
        ws.loss_and_gradient_into(&model, &x, Targets::Classes(&labels), false);
        let warm = ws.growth_events();
        for _ in 0..10 {
            ws.loss_and_gradient_into(&model, &x, Targets::Classes(&labels), false);
        }
        assert_eq!(ws.growth_events(), warm, "steady state reallocated");

        // A smaller batch must also be allocation-free.
        let x_small = x.slice_rows(0, 4);
        ws.loss_and_gradient_into(&model, &x_small, Targets::Classes(&labels[..4]), false);
        assert_eq!(ws.growth_events(), warm, "smaller batch reallocated");
    }

    #[test]
    fn pre_warmed_workspace_never_grows() {
        let (model, x, labels) = setup();
        let mut ws = Workspace::with_batch_capacity(model.spec(), x.rows());
        ws.loss_and_gradient_into(&model, &x, Targets::Classes(&labels), false);
        assert_eq!(ws.growth_events(), 0, "pre-warmed workspace allocated");
    }

    #[test]
    fn workspace_survives_batch_growth() {
        let (model, x, labels) = setup();
        let mut ws = Workspace::with_batch_capacity(model.spec(), 4);
        // Larger than the warmed capacity: allowed to grow (not steady state).
        let (l, _) = ws.loss_and_gradient_into(&model, &x, Targets::Classes(&labels), false);
        let (l_ref, _) = loss_and_gradient(&model, &x, Targets::Classes(&labels), false);
        assert_eq!(l.to_bits(), l_ref.to_bits());
    }

    #[test]
    fn odd_layer_count_wide_output_stays_allocation_free() {
        // Regression: with an odd δ ping-pong swap count (even layer count)
        // the scratch buffers used to exchange identities across calls, so
        // a classes ≫ hidden spec reallocated on the *second* call at the
        // same batch size.
        use crate::spec::LossKind;
        let spec = MlpSpec {
            input_dim: 6,
            hidden: vec![4],
            classes: 50,
            activation: crate::activation::Activation::Sigmoid,
            loss: LossKind::MultiLabelBce,
        };
        let model = Model::new(spec.clone(), InitScheme::Xavier, 3);
        let x = Matrix::from_fn(9, 6, |i, j| ((i * 6 + j) as f32 * 0.17).cos());
        let y = Matrix::from_fn(9, 50, |i, j| ((i + j) % 7 == 0) as u8 as f32);
        let mut ws = Workspace::new(&spec);
        ws.loss_and_gradient_into(&model, &x, Targets::MultiHot(&y), false);
        let warm = ws.growth_events();
        for _ in 0..4 {
            ws.loss_and_gradient_into(&model, &x, Targets::MultiHot(&y), false);
        }
        assert_eq!(ws.growth_events(), warm, "steady state reallocated");
    }

    #[test]
    #[should_panic(expected = "different model spec")]
    fn spec_mismatch_panics() {
        let (model, x, labels) = setup();
        let mut ws = Workspace::new(&MlpSpec::tiny(4, 2));
        ws.loss_and_gradient_into(&model, &x, Targets::Classes(&labels), false);
    }
}
