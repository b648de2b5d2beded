//! The one rule for what a GPU step of a network costs its device: the
//! bytes it holds and the bytes it moves. The simulator charges a batch by
//! it and the threaded GPU worker reserves by it, and both charge a step's
//! transfers through one [`Link`], so both engines cap the GPU batch at the
//! same size and record the same transfers.

use hetero_nn::MlpSpec;
use hetero_sim::{DeviceModel, GpuModel};
use hetero_trace::{EventKind, HistHandle, Metric, TraceSink};

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

/// One GPU worker's link to the host: where its steps' transfers are
/// recorded. Nothing is copied; a transfer is its modelled seconds.
pub struct Link {
    sink: TraceSink,
    worker: u32,
    h2d: HistHandle,
    d2h: HistHandle,
}

/// One step's transfers on its [`Link`]: the modelled seconds each way,
/// and what their trace events carry.
#[derive(Debug, Clone, Copy)]
pub struct Charge {
    /// H2D seconds: the batch and the snapshot.
    pub h2d: f64,
    /// D2H seconds: the delta.
    pub d2h: f64,
    id: u64,
    up: usize,
    down: usize,
}

impl Link {
    /// The link of `worker`, recording into `sink`'s per-worker
    /// `H2d`/`D2h` histograms (no-ops on a disabled sink).
    pub fn new(sink: &TraceSink, worker: u32) -> Self {
        Link {
            sink: sink.clone(),
            worker,
            h2d: sink.histogram(Metric::H2d, worker),
            d2h: sink.histogram(Metric::D2h, worker),
        }
    }

    /// Charge the transfers of batch `id`'s step over `len` examples on
    /// `g`: one H2D (the batch and the snapshot) and one D2H (the delta),
    /// each one histogram sample at [`Footprint::transfer_secs`]. Their
    /// events wait for [`uploaded`](Self::uploaded) and
    /// [`downloaded`](Self::downloaded), which say when each landed.
    // audit: no_alloc
    pub fn charge(&self, fp: &Footprint, g: &GpuModel, len: usize, id: u64) -> Charge {
        let (h2d, d2h) = fp.transfer_secs(g, len);
        self.h2d.record_secs(h2d);
        self.d2h.record_secs(d2h);
        Charge {
            h2d,
            d2h,
            id,
            up: (fp.batch_bytes(len) + fp.model) as usize,
            down: fp.model as usize,
        }
    }

    /// On a traced run, `c`'s H2D completed at `t` on the sink's clock:
    /// its slice is drawn as `[t − h2d, t]`.
    // audit: no_alloc
    pub fn uploaded(&self, c: &Charge, t: f64) {
        let (bytes, secs, id) = (c.up, c.h2d, Some(c.id));
        self.sink
            .emit_at(t, self.worker, EventKind::H2d { bytes, secs, id });
    }

    /// On a traced run, `c`'s D2H completed at `t` on the sink's clock —
    /// never before the gradient it carries back.
    // audit: no_alloc
    pub fn downloaded(&self, c: &Charge, t: f64) {
        let (bytes, secs, id) = (c.down, c.d2h, Some(c.id));
        self.sink
            .emit_at(t, self.worker, EventKind::D2h { bytes, secs, id });
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
