//! The typed event model shared by both engines.
//!
//! Every event is stamped with an engine-relative timestamp in **seconds**
//! and the id of the worker it concerns. The timestamp's meaning depends on
//! the sink's [`TimeDomain`](crate::TimeDomain): wall seconds since the
//! sink was created (threaded engine) or virtual simulation seconds
//! (discrete-event engine). Events about the coordinator itself use
//! [`COORDINATOR`] as the worker id.

use serde::{Deserialize, Serialize};

/// Worker id used for events the coordinator emits about itself.
pub const COORDINATOR: u32 = u32::MAX;

/// Run-unique identifier for one dispatched batch, assigned by the
/// coordinator at dispatch time and carried by every event that belongs
/// to that batch's lifecycle (dispatch → queue wait → stage → compute →
/// transfer → merge → completion, or requeue-on-fault). A range that is
/// re-queued and dispatched again gets a **fresh** id; the
/// [`EventKind::BatchRequeued`] event carries the old id, which is how
/// the lineage chain across faults is reconstructed.
pub type BatchId = u64;

/// Per-phase wall-clock breakdown of one completed batch, measured by the
/// worker that ran it and reported on [`EventKind::BatchCompleted`].
///
/// All values are seconds in the sink's time domain. Queue wait is *not*
/// in here — it is derived from the `BatchDispatched → BatchStarted` gap
/// so a batch that never starts still shows its starvation. Phases that a
/// path does not have (e.g. transfer on a CPU worker) are simply 0.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchPhases {
    /// Staging: snapshotting the shared model and gathering/slicing the
    /// batch (dense copy or CSR row slice).
    pub stage_secs: f64,
    /// Forward/backward compute (kernels on GPU, lane steps on CPU).
    pub compute_secs: f64,
    /// Host↔device transfer (model refresh upload + delta download).
    pub transfer_secs: f64,
    /// Merging the worker's delta into the shared model (lock + apply).
    pub merge_secs: f64,
}

impl BatchPhases {
    /// Sum of all phase components.
    pub fn total(&self) -> f64 {
        self.stage_secs + self.compute_secs + self.transfer_secs + self.merge_secs
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &BatchPhases) {
        self.stage_secs += other.stage_secs;
        self.compute_secs += other.compute_secs;
        self.transfer_secs += other.transfer_secs;
        self.merge_secs += other.merge_secs;
    }

    /// Component-wise scale (used to renormalize summed lane-local times
    /// onto the batch's wall-clock span).
    pub fn scale(&mut self, k: f64) {
        self.stage_secs *= k;
        self.compute_secs *= k;
        self.transfer_secs *= k;
        self.merge_secs *= k;
    }
}

/// Why the adaptive controller changed a worker's batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResizeReason {
    /// Worker was ahead of the slowest peer; batch grew (Algorithm 2's
    /// `×α` branch).
    Ahead,
    /// Worker was behind; batch shrank (the `÷α` branch).
    Behind,
    /// Size change came from clamping to the configured `[min, max]`.
    Clamped,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Coordinator handed a batch to a worker.
    BatchDispatched {
        /// Lineage id assigned to this batch.
        id: BatchId,
        /// Examples in the dispatched batch.
        batch: usize,
    },
    /// Worker dequeued the batch and began working on it. The gap from
    /// the matching [`EventKind::BatchDispatched`] is the batch's queue
    /// wait (coordinator→worker channel time plus worker availability).
    BatchStarted {
        /// Lineage id of the batch being started.
        id: BatchId,
    },
    /// Worker finished a batch and reported back.
    BatchCompleted {
        /// Lineage id of the completed batch.
        id: BatchId,
        /// Examples in the completed batch.
        batch: usize,
        /// Model updates the worker applied for this batch.
        updates: usize,
        /// Where the batch's busy time went, as measured by the worker.
        phases: BatchPhases,
    },
    /// Adaptive controller resized a worker's batch.
    BatchResized {
        /// Batch size before the change.
        old: usize,
        /// Batch size after the change.
        new: usize,
        /// Which controller branch caused it.
        reason: ResizeReason,
    },
    /// Message pushed onto a queue; `depth` is the length after the push.
    QueuePushed {
        /// Queue depth after the push.
        depth: usize,
        /// Lineage id when the message carries a batch (work dispatch),
        /// `None` for control or completion traffic.
        id: Option<BatchId>,
    },
    /// Message popped from a queue; `depth` is the length after the pop.
    QueuePopped {
        /// Queue depth after the pop.
        depth: usize,
        /// Lineage id when the message carried a batch.
        id: Option<BatchId>,
    },
    /// Host-to-device transfer completed.
    H2d {
        /// Payload size.
        bytes: usize,
        /// Modeled transfer time in seconds.
        secs: f64,
        /// Lineage id of the batch the transfer served, when one was
        /// active (model-warmup uploads have none).
        id: Option<BatchId>,
    },
    /// Device-to-host transfer completed.
    D2h {
        /// Payload size.
        bytes: usize,
        /// Modeled transfer time in seconds.
        secs: f64,
        /// Lineage id of the batch the transfer served, when one was
        /// active.
        id: Option<BatchId>,
    },
    /// A device kernel was launched.
    KernelLaunched {
        /// Kernel name. A static string so that emitting a kernel marker
        /// never allocates on the launch path (`xtask audit`: `no_alloc`).
        name: &'static str,
    },
    /// GPU replica merged into the shared model.
    ModelMerge {
        /// Staleness discount applied to the merge (1.0 = fresh).
        scale: f64,
        /// Lineage id of the batch whose delta was merged.
        id: Option<BatchId>,
    },
    /// Evaluation point on the loss curve.
    EvalPoint {
        /// Training loss at this point.
        loss: f64,
    },
    /// A worker reported a fault (device OOM it could not recover from, a
    /// caught panic, or a dead channel) to the coordinator.
    WorkerFault {
        /// Human-readable fault description.
        reason: String,
    },
    /// The coordinator quarantined a worker: its slot is inactive for the
    /// rest of the run and its in-flight work was re-queued.
    WorkerRetired {
        /// Why the worker was retired.
        reason: String,
    },
    /// An in-flight batch range was returned to the dispatch queue (its
    /// worker died, or an OOM retry shrank the step and left a tail).
    /// The next dispatch of the range gets a fresh id; this event's `id`
    /// is the old one, linking the fault lineage.
    BatchRequeued {
        /// Lineage id the range had before it was returned.
        id: BatchId,
        /// Examples in the re-queued range.
        batch: usize,
    },
    /// The training-health watchdog reacted to a condition (non-finite
    /// gradient, loss divergence, or stall).
    HealthEvent {
        /// Action taken: `"warn"`, `"clamp"`, or `"abort"`.
        action: String,
        /// What tripped and where.
        detail: String,
    },
}

/// A stamped event: what happened, when, and to which worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Seconds in the sink's time domain.
    pub t: f64,
    /// Worker/device id, or [`COORDINATOR`].
    pub worker: u32,
    /// What happened.
    pub kind: EventKind,
}
