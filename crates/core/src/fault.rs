//! Fault model shared by the engines: deterministic fault injection for
//! tests and the typed errors workers report instead of panicking.
//!
//! The supervision layer (see `DESIGN.md`, "Failure model & supervision")
//! needs faults it can *schedule*: "kill worker 2 after 5 batches", "fail
//! the 3rd device allocation". [`FaultPlan`] carries those instructions
//! into an engine run; [`WorkerError`] is what a faulting worker sends back
//! to the coordinator in place of a panic.

use serde::{Deserialize, Serialize};

/// What kind of fault to inject into one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker dies (panics) after completing `k` batches — exercises
    /// the catch-unwind + quarantine path.
    DieAfterBatches(u64),
    /// The worker's device fails its `n`th allocation attempt (0-based,
    /// counted from device creation) with OOM — exercises the batch-halving
    /// retry path. Attempt 0 is the model upload and every GPU step makes
    /// one more (plus one per halving), so attempt 1 is the first step.
    /// Threaded engine only (the sim has no device ledger).
    OomOnAlloc(u64),
    /// The worker's device rejects the very first model upload — exercises
    /// the unrecoverable-OOM retirement path. Threaded engine only.
    OomOnUpload,
    /// The worker's `k`th completed batch (0-based) produces a gradient /
    /// replica delta poisoned with NaN — exercises the training-health
    /// watchdog's non-finite detection and abort-with-postmortem path.
    PoisonGradientAt(u64),
    /// Hogwild lane 1 of the CPU worker — a lane thread, not the worker's
    /// own — panics inside the worker's `k`th batch (0-based), while the
    /// other lanes are mid-step — exercises the lane → worker → coordinator
    /// fault path. Threaded engine only, and inert with fewer than two
    /// lanes.
    LanePanicAt(u64),
}

/// One scheduled fault: which worker, and what happens to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerFault {
    /// Worker slot index (coordinator numbering: CPU workers first, then
    /// GPU workers).
    pub worker: usize,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults to inject into an engine run.
///
/// The default plan is empty: no faults, identical behavior to an
/// un-instrumented run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scheduled faults, at most one per worker slot honored per kind.
    pub faults: Vec<WorkerFault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Schedule worker `w` to die after `k` completed batches.
    pub fn die_after(mut self, w: usize, k: u64) -> Self {
        self.faults.push(WorkerFault {
            worker: w,
            kind: FaultKind::DieAfterBatches(k),
        });
        self
    }

    /// Schedule worker `w`'s device to OOM on its `n`th allocation attempt
    /// (see [`FaultKind::OomOnAlloc`] for how attempts are counted).
    pub fn oom_on_alloc(mut self, w: usize, n: u64) -> Self {
        self.faults.push(WorkerFault {
            worker: w,
            kind: FaultKind::OomOnAlloc(n),
        });
        self
    }

    /// Schedule worker `w`'s device to reject the initial model upload.
    pub fn oom_on_upload(mut self, w: usize) -> Self {
        self.faults.push(WorkerFault {
            worker: w,
            kind: FaultKind::OomOnUpload,
        });
        self
    }

    /// Schedule worker `w`'s `step`th batch (0-based) to produce a
    /// NaN-poisoned gradient.
    pub fn poison_gradient_at(mut self, w: usize, step: u64) -> Self {
        self.faults.push(WorkerFault {
            worker: w,
            kind: FaultKind::PoisonGradientAt(step),
        });
        self
    }

    /// Schedule Hogwild lane 1 of CPU worker `w` to panic inside the
    /// worker's `step`th batch (0-based).
    pub fn panic_lane_at(mut self, w: usize, step: u64) -> Self {
        self.faults.push(WorkerFault {
            worker: w,
            kind: FaultKind::LanePanicAt(step),
        });
        self
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Batch count after which worker `w` is scheduled to die, if any.
    pub fn death_after(&self, w: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f.kind {
            FaultKind::DieAfterBatches(k) if f.worker == w => Some(k),
            _ => None,
        })
    }

    /// Allocation index at which worker `w`'s device should OOM, if any.
    pub fn oom_alloc_index(&self, w: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f.kind {
            FaultKind::OomOnAlloc(n) if f.worker == w => Some(n),
            _ => None,
        })
    }

    /// Whether worker `w`'s initial upload is scheduled to fail.
    pub fn upload_oom(&self, w: usize) -> bool {
        self.faults
            .iter()
            .any(|f| f.worker == w && f.kind == FaultKind::OomOnUpload)
    }

    /// Batch index at which worker `w`'s gradient is scheduled to be
    /// NaN-poisoned, if any.
    pub fn poison_at(&self, w: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f.kind {
            FaultKind::PoisonGradientAt(k) if f.worker == w => Some(k),
            _ => None,
        })
    }

    /// Batch index inside which lane 1 of CPU worker `w` is scheduled to
    /// panic, if any.
    pub fn lane_panic_at(&self, w: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f.kind {
            FaultKind::LanePanicAt(k) if f.worker == w => Some(k),
            _ => None,
        })
    }
}

/// Why a worker could not continue. Sent to the coordinator over the
/// result channel in place of a panic; the coordinator quarantines the
/// worker and re-queues its in-flight work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerError {
    /// Device out of memory and the retry loop could not recover (e.g. the
    /// model itself does not fit).
    Oom(String),
    /// The worker body panicked; the payload is the panic message.
    Panic(String),
    /// The worker's channel to the coordinator disconnected.
    Disconnected(String),
}

impl WorkerError {
    /// Short stable label for counters and per-worker retirement records.
    pub fn label(&self) -> &'static str {
        match self {
            WorkerError::Oom(_) => "oom",
            WorkerError::Panic(_) => "panic",
            WorkerError::Disconnected(_) => "disconnected",
        }
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Oom(msg) => write!(f, "device OOM: {msg}"),
            WorkerError::Panic(msg) => write!(f, "worker panicked: {msg}"),
            WorkerError::Disconnected(msg) => write!(f, "channel disconnected: {msg}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Render a caught panic payload as a message string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_schedules_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.death_after(0), None);
        assert_eq!(plan.oom_alloc_index(3), None);
        assert!(!plan.upload_oom(1));
    }

    #[test]
    fn builder_targets_the_right_worker() {
        let plan = FaultPlan::none()
            .die_after(1, 5)
            .oom_on_alloc(2, 7)
            .oom_on_upload(3)
            .poison_gradient_at(4, 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.death_after(1), Some(5));
        assert_eq!(plan.death_after(2), None);
        assert_eq!(plan.oom_alloc_index(2), Some(7));
        assert!(plan.upload_oom(3));
        assert!(!plan.upload_oom(2));
        assert_eq!(plan.poison_at(4), Some(2));
        assert_eq!(plan.poison_at(1), None);
    }

    #[test]
    fn worker_error_labels_and_display() {
        let e = WorkerError::Oom("requested 4096 B".into());
        assert_eq!(e.label(), "oom");
        assert!(e.to_string().contains("OOM"));
        assert_eq!(WorkerError::Panic("x".into()).label(), "panic");
        assert_eq!(
            WorkerError::Disconnected("x".into()).label(),
            "disconnected"
        );
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        let r = std::panic::catch_unwind(|| panic!("static message"));
        assert_eq!(panic_message(&*r.unwrap_err()), "static message");
        let r = std::panic::catch_unwind(|| panic!("formatted {}", 42));
        assert_eq!(panic_message(&*r.unwrap_err()), "formatted 42");
    }
}
