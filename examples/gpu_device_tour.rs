//! Tour of the software GPU as the engines use it: a memory ledger with
//! real OOM, a link that charges every step's transfers, and the footprint
//! of one GPU-worker step — the pieces §V's GPU worker is made of. The
//! step's math runs on the host; the device model says what it would hold,
//! move and cost on a V100.
//!
//! ```text
//! cargo run --release --example gpu_device_tour
//! ```

use hetero_sgd::gpu::{DeviceMemory, Footprint, Link};
use hetero_sgd::nn::Workspace;
use hetero_sgd::prelude::*;
use hetero_sgd::trace::{Metric, TraceSink};

fn main() {
    // --- 1. A V100-like model and a ledger over its global memory.
    let gpu = GpuModel::v100();
    let mem = DeviceMemory::new(gpu.memory);
    println!(
        "device: {}  global memory {} GB  peak {:.1} TFLOP/s",
        gpu.name,
        mem.capacity() >> 30,
        gpu.peak_flops / 1e12
    );

    // --- 2. Memory: reservations are counted; overcommit fails like cudaMalloc.
    let a = mem.alloc(4 << 20).unwrap();
    println!(
        "reserved 4 MiB -> used {} B, peak {} B",
        mem.used_bytes(),
        mem.peak_bytes()
    );
    match mem.alloc(mem.capacity()) {
        Err(e) => println!("overcommit correctly rejected: {e}"),
        Ok(_) => unreachable!("allocation should have failed"),
    }
    mem.free(a).unwrap();

    // --- 3. A GPU worker's steps: reserve the model, then per step reserve
    //        the batch's bytes, charge the link (batch + snapshot up, delta
    //        down), take the gradient at the snapshot and merge it.
    let spec = MlpSpec {
        input_dim: 16,
        hidden: vec![64, 64],
        classes: 3,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let fp = Footprint::of(&spec);
    let sink = TraceSink::wall(1 << 10);
    let link = Link::new(&sink, 1);
    let host_model = Model::new(spec.clone(), InitScheme::Xavier, 7);
    let shared = SharedModel::new(&host_model);
    let resident = mem.alloc(fp.resident_bytes()).unwrap();
    println!(
        "\nuploaded model replica: {} params, device now holds {} B; a V100 fits {} examples per step",
        spec.num_params(),
        mem.used_bytes(),
        fp.max_batch(&gpu)
    );

    // Synthetic batch.
    let x = Matrix::from_fn(128, 16, |i, j| ((i * 16 + j) as f32 * 0.13).sin());
    let labels: Vec<u32> = (0..128).map(|i| (i % 3) as u32).collect();
    let mut ws = Workspace::new(&spec);
    let mut snapshot = shared.snapshot();
    let mut losses = Vec::new();
    for step in 0..30 {
        shared.snapshot_into(&mut snapshot);
        let held = mem.alloc(fp.step_bytes(x.rows())).unwrap();
        let charge = link.charge(&fp, &gpu, x.rows(), step);
        link.uploaded(&charge, sink.now());
        let (l, grad) = ws.loss_and_gradient_into(&snapshot, &x, Targets::Classes(&labels), false);
        link.downloaded(&charge, sink.now());
        mem.free(held).unwrap();
        shared.merge_gradient(grad, 0.5, None, None);
        if step % 10 == 0 {
            losses.push(l);
        }
    }
    println!("GPU-worker training losses every 10 steps: {losses:.3?}");

    let trained = shared.snapshot();
    let moved: f32 = trained
        .flatten()
        .iter()
        .zip(&host_model.flatten())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt();
    println!("merged 30 deltas; parameter L2 moved {moved:.4}");
    let (h2d, d2h) = fp.transfer_secs(&gpu, x.rows());
    let count = |m| sink.summary(m).map_or(0, |s| s.count);
    println!(
        "link: {} H2D of {} B ({:.2} µs each), {} D2H of {} B ({:.2} µs each), {:.3} ms of a {:.3} ms step",
        count(Metric::H2d),
        fp.batch_bytes(x.rows()) + fp.model,
        h2d * 1e6,
        count(Metric::D2h),
        fp.model,
        d2h * 1e6,
        (h2d + d2h) * 1e3,
        fp.step_secs(&gpu, x.rows()) * 1e3
    );
    mem.free(resident).unwrap();
    assert_eq!(mem.used_bytes(), 0, "all device memory returned");
    println!("device memory fully reclaimed");
}
