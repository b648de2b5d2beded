//! Tour of the software GPU: a memory ledger with real OOM, accounted
//! transfers, and the footprint of one GPU-worker step — the pieces §V's
//! GPU worker is made of. The step's math runs on the host; the device
//! model says what it would hold, move and cost on a V100.
//!
//! ```text
//! cargo run --release --example gpu_device_tour
//! ```

use hetero_sgd::gpu::{Footprint, GpuDevice};
use hetero_sgd::nn::Workspace;
use hetero_sgd::prelude::*;

fn main() {
    // --- 1. Device with V100-like capacity and performance model.
    let device = GpuDevice::v100();
    println!(
        "device: {}  global memory {} GB  peak {:.1} TFLOP/s",
        device.perf().name,
        device.mem().capacity() >> 30,
        device.perf().peak_flops / 1e12
    );

    // --- 2. Memory: reservations are counted; overcommit fails like cudaMalloc.
    let a = device.mem().alloc(4 << 20).unwrap();
    println!(
        "reserved 4 MiB -> used {} B, peak {} B",
        device.mem().used_bytes(),
        device.mem().peak_bytes()
    );
    match device.mem().alloc(device.mem().capacity()) {
        Err(e) => println!("overcommit correctly rejected: {e}"),
        Ok(_) => unreachable!("allocation should have failed"),
    }
    device.mem().free(a).unwrap();

    // --- 3. Transfers: accounted in bytes and virtual time, never copied.
    let buf = device.h2d(&[1.0f32, 2.0, 3.0, 4.0]).unwrap();
    println!(
        "h2d of 16 B accounted {:.2} µs virtual",
        device.virtual_time() * 1e6
    );
    device.mem().free(buf).unwrap();

    // --- 4. A GPU worker's steps: reserve the model, then per step reserve
    //        the batch's bytes, upload batch + snapshot, take the gradient
    //        at the snapshot, download the delta and merge it.
    let spec = MlpSpec {
        input_dim: 16,
        hidden: vec![64, 64],
        classes: 3,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let fp = Footprint::of(&spec);
    let host_model = Model::new(spec.clone(), InitScheme::Xavier, 7);
    let shared = SharedModel::new(&host_model);
    let resident = device.mem().alloc(fp.resident_bytes()).unwrap();
    println!(
        "\nuploaded model replica: {} params, device now holds {} B; a V100 fits {} examples per step",
        spec.num_params(),
        device.mem().used_bytes(),
        fp.max_batch(device.perf())
    );

    // Synthetic batch.
    let x = Matrix::from_fn(128, 16, |i, j| ((i * 16 + j) as f32 * 0.13).sin());
    let labels: Vec<u32> = (0..128).map(|i| (i % 3) as u32).collect();
    let mut ws = Workspace::new(&spec);
    let mut snapshot = shared.snapshot();
    let mut losses = Vec::new();
    for step in 0..30 {
        shared.snapshot_into(&mut snapshot);
        let held = device.mem().alloc(fp.step_bytes(x.rows())).unwrap();
        device.account_h2d(fp.batch_bytes(x.rows()));
        device.account_h2d(fp.model);
        let (l, grad) = ws.loss_and_gradient_into(&snapshot, &x, Targets::Classes(&labels), true);
        device.account_step(fp.flops, x.rows());
        device.account_d2h(fp.model);
        device.mem().free(held).unwrap();
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
    let stats = device.transfer_stats();
    println!(
        "transfer totals: {} H2D ({} B), {} D2H ({} B); virtual busy {:.3} ms",
        stats.h2d_count,
        stats.h2d_bytes,
        stats.d2h_count,
        stats.d2h_bytes,
        device.virtual_time() * 1e3
    );
    device.mem().free(resident).unwrap();
    assert_eq!(device.mem().used_bytes(), 0, "all device memory returned");
    println!("device memory fully reclaimed");
}
