//! Tour of the software GPU substrate: tracked memory with real OOM,
//! explicit transfers, kernels, and a device-resident MLP replica — the
//! pieces §V's GPU worker is made of.
//!
//! ```text
//! cargo run --release --example gpu_device_tour
//! ```

use hetero_sgd::gpu::{GpuDevice, GpuMlp};
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

    // --- 2. Memory: allocation is tracked; overcommit fails like cudaMalloc.
    let a = device.mem().alloc(1 << 20).unwrap();
    println!(
        "allocated 4 MiB -> used {} B, peak {} B",
        device.mem().used_bytes(),
        device.mem().peak_bytes()
    );
    let oversize = (device.mem().capacity() / 4) as usize; // would exceed capacity
    match device.mem().alloc(oversize) {
        Err(e) => println!("overcommit correctly rejected: {e}"),
        Ok(_) => unreachable!("allocation should have failed"),
    }
    device.mem().free(a).unwrap();

    // --- 3. Transfers: explicit copies, accounted in virtual time.
    let buf = device.h2d(&[1.0f32, 2.0, 3.0, 4.0]).unwrap();
    println!(
        "h2d of 16 B accounted {:.2} µs virtual",
        device.virtual_time() * 1e6
    );
    device.mem().free(buf).unwrap();

    // --- 4. A deep-copy MLP replica trained fully on-device.
    let spec = MlpSpec {
        input_dim: 16,
        hidden: vec![64, 64],
        classes: 3,
        activation: Activation::Sigmoid,
        loss: LossKind::SoftmaxCrossEntropy,
    };
    let host_model = Model::new(spec.clone(), InitScheme::Xavier, 7);
    let mut replica = GpuMlp::upload(&device, &host_model).unwrap();
    println!(
        "\nuploaded model replica: {} params, device now holds {} B in {} buffers",
        spec.num_params(),
        device.mem().used_bytes(),
        device.mem().live_buffers()
    );

    // Synthetic batch.
    let x = Matrix::from_fn(128, 16, |i, j| ((i * 16 + j) as f32 * 0.13).sin());
    let labels: Vec<u32> = (0..128).map(|i| (i % 3) as u32).collect();
    let mut losses = Vec::new();
    for step in 0..30 {
        let l = replica
            .train_step(&x, Targets::Classes(&labels), 0.5)
            .unwrap();
        if step % 10 == 0 {
            losses.push(l);
        }
    }
    println!("on-device training losses every 10 steps: {losses:.3?}");

    // Merge back: download the replica (the delta would go to the global
    // model in the full framework).
    let trained = replica.download();
    println!(
        "downloaded replica; parameter L2 moved {:.4}",
        (0..1)
            .map(|_| {
                let a = trained.flatten();
                let b = host_model.flatten();
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f32>()
                    .sqrt()
            })
            .next()
            .unwrap()
    );
    let stats = device.transfer_stats();
    println!(
        "transfer totals: {} H2D ({} B), {} D2H ({} B); virtual busy {:.3} ms",
        stats.h2d_count,
        stats.h2d_bytes,
        stats.d2h_count,
        stats.d2h_bytes,
        device.virtual_time() * 1e3
    );
    replica.destroy();
    assert_eq!(device.mem().used_bytes(), 0, "all device memory returned");
    println!("device memory fully reclaimed");
}
