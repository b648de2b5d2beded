//! Host provenance and the two benchmark-owned roofline probes.
//!
//! None of this is a metric: it is carried in every report so that, when
//! two reports disagree, a slow *host* can be told from a slow *program*
//! (the reference sandbox swings a bit-identical run between 1.1 s and
//! 4.4 s with its neighbours' load).

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Where and with what a report was produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/loadavg` when the run started / ended.
    pub loadavg_before: String,
    pub loadavg_after: String,
    /// SIMD level `hetero-tensor` dispatches to on this host.
    pub simd_level: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout (`None` outside a git repository).
    pub git_sha: Option<String>,
    /// [`peak_fma_gflops`] sampled before the first trial / after the last.
    pub peak_fma_gflops_before: f64,
    pub peak_fma_gflops_after: f64,
}

impl Provenance {
    /// Capture everything known at the start of a run.
    pub fn begin() -> Self {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            loadavg_before: loadavg(),
            loadavg_after: String::new(),
            simd_level: format!("{:?}", hetero_tensor::simd::active_level()),
            rustc: env!("HETERO_BENCH_RUSTC").to_string(),
            git_sha: hetero_flight::read_git_sha(),
            peak_fma_gflops_before: peak_fma_gflops(0.03),
            peak_fma_gflops_after: 0.0,
        }
    }

    /// Fill in the end-of-run half.
    pub fn end(&mut self) {
        self.loadavg_after = loadavg();
        self.peak_fma_gflops_after = peak_fma_gflops(0.03);
    }

    /// Human-readable block (stdout, above the metrics).
    pub fn render(&self) -> String {
        format!(
            "host: {} x {} | simd {} | {} | git {}\n\
             host: loadavg {} -> {} | peak fma {:.2} -> {:.2} GFLOP/s",
            self.nproc,
            self.cpu_model,
            self.simd_level,
            self.rustc,
            self.git_sha.as_deref().unwrap_or("n/a"),
            self.loadavg_before,
            self.loadavg_after,
            self.peak_fma_gflops_before,
            self.peak_fma_gflops_after,
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "n/a".to_string())
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Single-thread f32 multiply-add throughput of this host, GFLOP/s: 64
/// independent accumulator chains (8 AVX2 registers' worth), compiled with
/// FMA when the host has it — the same runtime dispatch `hetero-tensor`
/// makes. Owned by the benchmark — it calls nothing in `crates/` — so it
/// moves only when the host does.
pub fn peak_fma_gflops(seconds: f64) -> f64 {
    let mut acc = [0.5f32; FMA_LANES];
    let mut rounds = 0u64;
    let t0 = Instant::now();
    loop {
        fma_round(&mut acc);
        rounds += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= seconds {
            std::hint::black_box(acc);
            return 2.0 * (FMA_LANES * FMA_INNER) as f64 * rounds as f64 / elapsed / 1e9;
        }
    }
}

const FMA_LANES: usize = 64;
const FMA_INNER: usize = 4096;

fn fma_round(acc: &mut [f32; FMA_LANES]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the two feature checks above are exactly the features
        // `fma_round_avx2` is compiled with.
        unsafe { fma_round_avx2(acc) };
        return;
    }
    fma_round_body(acc, |v, a, b| v * a + b);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_round_avx2(acc: &mut [f32; FMA_LANES]) {
    fma_round_body(acc, f32::mul_add);
}

#[inline(always)]
fn fma_round_body(acc: &mut [f32; FMA_LANES], madd: impl Fn(f32, f32, f32) -> f32) {
    let a = std::hint::black_box(0.999_9f32);
    let b = std::hint::black_box(1.0e-4f32);
    for _ in 0..FMA_INNER {
        for v in acc.iter_mut() {
            *v = madd(*v, a, b);
        }
    }
}

/// Single-thread streaming bandwidth, GB/s: `y[i] += a * x[i]` over two
/// 32 MB arrays (well past the last-level cache), counting 12 bytes moved
/// per element (read x, read y, write y). Benchmark-owned like
/// [`peak_fma_gflops`].
pub fn stream_gb_per_s(x: &[f32], y: &mut [f32]) -> f64 {
    let a = std::hint::black_box(1.000_1f32);
    let t0 = Instant::now();
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(&*y);
    12.0 * x.len() as f64 / elapsed / 1e9
}
