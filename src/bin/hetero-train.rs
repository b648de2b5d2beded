//! `hetero-train` — command-line front end for the training framework.
//!
//! ```text
//! hetero-train [--dataset covtype|w8a|delicious|real-sim]
//!              [--algorithm hogwild-cpu|minibatch-gpu|tensorflow|cpu-gpu|adaptive]
//!              [--engine sim|threads]
//!              [--scale 0.005] [--width 64] [--depth N]
//!              [--budget 0.2] [--lr 0.01] [--gpu-batch 8192]
//!              [--alpha 2.0] [--beta 1.0] [--kappa 0.0]
//!              [--ckpt-dir results/ckpt] [--ckpt-interval 0.05]
//!              [--ckpt-retain 2] [--resume]
//!              [--seed 42] [--json]
//! ```
//!
//! With `--ckpt-dir` the run publishes crash-consistent checkpoints every
//! `--ckpt-interval` seconds (virtual for sim, wall for threads) and
//! `--resume` continues from the newest valid generation in that directory.
//!
//! Prints a human-readable summary, or the full `TrainResult` as JSON with
//! `--json` (for piping into plotting scripts).

use std::sync::Arc;

use hetero_sgd::prelude::*;

/// Accepted `--algorithm` / `--engine` values, as the parser's errors and
/// the usage text both print them.
const ALGORITHMS: &str = "hogwild-cpu|minibatch-gpu|tensorflow|cpu-gpu|adaptive";
const ENGINES: &str = "sim|threads";

enum Engine {
    Sim,
    Threads,
}

struct Args {
    dataset: PaperDataset,
    algorithm: AlgorithmKind,
    engine: Engine,
    scale: f64,
    width: usize,
    depth: Option<usize>,
    budget: f64,
    lr: f32,
    gpu_batch: usize,
    alpha: f64,
    beta: f64,
    kappa: f32,
    ckpt_dir: Option<String>,
    ckpt_interval: f64,
    ckpt_retain: usize,
    resume: bool,
    seed: u64,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: PaperDataset::Covtype,
        algorithm: AlgorithmKind::AdaptiveHogbatch,
        engine: Engine::Sim,
        scale: 0.005,
        width: 64,
        depth: None,
        budget: 0.2,
        lr: 0.01,
        gpu_batch: 8192,
        alpha: 2.0,
        beta: 1.0,
        kappa: 0.0,
        ckpt_dir: None,
        ckpt_interval: 0.05,
        ckpt_retain: 2,
        resume: false,
        seed: 42,
        json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--json" {
            args.json = true;
            i += 1;
            continue;
        }
        if flag == "--resume" {
            args.resume = true;
            i += 1;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            return Err("help".into());
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--dataset" => {
                args.dataset = PaperDataset::from_name(value)
                    .ok_or_else(|| format!("unknown dataset '{value}'"))?;
            }
            "--algorithm" => {
                args.algorithm = match value.as_str() {
                    "hogwild-cpu" | "hogbatch-cpu" => AlgorithmKind::HogbatchCpu,
                    "minibatch-gpu" | "hogbatch-gpu" => AlgorithmKind::MiniBatchGpu,
                    "tensorflow" | "tf" => AlgorithmKind::TensorFlow,
                    "cpu-gpu" | "cpu+gpu" => AlgorithmKind::CpuGpuHogbatch,
                    "adaptive" => AlgorithmKind::AdaptiveHogbatch,
                    other => {
                        return Err(format!(
                            "unknown algorithm '{other}' (expected {ALGORITHMS})"
                        ))
                    }
                };
            }
            "--engine" => {
                args.engine = match value.as_str() {
                    "sim" => Engine::Sim,
                    "threads" => Engine::Threads,
                    other => return Err(format!("unknown engine '{other}' (expected {ENGINES})")),
                };
            }
            "--scale" => args.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            "--width" => args.width = value.parse().map_err(|e| format!("--width: {e}"))?,
            "--depth" => args.depth = Some(value.parse().map_err(|e| format!("--depth: {e}"))?),
            "--budget" => args.budget = value.parse().map_err(|e| format!("--budget: {e}"))?,
            "--lr" => args.lr = value.parse().map_err(|e| format!("--lr: {e}"))?,
            "--gpu-batch" => {
                args.gpu_batch = value.parse().map_err(|e| format!("--gpu-batch: {e}"))?
            }
            "--alpha" => args.alpha = value.parse().map_err(|e| format!("--alpha: {e}"))?,
            "--beta" => args.beta = value.parse().map_err(|e| format!("--beta: {e}"))?,
            "--kappa" => args.kappa = value.parse().map_err(|e| format!("--kappa: {e}"))?,
            "--ckpt-dir" => args.ckpt_dir = Some(value.clone()),
            "--ckpt-interval" => {
                args.ckpt_interval = value.parse().map_err(|e| format!("--ckpt-interval: {e}"))?;
                if args.ckpt_interval <= 0.0 || !args.ckpt_interval.is_finite() {
                    return Err("--ckpt-interval must be positive and finite".into());
                }
            }
            "--ckpt-retain" => {
                args.ckpt_retain = value.parse().map_err(|e| format!("--ckpt-retain: {e}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: hetero-train [--dataset covtype|w8a|delicious|real-sim] \\\n\
                 \t[--algorithm {ALGORITHMS}] \\\n\
                 \t[--engine {ENGINES}] [--scale F] [--width N] [--depth N] [--budget S] \\\n\
                 \t[--lr F] [--gpu-batch N] [--alpha F] [--beta F] [--kappa F] \\\n\
                 \t[--ckpt-dir DIR] [--ckpt-interval S] [--ckpt-retain N] [--resume] \\\n\
                 \t[--seed N] [--json]"
            );
            std::process::exit(if e == "help" { 0 } else { 2 });
        }
    };

    let stats = args.dataset.stats();
    let dataset = args
        .dataset
        .generate(args.scale.clamp(1e-6, 1.0), args.seed);
    let depth = args.depth.unwrap_or(stats.hidden_layers);
    let spec = MlpSpec {
        input_dim: dataset.features(),
        hidden: vec![args.width; depth],
        classes: dataset.num_classes(),
        activation: Activation::Sigmoid,
        loss: if stats.multilabel {
            LossKind::MultiLabelBce
        } else {
            LossKind::SoftmaxCrossEntropy
        },
    };
    eprintln!(
        "{}: {} examples × {} features, {} classes | {} hidden layers × {} units | {}",
        dataset.name,
        dataset.len(),
        dataset.features(),
        dataset.num_classes(),
        depth,
        args.width,
        args.algorithm.label()
    );

    let n = dataset.len();
    let gpu_max = args.gpu_batch.min(n.max(64));
    let train = TrainConfig {
        init: hetero_nn::InitScheme::XavierSigmoid,
        algorithm: args.algorithm,
        lr: args.lr,
        lr_scaling: LrScaling::Sqrt {
            ref_batch: 1,
            max_lr: 0.5,
        },
        gpu_batch: gpu_max,
        adaptive: AdaptiveParams {
            alpha: args.alpha,
            beta: args.beta,
            cpu_min_batch: 56,
            cpu_max_batch: 56 * 256,
            gpu_min_batch: (gpu_max / 16).max(16),
            gpu_max_batch: gpu_max,
        },
        time_budget: args.budget,
        staleness_discount: args.kappa,
        eval_interval: args.budget / 20.0,
        seed: args.seed,
        ..TrainConfig::default()
    };

    // Crash-consistency checkpointing, when a directory was given.
    let ckpt = match &args.ckpt_dir {
        Some(dir) => Checkpointer::new(CkptConfig {
            dir: std::path::PathBuf::from(dir),
            interval: args.ckpt_interval,
            retain: args.ckpt_retain.max(1),
            resume: args.resume,
        })
        .unwrap_or_else(|e| {
            eprintln!("checkpoint error: {e}");
            std::process::exit(2);
        }),
        None => Checkpointer::disabled(),
    };
    if args.resume {
        match ckpt.latest_path() {
            Some(p) => eprintln!("resuming from {}", p.display()),
            None => eprintln!("--resume: no valid checkpoint found, starting fresh"),
        }
    }
    let ctx = RunCtx {
        ckpt,
        ..RunCtx::default()
    };

    let result = match args.engine {
        Engine::Sim => {
            let engine = SimEngine::new(SimEngineConfig::paper_hardware(spec, train))
                .unwrap_or_else(|e| {
                    eprintln!("config error: {e}");
                    std::process::exit(2);
                });
            engine.run_with(&dataset, &ctx)
        }
        Engine::Threads => {
            let threads = std::thread::available_parallelism()
                .map(|v| v.get().saturating_sub(2).max(2))
                .unwrap_or(4);
            let engine = ThreadedEngine::new(ThreadedEngineConfig {
                spec,
                train,
                cpu_threads: threads,
                gpu_perf: GpuModel::v100(),
                gpu_workers: 1,
                fault_plan: FaultPlan::none(),
            })
            .unwrap_or_else(|e| {
                eprintln!("config error: {e}");
                std::process::exit(2);
            });
            engine.run_with(Arc::new(dataset), &ctx)
        }
    };

    if let Some(p) = ctx.ckpt.latest_path() {
        eprintln!("resumable from {}", p.display());
    }
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serializable result")
        );
    } else {
        println!(
            "loss {:.5} -> {:.5} (min {:.5}) | {:.2} epochs in {:.3}s",
            result.initial_loss(),
            result.final_loss(),
            result.min_loss(),
            result.epochs,
            result.duration
        );
        for w in result.workers.iter().filter(|w| w.batches > 0) {
            println!(
                "  {:?}: {} batches / {} examples / {:.0} updates (final batch {})",
                w.kind, w.batches, w.examples, w.updates, w.final_batch
            );
        }
        if result.total_updates() > 0.0 {
            println!(
                "  CPU update share: {:.1}%",
                100.0 * result.cpu_update_fraction()
            );
        }
    }
}
