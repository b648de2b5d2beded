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
//! `--dataset` and `--scale` name a `Task`: the scale must be in (0, 1]
//! and is raised to 4 096 rows, and the net is `--depth` (default: the
//! paper's) sigmoid layers of `--width` units. The figure harness trains
//! the same task, and the run is sized by the same rule
//! (`TrainConfig::sized`: a GPU batch of at most an eighth of an epoch).
//!
//! With `--ckpt-dir` the run publishes crash-consistent checkpoints every
//! `--ckpt-interval` seconds (virtual for sim, wall for threads) and
//! `--resume` continues from the newest valid generation in that directory.
//!
//! Both engines run on this host's CPU lanes (every hardware thread but
//! two, at least 2; the stderr header names the count) with the paper's
//! 1–64 examples per lane: the threaded engine starts that many lanes, and
//! the sim models that many threads at the paper's per-thread speeds. The
//! figure harness in `crates/bench` still runs the paper's 56-thread host.
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
    /// The dataset, scale and net the flags name.
    task: Task,
    engine: Engine,
    /// What the flags set of `TrainConfig::default()`.
    train: TrainConfig,
    ckpt_dir: Option<String>,
    ckpt_interval: f64,
    ckpt_retain: usize,
    resume: bool,
    json: bool,
}

/// `value` parsed as `flag`'s number.
fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse `argv`, the arguments after the program name.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut dataset = PaperDataset::Covtype;
    let mut scale = 0.005;
    let (mut width, mut depth) = (None, None);
    let mut args = Args {
        task: Task::new(dataset, scale)?,
        engine: Engine::Sim,
        train: TrainConfig {
            time_budget: 0.2,
            ..TrainConfig::default()
        },
        ckpt_dir: None,
        ckpt_interval: 0.05,
        ckpt_retain: 2,
        resume: false,
        json: false,
    };
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
                dataset = PaperDataset::from_name(value)
                    .ok_or_else(|| format!("unknown dataset '{value}'"))?;
            }
            "--algorithm" => {
                args.train.algorithm = match value.as_str() {
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
            "--scale" => scale = num(flag, value)?,
            "--width" => width = Some(num(flag, value)?),
            "--depth" => depth = Some(num(flag, value)?),
            "--budget" => args.train.time_budget = num(flag, value)?,
            "--lr" => args.train.lr = num(flag, value)?,
            "--gpu-batch" => args.train.gpu_batch = num(flag, value)?,
            "--alpha" => args.train.adaptive.alpha = num(flag, value)?,
            "--beta" => args.train.adaptive.beta = num(flag, value)?,
            "--kappa" => args.train.staleness_discount = num(flag, value)?,
            "--ckpt-dir" => args.ckpt_dir = Some(value.clone()),
            "--ckpt-interval" => {
                args.ckpt_interval = num(flag, value)?;
                if args.ckpt_interval <= 0.0 || !args.ckpt_interval.is_finite() {
                    return Err("--ckpt-interval must be positive and finite".into());
                }
            }
            "--ckpt-retain" => args.ckpt_retain = num(flag, value)?,
            "--seed" => args.train.seed = num(flag, value)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    args.task = Task::new(dataset, scale).map_err(|e| format!("--scale: {e}"))?;
    args.task.width = width.unwrap_or(args.task.width);
    args.task.depth = depth.unwrap_or(args.task.depth);
    Ok(args)
}

/// A run's engine and its configuration.
enum EngineConfig {
    Sim(SimEngineConfig),
    Threads(ThreadedEngineConfig),
}

/// The engine `args` names on `lanes` CPU lanes, its training sized for
/// an `n`-row dataset.
fn engine_config(args: &Args, spec: MlpSpec, n: usize, lanes: usize) -> EngineConfig {
    let train = args.train.clone().sized(n, lanes);
    match args.engine {
        Engine::Sim => EngineConfig::Sim(SimEngineConfig {
            cpu: CpuModel {
                threads: lanes,
                hw_threads: lanes,
                ..CpuModel::xeon_pair()
            },
            ..SimEngineConfig::paper_hardware(spec, train)
        }),
        Engine::Threads => EngineConfig::Threads(ThreadedEngineConfig {
            spec,
            train,
            cpu_threads: lanes,
            gpu_perf: GpuModel::v100(),
            gpu_workers: 1,
            fault_plan: FaultPlan::none(),
        }),
    }
}

/// The engine, or exit 2 naming what is wrong with its config.
fn or_exit<T>(engine: Result<T, String>) -> T {
    engine.unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
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

    let dataset = args.task.generate(args.train.seed);
    // Every hardware thread but the coordinator's and the GPU worker's.
    let lanes = std::thread::available_parallelism()
        .map(|v| v.get().saturating_sub(2).max(2))
        .unwrap_or(4);
    eprintln!(
        "{} | {} | {} CPU lanes",
        args.task.line(&dataset),
        args.train.algorithm.label(),
        lanes
    );
    let config = engine_config(&args, args.task.net(&dataset), dataset.len(), lanes);

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

    let result = match config {
        EngineConfig::Sim(cfg) => or_exit(SimEngine::new(cfg)).run_with(&dataset, &ctx),
        EngineConfig::Threads(cfg) => {
            or_exit(ThreadedEngine::new(cfg)).run_with(Arc::new(dataset), &ctx)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn config(flags: &str, lanes: usize) -> EngineConfig {
        let argv: Vec<String> = flags.split_whitespace().map(String::from).collect();
        let spec = MlpSpec {
            input_dim: 8,
            hidden: vec![4],
            classes: 2,
            activation: Activation::Sigmoid,
            loss: LossKind::SoftmaxCrossEntropy,
        };
        engine_config(&parse_args(&argv).unwrap(), spec, 10_000, lanes)
    }

    #[test]
    fn both_engines_run_on_the_same_lanes() {
        for lanes in [2, 6] {
            let EngineConfig::Sim(s) = config("--engine sim", lanes) else {
                panic!("--engine sim built another engine");
            };
            let EngineConfig::Threads(t) = config("--engine threads", lanes) else {
                panic!("--engine threads built another engine");
            };
            assert_eq!((s.cpu.threads, s.cpu.hw_threads), (lanes, lanes));
            assert_eq!(t.cpu_threads, lanes);
            assert_eq!(s.train, t.train);
            let a = t.train.adaptive;
            assert_eq!((a.cpu_min_batch, a.cpu_max_batch), (lanes, 64 * lanes));
            // The GPU is capped at an eighth of the 10 000-row epoch.
            assert_eq!((a.gpu_min_batch, a.gpu_max_batch), (78, 1250));
        }
    }

    #[test]
    fn every_gpu_batch_is_at_most_an_eighth_of_an_epoch_at_default_flags() {
        for name in ["covtype", "w8a", "delicious", "real-sim"] {
            let data = parse_args(&["--dataset".into(), name.into()])
                .unwrap()
                .task
                .generate(42);
            let n = data.len();
            for engine in ["sim", "threads"] {
                let flags = format!("--dataset {name} --engine {engine}");
                let argv: Vec<String> = flags.split_whitespace().map(String::from).collect();
                let args = parse_args(&argv).unwrap();
                let train = match engine_config(&args, args.task.net(&data), n, 2) {
                    EngineConfig::Sim(s) => s.train,
                    EngineConfig::Threads(t) => t.train,
                };
                let a = train.adaptive;
                assert!(
                    train.gpu_batch <= n / 8 && a.gpu_max_batch <= n / 8,
                    "{flags}: GPU cap {} / {} on {n} rows",
                    train.gpu_batch,
                    a.gpu_max_batch
                );
                assert!(
                    a.gpu_min_batch >= 32,
                    "{flags}: GPU floor {}",
                    a.gpu_min_batch
                );
            }
        }
    }

    #[test]
    fn a_scale_outside_the_unit_interval_is_refused() {
        for bad in ["0", "5", "NaN", "-1"] {
            let argv = vec!["--scale".to_string(), bad.to_string()];
            let e = parse_args(&argv).err().expect("refused");
            assert!(e.contains("--scale"), "{bad}: {e}");
        }
    }

    #[test]
    fn gpu_cap_below_the_floor_is_accepted() {
        let EngineConfig::Sim(s) = config("--gpu-batch 8", 2) else {
            panic!("--engine sim built another engine");
        };
        assert_eq!((s.train.adaptive.gpu_min_batch, s.train.gpu_batch), (8, 8));
        assert!(SimEngine::new(s).is_ok());
    }
}
