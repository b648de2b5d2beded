//! `hetero-benchmark` — see `README.md` beside this crate.
//!
//! ```text
//! hetero-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! hetero-benchmark suite   [--seed N] [--seconds S] [--out FILE]
//! hetero-benchmark repeat  [--seed N] [--seconds S]
//! hetero-benchmark compare <a.json> <b.json>
//! hetero-benchmark manifest
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use hetero_benchmark::report::{self, CompareMode};
use hetero_benchmark::{names, run, workloads};

const USAGE: &str = "usage:
  hetero-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
      run one workload; the last stdout line is the JSON result
  hetero-benchmark suite [--seed N] [--seconds S] [--out FILE]
      run every workload (one process each), write a set file
      (default benchmark/results/latest.json)
  hetero-benchmark repeat [--seed N] [--seconds S]
      run the suite twice and hold the two sets against the bounds;
      writes benchmark/results/{latest,repeat}.json
  hetero-benchmark compare <a.json> <b.json>
      hold set b (the change) against set a (the parent)
  hetero-benchmark manifest
      print BENCHMARK.json as names.rs and workloads.rs define it
--trials K overrides the trial count of a run (tests and debugging only)";

/// Flags shared by the subcommands, checked where they enter the program.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trials: Option<usize>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: names::RUN_SECONDS,
        trace: false,
        trials: None,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} wants a whole number, got `{v}`"))
        };
        match arg.as_str() {
            "--workload" => f.workload = Some(value("--workload")?),
            "--seed" => f.seed = number("--seed", value("--seed")?)?,
            "--seconds" => f.seconds = number("--seconds", value("--seconds")?)?,
            "--trials" => f.trials = Some(number("--trials", value("--trials")?)?.max(1) as usize),
            "--trace" => {
                f.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("suite" | "repeat" | "compare" | "manifest")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let f = parse(rest)?;
    let failed = ExitCode::from(1);
    match command {
        "manifest" => print!("{}", report::manifest()),
        "run" => {
            let name = f.workload.ok_or("--workload is required")?;
            let workload = workloads::by_name(&name).ok_or_else(|| {
                let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; known: {}", known.join(", "))
            })?;
            let r = run::run(&run::RunOptions {
                workload,
                seed: f.seed,
                seconds: f.seconds,
                trace: f.trace,
                trials: f.trials,
            });
            print!("{}", report::render(&r));
            println!("{}", report::result_line(&r));
        }
        "suite" => {
            let set = report::run_suite(f.seed, f.seconds, f.trials)?;
            let path = f
                .out
                .unwrap_or_else(|| report::results_dir().join("latest.json"));
            report::write_json(&path, &set)?;
            println!("wrote {}", path.display());
            if set.runs.iter().any(|r| !r.correct) {
                return Ok(failed);
            }
        }
        "repeat" => {
            let first = report::run_suite(f.seed, f.seconds, f.trials)?;
            let second = report::run_suite(f.seed, f.seconds, f.trials)?;
            let cmp = report::compare_sets(&first, &second, CompareMode::Repeat);
            report::write_json(&report::results_dir().join("latest.json"), &second)?;
            report::write_json(&report::results_dir().join("repeat.json"), &cmp)?;
            print!("{}", cmp.render());
            if !cmp.ok() {
                return Ok(failed);
            }
        }
        "compare" => {
            let [a, b] = f.positional.as_slice() else {
                return Err("compare wants exactly two set files".into());
            };
            let a = report::load_set(a.as_ref())?;
            let b = report::load_set(b.as_ref())?;
            let cmp = report::compare_sets(&a, &b, CompareMode::Regression);
            print!("{}", cmp.render());
            if !cmp.ok() {
                return Ok(failed);
            }
        }
        _ => unreachable!("command list matched above"),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hetero-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
