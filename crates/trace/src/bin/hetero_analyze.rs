//! `hetero-analyze`: turn a JSONL trace export into a critical-path /
//! straggler / decision-ledger report.
//!
//! ```text
//! hetero-analyze results/trace_run.jsonl            # human report
//! hetero-analyze results/trace_run.jsonl --json     # RunAnalysis as JSON
//! hetero-analyze results/trace_run.jsonl -o report.txt
//! ```
//!
//! The input is the file written by `hetero_trace::export::write_jsonl`
//! (e.g. `results/trace_run.jsonl` from `cargo run --example trace_run`).

use std::process::ExitCode;

use hetero_trace::analyze::{analyze_events, parse_jsonl, render_report};
use serde::Serialize;

fn usage() -> ExitCode {
    eprintln!("usage: hetero-analyze <trace.jsonl> [--json] [-o <out-file>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut input: Option<String> = None;
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "-o" | "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return usage(),
            },
            "-h" | "--help" => {
                println!("usage: hetero-analyze <trace.jsonl> [--json] [-o <out-file>]");
                return ExitCode::SUCCESS;
            }
            _ if input.is_none() && !a.starts_with('-') => input = Some(a),
            _ => return usage(),
        }
    }
    let Some(input) = input else { return usage() };

    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hetero-analyze: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match parse_jsonl(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("hetero-analyze: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = analyze_events(&events);
    let rendered = if json {
        serde_json::to_string(&analysis.to_value()).expect("analysis serializes")
    } else {
        render_report(&analysis)
    };
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &rendered) {
                eprintln!("hetero-analyze: cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("hetero-analyze: wrote {p}");
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}
