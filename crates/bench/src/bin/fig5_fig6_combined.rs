//! Figures 5 and 6 from a single set of runs.
//!
//! Both figures plot the same experiments — normalized loss against
//! *time* (Fig. 5) and against *epochs* (Fig. 6) — so this binary runs
//! each (dataset × algorithm) cell once and emits both CSVs
//! (`results/fig5.csv`, `results/fig6.csv`) and both SVG sets.
//!
//! Paper shapes Figure 5 must reproduce:
//! - the heterogeneous algorithms (CPU+GPU, Adaptive) reach low loss
//!   fastest;
//! - Hogbatch/Hogwild CPU is orders of magnitude slower per epoch
//!   (236–317×) and barely moves within the budget;
//! - TensorFlow tracks Hogbatch GPU closely. The paper's exception,
//!   `delicious`, where TensorFlow is clearly worse, is not reproduced:
//!   the paper blames TensorFlow's implementation of the multi-label loss,
//!   which this comparator does not have;
//! - Adaptive beats CPU+GPU on `real-sim` (high-dimensional data suffers
//!   more from conflicting updates).
//!
//! Paper shapes Figure 6 must reproduce: small-batch methods make the
//! most progress per epoch; Hogbatch GPU and TensorFlow (largest batches)
//! are the least statistically efficient and overlap almost exactly; the
//! heterogeneous algorithms sit between, with Adaptive above CPU+GPU (its
//! batch mix is closer to uniform). Hogwild CPU is omitted from the
//! paper's figure — it cannot complete the epochs in reasonable time —
//! but its (short) curve is still emitted for completeness.

use std::io::Write;

use hetero_bench::plot::{write_chart, ChartConfig, Series};
use hetero_bench::{normalization_basis, Harness};
use hetero_core::AlgorithmKind;
use hetero_data::PaperDataset;

fn main() {
    std::fs::create_dir_all("results").expect("results dir");
    let mut f5 = std::fs::File::create("results/fig5.csv").expect("fig5 csv");
    let mut f6 = std::fs::File::create("results/fig6.csv").expect("fig6 csv");
    writeln!(f5, "dataset,algorithm,time_s,normalized_loss").unwrap();
    writeln!(f6, "dataset,algorithm,epochs,normalized_loss").unwrap();

    for p in PaperDataset::all() {
        let h = Harness::new(p);
        let dataset = &h.data;
        let results: Vec<_> = AlgorithmKind::all().into_iter().map(|a| h.run(a)).collect();
        let basis = normalization_basis(&results);
        eprintln!(
            "\n== {} | budget {}s (basis loss {:.5}) ==",
            h.task.line(&h.data),
            h.budget,
            basis
        );
        let mut time_series = Vec::new();
        let mut epoch_series = Vec::new();
        for r in &results {
            let curve = r.normalized_curve(basis);
            for pt in &curve {
                writeln!(
                    f5,
                    "{},{},{:.5},{:.5}",
                    dataset.name, r.algorithm, pt.time, pt.loss
                )
                .unwrap();
                writeln!(
                    f6,
                    "{},{},{:.4},{:.5}",
                    dataset.name, r.algorithm, pt.epochs, pt.loss
                )
                .unwrap();
            }
            time_series.push(Series {
                name: r.algorithm.clone(),
                points: curve.iter().map(|pt| (pt.time, pt.loss as f64)).collect(),
            });
            epoch_series.push(Series {
                name: r.algorithm.clone(),
                points: curve.iter().map(|pt| (pt.epochs, pt.loss as f64)).collect(),
            });
            let after_one = r
                .loss_curve
                .iter()
                .find(|pt| pt.epochs >= 1.0)
                .map(|pt| format!("{:.3}x", pt.loss / basis))
                .unwrap_or_else(|| "n/a".into());
            eprintln!(
                "  {:24} final {:7.3}x | reach 1.5x at {:>8} | {:8.2} epochs | loss@1ep {}",
                r.algorithm,
                r.final_loss() / basis,
                r.time_to_loss(basis * 1.5)
                    .map(|t| format!("{t:.3}s"))
                    .unwrap_or_else(|| "never".into()),
                r.epochs,
                after_one
            );
        }
        for (fig, series, xlab) in [
            ("fig5", &time_series, "virtual seconds"),
            ("fig6", &epoch_series, "epochs"),
        ] {
            let cfg = ChartConfig {
                title: format!(
                    "{} — normalized loss vs {} ({})",
                    if fig == "fig5" { "Fig. 5" } else { "Fig. 6" },
                    xlab,
                    dataset.name
                ),
                x_label: xlab.into(),
                y_label: "loss / min loss (log)".into(),
                log_y: true,
                ..ChartConfig::default()
            };
            let path = format!("results/{fig}_{}.svg", dataset.name);
            if write_chart(&path, &cfg, series).unwrap_or(false) {
                eprintln!("  wrote {path}");
            }
        }
    }
}
