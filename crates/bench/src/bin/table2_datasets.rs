//! Table II — dataset statistics.
//!
//! Prints the paper's full-size dataset table, then the actual statistics
//! of the synthetic stand-ins generated at the current `HETERO_SCALE`.

use hetero_bench::Harness;
use hetero_data::PaperDataset;

fn main() {
    println!("# Table II: datasets (paper, full size)");
    println!("dataset,examples,features,classes,multilabel,hidden_layers");
    for p in PaperDataset::all() {
        let s = p.stats();
        println!(
            "{},{},{},{},{},{}",
            s.name, s.examples, s.features, s.classes, s.multilabel, s.hidden_layers
        );
    }

    println!();
    println!(
        "# generated stand-ins at HETERO_SCALE, floored at {} examples",
        hetero_data::task::MIN_ROWS
    );
    println!("dataset,examples,features,classes,sparsity");
    for p in PaperDataset::all() {
        let h = Harness::new(p);
        let d = &h.data;
        println!(
            "{},{},{},{},{:.4}",
            d.name,
            d.len(),
            d.features(),
            d.num_classes(),
            1.0 - d.density_at_most(1.0).unwrap_or(1.0)
        );
        eprintln!("{}", h.task.line(d));
    }
}
