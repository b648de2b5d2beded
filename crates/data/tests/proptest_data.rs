//! Property tests for dataset handling: LIBSVM round trips, shuffling,
//! splitting, and the batch scheduler.

use hetero_data::{libsvm, BatchScheduler, DenseDataset, Labels, SynthConfig};
use hetero_tensor::Matrix;
use proptest::prelude::*;

fn arb_dense(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseDataset> {
    (1..=max_rows, 1..=max_cols, any::<u64>()).prop_map(|(rows, cols, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        // Quantized values that survive the text round trip exactly.
        let x = Matrix::from_fn(rows, cols, |_, _| {
            let v = (next() % 17) as f32;
            if v < 5.0 {
                0.0
            } else {
                v * 0.25
            }
        });
        let labels = Labels::Classes((0..rows).map(|_| (next() % 3) as u32).collect());
        DenseDataset::new("prop", x, labels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LIBSVM write → parse → densify reproduces the feature matrix and
    /// the label sequence exactly.
    #[test]
    fn libsvm_roundtrip_exact(d in arb_dense(20, 12)) {
        let mut buf = Vec::new();
        libsvm::write(&d, &mut buf).unwrap();
        let parsed = libsvm::parse_reader(buf.as_slice()).unwrap();
        let back = libsvm::densify("prop", &parsed, false, d.features());
        prop_assert_eq!(back.batch(0, back.len()).0, d.batch(0, d.len()).0);
        // Labels are remapped to contiguous ids in sorted order; since ours
        // are already 0..k, they must round-trip identically.
        match (&back.labels, &d.labels) {
            (Labels::Classes(a), Labels::Classes(b)) => {
                // Only identical when all classes appear; otherwise the
                // remap compresses ids. Check consistency of partition.
                for (x, y) in a.iter().zip(b.iter()) {
                    for (x2, y2) in a.iter().zip(b.iter()) {
                        prop_assert_eq!(x == x2, y == y2, "label partition changed");
                    }
                }
            }
            _ => prop_assert!(false, "label kind changed"),
        }
    }

    /// Shuffling preserves the multiset of (row, label) pairs.
    #[test]
    fn shuffle_is_permutation(d in arb_dense(30, 6), seed in any::<u64>()) {
        let mut shuffled = d.clone();
        shuffled.shuffle(seed);
        prop_assert_eq!(shuffled.len(), d.len());
        // Sort row signatures and compare.
        let sig = |ds: &DenseDataset| {
            let x = ds.batch(0, ds.len()).0;
            let mut rows: Vec<Vec<u32>> = (0..ds.len())
                .map(|i| {
                    let mut v: Vec<u32> = x.row(i).iter().map(|f| f.to_bits()).collect();
                    if let Labels::Classes(c) = &ds.labels {
                        v.push(c[i]);
                    }
                    v
                })
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(sig(&shuffled), sig(&d));
    }

    /// Split fractions always partition the dataset.
    #[test]
    fn split_partitions(d in arb_dense(40, 4), frac in 0.0f32..0.9) {
        let (train, test) = d.split(frac);
        prop_assert_eq!(train.len() + test.len(), d.len());
        prop_assert_eq!(train.features(), d.features());
        prop_assert_eq!(test.features(), d.features());
    }

    /// The scheduler's fractional epoch counter equals served/n exactly.
    #[test]
    fn scheduler_epoch_fraction(n in 1usize..200, reqs in prop::collection::vec(1usize..50, 1..40)) {
        let mut s = BatchScheduler::new(n, None);
        let mut served = 0u64;
        for r in reqs {
            let b = s.next_batch(r).unwrap();
            served += b.len() as u64;
        }
        prop_assert_eq!(s.examples_served(), served);
        prop_assert!((s.epochs_elapsed() - served as f64 / n as f64).abs() < 1e-12);
    }

    /// Synthetic multilabel generation: label matrix is 0/1 and every
    /// example has at least one positive.
    #[test]
    fn multilabel_wellformed(seed in any::<u64>(), classes in 2usize..30) {
        let mut cfg = SynthConfig::small(50, 8, classes, seed);
        cfg.avg_labels = Some(2.0);
        let d = cfg.generate();
        match &d.labels {
            Labels::MultiHot(y) => {
                for i in 0..y.rows() {
                    let mut any = false;
                    for j in 0..y.cols() {
                        let v = y.get(i, j);
                        prop_assert!(v == 0.0 || v == 1.0);
                        any |= v == 1.0;
                    }
                    prop_assert!(any, "example {i} without labels");
                }
            }
            _ => prop_assert!(false, "expected multihot"),
        }
    }
}
