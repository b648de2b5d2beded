//! LIBSVM text-format reader/writer.
//!
//! Format per line: `label(s) index:value index:value ...` where indices are
//! 1-based and strictly increasing. Multi-label files (e.g. `delicious`)
//! carry comma-separated label lists: `3,7,12 5:0.3 ...`.
//!
//! When the real paper datasets are present on disk they can be loaded with
//! [`parse_file`], then stored dense ([`densify`], as the paper trains) or
//! as CSR ([`sparsify`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use hetero_tensor::Matrix;

use crate::dataset::{DenseDataset, Labels};

/// Parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "libsvm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// One parsed example before densification.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseExample {
    /// Label indices (length 1 for single-label data). Raw values as they
    /// appear in the file; negative labels (−1) are preserved.
    pub labels: Vec<i64>,
    /// (0-based feature index, value) pairs in ascending index order.
    pub features: Vec<(usize, f32)>,
}

/// Parse LIBSVM text into sparse examples.
pub fn parse_reader<R: Read>(reader: R) -> Result<Vec<SparseExample>, ParseError> {
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| ParseError {
            line: lineno + 1,
            message: format!("io error: {e}"),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace().peekable();
        // An all-negative multi-label row is written with an *empty* label
        // field, so the first token on such a line is already a feature
        // (`index:value`). Only a token without ':' is a label list.
        let labels: Vec<i64> = match parts.peek() {
            Some(tok) if !tok.contains(':') => {
                let label_tok = parts.next().expect("peeked");
                label_tok
                    .split(',')
                    .map(|t| {
                        // Accept float-formatted labels like "1.0".
                        t.parse::<i64>()
                            .or_else(|_| t.parse::<f64>().map(|f| f as i64))
                            .map_err(|_| ParseError {
                                line: lineno + 1,
                                message: format!("bad label '{t}'"),
                            })
                    })
                    .collect::<Result<_, _>>()?
            }
            Some(_) => Vec::new(),
            None => {
                return Err(ParseError {
                    line: lineno + 1,
                    message: "missing label".into(),
                })
            }
        };
        let mut features = Vec::new();
        let mut last_idx: i64 = -1;
        for tok in parts {
            let (idx, val) = tok.split_once(':').ok_or_else(|| ParseError {
                line: lineno + 1,
                message: format!("bad feature token '{tok}'"),
            })?;
            let idx: usize = idx.parse().map_err(|_| ParseError {
                line: lineno + 1,
                message: format!("bad feature index '{idx}'"),
            })?;
            if idx == 0 {
                return Err(ParseError {
                    line: lineno + 1,
                    message: "feature indices are 1-based".into(),
                });
            }
            let val: f32 = val.parse().map_err(|_| ParseError {
                line: lineno + 1,
                message: format!("bad feature value '{val}'"),
            })?;
            if (idx as i64) <= last_idx {
                return Err(ParseError {
                    line: lineno + 1,
                    message: format!("non-increasing feature index {idx}"),
                });
            }
            last_idx = idx as i64;
            features.push((idx - 1, val));
        }
        out.push(SparseExample { labels, features });
    }
    Ok(out)
}

/// Parse a LIBSVM file from disk.
pub fn parse_file(path: impl AsRef<Path>) -> Result<Vec<SparseExample>, ParseError> {
    let f = std::fs::File::open(path.as_ref()).map_err(|e| ParseError {
        line: 0,
        message: format!("cannot open {}: {e}", path.as_ref().display()),
    })?;
    parse_reader(f)
}

/// Densify sparse examples into a [`DenseDataset`].
///
/// `multilabel` selects the label representation. Single-label files map
/// raw labels to contiguous class ids in sorted order (so `{-1, +1}`
/// becomes `{0, 1}`); multi-label files map raw labels to columns the same
/// way. `min_features` pads the feature dimension (files may omit trailing
/// all-zero columns).
pub fn densify(
    name: &str,
    examples: &[SparseExample],
    multilabel: bool,
    min_features: usize,
) -> DenseDataset {
    let d = examples
        .iter()
        .flat_map(|e| e.features.iter().map(|&(i, _)| i + 1))
        .max()
        .unwrap_or(0)
        .max(min_features);
    let mut x = Matrix::zeros(examples.len(), d);
    for (row, ex) in examples.iter().enumerate() {
        for &(i, v) in &ex.features {
            x.set(row, i, v);
        }
    }
    // Contiguous class-id mapping.
    let mut raw: Vec<i64> = examples
        .iter()
        .flat_map(|e| e.labels.iter().copied())
        .collect();
    raw.sort_unstable();
    raw.dedup();
    let class_of = |l: i64| raw.binary_search(&l).expect("label seen during scan") as u32;
    let labels = if multilabel {
        let mut y = Matrix::zeros(examples.len(), raw.len());
        for (row, ex) in examples.iter().enumerate() {
            for &l in &ex.labels {
                y.set(row, class_of(l) as usize, 1.0);
            }
        }
        Labels::MultiHot(y)
    } else {
        Labels::Classes(
            examples
                .iter()
                .map(|e| {
                    assert_eq!(e.labels.len(), 1, "multi-label line in single-label mode");
                    class_of(e.labels[0])
                })
                .collect(),
        )
    };
    DenseDataset::new(name, x, labels)
}

/// Build a CSR-stored [`DenseDataset`] straight from parsed examples — the
/// sparse counterpart of [`densify`]: same label mapping (contiguous class
/// ids in sorted raw-label order) and the same `min_features` padding, but
/// the feature matrix goes directly into CSR, so the dense `examples ×
/// features` matrix is **never materialized** (for real-sim that is the
/// difference between ~5 GB dense and ~50 MB sparse).
pub fn sparsify(
    name: &str,
    examples: &[SparseExample],
    multilabel: bool,
    min_features: usize,
) -> DenseDataset {
    let d = examples
        .iter()
        .flat_map(|e| e.features.iter().map(|&(i, _)| i + 1))
        .max()
        .unwrap_or(0)
        .max(min_features);
    let x = hetero_tensor::CsrMatrix::from_row_entries(
        d,
        examples
            .iter()
            .map(|e| e.features.iter().map(|&(i, v)| (i as u32, v))),
    );
    // Contiguous class-id mapping, identical to `densify`.
    let mut raw: Vec<i64> = examples
        .iter()
        .flat_map(|e| e.labels.iter().copied())
        .collect();
    raw.sort_unstable();
    raw.dedup();
    let class_of = |l: i64| raw.binary_search(&l).expect("label seen during scan") as u32;
    let labels = if multilabel {
        let mut y = Matrix::zeros(examples.len(), raw.len());
        for (row, ex) in examples.iter().enumerate() {
            for &l in &ex.labels {
                y.set(row, class_of(l) as usize, 1.0);
            }
        }
        Labels::MultiHot(y)
    } else {
        Labels::Classes(
            examples
                .iter()
                .map(|e| {
                    assert_eq!(e.labels.len(), 1, "multi-label line in single-label mode");
                    class_of(e.labels[0])
                })
                .collect(),
        )
    };
    DenseDataset::from_csr(name, x, labels)
}

/// Write a dataset back to LIBSVM text (zeros omitted).
pub fn write<W: Write>(dataset: &DenseDataset, mut w: W) -> std::io::Result<()> {
    for i in 0..dataset.len() {
        match &dataset.labels {
            Labels::Classes(v) => write!(w, "{}", v[i])?,
            Labels::MultiHot(m) => {
                let mut first = true;
                for j in 0..m.cols() {
                    if m.get(i, j) > 0.5 {
                        if first {
                            write!(w, "{j}")?;
                            first = false;
                        } else {
                            write!(w, ",{j}")?;
                        }
                    }
                }
                // A row with no positive labels gets an *empty* label
                // field (the line starts at its first feature token);
                // writing a literal `0` would invent a phantom label class
                // on round-trip and flip a label bit.
            }
        }
        dataset.try_for_each_nonzero(i, |j, v| write!(w, " {}:{}", j + 1, v))?;
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_tensor::CsrMatrix;

    #[test]
    fn parse_single_label() {
        let text = "+1 1:0.5 3:1.5\n-1 2:2.0\n";
        let ex = parse_reader(text.as_bytes()).unwrap();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].labels, vec![1]);
        assert_eq!(ex[0].features, vec![(0, 0.5), (2, 1.5)]);
        assert_eq!(ex[1].labels, vec![-1]);
    }

    #[test]
    fn parse_multilabel() {
        let text = "3,7,12 1:1.0 5:0.25\n";
        let ex = parse_reader(text.as_bytes()).unwrap();
        assert_eq!(ex[0].labels, vec![3, 7, 12]);
        assert_eq!(ex[0].features, vec![(0, 1.0), (4, 0.25)]);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# header\n\n1 1:1\n";
        assert_eq!(parse_reader(text.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn parse_rejects_bad_tokens() {
        assert!(parse_reader("1 abc".as_bytes()).is_err());
        assert!(parse_reader("x 1:1".as_bytes()).is_err());
        assert!(parse_reader("1 0:1".as_bytes()).is_err()); // 0 index
        assert!(parse_reader("1 2:1 2:2".as_bytes()).is_err()); // non-increasing
        assert!(parse_reader("1 3:1 2:2".as_bytes()).is_err());
    }

    #[test]
    fn parse_accepts_float_labels() {
        let ex = parse_reader("1.0 1:2\n".as_bytes()).unwrap();
        assert_eq!(ex[0].labels, vec![1]);
    }

    #[test]
    fn densify_single_label_maps_classes() {
        let ex = parse_reader("+1 1:1\n-1 2:1\n+1 3:1\n".as_bytes()).unwrap();
        let d = densify("t", &ex, false, 0);
        assert_eq!(d.features(), 3);
        assert_eq!(d.num_classes(), 2);
        match &d.labels {
            Labels::Classes(v) => assert_eq!(v, &vec![1, 0, 1]), // -1 -> 0, +1 -> 1
            _ => panic!(),
        }
        let (x, _) = d.batch(1, 2);
        assert_eq!(x.row(0)[..2], [0.0, 1.0]);
    }

    #[test]
    fn densify_multilabel_builds_multihot() {
        let ex = parse_reader("3,7 1:1\n7 2:1\n".as_bytes()).unwrap();
        let d = densify("t", &ex, true, 0);
        assert_eq!(d.num_classes(), 2); // labels {3, 7}
        match &d.labels {
            Labels::MultiHot(m) => {
                assert_eq!(m.get(0, 0), 1.0); // label 3
                assert_eq!(m.get(0, 1), 1.0); // label 7
                assert_eq!(m.get(1, 0), 0.0);
                assert_eq!(m.get(1, 1), 1.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn sparsify_matches_densify() {
        let text = "+1 1:0.5 3:1.5\n-1 2:2.0\n+1 1:1.0 4:0.25\n";
        let ex = parse_reader(text.as_bytes()).unwrap();
        let dense = densify("t", &ex, false, 6);
        let sparse = sparsify("t", &ex, false, 6);
        assert_eq!(sparse.features(), 6);
        assert_eq!(sparse, dense);
        assert_eq!(sparse.csr_store().map(CsrMatrix::nnz), Some(5));
    }

    #[test]
    fn sparsify_multilabel_matches_densify() {
        let ex = parse_reader("3,7 1:1\n7 2:1\n".as_bytes()).unwrap();
        let dense = densify("t", &ex, true, 0);
        let sparse = sparsify("t", &ex, true, 0);
        assert!(sparse.csr_store().is_some());
        assert_eq!(sparse, dense);
    }

    #[test]
    fn densify_pads_min_features() {
        let ex = parse_reader("1 1:1\n".as_bytes()).unwrap();
        let d = densify("t", &ex, false, 10);
        assert_eq!(d.features(), 10);
    }

    #[test]
    fn write_parse_roundtrip() {
        let ex = parse_reader("+1 1:0.5 3:1.5\n-1 2:2\n".as_bytes()).unwrap();
        let d = densify("t", &ex, false, 0);
        let mut buf = Vec::new();
        write(&d, &mut buf).unwrap();
        let ex2 = parse_reader(buf.as_slice()).unwrap();
        let d2 = densify("t", &ex2, false, d.features());
        assert_eq!(d, d2);
    }

    #[test]
    fn write_parse_roundtrip_all_negative_multilabel_row() {
        // Row 1 has no positive labels: the writer must emit an empty
        // label field, and the round-trip must neither invent a label
        // class nor set a label bit on that row.
        let mut y = Matrix::zeros(3, 2);
        y.set(0, 0, 1.0);
        y.set(2, 1, 1.0);
        let mut x = Matrix::zeros(3, 2);
        x.set(0, 0, 0.5);
        x.set(1, 1, 2.0);
        x.set(2, 0, 1.5);
        let d = DenseDataset::new("t", x, Labels::MultiHot(y));
        let mut buf = Vec::new();
        write(&d, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(
            !text.lines().nth(1).unwrap().starts_with('0'),
            "phantom label written: {text:?}"
        );
        let ex2 = parse_reader(buf.as_slice()).unwrap();
        assert_eq!(ex2.len(), 3);
        assert!(ex2[1].labels.is_empty());
        let d2 = densify("t", &ex2, true, d.features());
        assert_eq!(d2.num_classes(), 2, "round-trip invented a label class");
        match &d2.labels {
            Labels::MultiHot(m) => {
                assert_eq!(m.get(0, 0), 1.0);
                assert_eq!(m.get(1, 0), 0.0);
                assert_eq!(m.get(1, 1), 0.0);
                assert_eq!(m.get(2, 1), 1.0);
            }
            _ => panic!(),
        }
        assert_eq!(d.batch(0, 3).0, d2.batch(0, 3).0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hetero_data_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.libsvm");
        std::fs::write(&path, "1 1:1 2:2\n0 2:1\n").unwrap();
        let ex = parse_file(&path).unwrap();
        assert_eq!(ex.len(), 2);
        assert!(parse_file(dir.join("missing.libsvm")).is_err());
    }
}
