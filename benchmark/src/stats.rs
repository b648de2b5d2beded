//! The two estimators every reported number goes through: the plain
//! median, and the interpolated first crossing of a loss curve.

/// Plain median (mean of the two middle values for an even count).
///
/// The issue's noise study found min, p25, and calibration-normalised
/// estimators all *less* repeatable than this on the reference host.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the fastest eighth of the trials (`lower_is_faster`: smallest
/// values; otherwise largest) — at least one trial.
///
/// Every wall-clock metric goes through this instead of the median. The
/// reference host slows the *same instructions* down by anything between 1×
/// and 3× for seconds to minutes at a time (process CPU time tracks wall;
/// nothing the benchmark can sample alongside correlates), so interference
/// only ever *adds* time, and a run's fastest trials are the ones that say
/// most about the program and least about the neighbours. Over ten runs of
/// each workload the spread of this estimator was 0.4–0.6× that of the
/// median of the same trials (see the noise study in `README.md`); the
/// single fastest trial is as tight but is one lucky sample.
pub fn fastest_mean(values: &[f64], lower_is_faster: bool) -> f64 {
    assert!(!values.is_empty(), "fastest_mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_faster {
        v.reverse();
    }
    let k = (v.len() / 8).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// First point at which a loss curve reaches `target`, linearly
/// interpolated between the two evaluations that bracket the crossing.
///
/// `curve` is `(x, loss)` in run order, with `x` either epochs or seconds.
/// Interpolating removes the eval-grid quantisation that the engines'
/// `time_to_loss`/`epochs_to_loss` (first point at or below) carry.
/// `None` when the curve never gets there.
pub fn crossing(curve: &[(f64, f64)], target: f64) -> Option<f64> {
    let hit = curve.iter().position(|&(_, loss)| loss <= target)?;
    if hit == 0 {
        return Some(curve[0].0);
    }
    let (x0, l0) = curve[hit - 1];
    let (x1, l1) = curve[hit];
    // l0 > target >= l1, so the denominator is strictly positive.
    Some(x0 + (x1 - x0) * (l0 - target) / (l0 - l1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild outlier does not move it.
        assert_eq!(median(&[1.0, 1.1, 0.9, 50.0, 1.0]), 1.0);
    }

    #[test]
    fn fastest_mean_takes_the_best_eighth() {
        let walls: Vec<f64> = (1..=24).map(f64::from).collect();
        // 24 / 8 = 3 trials: the three smallest, or the three largest.
        assert_eq!(fastest_mean(&walls, true), 2.0);
        assert_eq!(fastest_mean(&walls, false), 23.0);
        // Fewer than eight trials still use one.
        assert_eq!(fastest_mean(&[5.0, 3.0, 9.0], true), 3.0);
        // Slow outliers never reach it.
        assert_eq!(
            fastest_mean(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 50.0], true),
            1.0
        );
    }

    #[test]
    fn crossing_interpolates_between_bracketing_points() {
        let curve = [(0.0, 1.0), (1.0, 0.8), (2.0, 0.4), (3.0, 0.5)];
        // 0.6 lies halfway between 0.8 (x=1) and 0.4 (x=2).
        assert!((crossing(&curve, 0.6).unwrap() - 1.5).abs() < 1e-12);
        // Landing exactly on a point returns that point.
        assert_eq!(crossing(&curve, 0.8), Some(1.0));
        // The first crossing wins even if the curve climbs back later.
        assert!((crossing(&curve, 0.45).unwrap() - 1.875).abs() < 1e-12);
    }

    #[test]
    fn crossing_edge_cases() {
        let curve = [(0.0, 1.0), (1.0, 0.9)];
        assert_eq!(crossing(&curve, 0.5), None);
        assert_eq!(crossing(&curve, 1.5), Some(0.0));
        assert_eq!(crossing(&[], 0.5), None);
    }
}
