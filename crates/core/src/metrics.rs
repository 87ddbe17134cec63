//! Regression metrics and error distributions for KPI predictions.
//!
//! These produce the numbers behind the paper's figures: per-topology
//! relative-error CDFs (Fig. 3), regression fit quality (Fig. 2), and the
//! summary statistics of the generalization table.

use serde::{Deserialize, Serialize};

/// Truths smaller than this (in the KPI's own unit: s for delay, s² for
/// jitter) carry no relative-error information and are left out of every
/// relative error. Exact zeros are the simulator's sentinel for a flow with
/// no measured packets, and a jitter of ~1e-28 s² is round-off standing in
/// for zero variance; dividing by either makes one row a ~1e9 "relative
/// error" that swamps MRE and p95RE. The floor sits in a wide
/// gap: in 8 NSFNET samples (`gen-dataset --samples 8 --seed 3 --duration
/// 800`) 20 of 1,456 jitter truths are ~1e-28 s² and every other one is
/// above 1e-9 s², while delays are never below a packet's service time.
pub const MIN_TRUTH: f64 = 1e-12;

/// Summary of a prediction-vs-truth comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Number of (prediction, truth) pairs.
    pub n: usize,
    /// Pairs whose truth is below [`MIN_TRUTH`]: counted in `n` and the
    /// absolute metrics, left out of `mre`, `median_re` and `p95_re`.
    pub excluded: usize,
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean relative error `|p - t| / t` over the non-excluded pairs.
    /// unit: ratio
    pub mre: f64,
    /// Median relative error over the non-excluded pairs.
    /// unit: ratio
    pub median_re: f64,
    /// 95th-percentile relative error over the non-excluded pairs.
    /// unit: ratio
    pub p95_re: f64,
    /// Pearson correlation coefficient.
    pub pearson_r: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Relative errors `|p - t| / |t|`, skipping truths below [`MIN_TRUTH`].
pub fn relative_errors(preds: &[f64], truths: &[f64]) -> Vec<f64> {
    signed_relative_errors(preds, truths)
        .into_iter()
        .map(f64::abs)
        .collect()
}

/// Signed relative errors `(p - t) / |t|`, skipping truths below
/// [`MIN_TRUTH`]. Use [`signed_relative_errors_counted`] to also learn how
/// many rows were skipped.
pub fn signed_relative_errors(preds: &[f64], truths: &[f64]) -> Vec<f64> {
    signed_relative_errors_counted(preds, truths).0
}

/// [`signed_relative_errors`] plus the number of rows skipped for a truth
/// below [`MIN_TRUTH`], so callers can surface coverage honestly instead of
/// absorbing unobserved flows into the error distribution.
pub fn signed_relative_errors_counted(preds: &[f64], truths: &[f64]) -> (Vec<f64>, usize) {
    assert_eq!(preds.len(), truths.len(), "length mismatch");
    let mut errors = Vec::with_capacity(preds.len());
    let mut skipped = 0usize;
    for (&p, &t) in preds.iter().zip(truths) {
        if t.abs() < MIN_TRUTH {
            skipped += 1;
        } else {
            // lint: allow(nan-div, reason = "the branch above skips every |t| below MIN_TRUTH, a positive constant")
            errors.push((p - t) / t.abs());
        }
    }
    (errors, skipped)
}

/// `q`-th percentile (0..=100) by linear interpolation on sorted data.
/// Panics on empty input.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q));
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q / 100.0 * (v.len() - 1) as f64;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "q in [0, 100] is asserted above, so pos lies in [0, len - 1]"
    )]
    let lo = pos.floor() as usize;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "q in [0, 100] is asserted above, so pos lies in [0, len - 1]"
    )]
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Pearson correlation coefficient. Returns 0 for degenerate inputs.
pub fn pearson(preds: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(preds.len(), truths.len());
    let n = preds.len() as f64;
    if preds.is_empty() {
        return 0.0;
    }
    let mp = preds.iter().sum::<f64>() / n;
    let mt = truths.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vp = 0.0;
    let mut vt = 0.0;
    for (&p, &t) in preds.iter().zip(truths) {
        cov += (p - mp) * (t - mt);
        vp += (p - mp) * (p - mp);
        vt += (t - mt) * (t - mt);
    }
    if vp <= 0.0 || vt <= 0.0 {
        0.0
    } else {
        cov / (vp.sqrt() * vt.sqrt())
    }
}

/// Coefficient of determination R² = 1 - SS_res / SS_tot.
pub fn r_squared(preds: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(preds.len(), truths.len());
    if truths.is_empty() {
        return 0.0;
    }
    let mt = truths.iter().sum::<f64>() / truths.len() as f64;
    let ss_res: f64 = preds
        .iter()
        .zip(truths)
        .map(|(&p, &t)| (t - p) * (t - p))
        .sum();
    let ss_tot: f64 = truths.iter().map(|&t| (t - mt) * (t - mt)).sum();
    if ss_tot <= 0.0 {
        0.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Full evaluation summary, or `None` when no pair has a truth at or above
/// [`MIN_TRUTH`] (an empty input included): with nothing to divide by there
/// is no relative error to report, and callers render the set as "no data".
pub fn evaluate(preds: &[f64], truths: &[f64]) -> Option<EvalSummary> {
    assert_eq!(preds.len(), truths.len());
    let (re, excluded) = signed_relative_errors_counted(preds, truths);
    if re.is_empty() {
        return None;
    }
    let re: Vec<f64> = re.into_iter().map(f64::abs).collect();
    let n = preds.len();
    let mae = preds
        .iter()
        .zip(truths)
        .map(|(&p, &t)| (p - t).abs())
        .sum::<f64>()
        / n as f64;
    let rmse = (preds
        .iter()
        .zip(truths)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum::<f64>()
        / n as f64)
        .sqrt();
    Some(EvalSummary {
        n,
        excluded,
        mae,
        rmse,
        mre: re.iter().sum::<f64>() / re.len() as f64,
        median_re: percentile(&re, 50.0),
        p95_re: percentile(&re, 95.0),
        pearson_r: pearson(preds, truths),
        r2: r_squared(preds, truths),
    })
}

/// Empirical CDF sampled at `n_points` evenly spaced quantiles:
/// returns `(value, cumulative_probability)` pairs, the series plotted in
/// the paper's Fig. 3.
pub fn cdf_points(xs: &[f64], n_points: usize) -> Vec<(f64, f64)> {
    assert!(!xs.is_empty() && n_points >= 2);
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    (0..n_points)
        .map(|i| {
            let q = i as f64 / (n_points - 1) as f64;
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "q lies in [0, 1], so the rounded index lies in 0..v.len()"
            )]
            let idx = (q * (v.len() - 1) as f64).round() as usize;
            (v[idx], (idx + 1) as f64 / v.len() as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let t = vec![1.0, 2.0, 3.0, 4.0];
        let s = evaluate(&t, &t).unwrap();
        assert_eq!(s.mae, 0.0);
        assert_eq!(s.rmse, 0.0);
        assert_eq!(s.mre, 0.0);
        assert!((s.pearson_r - 1.0).abs() < 1e-12);
        assert!((s.r2 - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn known_errors() {
        let preds = vec![1.1, 1.9, 3.3];
        let truths = vec![1.0, 2.0, 3.0];
        let s = evaluate(&preds, &truths).unwrap();
        assert!((s.mae - (0.1 + 0.1 + 0.3) / 3.0).abs() < 1e-12);
        let re = relative_errors(&preds, &truths);
        assert!((re[0] - 0.1).abs() < 1e-9);
        assert!((re[1] - 0.05).abs() < 1e-9);
        assert!((re[2] - 0.1).abs() < 1e-9);
        let sre = signed_relative_errors(&preds, &truths);
        assert!(sre[1] < 0.0 && sre[0] > 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pearson_sign_and_invariance() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 10.0 - 2.0 * v).collect();
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| 5.0 + 0.1 * v).collect();
        assert!((pearson(&x, &z) - 1.0).abs() < 1e-12);
        // constant input => 0
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let truths = vec![1.0, 2.0, 3.0];
        let mean = vec![2.0, 2.0, 2.0];
        assert!(r_squared(&mean, &truths).abs() < 1e-12);
        // worse than mean => negative
        let bad = vec![5.0, 5.0, 5.0];
        assert!(r_squared(&bad, &truths) < 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_spans_data() {
        let xs = vec![0.5, 0.1, 0.9, 0.3, 0.7];
        let cdf = cdf_points(&xs, 5);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf[0].0, 0.1);
        assert_eq!(cdf[4].0, 0.9);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf[4].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn relative_errors_length_checked() {
        relative_errors(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn tiny_truth_guarded() {
        // A truth below the floor is skipped, never divided by.
        assert!(relative_errors(&[1.0], &[0.0]).is_empty());
        let re = relative_errors(&[1.0, 2.2], &[1e-13, 2.0]);
        assert_eq!(re.len(), 1);
        assert!((re[0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn signed_errors_skip_zero_truth_sentinels() {
        // Middle row is an unobserved-flow sentinel (delay == 0); the old
        // eps floor turned it into a 2e12 pseudo-error dominating every
        // percentile.
        let preds = vec![1.1, 2.0, 2.7];
        let truths = vec![1.0, 0.0, 3.0];
        let (sre, skipped) = signed_relative_errors_counted(&preds, &truths);
        assert_eq!(skipped, 1);
        assert_eq!(sre.len(), 2);
        assert!((sre[0] - 0.1).abs() < 1e-9);
        assert!((sre[1] + 0.1).abs() < 1e-9);
        assert!(sre.iter().all(|e| e.abs() < 1.0), "no 1e12 pseudo-errors");
        // The convenience wrapper agrees.
        assert_eq!(signed_relative_errors(&preds, &truths), sre);
        // Tiny-but-nonzero truths below the floor are skipped too.
        let (sre, skipped) = signed_relative_errors_counted(&[1.0], &[1e-15]);
        assert_eq!(skipped, 1);
        assert!(sre.is_empty());
    }

    #[test]
    fn round_off_jitter_is_excluded_from_relative_metrics() {
        // Round-off standing in for a zero variance must not own the mean.
        let preds = vec![0.011, 0.02, 0.003];
        let truths = vec![0.01, 1e-28, 0.003];
        let s = evaluate(&preds, &truths).unwrap();
        assert_eq!((s.n, s.excluded), (3, 1));
        assert!((s.mre - 0.05).abs() < 1e-9, "MRE over kept rows: {}", s.mre);
        assert!(s.p95_re < 0.1);
        // MAE still covers every pair.
        assert!((s.mae - (0.001 + 0.02) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_excluded_or_empty_has_no_summary() {
        assert_eq!(evaluate(&[0.5, 0.2], &[0.0, 1e-28]), None);
        assert_eq!(evaluate(&[], &[]), None);
    }
}
