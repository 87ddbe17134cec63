//! Regression metrics and error distributions for KPI predictions.
//!
//! These produce the numbers behind the paper's figures: per-topology
//! relative-error CDFs (Fig. 3), regression fit quality (Fig. 2), and the
//! summary statistics of the generalization table.

use serde::{Deserialize, Serialize};

/// Summary of a prediction-vs-truth comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Number of (prediction, truth) pairs.
    pub n: usize,
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean relative error `|p - t| / t`.
    /// unit: ratio
    pub mre: f64,
    /// Median relative error.
    /// unit: ratio
    pub median_re: f64,
    /// 95th-percentile relative error.
    /// unit: ratio
    pub p95_re: f64,
    /// Pearson correlation coefficient.
    pub pearson_r: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Relative errors `|p - t| / max(t, eps)` with `eps` guarding tiny truths.
pub fn relative_errors(preds: &[f64], truths: &[f64]) -> Vec<f64> {
    assert_eq!(preds.len(), truths.len(), "length mismatch");
    const EPS: f64 = 1e-12;
    preds
        .iter()
        .zip(truths)
        .map(|(&p, &t)| (p - t).abs() / t.abs().max(EPS))
        .collect()
}

/// Signed relative errors `(p - t) / max(|t|, eps)` (Fig. 3 uses the
/// distribution of signed errors in some renditions; we expose both).
///
/// Zero-truth rows are *skipped*: `delay == 0` is the simulator's sentinel
/// for a flow that produced no measured packets (the same family
/// `top_n_paths_by_delay` filters), and flooring them with `eps` turned
/// each one into a ~1e12 pseudo-error that silently dominated MRE/p95.
/// Use [`signed_relative_errors_counted`] to also learn how many rows
/// were skipped.
pub fn signed_relative_errors(preds: &[f64], truths: &[f64]) -> Vec<f64> {
    signed_relative_errors_counted(preds, truths).0
}

/// [`signed_relative_errors`] plus the number of zero-truth sentinel rows
/// that were skipped, so callers can surface coverage honestly instead of
/// absorbing unobserved flows into the error distribution.
pub fn signed_relative_errors_counted(preds: &[f64], truths: &[f64]) -> (Vec<f64>, usize) {
    assert_eq!(preds.len(), truths.len(), "length mismatch");
    const EPS: f64 = 1e-12;
    let mut errors = Vec::with_capacity(preds.len());
    let mut skipped = 0usize;
    for (&p, &t) in preds.iter().zip(truths) {
        // The simulator writes the unobserved-flow sentinel as exactly 0.0;
        // epsilon matching would also swallow real tiny delays.
        if t == 0.0 {
            skipped += 1;
        } else {
            errors.push((p - t) / t.abs().max(EPS));
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

/// Full evaluation summary.
pub fn evaluate(preds: &[f64], truths: &[f64]) -> EvalSummary {
    assert_eq!(preds.len(), truths.len());
    assert!(!preds.is_empty(), "evaluate on empty data");
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
    let re = relative_errors(preds, truths);
    EvalSummary {
        n,
        mae,
        rmse,
        mre: re.iter().sum::<f64>() / n as f64,
        median_re: percentile(&re, 50.0),
        p95_re: percentile(&re, 95.0),
        pearson_r: pearson(preds, truths),
        r2: r_squared(preds, truths),
    }
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
        let s = evaluate(&t, &t);
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
        let s = evaluate(&preds, &truths);
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
        let re = relative_errors(&[1.0], &[0.0]);
        assert!(re[0].is_finite());
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
        // Tiny-but-nonzero truths still go through the eps guard.
        let (sre, skipped) = signed_relative_errors_counted(&[1.0], &[1e-15]);
        assert_eq!(skipped, 0);
        assert!(sre[0].is_finite());
    }
}
