//! Evaluation harness: run predictors over sample sets and group results.

use crate::metrics::{evaluate, EvalSummary};
use crate::sample::{KpiPredictor, Sample};
use std::collections::BTreeMap;

/// Paired predictions and ground truths, flattened over samples and pairs.
#[derive(Debug, Clone, Default)]
pub struct PairedEval {
    /// Predicted mean delays, seconds.
    pub delay_pred: Vec<f64>,
    /// True mean delays, seconds.
    pub delay_true: Vec<f64>,
    /// Predicted jitters (NaN when the predictor has no jitter head).
    pub jitter_pred: Vec<f64>,
    /// True jitters.
    pub jitter_true: Vec<f64>,
    /// Predicted drop probabilities (NaN when the predictor has no drop head).
    pub drop_pred: Vec<f64>,
    /// True drop probabilities.
    pub drop_true: Vec<f64>,
}

impl PairedEval {
    /// Number of paired observations.
    pub fn len(&self) -> usize {
        self.delay_pred.len()
    }

    /// True if no observations were collected.
    pub fn is_empty(&self) -> bool {
        self.delay_pred.is_empty()
    }

    /// Delay metrics summary, or `None` when no pairs were collected.
    ///
    /// An evaluation over samples whose flows were all unobserved (the
    /// `delay_s == 0` sentinel) is legitimately empty; callers render it as
    /// "no data".
    pub fn delay_summary(&self) -> Option<EvalSummary> {
        evaluate(&self.delay_pred, &self.delay_true)
    }

    /// Jitter metrics summary, if the predictor produced jitter values and
    /// any pair has a jitter truth at or above
    /// [`MIN_TRUTH`](crate::metrics::MIN_TRUTH).
    pub fn jitter_summary(&self) -> Option<EvalSummary> {
        if self.jitter_pred.iter().any(|x| x.is_nan()) {
            None
        } else {
            evaluate(&self.jitter_pred, &self.jitter_true)
        }
    }

    /// Drop-probability metrics, if the predictor has a drop head. Returns
    /// `(mae, pearson_r)` rather than a full relative-error summary because
    /// true drop probabilities are frequently exactly zero.
    pub fn drop_summary(&self) -> Option<(f64, f64)> {
        if self.drop_pred.is_empty() || self.drop_pred.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mae = self
            .drop_pred
            .iter()
            .zip(&self.drop_true)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / self.drop_pred.len() as f64;
        Some((
            mae,
            crate::metrics::pearson(&self.drop_pred, &self.drop_true),
        ))
    }

    /// Append another evaluation's observations.
    pub fn extend(&mut self, other: &PairedEval) {
        self.delay_pred.extend_from_slice(&other.delay_pred);
        self.delay_true.extend_from_slice(&other.delay_true);
        self.jitter_pred.extend_from_slice(&other.jitter_pred);
        self.jitter_true.extend_from_slice(&other.jitter_true);
        self.drop_pred.extend_from_slice(&other.drop_pred);
        self.drop_true.extend_from_slice(&other.drop_true);
    }
}

/// Pair one sample's predictions with its ground truth, appending to `out`.
///
/// Pairs whose ground-truth delay is zero are skipped: a zero mean delay is
/// the dataset generator's sentinel for "no packet of this flow was observed
/// in the measurement window", i.e. there is no label to compare against.
fn pair_into(
    out: &mut PairedEval,
    predictor_name: &str,
    sample: &Sample,
    preds: &[crate::sample::Prediction],
) {
    assert_eq!(
        preds.len(),
        sample.targets.len(),
        "{} returned {} predictions for {} targets",
        predictor_name,
        preds.len(),
        sample.targets.len()
    );
    for (p, t) in preds.iter().zip(&sample.targets) {
        if t.delay_s <= 0.0 {
            continue; // unobserved flow: no ground truth
        }
        out.delay_pred.push(p.delay_s);
        out.delay_true.push(t.delay_s);
        out.jitter_pred.push(p.jitter_s2);
        out.jitter_true.push(t.jitter_s2);
        out.drop_pred.push(p.drop_prob);
        out.drop_true.push(t.drop_prob);
    }
}

/// Run `predictor` over `samples`, pairing predictions with ground truth.
///
/// The whole set goes through [`KpiPredictor::predict_batch`] as one sweep,
/// so predictors with per-sweep setup cost (RouteNet's compiled indices and
/// allocation arena) pay it once rather than per sample. Skips unobserved
/// pairs — see the sentinel note on [`collect_by_topology`].
pub fn collect_predictions(predictor: &dyn KpiPredictor, samples: &[Sample]) -> PairedEval {
    let scenarios: Vec<&crate::sample::Scenario> = samples.iter().map(|s| &s.scenario).collect();
    let all = predictor.predict_batch(&scenarios);
    let mut out = PairedEval::default();
    for (s, preds) in samples.iter().zip(&all) {
        pair_into(&mut out, predictor.predictor_name(), s, preds);
    }
    out
}

/// Collect predictions grouped by the samples' topology name — the grouping
/// of the paper's Fig. 3 (one CDF per topology).
///
/// Samples are grouped *before* prediction and each group runs as one
/// [`KpiPredictor::predict_batch`] sweep: all of a topology's samples share
/// a routing, so a sweep-aware predictor compiles the message-passing index
/// once per group instead of once per sample.
pub fn collect_by_topology(
    predictor: &dyn KpiPredictor,
    samples: &[Sample],
) -> BTreeMap<String, PairedEval> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in samples.iter().enumerate() {
        by_name.entry(&s.topology).or_default().push(i);
    }
    let mut groups: BTreeMap<String, PairedEval> = BTreeMap::new();
    for (name, idxs) in by_name {
        let scenarios: Vec<&crate::sample::Scenario> =
            idxs.iter().map(|&i| &samples[i].scenario).collect();
        let all = predictor.predict_batch(&scenarios);
        let mut ev = PairedEval::default();
        for (&i, preds) in idxs.iter().zip(&all) {
            pair_into(&mut ev, predictor.predictor_name(), &samples[i], preds);
        }
        groups.insert(name.to_string(), ev);
    }
    groups
}

/// Rank the `n` paths with the largest predicted delay in one sample —
/// the "Top-N paths with more delay" analytics of the paper's Fig. 4.
/// Returns `(src, dst, predicted_delay_s, true_delay_s)` sorted descending.
///
/// Pairs carrying the `delay_s == 0` unobserved-flow sentinel are skipped,
/// mirroring [`collect_predictions`]: a ranking row with a fabricated true
/// delay of zero would make every prediction for it look infinitely wrong.
pub fn top_n_paths_by_delay(
    predictor: &dyn KpiPredictor,
    sample: &Sample,
    n: usize,
) -> Vec<(usize, usize, f64, f64)> {
    let preds = predictor.predict(&sample.scenario);
    let pairs = sample.scenario.pairs();
    let mut rows: Vec<(usize, usize, f64, f64)> = pairs
        .iter()
        .zip(preds.iter())
        .zip(sample.targets.iter())
        .filter(|(_, t)| t.delay_s > 0.0)
        .map(|(((s, d), p), t)| (s.0, d.0, p.delay_s, t.delay_s))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows.truncate(n);
    rows
}

/// Emit one [`Event::Eval`] telemetry record per evaluation group (e.g. per
/// topology), skipping empty groups. `scope_prefix` namespaces the group key
/// — e.g. `"fig3/"` yields scopes like `fig3/NSFNET`.
pub fn emit_eval_telemetry(
    tel: &routenet_obs::Telemetry,
    scope_prefix: &str,
    groups: &BTreeMap<String, PairedEval>,
) {
    use routenet_obs::Event;
    for (name, ev) in groups {
        if let Some(s) = ev.delay_summary() {
            tel.emit(Event::Eval {
                scope: format!("{scope_prefix}{name}"),
                n: s.n,
                mae: s.mae,
                median_re: s.median_re,
                p95_re: s.p95_re,
                pearson_r: s.pearson_r,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Mm1Baseline;
    use crate::sample::{Scenario, TargetKpi};
    use routenet_netgraph::generate;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_simnet::queueing::Mm1Network;

    fn sample_with_topology(name: &str, seed: u64) -> Sample {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generate::ring(4);
        let routing = shortest_path_routing(&g).unwrap();
        let tm = routenet_netgraph::traffic::sample_traffic_matrix(
            &g,
            &routing,
            &routenet_netgraph::TrafficModel::Uniform { min_frac: 0.5 },
            0.4,
            &mut rng,
        );
        let net = Mm1Network::build(&g, &routing, &tm, 1_000.0);
        let targets = net
            .predict_all(&routing)
            .into_iter()
            .map(|p| TargetKpi {
                delay_s: p.mean_delay_s,
                jitter_s2: p.jitter_s2,
                drop_prob: 0.0,
            })
            .collect();
        Sample {
            scenario: Scenario {
                graph: g,
                routing,
                traffic: tm,
            },
            targets,
            topology: name.into(),
            intensity: 0.4,
            seed,
        }
    }

    #[test]
    fn collect_is_exact_for_matching_model() {
        let s = sample_with_topology("A", 1);
        let ev = collect_predictions(&Mm1Baseline::default(), &[s]);
        assert_eq!(ev.len(), 12);
        let sum = ev.delay_summary().expect("non-empty eval");
        assert!(sum.mre < 1e-9);
        let jsum = ev.jitter_summary().expect("mm1 predicts jitter");
        assert!(jsum.mre < 1e-9);
    }

    #[test]
    fn empty_eval_summaries_are_none_not_panics() {
        let ev = PairedEval::default();
        assert!(ev.is_empty());
        assert!(ev.delay_summary().is_none());
        assert!(ev.jitter_summary().is_none());
        assert!(ev.drop_summary().is_none());
        // An all-sentinel sample must produce the same empty eval.
        let mut s = sample_with_topology("A", 9);
        for t in &mut s.targets {
            t.delay_s = 0.0;
        }
        let ev = collect_predictions(&Mm1Baseline::default(), &[s]);
        assert!(ev.is_empty());
        assert!(ev.delay_summary().is_none());
    }

    #[test]
    fn top_n_skips_unobserved_flow_sentinels() {
        let mut s = sample_with_topology("A", 10);
        let n_pairs = s.targets.len();
        // Mark the three truly slowest paths as unobserved; they must not
        // appear in the ranking even though the predictor still ranks them
        // highest by *predicted* delay.
        let mut order: Vec<usize> = (0..n_pairs).collect();
        order.sort_by(|&a, &b| s.targets[b].delay_s.total_cmp(&s.targets[a].delay_s));
        for &i in order.iter().take(3) {
            s.targets[i].delay_s = 0.0;
        }
        let top = top_n_paths_by_delay(&Mm1Baseline::default(), &s, n_pairs);
        assert_eq!(top.len(), n_pairs - 3);
        for (_, _, _, t) in &top {
            assert!(*t > 0.0, "sentinel pair leaked into ranking");
        }
    }

    #[test]
    fn eval_telemetry_emits_one_event_per_group() {
        let tel = routenet_obs::Telemetry::in_memory("core", "test");
        let samples = vec![sample_with_topology("A", 1), sample_with_topology("B", 2)];
        let groups = collect_by_topology(&Mm1Baseline::default(), &samples);
        emit_eval_telemetry(&tel, "test/", &groups);
        let evals: Vec<_> = tel
            .records()
            .into_iter()
            .filter_map(|rec| match rec.event {
                routenet_obs::Event::Eval { scope, n, .. } => Some((scope, n)),
                _ => None,
            })
            .collect();
        assert_eq!(evals, vec![("test/A".into(), 12), ("test/B".into(), 12)]);
    }

    #[test]
    fn grouping_by_topology() {
        let samples = vec![
            sample_with_topology("A", 1),
            sample_with_topology("B", 2),
            sample_with_topology("A", 3),
        ];
        let groups = collect_by_topology(&Mm1Baseline::default(), &samples);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups["A"].len(), 24);
        assert_eq!(groups["B"].len(), 12);
    }

    #[test]
    fn top_n_is_sorted_and_truncated() {
        let s = sample_with_topology("A", 4);
        let top = top_n_paths_by_delay(&Mm1Baseline::default(), &s, 5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        // With exact predictor, predicted == true for each row.
        for (_, _, p, t) in &top {
            assert!((p - t).abs() < 1e-12);
        }
        // Top-1 is the global max over all pairs.
        let max_true = s
            .targets
            .iter()
            .map(|t| t.delay_s)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((top[0].3 - max_true).abs() < 1e-12);
    }

    #[test]
    fn batch_sweep_matches_per_sample_predictions() {
        use crate::model::{RouteNet, RouteNetConfig};
        // RouteNet's sweep-aware predict_batch (arena-reused tape, cached
        // message-passing index) must reproduce one-at-a-time predict exactly.
        let mut model = RouteNet::new(RouteNetConfig {
            link_state_dim: 4,
            path_state_dim: 4,
            readout_hidden: 8,
            t_iterations: 2,
            predict_jitter: true,
            predict_drops: false,
            seed: 2,
        });
        model.set_normalizer(crate::features::Normalizer {
            capacity_scale: 10_000.0,
            traffic_scale: 230.0,
            ..crate::features::Normalizer::default()
        });
        let samples = vec![
            sample_with_topology("A", 1),
            sample_with_topology("A", 2),
            sample_with_topology("B", 3),
        ];
        let batched = collect_predictions(&model, &samples);
        let mut per_sample = PairedEval::default();
        for s in &samples {
            let preds = model.predict(&s.scenario);
            pair_into(&mut per_sample, model.predictor_name(), s, &preds);
        }
        assert_eq!(batched.delay_pred, per_sample.delay_pred);
        assert_eq!(batched.jitter_pred, per_sample.jitter_pred);
        assert_eq!(batched.len(), per_sample.len());
    }

    #[test]
    fn paired_eval_extend() {
        let s1 = sample_with_topology("A", 5);
        let s2 = sample_with_topology("A", 6);
        let mut a = collect_predictions(&Mm1Baseline::default(), &[s1]);
        let b = collect_predictions(&Mm1Baseline::default(), &[s2]);
        let n = a.len();
        a.extend(&b);
        assert_eq!(a.len(), n + b.len());
    }
}
