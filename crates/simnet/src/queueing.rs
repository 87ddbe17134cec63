//! Analytic queueing-theory network model (M/M/1 per link).
//!
//! This is the "Queuing Theory" baseline the paper's introduction contrasts
//! against (reference 8 in the paper): each link is modeled as an independent M/M/1
//! queue, path delay is the sum of per-link sojourn times plus propagation,
//! and jitter (delay variance) is the sum of per-link sojourn variances
//! (independence approximation).
//!
//! It doubles as a correctness oracle: on a single link the discrete-event
//! simulator must converge to these closed forms, which is asserted by
//! property tests in the simulator module.

use routenet_netgraph::traffic::link_loads;
use routenet_netgraph::{Graph, LinkId, RoutingScheme, TrafficMatrix};
use serde::{Deserialize, Serialize};

/// Closed-form M/M/1 per-link results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mm1Link {
    /// Offered load in packets/s.
    pub lambda_pps: f64,
    /// Service rate in packets/s (`capacity / mean_pkt_size`).
    pub mu_pps: f64,
    /// Utilization `lambda / mu`.
    pub rho: f64,
    /// Mean sojourn (wait + service) time, seconds. `INFINITY` if `rho >= 1`.
    pub mean_sojourn_s: f64,
    /// Sojourn-time variance, s². `INFINITY` if `rho >= 1`.
    pub var_sojourn_s2: f64,
}

impl Mm1Link {
    /// Closed-form M/M/1 sojourn statistics.
    ///
    /// For a stable M/M/1 queue the sojourn time is exponential with rate
    /// `mu - lambda`, hence mean `1/(mu-lambda)` and variance
    /// `1/(mu-lambda)^2`. An unstable queue (`rho >= 1`) yields infinities.
    pub fn new(lambda_pps: f64, mu_pps: f64) -> Self {
        assert!(mu_pps > 0.0 && mu_pps.is_finite());
        assert!(lambda_pps >= 0.0 && lambda_pps.is_finite());
        let rho = lambda_pps / mu_pps;
        let (mean, var) = if rho < 1.0 {
            let gap = mu_pps - lambda_pps;
            debug_assert!(gap > 0.0, "rho < 1 implies mu > lambda");
            (1.0 / gap, 1.0 / (gap * gap))
        } else {
            (f64::INFINITY, f64::INFINITY)
        };
        Mm1Link {
            lambda_pps,
            mu_pps,
            rho,
            mean_sojourn_s: mean,
            var_sojourn_s2: var,
        }
    }

    /// Mean number of packets in the system (`rho / (1 - rho)`).
    pub fn mean_in_system(&self) -> f64 {
        if self.rho < 1.0 {
            let headroom = 1.0 - self.rho;
            debug_assert!(headroom > 0.0);
            self.rho / headroom
        } else {
            f64::INFINITY
        }
    }
}

/// Per-pair analytic prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathPrediction {
    /// Mean end-to-end delay, seconds.
    pub mean_delay_s: f64,
    /// Delay variance ("jitter"), s².
    pub jitter_s2: f64,
}

/// Whole-network analytic model.
#[derive(Debug, Clone)]
pub struct Mm1Network {
    links: Vec<Mm1Link>,
    prop_delay_s: Vec<f64>,
}

impl Mm1Network {
    /// Build per-link M/M/1 models from the offered traffic.
    ///
    /// `mean_pkt_size_bits` converts bit rates to packet rates; it must match
    /// the simulator's packet-size mean for the baseline to be comparable.
    pub fn build(
        g: &Graph,
        routing: &RoutingScheme,
        tm: &TrafficMatrix,
        mean_pkt_size_bits: f64,
    ) -> Self {
        assert!(mean_pkt_size_bits > 0.0);
        let loads = link_loads(g, routing, tm);
        let links = loads
            .iter()
            .enumerate()
            .map(|(i, &bps)| {
                let link = g.adj_link(LinkId(i));
                Mm1Link::new(
                    bps / mean_pkt_size_bits,
                    link.capacity_bps / mean_pkt_size_bits,
                )
            })
            .collect();
        let prop_delay_s = g.links().map(|(_, l)| l.prop_delay_s).collect();
        Mm1Network {
            links,
            prop_delay_s,
        }
    }

    /// Per-link models.
    pub fn links(&self) -> &[Mm1Link] {
        &self.links
    }

    /// Predict mean delay and jitter along a link path (independence
    /// approximation: sums of per-link means/variances, plus propagation).
    pub fn predict_path(&self, path: &[LinkId]) -> PathPrediction {
        let mut mean = 0.0;
        let mut var = 0.0;
        for &l in path {
            mean += self.links[l.0].mean_sojourn_s + self.prop_delay_s[l.0];
            var += self.links[l.0].var_sojourn_s2;
        }
        PathPrediction {
            mean_delay_s: mean,
            jitter_s2: var,
        }
    }

    /// Predictions for every routed pair, in canonical order.
    pub fn predict_all(&self, routing: &RoutingScheme) -> Vec<PathPrediction> {
        routing
            .pairs()
            .map(|(_, _, path)| self.predict_path(path))
            .collect()
    }

    /// True if every link is stable (`rho < 1`).
    pub fn is_stable(&self) -> bool {
        self.links.iter().all(|l| l.rho < 1.0)
    }
}

/// Squared coefficient of variation (`Var[S] / E[S]²`) of a packet-size
/// distribution — the only service-distribution statistic the M/G/1 mean
/// formulas need.
pub fn service_cv2(dist: &crate::sim::SizeDistribution) -> f64 {
    match *dist {
        crate::sim::SizeDistribution::Exponential => 1.0,
        crate::sim::SizeDistribution::Deterministic => 0.0,
        crate::sim::SizeDistribution::Bimodal {
            p_small,
            small_frac,
        } => {
            // sizes: s1 = small_frac (w.p. p), s2 = (1 - p*s1)/(1-p), mean 1.
            let s1 = small_frac;
            let p_large = 1.0 - p_small;
            debug_assert!(p_large > 0.0, "bimodal p_small must stay below 1");
            let s2 = (1.0 - p_small * s1) / p_large;
            let e2 = p_small * s1 * s1 + p_large * s2 * s2;
            e2 - 1.0
        }
    }
}

/// Closed-form M/G/1 per-link results via the Pollaczek–Khinchine formula.
///
/// Mean wait `W_q = rho (1 + cv²) / (2 (mu - lambda))`; sojourn adds the
/// mean service time. With `cv² = 1` this reduces to M/M/1, with `cv² = 0`
/// to M/D/1 — the distribution our default datasets use, which makes this
/// the strongest *analytic* baseline available (it still misses tandem
/// correlation along multi-hop paths).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mg1Link {
    /// Offered load in packets/s.
    pub lambda_pps: f64,
    /// Service rate in packets/s.
    pub mu_pps: f64,
    /// Utilization.
    pub rho: f64,
    /// Squared coefficient of variation of service times.
    pub cv2: f64,
    /// Mean sojourn time, seconds (`INFINITY` if unstable).
    pub mean_sojourn_s: f64,
    /// Sojourn-time variance, s² (`INFINITY` if unstable).
    pub var_sojourn_s2: f64,
}

impl Mg1Link {
    /// Build from rates and the service-time squared CV.
    ///
    /// The variance uses the M/G/1 waiting-time transform moments with the
    /// third service moment approximated from a gamma-matched distribution
    /// (exact for exponential and deterministic services).
    pub fn new(lambda_pps: f64, mu_pps: f64, cv2: f64) -> Self {
        assert!(mu_pps > 0.0 && mu_pps.is_finite());
        assert!(lambda_pps >= 0.0 && lambda_pps.is_finite());
        assert!(cv2 >= 0.0 && cv2.is_finite());
        let rho = lambda_pps / mu_pps;
        if rho >= 1.0 {
            return Mg1Link {
                lambda_pps,
                mu_pps,
                rho,
                cv2,
                mean_sojourn_s: f64::INFINITY,
                var_sojourn_s2: f64::INFINITY,
            };
        }
        let es = 1.0 / mu_pps; // E[S]
        let es2 = (1.0 + cv2) * es * es; // E[S^2]
                                         // Gamma-matched third moment: E[S^3] = E[S]^3 (1+cv2)(1+2cv2).
        let es3 = es * es * es * (1.0 + cv2) * (1.0 + 2.0 * cv2);
        let wq = lambda_pps * es2 / (2.0 * (1.0 - rho)); // P-K mean wait
        let mean = wq + es;
        // Waiting-time second moment (Takács): E[Wq^2] = 2 Wq^2 + lambda E[S^3]/(3(1-rho)).
        let ewq2 = 2.0 * wq * wq + lambda_pps * es3 / (3.0 * (1.0 - rho));
        let var_wq = ewq2 - wq * wq;
        let var_s = es2 - es * es;
        // Wait and service of the same packet are independent in M/G/1 FIFO.
        let var = var_wq + var_s;
        Mg1Link {
            lambda_pps,
            mu_pps,
            rho,
            cv2,
            mean_sojourn_s: mean,
            var_sojourn_s2: var,
        }
    }
}

/// Whole-network M/G/1 model (independence approximation across links).
#[derive(Debug, Clone)]
pub struct Mg1Network {
    links: Vec<Mg1Link>,
    prop_delay_s: Vec<f64>,
}

impl Mg1Network {
    /// Build per-link M/G/1 models from the offered traffic and the
    /// packet-size distribution actually used by the simulator.
    pub fn build(
        g: &Graph,
        routing: &RoutingScheme,
        tm: &TrafficMatrix,
        mean_pkt_size_bits: f64,
        size_dist: &crate::sim::SizeDistribution,
    ) -> Self {
        assert!(mean_pkt_size_bits > 0.0);
        let cv2 = service_cv2(size_dist);
        let loads = link_loads(g, routing, tm);
        let links = loads
            .iter()
            .enumerate()
            .map(|(i, &bps)| {
                let link = g.adj_link(LinkId(i));
                Mg1Link::new(
                    bps / mean_pkt_size_bits,
                    link.capacity_bps / mean_pkt_size_bits,
                    cv2,
                )
            })
            .collect();
        let prop_delay_s = g.links().map(|(_, l)| l.prop_delay_s).collect();
        Mg1Network {
            links,
            prop_delay_s,
        }
    }

    /// Per-link models.
    pub fn links(&self) -> &[Mg1Link] {
        &self.links
    }

    /// Predict mean delay and jitter along a link path.
    pub fn predict_path(&self, path: &[LinkId]) -> PathPrediction {
        let mut mean = 0.0;
        let mut var = 0.0;
        for &l in path {
            mean += self.links[l.0].mean_sojourn_s + self.prop_delay_s[l.0];
            var += self.links[l.0].var_sojourn_s2;
        }
        PathPrediction {
            mean_delay_s: mean,
            jitter_s2: var,
        }
    }

    /// Predictions for every routed pair, in canonical order.
    pub fn predict_all(&self, routing: &RoutingScheme) -> Vec<PathPrediction> {
        routing
            .pairs()
            .map(|(_, _, path)| self.predict_path(path))
            .collect()
    }
}

/// Closed-form M/M/1/K results: a single-server queue with room for `K`
/// packets *including* the one in service; arrivals finding the system full
/// are dropped (tail drop), matching the simulator's finite-buffer mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mm1kLink {
    /// Offered load in packets/s.
    pub lambda_pps: f64,
    /// Service rate in packets/s.
    pub mu_pps: f64,
    /// System capacity in packets (including in service).
    pub k: usize,
    /// Utilization `lambda / mu` (may exceed 1; the queue stays stable).
    pub rho: f64,
    /// Blocking (drop) probability.
    pub block_prob: f64,
    /// Mean sojourn of *accepted* packets, seconds.
    pub mean_sojourn_s: f64,
}

impl Mm1kLink {
    /// Closed forms: `P_K = (1-ρ)ρ^K / (1-ρ^{K+1})` (or `1/(K+1)` at ρ=1),
    /// `L = ρ/(1-ρ) - (K+1)ρ^{K+1}/(1-ρ^{K+1})`, `W = L / (λ (1-P_K))`.
    pub fn new(lambda_pps: f64, mu_pps: f64, k: usize) -> Self {
        assert!(mu_pps > 0.0 && mu_pps.is_finite());
        assert!(lambda_pps >= 0.0 && lambda_pps.is_finite());
        assert!(k >= 1, "system must hold at least the packet in service");
        let rho = lambda_pps / mu_pps;
        // The idle-link special case is an exact zero arrival rate.
        let (block_prob, mean_l) = if lambda_pps == 0.0 {
            (0.0, 0.0)
        } else if (rho - 1.0).abs() < 1e-12 {
            (1.0 / (k as f64 + 1.0), k as f64 / 2.0)
        } else {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                reason = "queue capacities are small integers, far below i32::MAX"
            )]
            let rk = rho.powi(k as i32);
            let rk1 = rk * rho;
            // rho is positive and bounded away from 1 by the branch above, so
            // both geometric denominators are nonzero.
            let denom_pk = 1.0 - rk1;
            let denom_l = 1.0 - rho;
            debug_assert!(denom_pk.abs() > 0.0 && denom_l.abs() > 0.0);
            let pb = (1.0 - rho) * rk / denom_pk;
            let l = rho / denom_l - (k as f64 + 1.0) * rk1 / denom_pk;
            (pb, l)
        };
        let accepted = lambda_pps * (1.0 - block_prob);
        let mean_sojourn_s = if accepted > 0.0 {
            mean_l / accepted
        } else {
            1.0 / mu_pps
        };
        Mm1kLink {
            lambda_pps,
            mu_pps,
            k,
            rho,
            block_prob,
            mean_sojourn_s,
        }
    }
}

/// Whole-network M/M/1/K model: per-link blocking with the independence
/// approximation; a path delivers only if every hop accepts, so the path
/// drop probability is `1 - prod(1 - P_K)`.
///
/// (Approximation caveat, deliberately retained: thinning by upstream drops
/// is ignored, so downstream loads are slightly overestimated — one of the
/// systematic analytic biases a learned model corrects.)
#[derive(Debug, Clone)]
pub struct Mm1kNetwork {
    links: Vec<Mm1kLink>,
    prop_delay_s: Vec<f64>,
}

impl Mm1kNetwork {
    /// Build per-link models with buffer `k` packets on every link.
    pub fn build(
        g: &Graph,
        routing: &RoutingScheme,
        tm: &TrafficMatrix,
        mean_pkt_size_bits: f64,
        k: usize,
    ) -> Self {
        assert!(mean_pkt_size_bits > 0.0);
        let loads = link_loads(g, routing, tm);
        let links = loads
            .iter()
            .enumerate()
            .map(|(i, &bps)| {
                let link = g.adj_link(LinkId(i));
                Mm1kLink::new(
                    bps / mean_pkt_size_bits,
                    link.capacity_bps / mean_pkt_size_bits,
                    k,
                )
            })
            .collect();
        let prop_delay_s = g.links().map(|(_, l)| l.prop_delay_s).collect();
        Mm1kNetwork {
            links,
            prop_delay_s,
        }
    }

    /// Per-link models.
    pub fn links(&self) -> &[Mm1kLink] {
        &self.links
    }

    /// `(mean_delay_s_of_delivered, drop_probability)` along a link path.
    pub fn predict_path(&self, path: &[LinkId]) -> (f64, f64) {
        let mut mean = 0.0;
        let mut pass = 1.0;
        for &l in path {
            mean += self.links[l.0].mean_sojourn_s + self.prop_delay_s[l.0];
            pass *= 1.0 - self.links[l.0].block_prob;
        }
        (mean, 1.0 - pass)
    }

    /// Predictions for every routed pair, in canonical order.
    pub fn predict_all(&self, routing: &RoutingScheme) -> Vec<(f64, f64)> {
        routing
            .pairs()
            .map(|(_, _, path)| self.predict_path(path))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::{NodeId, TrafficMatrix};

    #[test]
    fn mm1_closed_forms() {
        let q = Mm1Link::new(5.0, 10.0);
        assert!((q.rho - 0.5).abs() < 1e-12);
        assert!((q.mean_sojourn_s - 0.2).abs() < 1e-12);
        assert!((q.var_sojourn_s2 - 0.04).abs() < 1e-12);
        assert!((q.mean_in_system() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mm1_zero_load() {
        let q = Mm1Link::new(0.0, 10.0);
        assert_eq!(q.rho, 0.0);
        // Sojourn = pure service time 1/mu.
        assert!((q.mean_sojourn_s - 0.1).abs() < 1e-12);
        assert_eq!(q.mean_in_system(), 0.0);
    }

    #[test]
    fn mm1_unstable_is_infinite() {
        let q = Mm1Link::new(12.0, 10.0);
        assert!(q.mean_sojourn_s.is_infinite());
        assert!(q.var_sojourn_s2.is_infinite());
        assert!(q.mean_in_system().is_infinite());
    }

    #[test]
    fn network_predicts_sum_over_path() {
        let g = nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        let mut tm = TrafficMatrix::zeros(g.n_nodes());
        // single flow 0 -> some far node
        tm.set_demand(NodeId(0), NodeId(12), 2_000.0);
        let net = Mm1Network::build(&g, &r, &tm, 1_000.0);
        assert!(net.is_stable());
        let path = r.path(NodeId(0), NodeId(12));
        let pred = net.predict_path(path);
        // Loaded links on the path: lambda 2 pps; others idle.
        // capacity default 10_000 bps / 1000 bits = 10 pps
        let hop = path.len() as f64;
        let expected_mean = hop / (10.0 - 2.0);
        assert!((pred.mean_delay_s - expected_mean).abs() < 1e-12);
        let expected_var = hop / ((10.0 - 2.0) * (10.0 - 2.0));
        assert!((pred.jitter_s2 - expected_var).abs() < 1e-12);
    }

    #[test]
    fn predict_all_matches_pair_order() {
        let g = nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        let mut tm = TrafficMatrix::zeros(g.n_nodes());
        tm.set_demand(NodeId(1), NodeId(2), 1_000.0);
        let net = Mm1Network::build(&g, &r, &tm, 1_000.0);
        let all = net.predict_all(&r);
        assert_eq!(all.len(), r.n_pairs());
        let idx = r
            .pairs()
            .position(|(s, d, _)| s == NodeId(1) && d == NodeId(2))
            .unwrap();
        let direct = net.predict_path(r.path(NodeId(1), NodeId(2)));
        assert_eq!(all[idx], direct);
    }

    #[test]
    fn mm1k_blocking_closed_form() {
        // rho = 0.5, K = 2: P = (1-r)r^2/(1-r^3) = 0.125/0.875 = 1/7
        let q = Mm1kLink::new(5.0, 10.0, 2);
        assert!((q.block_prob - 1.0 / 7.0).abs() < 1e-12);
        // K -> inf recovers M/M/1: blocking -> 0, sojourn -> 1/(mu-lambda)
        let q = Mm1kLink::new(5.0, 10.0, 200);
        assert!(q.block_prob < 1e-10);
        assert!((q.mean_sojourn_s - 0.2).abs() < 1e-6);
    }

    #[test]
    fn mm1k_overload_is_finite() {
        // Unlike M/M/1, the finite queue is stable past rho = 1.
        let q = Mm1kLink::new(20.0, 10.0, 5);
        assert!(q.block_prob > 0.5 && q.block_prob < 1.0);
        assert!(q.mean_sojourn_s.is_finite() && q.mean_sojourn_s > 0.0);
        // At exactly rho = 1: P = 1/(K+1).
        let q = Mm1kLink::new(10.0, 10.0, 4);
        assert!((q.block_prob - 0.2).abs() < 1e-9);
    }

    #[test]
    fn mm1k_zero_load() {
        let q = Mm1kLink::new(0.0, 10.0, 3);
        assert_eq!(q.block_prob, 0.0);
        assert!((q.mean_sojourn_s - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mm1k_network_path_drop_combines_links() {
        let g = nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        let mut tm = TrafficMatrix::zeros(g.n_nodes());
        tm.set_demand(NodeId(0), NodeId(12), 9_000.0); // rho 0.9 on path links
        let net = Mm1kNetwork::build(&g, &r, &tm, 1_000.0, 3);
        let path = r.path(NodeId(0), NodeId(12));
        let (_, drop) = net.predict_path(path);
        let per_link = Mm1kLink::new(9.0, 10.0, 3).block_prob;
        let expected = 1.0 - (1.0 - per_link).powi(path.len() as i32);
        assert!((drop - expected).abs() < 1e-12);
        assert_eq!(net.predict_all(&r).len(), r.n_pairs());
    }

    #[test]
    fn mg1_reduces_to_mm1_for_cv2_one() {
        let mm1 = Mm1Link::new(5.0, 10.0);
        let mg1 = Mg1Link::new(5.0, 10.0, 1.0);
        assert!((mg1.mean_sojourn_s - mm1.mean_sojourn_s).abs() < 1e-12);
        // Exponential services: sojourn is exponential, variance 1/(mu-l)^2.
        assert!((mg1.var_sojourn_s2 - mm1.var_sojourn_s2).abs() < 1e-12);
    }

    #[test]
    fn md1_wait_is_half_of_mm1_wait() {
        // Classic result: deterministic service halves the mean queue wait.
        let lambda = 8.0;
        let mu = 10.0;
        let mm1 = Mm1Link::new(lambda, mu);
        let md1 = Mg1Link::new(lambda, mu, 0.0);
        let wq_mm1 = mm1.mean_sojourn_s - 1.0 / mu;
        let wq_md1 = md1.mean_sojourn_s - 1.0 / mu;
        assert!((wq_md1 - wq_mm1 / 2.0).abs() < 1e-12);
        assert!(md1.mean_sojourn_s < mm1.mean_sojourn_s);
    }

    #[test]
    fn mg1_unstable_is_infinite() {
        let q = Mg1Link::new(11.0, 10.0, 0.5);
        assert!(q.mean_sojourn_s.is_infinite());
        assert!(q.var_sojourn_s2.is_infinite());
    }

    #[test]
    fn service_cv2_values() {
        use crate::sim::SizeDistribution;
        assert_eq!(service_cv2(&SizeDistribution::Exponential), 1.0);
        assert_eq!(service_cv2(&SizeDistribution::Deterministic), 0.0);
        let cv2 = service_cv2(&SizeDistribution::Bimodal {
            p_small: 0.7,
            small_frac: 0.3,
        });
        assert!(cv2 > 0.0 && cv2.is_finite());
        // Degenerate bimodal where both sizes equal the mean => cv2 ~ 0.
        let cv2 = service_cv2(&SizeDistribution::Bimodal {
            p_small: 0.5,
            small_frac: 1.0,
        });
        assert!(cv2.abs() < 1e-12);
    }

    #[test]
    fn mg1_network_matches_per_link_math() {
        let g = nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        let mut tm = TrafficMatrix::zeros(g.n_nodes());
        tm.set_demand(NodeId(0), NodeId(12), 2_000.0);
        let net = Mg1Network::build(
            &g,
            &r,
            &tm,
            1_000.0,
            &crate::sim::SizeDistribution::Deterministic,
        );
        let path = r.path(NodeId(0), NodeId(12));
        let pred = net.predict_path(path);
        // Each loaded link: lambda 2, mu 10, cv2 0 => W = 0.1 + 2*0.01/(2*0.8).
        let per_link = 0.1 + 2.0 * 0.01 / (2.0 * 0.8);
        assert!((pred.mean_delay_s - per_link * path.len() as f64).abs() < 1e-12);
        assert_eq!(net.predict_all(&r).len(), r.n_pairs());
    }

    #[test]
    fn propagation_delay_added_to_mean_not_jitter() {
        let mut g = routenet_netgraph::Graph::new("pd", 2);
        g.add_duplex(NodeId(0), NodeId(1), 10_000.0, 0.5).unwrap();
        let r = shortest_path_routing(&g).unwrap();
        let mut tm = TrafficMatrix::zeros(2);
        tm.set_demand(NodeId(0), NodeId(1), 1_000.0);
        let net = Mm1Network::build(&g, &r, &tm, 1_000.0);
        let pred = net.predict_path(r.path(NodeId(0), NodeId(1)));
        // mu=10, lambda=1 -> sojourn 1/9; plus 0.5s propagation
        assert!((pred.mean_delay_s - (1.0 / 9.0 + 0.5)).abs() < 1e-12);
        assert!((pred.jitter_s2 - 1.0 / 81.0).abs() < 1e-12);
    }
}
