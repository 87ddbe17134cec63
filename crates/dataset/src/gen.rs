//! Dataset generation: simulate network scenarios into labeled samples.
//!
//! Reproduces the paper's §2.1 data protocol: for a given topology, draw a
//! routing scheme and a traffic matrix per sample ("a wide variety of routing
//! schemes and traffic matrices with different traffic intensity"), run the
//! packet-level simulator, and record per-pair mean delay and jitter labels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::par;
use routenet_core::sample::{Sample, Scenario, TargetKpi};
use routenet_netgraph::routing::{
    destination_based_routing, k_path_random_routing, randomized_routing, shortest_path_routing,
    RoutingScheme,
};
use routenet_netgraph::topology::{assign_capacities, CapacityScheme};
use routenet_netgraph::traffic::{sample_traffic_matrix, TrafficModel};
use routenet_netgraph::{generate, topology, Graph};
use routenet_obs::{Event, Telemetry};
use routenet_simnet::sim::{simulate, SimConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which topology a dataset is generated on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// 14-node NSFNET (training topology #1 in the paper).
    Nsfnet,
    /// 24-node Geant2 (the paper's unseen evaluation topology).
    Geant2,
    /// 17-node GBN (extra held-out topology for extension experiments).
    Gbn,
    /// The synthetic scale-free topology family; the paper's second training
    /// topology is `Synthetic { n: 50, topo_seed: .. }`.
    Synthetic {
        /// Number of nodes.
        n: usize,
        /// Seed that fixes the generated graph.
        topo_seed: u64,
    },
}

impl TopologySpec {
    /// Instantiate the graph (capacities not yet assigned).
    pub fn build(&self) -> Graph {
        match self {
            TopologySpec::Nsfnet => topology::nsfnet(),
            TopologySpec::Geant2 => topology::geant2(),
            TopologySpec::Gbn => topology::gbn(),
            TopologySpec::Synthetic { n, topo_seed } => {
                let mut rng = StdRng::seed_from_u64(*topo_seed);
                generate::synthetic(*n, &mut rng)
            }
        }
    }

    /// Canonical display name, used as `Sample::topology`.
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Nsfnet => "NSFNET".into(),
            TopologySpec::Geant2 => "Geant2".into(),
            TopologySpec::Gbn => "GBN".into(),
            TopologySpec::Synthetic { n, .. } => format!("Synth-{n}"),
        }
    }
}

/// How routing schemes vary across samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoutingDiversity {
    /// Every sample uses deterministic shortest-path routing.
    Fixed,
    /// Random link-weight perturbation per sample (`spread` as in
    /// [`randomized_routing`]).
    Randomized {
        /// Weight-perturbation spread.
        spread: f64,
    },
    /// Uniform choice among the k shortest paths per pair, per sample.
    KShortest {
        /// Number of candidate paths per pair.
        k: usize,
    },
    /// Destination-based forwarding (reverse shortest-path trees) on
    /// per-sample randomly perturbed weights — forwarding-consistent like
    /// real IP routing, yet diverse across samples.
    DestinationBased {
        /// Weight-perturbation spread, as in [`randomized_routing`].
        spread: f64,
    },
}

/// Full generation recipe for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenConfig {
    /// Topology to generate on.
    pub topology: TopologySpec,
    /// Link capacity assignment (per sample, re-randomized).
    pub capacities: CapacityScheme,
    /// Number of samples.
    pub n_samples: usize,
    /// Routing-scheme diversity.
    pub routing: RoutingDiversity,
    /// Traffic-matrix structural model.
    pub traffic: TrafficModel,
    /// Intensity range: per sample, the target max-link utilization is drawn
    /// uniformly from `[intensity_min, intensity_max]`.
    pub intensity_min: f64,
    /// Upper intensity bound.
    pub intensity_max: f64,
    /// Simulator settings used for labeling (seed is overridden per sample).
    pub sim: SimConfig,
    /// Base seed; sample `i` uses `base_seed + i` for all of its draws.
    pub base_seed: u64,
}

impl GenConfig {
    /// Default recipe for `topology`.
    ///
    /// Labels use Poisson arrivals with **deterministic (MTU-like) packet
    /// sizes**, so each queue behaves as M/D/1 rather than M/M/1. This
    /// matches the paper's motivation that analytic models fail under real
    /// traffic characteristics: the per-link M/M/1 baseline systematically
    /// overestimates M/D/1 delay (up to ~40% at high load) and its jitter
    /// estimate is off by an order of magnitude — exactly the gap RouteNet
    /// learns from data. Use [`GenConfig::mm1_exact`] for the sanity variant
    /// whose labels M/M/1 predicts perfectly.
    pub fn new(topology: TopologySpec, n_samples: usize, base_seed: u64) -> Self {
        GenConfig {
            topology,
            capacities: CapacityScheme::kdn_default(),
            n_samples,
            routing: RoutingDiversity::Randomized { spread: 2.0 },
            traffic: TrafficModel::Uniform { min_frac: 0.25 },
            intensity_min: 0.2,
            intensity_max: 0.8,
            sim: SimConfig {
                duration_s: 800.0,
                warmup_s: 80.0,
                size_dist: routenet_simnet::sim::SizeDistribution::Deterministic,
                ..SimConfig::default()
            },
            base_seed,
        }
    }

    /// Variant with exponential packet sizes (labels are per-link M/M/1;
    /// the analytic baseline is near-perfect — useful as a sanity check).
    pub fn mm1_exact(topology: TopologySpec, n_samples: usize, base_seed: u64) -> Self {
        let mut cfg = Self::new(topology, n_samples, base_seed);
        cfg.sim.size_dist = routenet_simnet::sim::SizeDistribution::Exponential;
        cfg
    }
}

/// Generate the `i`-th sample of `cfg` (deterministic in `cfg.base_seed + i`).
pub fn generate_sample(cfg: &GenConfig, i: usize) -> Sample {
    let seed = cfg.base_seed.wrapping_add(i as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = cfg.topology.build();
    assign_capacities(&mut graph, &cfg.capacities, &mut rng);
    #[expect(
        clippy::expect_used,
        reason = "generator only emits strongly connected graphs; routing cannot fail"
    )]
    let routing: RoutingScheme = match &cfg.routing {
        RoutingDiversity::Fixed => shortest_path_routing(&graph),
        RoutingDiversity::Randomized { spread } => randomized_routing(&graph, *spread, &mut rng),
        RoutingDiversity::KShortest { k } => k_path_random_routing(&graph, *k, &mut rng),
        RoutingDiversity::DestinationBased { spread } => {
            let mut pg = graph.clone();
            let ids: Vec<_> = pg.links().map(|(id, _)| id).collect();
            for id in ids {
                let f = 1.0 + rand::Rng::gen::<f64>(&mut rng) * spread;
                pg.adj_link_mut(id).weight *= f;
            }
            // Build on perturbed weights, then re-express on the original
            // graph (identical structure, so paths transfer verbatim).
            destination_based_routing(&pg)
        }
    }
    .expect("zoo/generator topologies are strongly connected");
    let intensity = rng.gen_range(cfg.intensity_min..=cfg.intensity_max);
    let traffic = sample_traffic_matrix(&graph, &routing, &cfg.traffic, intensity, &mut rng);
    // Strip the telemetry handle: a dataset run simulates hundreds of
    // scenarios, and one SimRun event per sample would flood the log (and,
    // with a file sink, rewrite it O(n²)). The dataset layer reports its
    // own aggregate ([`Event::DatasetGen`]) instead.
    let sim_cfg = SimConfig {
        seed,
        telemetry: Telemetry::disabled(),
        ..cfg.sim.clone()
    };
    #[expect(
        clippy::expect_used,
        reason = "config built from validated GenConfig fields; a rejection is a generator bug"
    )]
    let result = simulate(&graph, &routing, &traffic, &sim_cfg).expect("valid sim config");
    // Map flows back to canonical pair order explicitly (robust even if a
    // traffic model produced zero-demand pairs, which carry no flow).
    // Ordered map: label construction must stay deterministic even if this
    // is ever iterated (clippy's hash-iteration lints).
    let mut by_pair = std::collections::BTreeMap::new();
    for f in &result.flows {
        by_pair.insert(
            (f.src, f.dst),
            TargetKpi {
                delay_s: f.mean_delay_s,
                jitter_s2: f.jitter_s2,
                drop_prob: f.drop_prob(),
            },
        );
    }
    let targets: Vec<TargetKpi> = graph
        .node_pairs()
        .map(|(s, d)| {
            by_pair.get(&(s, d)).copied().unwrap_or(TargetKpi {
                delay_s: 0.0,
                jitter_s2: 0.0,
                drop_prob: 0.0,
            })
        })
        .collect();
    let sample = Sample {
        scenario: Scenario {
            graph,
            routing,
            traffic,
        },
        targets,
        topology: cfg.topology.name(),
        intensity,
        seed,
    };
    debug_assert_eq!(sample.targets.len(), sample.scenario.n_pairs());
    sample
}

/// Generate a full dataset on one worker per available core. Output order
/// is by sample index, and the bytes are the same at any worker count.
pub fn generate_dataset(cfg: &GenConfig) -> Vec<Sample> {
    generate_dataset_with_threads(cfg, 0)
}

/// [`generate_sample`] wrapped in a per-sample wall-clock measurement.
/// Returns the elapsed seconds (0.0 when telemetry is disabled) so the
/// caller can aggregate per-dataset statistics without re-reading the
/// process-wide histogram.
fn generate_sample_timed(cfg: &GenConfig, i: usize) -> (Sample, f64) {
    let t0 = cfg.sim.telemetry.enabled().then(Instant::now);
    let s = generate_sample(cfg, i);
    match t0 {
        Some(t0) => {
            let dt = t0.elapsed().as_secs_f64();
            cfg.sim.telemetry.observe_s("dataset.sample_s", dt);
            (s, dt)
        }
        None => (s, 0.0),
    }
}

/// Generate with an explicit thread count: 0 means one worker per
/// available core, 1 runs on the caller's thread. Worker `w` of `W`
/// generates the sample indices `w, w + W, …` (each sample seeds its own RNG
/// from `base_seed + i`) and [`par::strided_map`] returns them in index
/// order, so the output is byte-identical at any thread count.
///
/// When `cfg.sim.telemetry` is enabled, each sample's generation time is
/// recorded (the handle is stripped from the per-sample simulator calls,
/// see [`generate_sample`]) and one [`Event::DatasetGen`] aggregate is
/// emitted per call.
pub fn generate_dataset_with_threads(cfg: &GenConfig, threads: usize) -> Vec<Sample> {
    let tel = &cfg.sim.telemetry;
    let run_t0 = tel.enabled().then(Instant::now);
    let workers = par::resolve_threads(threads).min(cfg.n_samples).max(1);
    let indices: Vec<usize> = (0..cfg.n_samples).collect();
    let timed = par::strided_map(&indices, &mut vec![(); workers], |sub, ()| {
        sub.iter().map(|&i| generate_sample_timed(cfg, i)).collect()
    });
    let (samples, sample_times): (Vec<Sample>, Vec<f64>) = timed.into_iter().unzip();
    if let Some(t0) = run_t0 {
        let wall_s = t0.elapsed().as_secs_f64();
        let n = sample_times.len();
        let sum: f64 = sample_times.iter().sum();
        let max = sample_times.iter().fold(0.0f64, |a, &b| a.max(b));
        tel.emit(Event::DatasetGen {
            topology: cfg.topology.name(),
            samples: n,
            workers,
            wall_s,
            mean_sample_s: if n > 0 { sum / n as f64 } else { 0.0 },
            max_sample_s: max,
        });
        tel.counter_add("dataset.samples", n as u64);
        tel.observe_s("dataset.gen_s", wall_s);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GenConfig {
        let mut cfg = GenConfig::new(
            TopologySpec::Synthetic {
                n: 6,
                topo_seed: 42,
            },
            4,
            100,
        );
        cfg.sim.duration_s = 60.0;
        cfg.sim.warmup_s = 6.0;
        cfg
    }

    #[test]
    fn samples_validate_and_have_labels() {
        let cfg = tiny_cfg();
        let ds = generate_dataset_with_threads(&cfg, 1);
        assert_eq!(ds.len(), 4);
        for s in &ds {
            s.validate().unwrap();
            assert_eq!(s.topology, "Synth-6");
            assert_eq!(s.targets.len(), 30);
            assert!(s.targets.iter().all(|t| t.delay_s > 0.0));
            assert!((cfg.intensity_min..=cfg.intensity_max).contains(&s.intensity));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = tiny_cfg();
        let a = generate_sample(&cfg, 2);
        let b = generate_sample(&cfg, 2);
        assert_eq!(a.seed, b.seed);
        for (x, y) in a.targets.iter().zip(&b.targets) {
            assert_eq!(x.delay_s, y.delay_s);
            assert_eq!(x.jitter_s2, y.jitter_s2);
        }
    }

    #[test]
    fn samples_differ_across_indices() {
        let cfg = tiny_cfg();
        let a = generate_sample(&cfg, 0);
        let b = generate_sample(&cfg, 1);
        assert_ne!(a.seed, b.seed);
        let da: Vec<f64> = a.targets.iter().map(|t| t.delay_s).collect();
        let db: Vec<f64> = b.targets.iter().map(|t| t.delay_s).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn generation_emits_one_aggregate_event_and_no_simruns() {
        let mut cfg = tiny_cfg();
        let tel = Telemetry::in_memory("dataset", "test");
        cfg.sim.telemetry = tel.clone();
        let ds = generate_dataset_with_threads(&cfg, 2);
        assert_eq!(ds.len(), 4);
        let records = tel.records();
        // The per-sample simulator calls run with a stripped handle, so the
        // log holds exactly one DatasetGen aggregate and zero SimRun events.
        assert!(records.iter().all(|r| r.event.kind() != "SimRun"));
        let gens: Vec<_> = records
            .iter()
            .filter(|r| r.event.kind() == "DatasetGen")
            .collect();
        assert_eq!(gens.len(), 1);
        match &gens[0].event {
            Event::DatasetGen {
                topology,
                samples,
                workers,
                mean_sample_s,
                max_sample_s,
                ..
            } => {
                assert_eq!(topology, "Synth-6");
                assert_eq!(*samples, 4);
                assert_eq!(*workers, 2);
                assert!(*mean_sample_s > 0.0);
                assert!(*max_sample_s >= *mean_sample_s);
            }
            other => panic!("expected DatasetGen, got {other:?}"),
        }
        assert_eq!(tel.counter("dataset.samples"), 4);
        assert!(tel.histogram_summary("dataset.sample_s").is_some());
    }

    /// The dataset's byte-identity contract at the generation site: every
    /// sample's full JSON line is the same at 1, 2, 3 (an uneven split of
    /// the 4 samples) and all-core (0) workers.
    #[test]
    fn parallel_equals_sequential() {
        let cfg = tiny_cfg();
        let lines = |threads: usize| -> Vec<String> {
            generate_dataset_with_threads(&cfg, threads)
                .iter()
                .map(|s| serde_json::to_string(s).unwrap())
                .collect()
        };
        let seq = lines(1);
        assert_eq!(seq.len(), 4);
        for threads in [2, 3, 0] {
            assert_eq!(lines(threads), seq, "{threads} worker(s)");
        }
    }

    #[test]
    fn fixed_routing_reuses_shortest_paths() {
        let mut cfg = tiny_cfg();
        cfg.routing = RoutingDiversity::Fixed;
        cfg.capacities = CapacityScheme::Uniform(10_000.0);
        let a = generate_sample(&cfg, 0);
        let b = generate_sample(&cfg, 1);
        for (s, d) in a.scenario.graph.node_pairs() {
            assert_eq!(a.scenario.routing.path(s, d), b.scenario.routing.path(s, d));
        }
    }

    #[test]
    fn destination_based_diversity_generates_valid_consistent_routes() {
        let mut cfg = tiny_cfg();
        cfg.routing = RoutingDiversity::DestinationBased { spread: 2.0 };
        let a = generate_sample(&cfg, 0);
        let b = generate_sample(&cfg, 1);
        a.validate().unwrap();
        b.validate().unwrap();
        // Suffix property holds on every sample.
        for s in [&a, &b] {
            let g = &s.scenario.graph;
            let r = &s.scenario.routing;
            for (src, dst, links) in r.pairs() {
                let mut cur = src;
                for (i, &l) in links.iter().enumerate() {
                    if cur != src {
                        assert_eq!(&links[i..], r.path(cur, dst));
                    }
                    cur = g.link(l).unwrap().dst;
                }
            }
        }
        // Different samples still get different routings (diversity).
        let differs = a
            .scenario
            .graph
            .node_pairs()
            .any(|(s, d)| a.scenario.routing.path(s, d) != b.scenario.routing.path(s, d));
        assert!(differs);
    }

    #[test]
    fn topology_specs_build_expected_graphs() {
        assert_eq!(TopologySpec::Nsfnet.build().n_nodes(), 14);
        assert_eq!(TopologySpec::Geant2.build().n_nodes(), 24);
        assert_eq!(TopologySpec::Gbn.build().n_nodes(), 17);
        let s = TopologySpec::Synthetic {
            n: 50,
            topo_seed: 1,
        };
        assert_eq!(s.build().n_nodes(), 50);
        assert_eq!(s.name(), "Synth-50");
        // topo_seed fixes the graph
        let g1 = s.build();
        let g2 = TopologySpec::Synthetic {
            n: 50,
            topo_seed: 1,
        }
        .build();
        let e1: Vec<_> = g1.links().map(|(_, l)| (l.src.0, l.dst.0)).collect();
        let e2: Vec<_> = g2.links().map(|(_, l)| (l.src.0, l.dst.0)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn intensity_influences_delays() {
        let mut lo = tiny_cfg();
        lo.intensity_min = 0.1;
        lo.intensity_max = 0.1;
        let mut hi = tiny_cfg();
        hi.intensity_min = 0.9;
        hi.intensity_max = 0.9;
        let a = generate_sample(&lo, 0);
        let b = generate_sample(&hi, 0);
        let mean =
            |s: &Sample| s.targets.iter().map(|t| t.delay_s).sum::<f64>() / s.targets.len() as f64;
        assert!(mean(&b) > mean(&a), "high intensity must raise delays");
    }
}
