//! Property-based tests for the netgraph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_netgraph::algo::{
    avg_path_length_hops, diameter_hops, is_strongly_connected, k_shortest_paths, path_weight,
    shortest_path,
};
use routenet_netgraph::generate::{barabasi_albert, erdos_renyi, synthetic};
use routenet_netgraph::routing::{
    k_path_random_routing, randomized_routing, shortest_path_routing,
};
use routenet_netgraph::topology::{assign_capacities, CapacityScheme};
use routenet_netgraph::traffic::{
    link_loads, link_utilizations, max_utilization, sample_structure, sample_traffic_matrix,
    scale_to_max_utilization, TrafficModel,
};
use routenet_netgraph::{Graph, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generator family yields a strongly connected graph of the right
    /// order for any seed.
    #[test]
    fn generators_always_connected(seed in 0u64..1000, n in 4usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, 0.15, &mut rng);
        prop_assert_eq!(g.n_nodes(), n);
        prop_assert!(is_strongly_connected(&g));

        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(n.max(4), 2, &mut rng);
        prop_assert!(is_strongly_connected(&g));
    }

    /// Dijkstra on unit weights equals hop-count BFS distance; its length is
    /// bounded by the diameter.
    #[test]
    fn shortest_paths_bounded_by_diameter(seed in 0u64..500, n in 4usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = erdos_renyi(n, 0.25, &mut rng);
        g.set_unit_weights();
        let diam = diameter_hops(&g).expect("connected");
        for (s, d) in g.node_pairs() {
            let p = shortest_path(&g, s, d).expect("connected");
            prop_assert!(p.len() - 1 <= diam);
            prop_assert_eq!(path_weight(&g, &p).unwrap(), (p.len() - 1) as f64);
        }
        let avg = avg_path_length_hops(&g).unwrap();
        prop_assert!(avg <= diam as f64);
        prop_assert!(avg >= 1.0);
    }

    /// Yen's k-shortest paths are sorted by weight, loopless, and start with
    /// the Dijkstra path.
    #[test]
    fn yen_sorted_and_simple(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(8, 0.4, &mut rng);
        let (s, d) = (NodeId(0), NodeId(7));
        let paths = k_shortest_paths(&g, s, d, 5);
        prop_assert!(!paths.is_empty());
        prop_assert_eq!(&paths[0], &shortest_path(&g, s, d).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for p in &paths {
            let w = path_weight(&g, p).unwrap();
            prop_assert!(w >= prev - 1e-12);
            prev = w;
            let uniq: std::collections::HashSet<_> = p.iter().collect();
            prop_assert_eq!(uniq.len(), p.len());
        }
        // pairwise distinct
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                prop_assert_ne!(&paths[i], &paths[j]);
            }
        }
    }

    /// Every routing builder produces a scheme that validates and routes all
    /// pairs on any connected random graph.
    #[test]
    fn routing_builders_always_valid(seed in 0u64..300, n in 4usize..16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, 0.3, &mut rng);
        let r = shortest_path_routing(&g).unwrap();
        r.validate(&g).unwrap();
        let r = randomized_routing(&g, 3.0, &mut rng).unwrap();
        r.validate(&g).unwrap();
        let r = k_path_random_routing(&g, 3, &mut rng).unwrap();
        r.validate(&g).unwrap();
        prop_assert_eq!(r.n_pairs(), n * (n - 1));
    }

    /// Link loads are non-negative, and total load equals sum(demand * hops).
    #[test]
    fn load_conservation(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = synthetic(12, &mut rng);
        let r = shortest_path_routing(&g).unwrap();
        let tm = sample_structure(12, &TrafficModel::Gravity, &mut rng);
        let loads = link_loads(&g, &r, &tm);
        prop_assert!(loads.iter().all(|&l| l >= 0.0));
        let expected: f64 = tm.entries().map(|(s, d, v)| v * r.hops(s, d) as f64).sum();
        let got: f64 = loads.iter().sum();
        prop_assert!((got - expected).abs() <= 1e-9 * expected.max(1.0));
    }

    /// Scaling to a target utilization always lands exactly on the target,
    /// for every traffic model and intensity.
    #[test]
    fn intensity_scaling_exact(seed in 0u64..300, util in 0.05f64..0.95) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = synthetic(10, &mut rng);
        assign_capacities(&mut g, &CapacityScheme::kdn_default(), &mut rng);
        let r = shortest_path_routing(&g).unwrap();
        for model in [
            TrafficModel::Uniform { min_frac: 0.1 },
            TrafficModel::Gravity,
            TrafficModel::Hotspot { hot_frac: 0.2, hot_mult: 5.0 },
        ] {
            let mut tm = sample_structure(10, &model, &mut rng);
            scale_to_max_utilization(&g, &r, &mut tm, util);
            let mu = max_utilization(&g, &r, &tm);
            prop_assert!((mu - util).abs() < 1e-9, "model {:?}: {} != {}", model, mu, util);
            for u in link_utilizations(&g, &r, &tm) {
                prop_assert!(u <= util + 1e-9);
            }
        }
    }

    /// sample_traffic_matrix is deterministic in the seed.
    #[test]
    fn traffic_deterministic(seed in 0u64..200) {
        let g = routenet_netgraph::topology::nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        let tm1 = sample_traffic_matrix(&g, &r, &TrafficModel::Gravity, 0.5,
            &mut StdRng::seed_from_u64(seed));
        let tm2 = sample_traffic_matrix(&g, &r, &TrafficModel::Gravity, 0.5,
            &mut StdRng::seed_from_u64(seed));
        for ((_, _, a), (_, _, b)) in tm1.entries().zip(tm2.entries()) {
            prop_assert_eq!(a, b);
        }
    }
}

/// Duplex graphs are symmetric: every link has a reverse twin.
#[test]
fn zoo_graphs_are_symmetric() {
    for g in [
        routenet_netgraph::topology::nsfnet(),
        routenet_netgraph::topology::geant2(),
        routenet_netgraph::topology::gbn(),
    ] {
        for (_, l) in g.links() {
            assert!(
                g.link_between(l.dst, l.src).is_some(),
                "{}: missing reverse of {}->{}",
                g.name,
                l.src,
                l.dst
            );
        }
    }
}

/// Graph JSON roundtrip preserves routing behaviour.
#[test]
fn graph_serde_preserves_routing() {
    let g = routenet_netgraph::topology::geant2();
    let json = serde_json::to_string(&g).unwrap();
    let mut g2: Graph = serde_json::from_str(&json).unwrap();
    g2.rebuild_index();
    let r1 = shortest_path_routing(&g).unwrap();
    let r2 = shortest_path_routing(&g2).unwrap();
    for (s, d) in g.node_pairs() {
        assert_eq!(r1.path(s, d), r2.path(s, d));
    }
}
