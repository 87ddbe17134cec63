//! Run one packet-level simulation scenario with full cost telemetry.
//!
//! The dataset pipeline deliberately silences per-sample [`Event::SimRun`]
//! events (one aggregate per dataset instead); this binary is the
//! single-scenario complement — it runs exactly one simulation with an
//! enabled telemetry handle and writes the event log next to its output.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin simulate -- \
//!     [--topology nsfnet|geant2|gbn|synth] [--nodes 20] [--seed 1] \
//!     [--duration 120] [--warmup 10] [--intensity 0.7] \
//!     [--out sim.telemetry.jsonl]
//! ```
//!
//! [`Event::SimRun`]: routenet_obs::Event::SimRun

use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_bench::{usage_exit, Args};
use routenet_dataset::TopologySpec;
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::topology::{assign_capacities, CapacityScheme};
use routenet_netgraph::traffic::{sample_traffic_matrix, TrafficModel};
use routenet_obs::Telemetry;
use routenet_simnet::sim::{simulate, SimConfig, SizeDistribution};

const USAGE: &str = "simulate [--topology nsfnet|geant2|gbn|synth] [--nodes 20] [--seed 1] \
                     [--duration 120] [--warmup 10] [--intensity 0.7] \
                     [--out sim.telemetry.jsonl] [--no-telemetry]";

fn main() {
    let args = Args::from_env(USAGE);
    let seed = args.get_or("seed", 1u64);
    let intensity = args.get_or("intensity", 0.7f64);
    let nodes = args.get_or("nodes", 20usize);
    let duration_s = args.get_or("duration", 120.0f64);
    let warmup_s = args.get_or("warmup", 10.0f64);
    if !(intensity.is_finite() && intensity > 0.0) {
        usage_exit(USAGE, "--intensity must be finite and positive");
    }
    let topo_name = args.get("topology").unwrap_or("nsfnet");
    let spec = match topo_name {
        "nsfnet" => TopologySpec::Nsfnet,
        "geant2" => TopologySpec::Geant2,
        "gbn" => TopologySpec::Gbn,
        "synth" if nodes < 3 => usage_exit(USAGE, "--nodes must be >= 3"),
        "synth" => TopologySpec::Synthetic {
            n: nodes,
            topo_seed: seed,
        },
        other => usage_exit(USAGE, &format!("unknown --topology {other:?}")),
    };
    let mut cfg = SimConfig {
        duration_s,
        warmup_s,
        size_dist: SizeDistribution::Deterministic,
        seed,
        ..SimConfig::default()
    };
    if let Err(e) = cfg.validate() {
        usage_exit(USAGE, &e.to_string());
    }
    let out = args.get("out").unwrap_or("sim.telemetry.jsonl");
    let tel = if args.get("no-telemetry").is_some() {
        Telemetry::disabled()
    } else {
        Telemetry::to_file("simulate", &format!("{topo_name} seed={seed}"), out)
    };

    // Same scenario recipe as dataset labeling: KDN-style capacities, a
    // uniform traffic structure rescaled to the target bottleneck
    // utilization, deterministic (MTU-like) packet sizes.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = spec.build();
    assign_capacities(&mut graph, &CapacityScheme::kdn_default(), &mut rng);
    let routing = shortest_path_routing(&graph).unwrap_or_else(|e| {
        eprintln!("routing failed on {topo_name}: {e}");
        std::process::exit(1);
    });
    let traffic = sample_traffic_matrix(
        &graph,
        &routing,
        &TrafficModel::Uniform { min_frac: 0.25 },
        intensity,
        &mut rng,
    );
    cfg.telemetry = tel.clone();
    let res = simulate(&graph, &routing, &traffic, &cfg).unwrap_or_else(|e| {
        eprintln!("simulation rejected: {e}");
        std::process::exit(1);
    });

    let max_util = res.link_utilization.iter().cloned().fold(0.0, f64::max);
    println!(
        "{topo_name}: {} nodes, {} flows, intensity {intensity:.2}",
        graph.n_nodes(),
        res.flows.len()
    );
    println!(
        "events {}  packets {}  mean delay {}  max link util {max_util:.3}",
        res.events_processed,
        res.total_packets,
        res.overall_mean_delay_s()
            .map_or("n/a".into(), |d| format!("{:.6}s", d)),
    );
    if tel.enabled() {
        eprint!("{}", tel.summary_table());
        match tel.finish() {
            Ok(()) => eprintln!("# telemetry -> {out}"),
            Err(e) => eprintln!("warning: telemetry log incomplete: {e}"),
        }
    }
}
