//! **Variable-size generalization** — the abstract's stress test: "accurate
//! performance prediction in more complex scenarios including larger
//! topologies of variable size (up to 50 nodes)".
//!
//! Trains per the paper protocol (NSFNET-14 + Synth-50), then evaluates on
//! *fresh random topologies* of sizes 10..=50 that the model has never seen
//! (different graphs, not just different scenarios).
//!
//! ```text
//! cargo run -p routenet-bench --release --bin varsize -- \
//!     [--scale 1.0] [--epochs 30] [--seed 1] [--per-size 6]
//! ```

use routenet_bench::{run_experiment, scaled_protocol, Args};
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset, GenConfig, TopologySpec};

const USAGE: &str = "varsize [--scale 1.0] [--epochs 30] [--seed 1] [--per-size 6]";

fn main() {
    let args = Args::from_env(USAGE);
    let scale = args.get_or("scale", 1.0f64);
    let seed = args.get_or("seed", 1u64);
    let per_size = args.get_at_least("per-size", 6, 1);
    let epochs = args.get_at_least("epochs", 30, 1);
    let protocol = scaled_protocol(scale, seed);
    let train_cfg = TrainConfig {
        epochs,
        verbose: true,
        ..TrainConfig::default()
    };
    let exp = run_experiment(&protocol, RouteNetConfig::default(), &train_cfg, true)
        .unwrap_or_else(|e| panic!("training failed: {e}"));
    let mm1 = Mm1Baseline::default();

    println!("# varsize: error vs topology size on fresh random graphs (never seen)");
    println!("nodes,samples,paths,routenet_medRE,routenet_r,mm1_medRE,mm1_r");
    for n in [10usize, 20, 30, 40, 50] {
        // New graph per size: topo_seed differs from the training topology.
        let mut cfg = GenConfig::new(
            TopologySpec::Synthetic {
                n,
                topo_seed: 777_000 + n as u64,
            },
            per_size,
            900_000 + n as u64,
        );
        cfg.sim.duration_s = protocol.sim_duration_s;
        cfg.sim.warmup_s = protocol.sim_warmup_s;
        let set = generate_dataset(&cfg);
        let rn = collect_predictions(&exp.model, &set)
            .delay_summary()
            .expect("generated sets are non-empty");
        let qa = collect_predictions(&mm1, &set)
            .delay_summary()
            .expect("generated sets are non-empty");
        println!(
            "{n},{},{},{:.4},{:.4},{:.4},{:.4}",
            per_size, rn.n, rn.median_re, rn.pearson_r, qa.median_re, qa.pearson_r
        );
    }
    println!("# expected shape: RouteNet's median error stays flat-ish across sizes");
    println!("# (trained on 14 and 50 nodes, it interpolates the range between).");
}
