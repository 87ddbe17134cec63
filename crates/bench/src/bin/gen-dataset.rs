//! CLI dataset generator.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin gen-dataset -- \
//!     --topology nsfnet --samples 100 --seed 1 --out nsfnet.jsonl \
//!     [--routing randomized|fixed|kshortest] [--intensity-min 0.2] \
//!     [--intensity-max 0.8] [--duration 800] [--synth-nodes 50]
//! ```

use routenet_bench::{usage_exit, Args};
use routenet_dataset::gen::{generate_dataset, GenConfig, RoutingDiversity, TopologySpec};
use routenet_dataset::io::save_jsonl;

const USAGE: &str = "gen-dataset [--topology nsfnet|geant2|gbn|synth] [--samples 10] [--seed 1] \
                     [--out dataset.jsonl] [--routing randomized|fixed|kshortest] \
                     [--intensity-min 0.2] [--intensity-max 0.8] [--duration 800] \
                     [--synth-nodes 50]";

fn main() {
    let args = Args::from_env(USAGE);
    let synth_nodes = args.get_or("synth-nodes", 50);
    let topology = match args.get("topology").unwrap_or("nsfnet") {
        "nsfnet" => TopologySpec::Nsfnet,
        "geant2" => TopologySpec::Geant2,
        "gbn" => TopologySpec::Gbn,
        // The generator's preferential attachment needs a 3-node seed clique.
        "synth" if synth_nodes < 3 => usage_exit(USAGE, "--synth-nodes must be >= 3"),
        "synth" => TopologySpec::Synthetic {
            n: synth_nodes,
            topo_seed: routenet_dataset::split::SYNTH50_TOPOLOGY_SEED,
        },
        other => usage_exit(USAGE, &format!("unknown topology {other:?}")),
    };
    let samples: usize = args.get_or("samples", 10);
    let seed: u64 = args.get_or("seed", 1);
    let out = args.get("out").unwrap_or("dataset.jsonl");

    let mut cfg = GenConfig::new(topology, samples, seed);
    match args.get("routing") {
        Some("fixed") => cfg.routing = RoutingDiversity::Fixed,
        Some("kshortest") => cfg.routing = RoutingDiversity::KShortest { k: 4 },
        Some("randomized") | None => {}
        Some(other) => usage_exit(USAGE, &format!("unknown routing {other:?}")),
    }
    cfg.intensity_min = args.get_or("intensity-min", cfg.intensity_min);
    cfg.intensity_max = args.get_or("intensity-max", cfg.intensity_max);
    let (lo, hi) = (cfg.intensity_min, cfg.intensity_max);
    if !(lo > 0.0 && lo <= hi && hi.is_finite()) {
        usage_exit(
            USAGE,
            "intensities must be finite with 0 < --intensity-min <= --intensity-max",
        );
    }
    // The warmup is a tenth of the run, as in `GenConfig`'s default.
    let duration: f64 = args.get_or("duration", cfg.sim.duration_s);
    if !(duration.is_finite() && duration > 0.0) {
        usage_exit(USAGE, "--duration must be finite and positive");
    }
    cfg.sim.duration_s = duration;
    cfg.sim.warmup_s = duration / 10.0;

    eprintln!(
        "generating {samples} samples on {} (seed {seed})...",
        cfg.topology.name()
    );
    let t0 = std::time::Instant::now();
    let ds = generate_dataset(&cfg);
    eprintln!(
        "generated in {:.1}s, writing {out}",
        t0.elapsed().as_secs_f64()
    );
    save_jsonl(out, &ds).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    println!("{} samples -> {out}", ds.len());
}
