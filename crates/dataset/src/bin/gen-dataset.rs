//! CLI dataset generator.
//!
//! ```text
//! cargo run -p routenet-dataset --release --bin gen-dataset -- \
//!     --topology nsfnet --samples 100 --seed 1 --out nsfnet.jsonl \
//!     [--routing randomized|fixed|kshortest] [--intensity-min 0.2] \
//!     [--intensity-max 0.8] [--duration 800] [--synth-nodes 50]
//! ```

use routenet_dataset::gen::{generate_dataset, GenConfig, RoutingDiversity, TopologySpec};
use routenet_dataset::io::save_jsonl;

const USAGE: &str = "gen-dataset [--topology nsfnet|geant2|gbn|synth] [--samples 10] [--seed 1] \
                     [--out dataset.jsonl] [--routing randomized|fixed|kshortest] \
                     [--intensity-min 0.2] [--intensity-max 0.8] [--duration 800] \
                     [--synth-nodes 50]";

/// Whether `USAGE` declares `--key`. Any other key stops the run: an
/// ignored one (`--help`, a typo) would write a default dataset into the cwd.
fn declared(key: &str) -> bool {
    USAGE
        .split(|c: char| c.is_whitespace() || matches!(c, '[' | ']' | '|'))
        .any(|word| word.strip_prefix("--") == Some(key))
}

fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}\nusage: {USAGE}");
    std::process::exit(2)
}

/// `--key value` pairs, each key declared by `USAGE`.
fn parse_flags(argv: &[String]) -> Vec<(&str, &str)> {
    argv.chunks(2)
        .map(|kv| {
            let key = kv[0]
                .strip_prefix("--")
                .filter(|k| declared(k))
                .unwrap_or_else(|| usage_exit(&format!("unknown argument {:?}", kv[0])));
            match kv.get(1) {
                Some(v) => (key, v.as_str()),
                None => usage_exit(&format!("--{key} needs a value")),
            }
        })
        .collect()
}

/// The last value given for `--key`, parsed; exits 2 if it does not parse.
fn flag<T: std::str::FromStr>(flags: &[(&str, &str)], key: &str) -> Option<T> {
    let v = flags.iter().rev().find(|(k, _)| *k == key)?.1;
    Some(
        v.parse()
            .unwrap_or_else(|_| usage_exit(&format!("invalid value {v:?} for --{key}"))),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&argv);
    let topology = match flag::<String>(&flags, "topology")
        .as_deref()
        .unwrap_or("nsfnet")
    {
        "nsfnet" => TopologySpec::Nsfnet,
        "geant2" => TopologySpec::Geant2,
        "gbn" => TopologySpec::Gbn,
        "synth" => TopologySpec::Synthetic {
            n: flag(&flags, "synth-nodes").unwrap_or(50),
            topo_seed: routenet_dataset::split::SYNTH50_TOPOLOGY_SEED,
        },
        other => usage_exit(&format!("unknown topology {other:?}")),
    };
    let samples: usize = flag(&flags, "samples").unwrap_or(10);
    let seed: u64 = flag(&flags, "seed").unwrap_or(1);
    let out: String = flag(&flags, "out").unwrap_or_else(|| "dataset.jsonl".into());

    let mut cfg = GenConfig::new(topology, samples, seed);
    match flag::<String>(&flags, "routing").as_deref() {
        Some("fixed") => cfg.routing = RoutingDiversity::Fixed,
        Some("kshortest") => cfg.routing = RoutingDiversity::KShortest { k: 4 },
        Some("randomized") | None => {}
        Some(other) => usage_exit(&format!("unknown routing {other:?}")),
    }
    if let Some(v) = flag(&flags, "intensity-min") {
        cfg.intensity_min = v;
    }
    if let Some(v) = flag(&flags, "intensity-max") {
        cfg.intensity_max = v;
    }
    if let Some(v) = flag::<f64>(&flags, "duration") {
        cfg.sim.duration_s = v;
        cfg.sim.warmup_s = v / 10.0;
    }

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
    save_jsonl(&out, &ds).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    println!("{} samples -> {out}", ds.len());
}
