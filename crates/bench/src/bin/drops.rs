//! **Extension experiment** — drop-probability prediction with finite
//! buffers (the third KPI of the RouteNet family; the demo paper covers
//! delay and jitter, drops are its natural continuation).
//!
//! Generates finite-buffer NSFNET/Geant2 datasets at high load, trains a
//! RouteNet with the drop head enabled, and compares against the M/M/1/K
//! analytic baseline.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin drops -- \
//!     [--samples 48] [--epochs 30] [--buffer 5] [--seed 1]
//! ```

use routenet_bench::Args;
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset, GenConfig, TopologySpec};

fn gen(spec: TopologySpec, n: usize, seed: u64, buffer: usize) -> Vec<Sample> {
    let mut cfg = GenConfig::new(spec, n, seed);
    cfg.sim.buffer_pkts = Some(buffer);
    cfg.intensity_min = 0.7;
    cfg.intensity_max = 1.1; // overload included: drops guaranteed
    cfg.sim.duration_s = 600.0;
    cfg.sim.warmup_s = 60.0;
    generate_dataset(&cfg)
}

const USAGE: &str = "drops [--samples 48] [--epochs 30] [--buffer 5] [--seed 1]";

fn main() {
    let args = Args::from_env(USAGE);
    // Each evaluation set holds `samples / 2` samples, so 2 is the least.
    let samples = args.get_at_least("samples", 48, 2);
    let epochs = args.get_at_least("epochs", 30, 1);
    let buffer = args.get_at_least("buffer", 5, 1);
    let seed = args.get_or("seed", 1u64);

    eprintln!("# generating finite-buffer datasets (K = {buffer} packets)...");
    let train_set = gen(TopologySpec::Nsfnet, samples, seed * 1_000_000, buffer);
    let val_set = gen(
        TopologySpec::Nsfnet,
        samples / 6 + 1,
        seed * 1_000_000 + 500_000,
        buffer,
    );
    let eval_nsf = gen(
        TopologySpec::Nsfnet,
        samples / 2,
        seed * 1_000_000 + 600_000,
        buffer,
    );
    let eval_geant = gen(
        TopologySpec::Geant2,
        samples / 2,
        seed * 1_000_000 + 700_000,
        buffer,
    );

    let mean_drop: f64 = train_set
        .iter()
        .flat_map(|s| s.targets.iter().map(|t| t.drop_prob))
        .sum::<f64>()
        / train_set.iter().map(|s| s.targets.len()).sum::<usize>() as f64;
    eprintln!("# mean drop probability in training labels: {mean_drop:.4}");

    let mut model = RouteNet::new(RouteNetConfig {
        predict_drops: true,
        ..RouteNetConfig::default()
    });
    eprintln!(
        "# training RouteNet with drop head ({} outputs)...",
        model.out_dim()
    );
    train(
        &mut model,
        &train_set,
        &val_set,
        &TrainConfig {
            epochs,
            verbose: true,
            ..TrainConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("training failed: {e}"));

    let mm1k = Mm1kBaseline {
        buffer_pkts: buffer,
        ..Mm1kBaseline::default()
    };
    println!("# drops: drop-probability prediction, RouteNet (drop head) vs M/M/1/K");
    println!("eval_set,predictor,n,drop_mae,drop_r,delay_medRE");
    for (name, set) in [("NSFNET-seen", &eval_nsf), ("Geant2-UNSEEN", &eval_geant)] {
        for (pname, ev) in [
            ("RouteNet", collect_predictions(&model, set)),
            ("MM1K", collect_predictions(&mm1k, set)),
        ] {
            let (mae, r) = ev.drop_summary().expect("both predictors have drop heads");
            let d = ev.delay_summary().expect("evaluation sets are non-empty");
            println!(
                "{name},{pname},{},{mae:.5},{r:.4},{:.4}",
                ev.len(),
                d.median_re
            );
        }
    }
    println!("# shape: RouteNet's drop MAE should be at or below the analytic M/M/1/K");
    println!("# (which ignores upstream thinning and non-exponential services), and its");
    println!("# advantage should persist on the unseen topology.");
}
