//! **A1 ablation** — the paper notes "we optimize a set of hyperparameters
//! to adapt the model to scenarios with larger topologies" without listing
//! them. This binary sweeps the two structural knobs (message-passing
//! iterations T, state dimensionality) and reports evaluation error per
//! configuration, including on the unseen topology.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin ablation -- \
//!     [--scale 0.5] [--epochs 20] [--seed 1]
//! ```

use routenet_bench::{scaled_protocol, Args};
use routenet_core::prelude::*;
use routenet_dataset::split::generate_paper_datasets;
use std::time::Instant;

const USAGE: &str = "ablation [--scale 0.5] [--epochs 20] [--seed 1]";

fn main() {
    let args = Args::from_env(USAGE);
    let scale = args.get_or("scale", 0.5f64);
    let seed = args.get_or("seed", 1u64);
    let epochs = args.get_at_least("epochs", 20, 1);
    let protocol = scaled_protocol(scale, seed);

    eprintln!("# generating shared datasets...");
    let data = generate_paper_datasets(&protocol);
    let train_cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };

    println!("# ablation: eval median relative delay error vs architecture knobs");
    println!("t_iterations,state_dim,params,train_s,medRE_seen,medRE_unseen");
    // Sweep T with the default dims, then dims with the default T.
    let mut configs: Vec<(usize, usize)> = vec![(1, 16), (2, 16), (4, 16), (8, 16)];
    configs.extend([(4, 8), (4, 24), (4, 32)]);
    for (t, dim) in configs {
        let cfg = RouteNetConfig {
            link_state_dim: dim,
            path_state_dim: dim,
            readout_hidden: 2 * dim,
            t_iterations: t,
            predict_jitter: true,
            predict_drops: false,
            seed: 2019,
        };
        let mut model = RouteNet::new(cfg);
        let t0 = Instant::now();
        train(&mut model, &data.train, &data.val, &train_cfg)
            .unwrap_or_else(|e| panic!("training failed for T={t} dim={dim}: {e}"));
        let train_s = t0.elapsed().as_secs_f64();
        let mut seen = collect_predictions(&model, &data.eval_nsfnet);
        seen.extend(&collect_predictions(&model, &data.eval_synth));
        let unseen = collect_predictions(&model, &data.eval_geant2);
        println!(
            "{t},{dim},{},{train_s:.1},{:.4},{:.4}",
            model.n_parameters(),
            seen.delay_summary()
                .expect("evaluation sets are non-empty")
                .median_re,
            unseen
                .delay_summary()
                .expect("evaluation sets are non-empty")
                .median_re
        );
    }
    println!("# expected shape: T=1 is clearly insufficient (information cannot make a");
    println!("# full path->link->path round trip); the optimal depth grows with the");
    println!("# training budget (T=2 wins at small scale, deeper models need more data),");
    println!("# and at fixed T wider states keep helping until overfitting.");
}
