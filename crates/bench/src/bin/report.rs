//! One-shot evaluation report: generates the paper-protocol datasets, trains
//! RouteNet **once**, and writes every figure/table artifact into
//! `results/`.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin report -- \
//!     [--scale 1.0] [--epochs 40] [--seed 1] [--out results]
//! ```
//!
//! Outputs:
//! - `results/fig2.csv` — Fig. 2: (true, predicted) scatter on an unseen
//!   Geant2 sample (slope, intercept, r and R² go to `summary.txt`)
//! - `results/fig3.csv` — Fig. 3: relative-error CDFs per topology and
//!   predictor, plus the paper's all-topology `RouteNet/all` series
//! - `results/fig4.csv` — Fig. 4: Top-10 paths with more delay, with routes
//!   (the overlap with the true top 10 goes to `summary.txt`)
//! - `results/table1.txt` — the §2.1 generalization table: RouteNet vs
//!   M/M/1 vs M/G/1 vs FNN per topology
//! - `results/varsize.csv` — the abstract's variable-size claim: RouteNet
//!   vs M/M/1 on fresh random graphs of 10 to 50 nodes
//! - `results/ablation.csv` — §2.1's hyperparameter adaptation: evaluation
//!   error vs message-passing iterations T and state width; the main model
//!   fills its own row and six more models train on the same datasets
//! - `results/drops.csv` — extension: a drop-head RouteNet, trained on its
//!   own finite-buffer datasets, vs M/M/1/K blocking
//! - `results/training.csv` — loss curve
//! - `results/model.json` — the trained checkpoint
//! - `results/summary.txt` — headline numbers and every wall-clock time
//!
//! `--scale`, `--epochs` and `--seed` drive every section. The Fig. 2
//! scatter and Fig. 3 CDFs are also drawn as terminal charts on stderr.

use routenet_bench::{interrupt, scaled_protocol, summary_row, usage_exit, Args};
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset, GenConfig, TopologySpec};
use routenet_dataset::split::{generate_paper_datasets, PaperDatasets, ProtocolConfig};
use routenet_faults::{atomic_write_with, RealFs};
use routenet_netgraph::NodeId;
use routenet_obs::Telemetry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

fn write(path: &Path, content: &str) {
    atomic_write_with(&RealFs, path, content.as_bytes())
        .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    eprintln!("# wrote {}", path.display());
}

const USAGE: &str =
    "report [--scale 1.0] [--epochs 40] [--seed 1] [--out results] [--resume] [--no-telemetry]";

fn main() {
    let args = Args::from_env(USAGE);
    let scale = args.get_or("scale", 1.0f64);
    if !(scale.is_finite() && scale > 0.0) {
        usage_exit(USAGE, "--scale must be finite and positive");
    }
    let seed = args.get_or("seed", 1u64);
    let epochs = args.get_or("epochs", 40usize);
    let out_dir = std::path::PathBuf::from(args.get("out").unwrap_or("results"));
    let ckpt_path = out_dir.join("train-state.ckpt");
    let mut train_cfg = TrainConfig {
        epochs,
        verbose: true,
        checkpoint_path: Some(ckpt_path.to_string_lossy().into_owned()),
        resume_from: args
            .get("resume")
            .map(|_| ckpt_path.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    train_cfg
        .validate()
        .unwrap_or_else(|e| usage_exit(USAGE, &e.to_string()));
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let tel_path = out_dir.join("report.telemetry.jsonl");
    let tel = if args.get("no-telemetry").is_some() {
        Telemetry::disabled()
    } else {
        Telemetry::to_file("report", &format!("scale={scale} seed={seed}"), &tel_path)
    };
    train_cfg.telemetry = tel.clone();
    // The same telemetry handle instruments dataset generation.
    let protocol = ProtocolConfig {
        telemetry: tel.clone(),
        ..scaled_protocol(scale, seed)
    };
    eprintln!(
        "# generating datasets: {} train/topology, {} eval/topology, {} geant2",
        protocol.train_per_topology, protocol.eval_per_topology, protocol.eval_geant2
    );
    let t0 = Instant::now();
    let data = generate_paper_datasets(&protocol);
    let gen_seconds = t0.elapsed().as_secs_f64();
    eprintln!("# generated in {gen_seconds:.1}s; training...");
    // Ctrl-C checkpoints the last epoch boundary and exits cleanly; rerun
    // with --resume to continue the run from that checkpoint.
    let control = interrupt::ctrl_c_control();
    let mut model = RouteNet::new(RouteNetConfig::default());
    let t1 = Instant::now();
    let train_report = train_with_control(&mut model, &data.train, &data.val, &train_cfg, &control)
        .unwrap_or_else(|e| panic!("training failed: {e}"));
    let train_seconds = t1.elapsed().as_secs_f64();
    eprintln!(
        "# trained in {train_seconds:.1}s; best epoch {} (loss {:.5})",
        train_report.best_epoch, train_report.best_loss
    );
    if train_report.interrupted {
        eprintln!("# training state saved to {}", ckpt_path.display());
        return stop_interrupted(&tel, "main training");
    }
    let mm1 = Mm1Baseline::default();
    let mg1 = Mg1Baseline::default(); // knows the true (deterministic) size distribution

    // ---- training curve ------------------------------------------------
    let mut s = String::from("epoch,train_loss,val_loss,lr\n");
    for e in &train_report.epochs {
        writeln!(
            s,
            "{},{:.6},{},{:.2e}",
            e.epoch,
            e.train_loss,
            e.val_loss.map_or("".into(), |v| format!("{v:.6}")),
            e.lr
        )
        .unwrap();
    }
    write(&out_dir.join("training.csv"), &s);

    // ---- model checkpoint ----------------------------------------------
    write(&out_dir.join("model.json"), &model.to_json());

    // ---- fig2: regression scatter on unseen Geant2 ----------------------
    let sample = &data.eval_geant2[0];
    let preds = model.predict_scenario(&sample.scenario);
    let mut s = String::from("true_delay_s,predicted_delay_s\n");
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (p, t) in preds.iter().zip(&sample.targets) {
        if t.delay_s > 0.0 {
            writeln!(s, "{:.6},{:.6}", t.delay_s, p.delay_s).unwrap();
            xs.push(t.delay_s);
            ys.push(p.delay_s);
        }
    }
    write(&out_dir.join("fig2.csv"), &s);
    let fig2_r2 = routenet_core::metrics::r_squared(&ys, &xs);
    let fig2_r = routenet_core::metrics::pearson(&ys, &xs);
    // Least-squares fit predicted = slope * true + intercept (ideal: 1, 0).
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let fig2_slope = sxy / sxx;
    let fig2_intercept = my - fig2_slope * mx;
    let pts: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
    eprintln!("# fig2: predicted (y) vs simulated (x) delay, seconds; '.' = ideal diagonal");
    eprint!("{}", routenet_bench::plot::scatter(&pts, 64, 20));

    // ---- fig3: CDFs ------------------------------------------------------
    let mut s = String::from("series,relative_error,cdf\n");
    let sets: [(&str, &Vec<Sample>); 3] = [
        ("NSFNET-14", &data.eval_nsfnet),
        ("Synth-50", &data.eval_synth),
        ("Geant2-24-unseen", &data.eval_geant2),
    ];
    let mut summaries = String::new();
    let mut per_topology = BTreeMap::new();
    for (name, set) in sets {
        for (pname, ev) in [
            ("RouteNet", collect_predictions(&model, set)),
            ("MM1", collect_predictions(&mm1, set)),
        ] {
            let re = relative_errors(&ev.delay_pred, &ev.delay_true);
            for (x, f) in cdf_points(&re, 50) {
                writeln!(s, "{pname}/{name},{x:.6},{f:.4}").unwrap();
            }
            writeln!(
                summaries,
                "{}",
                summary_row(&format!("{pname} {name}"), &ev.delay_summary())
            )
            .unwrap();
            if let Some(j) = ev.jitter_summary() {
                writeln!(
                    summaries,
                    "{}",
                    summary_row(&format!("{pname} {name} [jitter]"), &Some(j))
                )
                .unwrap();
            }
            per_topology.insert(format!("{pname}/{name}"), ev);
        }
    }
    emit_eval_telemetry(&tel, "", &per_topology);
    // The paper's figure aggregates all three topologies.
    let all = collect_predictions(&model, &data.eval_all());
    for (x, f) in cdf_points(&relative_errors(&all.delay_pred, &all.delay_true), 50) {
        writeln!(s, "RouteNet/all,{x:.6},{f:.4}").unwrap();
    }
    writeln!(
        summaries,
        "{}",
        summary_row("RouteNet ALL", &all.delay_summary())
    )
    .unwrap();
    write(&out_dir.join("fig3.csv"), &s);
    let geant2_cdf = |pname: &str| {
        let ev = &per_topology[&format!("{pname}/Geant2-24-unseen")];
        cdf_points(&relative_errors(&ev.delay_pred, &ev.delay_true), 50)
    };
    let (rn_cdf, mm1_cdf) = (geant2_cdf("RouteNet"), geant2_cdf("MM1"));
    eprintln!("# fig3: CDF of relative delay error on UNSEEN Geant2 (right = worse):");
    eprint!(
        "{}",
        routenet_bench::plot::cdf_chart(&[("RouteNet", &rn_cdf), ("M/M/1", &mm1_cdf)], 60, 16)
    );

    // ---- fig4: top-10 ----------------------------------------------------
    let top_n = 10;
    let top = top_n_paths_by_delay(&model, sample, top_n);
    let mut s = String::from("rank,src,dst,predicted_delay_ms,simulated_delay_ms,hops,route\n");
    for (rank, &(src, dst, pred, truth)) in top.iter().enumerate() {
        let (src, dst) = (NodeId(src), NodeId(dst));
        let route: Vec<String> = sample
            .scenario
            .routing
            .node_path(&sample.scenario.graph, src, dst)
            .expect("validated samples route every pair over existing links")
            .iter()
            .map(|n| n.to_string())
            .collect();
        writeln!(
            s,
            "{},{},{},{:.2},{:.2},{},{}",
            rank + 1,
            src.0,
            dst.0,
            pred * 1e3,
            truth * 1e3,
            sample.scenario.routing.hops(src, dst),
            route.join(">")
        )
        .unwrap();
    }
    write(&out_dir.join("fig4.csv"), &s);
    // Ranking quality: how many of the predicted top-N are in the true top-N?
    let mut by_truth: Vec<(usize, f64)> = sample
        .targets
        .iter()
        .map(|t| t.delay_s)
        .enumerate()
        .collect();
    by_truth.sort_by(|a, b| b.1.total_cmp(&a.1));
    let truth_top: Vec<usize> = by_truth.iter().take(top_n).map(|&(i, _)| i).collect();
    let pairs = sample.scenario.pairs();
    let fig4_hits = top
        .iter()
        .filter(|&&(src, dst, _, _)| {
            pairs
                .iter()
                .position(|&(a, b)| a.0 == src && b.0 == dst)
                .is_some_and(|i| truth_top.contains(&i))
        })
        .count();

    // ---- table1 ----------------------------------------------------------
    let nsf_train: Vec<Sample> = data
        .train
        .iter()
        .filter(|x| x.topology == "NSFNET")
        .cloned()
        .collect();
    eprintln!("# training FNN baseline on NSFNET...");
    let fnn = FnnBaseline::train(&nsf_train, &FnnConfig::default());
    let mut s = String::new();
    writeln!(
        s,
        "{:<20} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "eval set", "predictor", "n", "MAE(s)", "medRE", "p95RE", "r", "jitMedRE", "jit r"
    )
    .unwrap();
    for (name, set) in [
        ("NSFNET-14 (seen)", &data.eval_nsfnet),
        ("Synth-50 (seen)", &data.eval_synth),
        ("Geant2-24 (UNSEEN)", &data.eval_geant2),
    ] {
        let fnn_applies = set.iter().all(|x| fnn.supports(&x.scenario));
        let rows = [
            ("RouteNet", Some(collect_predictions(&model, set))),
            ("M/M/1", Some(collect_predictions(&mm1, set))),
            ("M/G/1", Some(collect_predictions(&mg1, set))),
            ("FNN", fnn_applies.then(|| collect_predictions(&fnn, set))),
        ];
        for (pname, ev) in rows {
            match ev {
                Some(ev) => {
                    let d = ev.delay_summary().expect("evaluation sets are non-empty");
                    let (jm, jr) = match ev.jitter_summary() {
                        Some(j) => (format!("{:.3}", j.median_re), format!("{:.3}", j.pearson_r)),
                        None => ("n/a".into(), "n/a".into()),
                    };
                    writeln!(
                        s,
                        "{:<20} {:<10} {:>8} {:>8.4} {:>8.3} {:>8.3} {:>8.3} {:>10} {:>10}",
                        name, pname, d.n, d.mae, d.median_re, d.p95_re, d.pearson_r, jm, jr
                    )
                    .unwrap();
                }
                None => {
                    writeln!(
                        s,
                        "{:<20} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
                        name, pname, "-", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a"
                    )
                    .unwrap();
                }
            }
        }
    }
    writeln!(
        s,
        "\nFNN n/a = fixed-input model cannot be applied to other topologies."
    )
    .unwrap();
    write(&out_dir.join("table1.txt"), &s);

    // ---- varsize, ablation, drops ----------------------------------------
    write(&out_dir.join("varsize.csv"), &varsize(&model, &protocol));
    // The side models train like the main one, without its checkpoint and
    // telemetry: a rerun with --resume skips the main training and redoes
    // them.
    let side_cfg = TrainConfig {
        checkpoint_path: None,
        resume_from: None,
        telemetry: Telemetry::disabled(),
        ..train_cfg.clone()
    };
    let Some((s, ablation_times)) = ablation(&model, train_seconds, &data, &side_cfg, &control)
    else {
        return stop_interrupted(&tel, "ablation");
    };
    write(&out_dir.join("ablation.csv"), &s);
    let Some((s, drops_line)) = drops(&protocol, &side_cfg, &control) else {
        return stop_interrupted(&tel, "drops");
    };
    write(&out_dir.join("drops.csv"), &s);

    // ---- summary ---------------------------------------------------------
    let mut s = String::new();
    writeln!(s, "RouteNet generalization report").unwrap();
    writeln!(
        s,
        "scale={scale} epochs={epochs} seed={seed} train_samples={} (gen {:.1}s, train {:.1}s)",
        data.train.len(),
        gen_seconds,
        train_seconds
    )
    .unwrap();
    writeln!(s, "model parameters: {}", model.n_parameters()).unwrap();
    writeln!(
        s,
        "best epoch {} val loss {:.5}",
        train_report.best_epoch, train_report.best_loss
    )
    .unwrap();
    writeln!(
        s,
        "fig2 (unseen Geant2 sample, intensity={:.3}): n={} slope={fig2_slope:.3} \
         intercept={fig2_intercept:.4}s r={fig2_r:.4} R2={fig2_r2:.4}",
        sample.intensity,
        xs.len()
    )
    .unwrap();
    writeln!(
        s,
        "fig4 top-{top_n} overlap with ground truth: {fig4_hits}/{top_n}"
    )
    .unwrap();
    writeln!(s, "ablation train seconds:{ablation_times}").unwrap();
    writeln!(s, "{drops_line}").unwrap();
    writeln!(s, "\nper-topology summaries:\n{summaries}").unwrap();
    write(&out_dir.join("summary.txt"), &s);
    println!("{s}");
    if tel.enabled() {
        eprint!("{}", tel.summary_table());
        match tel.finish() {
            Ok(()) => eprintln!("# telemetry -> {}", tel_path.display()),
            Err(e) => eprintln!("warning: telemetry log incomplete: {e}"),
        }
    }
}

/// Report a Ctrl-C that stopped the `section`'s training and close the
/// telemetry log; `--resume` continues from the main model's checkpoint.
fn stop_interrupted(tel: &Telemetry, section: &str) {
    eprintln!("# interrupted during the {section}; rerun with --resume to continue");
    if let Err(e) = tel.finish() {
        eprintln!("warning: telemetry log incomplete: {e}");
    }
}

/// The abstract's variable-size claim: the trained model and M/M/1 on a
/// fresh random graph per size, never seen in training (a new graph, not
/// only new scenarios), labelled over the protocol's window.
fn varsize(model: &RouteNet, protocol: &ProtocolConfig) -> String {
    let mm1 = Mm1Baseline::default();
    let mut s = String::from("nodes,samples,paths,routenet_medRE,routenet_r,mm1_medRE,mm1_r\n");
    for n in [10usize, 20, 30, 40, 50] {
        let mut cfg = GenConfig::new(
            TopologySpec::Synthetic {
                n,
                topo_seed: 777_000 + n as u64,
            },
            protocol.eval_per_topology,
            900_000 + n as u64,
        );
        cfg.sim.duration_s = protocol.sim_duration_s;
        cfg.sim.warmup_s = protocol.sim_warmup_s;
        let set = generate_dataset(&cfg);
        let delay = |p: &dyn KpiPredictor| {
            collect_predictions(p, &set)
                .delay_summary()
                .expect("generated sets are non-empty")
        };
        let (rn, qa, samples) = (delay(model), delay(&mm1), set.len());
        writeln!(
            s,
            "{n},{samples},{},{:.4},{:.4},{:.4},{:.4}",
            rn.n, rn.median_re, rn.pearson_r, qa.median_re, qa.pearson_r
        )
        .unwrap();
    }
    s
}

/// The §2.1 hyperparameter sweep: T with the default state width, then the
/// width with the default T. The row that matches the main model's
/// configuration is the main model; every other row trains a fresh model on
/// the same datasets with `cfg`. Returns the CSV and each row's training
/// seconds, or `None` when Ctrl-C stopped a training.
fn ablation(
    main: &RouteNet,
    main_seconds: f64,
    data: &PaperDatasets,
    cfg: &TrainConfig,
    control: &TrainControl,
) -> Option<(String, String)> {
    let mut csv = String::from("t_iterations,state_dim,params,medRE_seen,medRE_unseen\n");
    let mut times = String::new();
    for (t, dim) in [(1, 16), (2, 16), (4, 16), (8, 16), (4, 8), (4, 24), (4, 32)] {
        let config = RouteNetConfig {
            link_state_dim: dim,
            path_state_dim: dim,
            readout_hidden: 2 * dim,
            t_iterations: t,
            ..RouteNetConfig::default()
        };
        let trained;
        let (model, seconds) = if config == *main.config() {
            (main, main_seconds)
        } else {
            eprintln!("# ablation: training T={t} dim={dim}...");
            let mut m = RouteNet::new(config);
            let t0 = Instant::now();
            let report = train_with_control(&mut m, &data.train, &data.val, cfg, control)
                .unwrap_or_else(|e| panic!("training failed for T={t} dim={dim}: {e}"));
            if report.interrupted {
                return None;
            }
            trained = m;
            (&trained, t0.elapsed().as_secs_f64())
        };
        let mut seen = collect_predictions(model, &data.eval_nsfnet);
        seen.extend(&collect_predictions(model, &data.eval_synth));
        let unseen = collect_predictions(model, &data.eval_geant2);
        let med_re = |ev: &PairedEval| {
            ev.delay_summary()
                .expect("evaluation sets are non-empty")
                .median_re
        };
        writeln!(
            csv,
            "{t},{dim},{},{:.4},{:.4}",
            model.n_parameters(),
            med_re(&seen),
            med_re(&unseen)
        )
        .unwrap();
        write!(times, " T={t}/dim={dim} {seconds:.1}").unwrap();
    }
    Some((csv, times))
}

/// Buffer of every link in the drops section, in packets.
const DROPS_BUFFER_PKTS: usize = 5;

/// A finite-buffer dataset at utilizations 0.7–1.1, so overload and drops
/// are guaranteed, over 600 s simulated after a 60 s warm-up.
fn drops_set(topology: TopologySpec, n: usize, seed: u64) -> Vec<Sample> {
    let mut cfg = GenConfig::new(topology, n, seed);
    cfg.sim.buffer_pkts = Some(DROPS_BUFFER_PKTS);
    cfg.intensity_min = 0.7;
    cfg.intensity_max = 1.1;
    cfg.sim.duration_s = 600.0;
    cfg.sim.warmup_s = 60.0;
    generate_dataset(&cfg)
}

/// The drop-probability extension: a RouteNet with a drop head, trained with
/// `cfg` on finite-buffer NSFNET samples, against M/M/1/K on seen NSFNET and
/// unseen Geant2. The four set sizes are the protocol's. Returns the CSV and
/// a summary line, or `None` when Ctrl-C stopped the training.
fn drops(
    protocol: &ProtocolConfig,
    cfg: &TrainConfig,
    control: &TrainControl,
) -> Option<(String, String)> {
    let base = protocol.seed.wrapping_mul(1_000_000);
    let nsfnet = |n, offset| drops_set(TopologySpec::Nsfnet, n, base.wrapping_add(offset));
    let train_set = nsfnet(protocol.train_per_topology, 0);
    let val_set = nsfnet(protocol.val_per_topology, 500_000);
    let eval_nsfnet = nsfnet(protocol.eval_per_topology, 600_000);
    let eval_geant2 = drops_set(
        TopologySpec::Geant2,
        protocol.eval_geant2,
        base.wrapping_add(700_000),
    );
    let labels: Vec<f64> = train_set
        .iter()
        .flat_map(|s| s.targets.iter().map(|t| t.drop_prob))
        .collect();
    let mean_drop = labels.iter().sum::<f64>() / labels.len() as f64;
    eprintln!(
        "# drops: training a drop-head RouteNet (mean training drop probability {mean_drop:.4})..."
    );
    let mut model = RouteNet::new(RouteNetConfig {
        predict_drops: true,
        ..RouteNetConfig::default()
    });
    let t0 = Instant::now();
    let report = train_with_control(&mut model, &train_set, &val_set, cfg, control)
        .unwrap_or_else(|e| panic!("drop-head training failed: {e}"));
    if report.interrupted {
        return None;
    }
    let seconds = t0.elapsed().as_secs_f64();
    let mm1k = Mm1kBaseline {
        buffer_pkts: DROPS_BUFFER_PKTS,
        ..Mm1kBaseline::default()
    };
    let mut csv = String::from("eval_set,predictor,n,drop_mae,drop_r,delay_medRE\n");
    for (name, set) in [
        ("NSFNET-seen", &eval_nsfnet),
        ("Geant2-UNSEEN", &eval_geant2),
    ] {
        for (pname, ev) in [
            ("RouteNet", collect_predictions(&model, set)),
            ("MM1K", collect_predictions(&mm1k, set)),
        ] {
            let (mae, r) = ev.drop_summary().expect("both predictors have drop heads");
            let d = ev.delay_summary().expect("evaluation sets are non-empty");
            writeln!(
                csv,
                "{name},{pname},{},{mae:.5},{r:.4},{:.4}",
                ev.len(),
                d.median_re
            )
            .unwrap();
        }
    }
    let line = format!(
        "drops: K={DROPS_BUFFER_PKTS} mean training drop probability {mean_drop:.4}, train {seconds:.1}s"
    );
    Some((csv, line))
}
