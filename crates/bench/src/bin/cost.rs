//! **E5 / §1 cost claim** — per-scenario wall-clock of RouteNet inference vs.
//! packet-level simulation vs. the analytic model, across topology sizes.
//! This is the paper's motivation: "packet-level simulators produce accurate
//! KPI predictions at the expense of high computational cost".
//!
//! ```text
//! cargo run -p routenet-bench --release --bin cost -- [--reps 5]
//! ```
//!
//! One CSV covers two regimes, named in the `regime` column:
//! - `protocol`: the labelling recipe of `ProtocolConfig::default()` (its
//!   simulated window and warm-up, KDN-style ×1 capacities) — the regime
//!   the bench ledger's `cost.*` metrics measure;
//! - `line-rate`: capacities *and* demands ×1000, so utilizations (and thus
//!   the queueing structure) are unchanged while the packet rate reaches
//!   that of ~10 Mbps links, over a 60 s window.
//!
//! The regimes disagree on purpose: simulation cost grows with the number
//! of packets simulated, while inference cost depends only on the scenario's
//! size.

use routenet_bench::Args;
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_sample, GenConfig, TopologySpec};
use routenet_dataset::split::ProtocolConfig;
use routenet_simnet::sim::{simulate, SimConfig};
use std::time::Instant;

const USAGE: &str = "cost [--reps 5]";

/// A simulated window and a scale applied to capacities and demands alike.
struct Regime {
    name: &'static str,
    duration_s: f64,
    warmup_s: f64,
    capacity_mult: f64,
}

/// Wall-clock milliseconds of one call of `f`.
fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// The median, the minimum and the maximum of `xs` (not empty).
fn spread(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [xs[xs.len() / 2], xs[0], xs[xs.len() - 1]]
}

fn main() {
    let args = Args::from_env(USAGE);
    let reps = args.get_at_least("reps", 5, 1);

    let protocol = ProtocolConfig::default();
    let regimes = [
        Regime {
            name: "protocol",
            duration_s: protocol.sim_duration_s,
            warmup_s: protocol.sim_warmup_s,
            capacity_mult: 1.0,
        },
        Regime {
            name: "line-rate",
            duration_s: 60.0,
            warmup_s: 6.0,
            capacity_mult: 1000.0,
        },
    ];

    let model = {
        let mut m = RouteNet::new(RouteNetConfig::default());
        // Cost is independent of training; install unit scales so the
        // forward pass is numerically healthy.
        m.set_normalizer(Normalizer {
            capacity_scale: 40_000.0,
            traffic_scale: 500.0,
            ..Normalizer::default()
        });
        m
    };
    let mm1 = Mm1Baseline::default();

    println!(
        "# cost: per-scenario wall-clock, median (min, max) of {reps} reps after one \
         untimed warm-up call of each, untrained RouteNet; each rep times one simulation, \
         then one prediction, then one M/M/1 call"
    );
    for r in &regimes {
        println!(
            "# regime {}: capacities and demands x{}, {} s simulated ({} s warm-up)",
            r.name, r.capacity_mult, r.duration_s, r.warmup_s
        );
    }
    println!(
        "regime,topology,nodes,paths,sim_ms,sim_min_ms,sim_max_ms,\
         routenet_ms,routenet_min_ms,routenet_max_ms,mm1_ms,speedup_vs_sim,sim_events"
    );
    for r in &regimes {
        for (spec, label) in [
            (TopologySpec::Nsfnet, "NSFNET"),
            (TopologySpec::Gbn, "GBN"),
            (TopologySpec::Geant2, "Geant2"),
            (
                TopologySpec::Synthetic {
                    n: 50,
                    topo_seed: 2019,
                },
                "Synth-50",
            ),
        ] {
            let mut cfg = GenConfig::new(spec, 1, 5);
            cfg.sim.duration_s = r.duration_s;
            cfg.sim.warmup_s = r.warmup_s;
            let mut sample = generate_sample(&cfg, 0);
            let link_ids: Vec<_> = sample.scenario.graph.links().map(|(id, _)| id).collect();
            for id in link_ids {
                sample.scenario.graph.link_mut(id).unwrap().capacity_bps *= r.capacity_mult;
            }
            sample.scenario.traffic.scale(r.capacity_mult);
            let scenario = &sample.scenario;

            let mut events = 0u64;
            let mut simulate_once = |rep: usize| {
                let sim_cfg = SimConfig {
                    seed: rep as u64,
                    ..cfg.sim.clone()
                };
                let res = simulate(
                    &scenario.graph,
                    &scenario.routing,
                    &scenario.traffic,
                    &sim_cfg,
                )
                .unwrap();
                events = res.events_processed;
            };
            // Inference timing includes scenario compilation.
            let predict_once = || {
                assert_eq!(model.predict_scenario(scenario).len(), scenario.n_pairs());
            };
            let mm1_once = || {
                assert_eq!(mm1.predict(scenario).len(), scenario.n_pairs());
            };
            // Alternating the reps puts each simulation and its prediction
            // moments apart, so a change in the host's speed between reps
            // moves both sides of that rep's ratio alike.
            simulate_once(0);
            predict_once();
            mm1_once();
            let (mut sim, mut rn, mut mm1_times, mut ratios) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for rep in 0..reps {
                let s = ms(|| simulate_once(rep));
                let p = ms(predict_once);
                mm1_times.push(ms(mm1_once));
                sim.push(s);
                rn.push(p);
                ratios.push(s / p);
            }
            let [sim_ms, sim_min, sim_max] = spread(sim);
            let [rn_ms, rn_min, rn_max] = spread(rn);
            let [mm1_ms, _, _] = spread(mm1_times);
            let [speedup, _, _] = spread(ratios);

            println!(
                "{},{label},{},{},{sim_ms:.1},{sim_min:.1},{sim_max:.1},\
                 {rn_ms:.1},{rn_min:.1},{rn_max:.1},{mm1_ms:.3},{speedup:.2},{events}",
                r.name,
                scenario.graph.n_nodes(),
                scenario.n_pairs(),
            );
        }
    }
    println!("# speedup_vs_sim = median over reps of (simulation time / RouteNet inference time).");
    println!("# Simulation cost grows with the packets simulated (capacities x window);");
    println!("# inference cost depends only on the scenario's size.");
}
