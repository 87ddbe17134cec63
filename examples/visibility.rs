//! Network-visibility analytics (the paper's Fig. 4 / §3 demo): use
//! RouteNet's predictions to rank the Top-N source/destination paths by
//! delay and inspect where the delay accumulates.
//!
//! ```text
//! cargo run --release --example visibility
//! ```

use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset, GenConfig, TopologySpec};
use routenet_netgraph::LinkId;
use routenet_simnet::queueing::Mm1Network;

fn main() {
    // Generate a batch of Geant2 scenarios; train a quick model on most of
    // them and run the analytics on the last one.
    println!("simulating 20 Geant2 scenarios...");
    let mut cfg = GenConfig::new(TopologySpec::Geant2, 20, 23);
    cfg.sim.duration_s = 400.0;
    cfg.sim.warmup_s = 40.0;
    let data = generate_dataset(&cfg);
    let (train_set, demo) = data.split_at(19);
    let sample = &demo[0];

    let mut model = RouteNet::new(RouteNetConfig {
        t_iterations: 4,
        ..RouteNetConfig::default()
    });
    println!("training a quick model (15 epochs)...");
    train(
        &mut model,
        train_set,
        &[],
        &TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
    )
    .expect("training failed");

    // ---- Fig. 4: Top-10 paths with more delay --------------------------
    let top = top_n_paths_by_delay(&model, sample, 10);
    println!(
        "\n=== Top-10 paths with more delay (Geant2, intensity {:.2}) ===",
        sample.intensity
    );
    println!(
        "{:<4} {:<10} {:>15} {:>15} {:>7}",
        "#", "path", "predicted (ms)", "simulated (ms)", "hops"
    );
    for (rank, (s, d, pred, truth)) in top.iter().enumerate() {
        let hops = sample
            .scenario
            .routing
            .hops(routenet_netgraph::NodeId(*s), routenet_netgraph::NodeId(*d));
        println!(
            "{:<4} {:<10} {:>15.1} {:>15.1} {:>7}",
            rank + 1,
            format!("n{s}->n{d}"),
            pred * 1e3,
            truth * 1e3,
            hops
        );
    }

    // ---- Drill-down: where does the worst path's delay accumulate? -----
    let (ws, wd, _, _) = top[0];
    let (ws, wd) = (routenet_netgraph::NodeId(ws), routenet_netgraph::NodeId(wd));
    let mm1 = Mm1Network::build(
        &sample.scenario.graph,
        &sample.scenario.routing,
        &sample.scenario.traffic,
        1_000.0,
    );
    println!("\nper-link breakdown of the worst path (analytic estimates):");
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "link", "util", "sojourn (ms)", "cap (kbps)"
    );
    for &lid in sample.scenario.routing.path(ws, wd) {
        let link = sample.scenario.graph.link(lid).unwrap();
        let q = &mm1.links()[lid.0];
        println!(
            "{:<12} {:>11.1}% {:>12.1} {:>10.0}",
            format!("{}->{}", link.src, link.dst),
            q.rho * 100.0,
            q.mean_sojourn_s * 1e3,
            link.capacity_bps / 1e3
        );
    }

    // ---- Hottest links by predicted traffic concentration --------------
    let fanin = routenet_core::indexing::PathTensors::build(&sample.scenario).link_fanin();
    let mut hot: Vec<(usize, usize)> = fanin.iter().cloned().enumerate().collect();
    hot.sort_by_key(|h| std::cmp::Reverse(h.1));
    println!("\nbusiest links by number of traversing paths (this routing):");
    for (lid, n_paths) in hot.iter().take(5) {
        let link = sample.scenario.graph.link(LinkId(*lid)).unwrap();
        println!("  {}->{}  carries {} paths", link.src, link.dst, n_paths);
    }

    // ---- Structural bottlenecks (routing-independent) ------------------
    let bc = routenet_netgraph::algo::edge_betweenness(&sample.scenario.graph);
    let mut central: Vec<(usize, f64)> = bc.iter().cloned().enumerate().collect();
    central.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nstructural bottlenecks by edge betweenness (topology-only):");
    for (lid, score) in central.iter().take(5) {
        let link = sample.scenario.graph.link(LinkId(*lid)).unwrap();
        println!("  {}->{}  betweenness {:.1}", link.src, link.dst, score);
    }
}
