//! `label-mix`: label samples with the packet-level simulator and save
//! them, on the four paper topologies.
//!
//! Why: `simnet` and `netgraph` do nearly all the work and `nn` does none,
//! so a faster event queue or routing computation shows here and nowhere
//! else. One round labels 8 NSFNET, 8 Synth-50, 4 GBN and 4 Geant2 samples
//! (the protocol's 2:2:1:1 mix) with the paper recipe (`GenConfig::new`,
//! 600 s window, 60 s warm-up) and saves each set with `save_jsonl`.

use crate::metrics::{crc32, quartiles, set_latencies, Report};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::prelude::*;
use routenet_dataset::gen::{
    generate_dataset_with_threads, generate_sample, GenConfig, RoutingDiversity, TopologySpec,
};
use routenet_dataset::io::save_jsonl;
use routenet_dataset::split::SYNTH50_TOPOLOGY_SEED;
use routenet_netgraph::routing::randomized_routing;
use routenet_netgraph::topology::assign_capacities;
use routenet_netgraph::traffic::sample_traffic_matrix;
use routenet_obs::Telemetry;
use routenet_simnet::sim::{simulate, SimConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Topology, samples per round, and the cost-table key.
fn mix(tiny: bool) -> [(TopologySpec, usize, &'static str); 4] {
    let n = |full: usize| if tiny { 1 } else { full };
    [
        (TopologySpec::Nsfnet, n(8), "nsfnet"),
        (
            TopologySpec::Synthetic {
                n: 50,
                topo_seed: SYNTH50_TOPOLOGY_SEED,
            },
            n(8),
            "synth50",
        ),
        (TopologySpec::Gbn, n(4), "gbn"),
        (TopologySpec::Geant2, n(4), "geant2"),
    ]
}

fn gen_config(ctx: &Ctx, spec: TopologySpec, n: usize, round: u64, set: u64) -> GenConfig {
    // Disjoint sample seeds: each (round, set) owns a block of 1000.
    let base = ctx.seed.wrapping_mul(1 << 32) + (round * 4 + set) * 1000;
    let mut cfg = GenConfig::new(spec, n, base);
    let window = if ctx.tiny { 20.0 } else { 600.0 };
    cfg.sim.duration_s = window;
    cfg.sim.warmup_s = window / 10.0;
    cfg
}

fn round_configs(ctx: &Ctx, round: u64) -> Vec<GenConfig> {
    (0u64..)
        .zip(mix(ctx.tiny))
        .map(|(j, (spec, n, _))| gen_config(ctx, spec, n, round, j))
        .collect()
}

/// A labelled sample is usable when it has one finite target per pair.
fn check(s: &Sample) -> Result<(), String> {
    if s.targets.len() != s.scenario.n_pairs() {
        return Err(format!(
            "{} sample {}: {} targets for {} pairs",
            s.topology,
            s.seed,
            s.targets.len(),
            s.scenario.n_pairs()
        ));
    }
    let finite = s
        .targets
        .iter()
        .all(|t| t.delay_s.is_finite() && t.jitter_s2.is_finite() && t.drop_prob.is_finite());
    if !finite {
        return Err(format!(
            "{} sample {}: non-finite target",
            s.topology, s.seed
        ));
    }
    Ok(())
}

/// Sample seed of the set-up's warm-up samples.
const WARM_UP_SEED: u64 = 0x5E7_0000;

pub struct Setup {
    dir: PathBuf,
}

/// Scratch directory plus one warm-up sample per topology, so allocator
/// and page-cache warm-up is not charged to the first measured round. The
/// warm-up samples come from a fixed seed, not `--seed`: a sample's cost
/// follows its drawn traffic intensity, and set-up should do the same work
/// for every seed.
pub fn setup(ctx: &Ctx) -> Setup {
    let dir = ctx.tmp.join("label");
    std::fs::create_dir_all(&dir).expect("create label scratch dir");
    for (j, (spec, _, _)) in (0u64..).zip(mix(ctx.tiny)) {
        let cfg = GenConfig {
            base_seed: WARM_UP_SEED + j,
            ..gen_config(ctx, spec, 1, 0, j)
        };
        std::hint::black_box(generate_sample(&cfg, 0));
    }
    Setup { dir }
}

/// Save `samples` and return the seconds it took; failures are counted.
fn save(path: &Path, samples: &[Sample], rep: &mut Report) -> f64 {
    let t = Instant::now();
    let res = save_jsonl(path, samples);
    let dt = t.elapsed().as_secs_f64();
    if let Err(e) = res {
        rep.fail(
            samples.len() as u64,
            format!("save {}: {e}", path.display()),
        );
    }
    dt
}

fn file_crc(path: &Path) -> u32 {
    crc32(0, &std::fs::read(path).unwrap_or_default())
}

fn check_all(samples: &[Sample], rep: &mut Report) {
    rep.attempt(samples.len() as u64);
    for s in samples {
        if let Err(e) = check(s) {
            rep.fail(1, e);
        }
    }
}

pub fn measure(ctx: &Ctx, st: &Setup, rep: &mut Report) {
    // Two workers: samples/s at the box's full width, the median over
    // rounds; round 0's saved bytes are the cross-commit digest.
    let start = Instant::now();
    let (mut rates, mut round) = (Vec::new(), 0u64);
    let mut digest = Vec::new();
    while ctx.keep_going(start, 0.5, round) {
        let (mut busy, mut n) = (0.0, 0);
        for (j, cfg) in round_configs(ctx, round).iter().enumerate() {
            let t = Instant::now();
            let samples = generate_dataset_with_threads(cfg, 2);
            busy += t.elapsed().as_secs_f64();
            let path = st.dir.join(format!("t2-{round}-{j}.jsonl"));
            busy += save(&path, &samples, rep);
            check_all(&samples, rep);
            if round == 0 {
                digest.push(file_crc(&path));
            }
            let _ = std::fs::remove_file(&path);
            n += samples.len();
        }
        rates.push(n as f64 / busy);
        round += 1;
    }
    rep.set("ops_per_s", quartiles(&rates).1, rates.len() as u64);

    // One worker, one sample per call: samples/s and per-sample latency.
    // Round 0 must reproduce the two-worker bytes exactly.
    let start = Instant::now();
    let (mut rates, mut round) = (Vec::new(), 0u64);
    let mut latencies = Vec::new();
    while ctx.keep_going(start, 0.5, round) {
        let mut busy = 0.0;
        let mut n = 0;
        for (j, cfg) in round_configs(ctx, round).iter().enumerate() {
            let mut samples = Vec::with_capacity(cfg.n_samples);
            for i in 0..cfg.n_samples {
                let one = GenConfig {
                    n_samples: 1,
                    base_seed: cfg.base_seed + i as u64,
                    ..cfg.clone()
                };
                let t = Instant::now();
                samples.extend(generate_dataset_with_threads(&one, 1));
                let dt = t.elapsed().as_secs_f64();
                busy += dt;
                latencies.push(dt * 1e3);
            }
            let path = st.dir.join(format!("t1-{round}-{j}.jsonl"));
            busy += save(&path, &samples, rep);
            check_all(&samples, rep);
            if round == 0 && digest.get(j) != Some(&file_crc(&path)) {
                rep.fail(
                    samples.len() as u64,
                    "one-worker bytes differ from two-worker bytes",
                );
            }
            let _ = std::fs::remove_file(&path);
            n += samples.len();
        }
        rates.push(n as f64 / busy);
        round += 1;
    }
    rep.set("ops_per_s_t1", quartiles(&rates).1, rates.len() as u64);
    // About 400 samples a run: p95 has some 20 beyond it.
    set_latencies(rep, &latencies, 0.95);
    let d = digest.iter().fold(0u32, |c, x| crc32(c, &x.to_le_bytes()));
    rep.note("label.digest", format!("{d:08x}"));
}

/// `generate_sample` rebuilt from its public steps, each in a span.
fn replay_sample(cfg: &GenConfig, i: usize, t: &mut Tracer) -> (Sample, u64, u64) {
    let seed = cfg.base_seed.wrapping_add(i as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = t.span("netgraph.topology", || cfg.topology.build());
    t.span("netgraph.capacities", || {
        assign_capacities(&mut graph, &cfg.capacities, &mut rng)
    });
    let RoutingDiversity::Randomized { spread } = cfg.routing else {
        panic!("label-mix uses the paper recipe's randomized routing");
    };
    let routing = t
        .span("netgraph.routing", || {
            randomized_routing(&graph, spread, &mut rng)
        })
        .expect("paper topologies are strongly connected");
    let intensity = rng.gen_range(cfg.intensity_min..=cfg.intensity_max);
    let traffic = t.span("netgraph.traffic", || {
        sample_traffic_matrix(&graph, &routing, &cfg.traffic, intensity, &mut rng)
    });
    let sim_cfg = SimConfig {
        seed,
        telemetry: Telemetry::disabled(),
        ..cfg.sim.clone()
    };
    let result = t
        .span("simnet.simulate", || {
            simulate(&graph, &routing, &traffic, &sim_cfg)
        })
        .expect("paper recipe is a valid simulator config");
    let by_pair: std::collections::BTreeMap<_, _> = result
        .flows
        .iter()
        .map(|f| {
            let kpi = TargetKpi {
                delay_s: f.mean_delay_s,
                jitter_s2: f.jitter_s2,
                drop_prob: f.drop_prob(),
            };
            ((f.src, f.dst), kpi)
        })
        .collect();
    let targets = graph
        .node_pairs()
        .map(|p| {
            by_pair.get(&p).copied().unwrap_or(TargetKpi {
                delay_s: 0.0,
                jitter_s2: 0.0,
                drop_prob: 0.0,
            })
        })
        .collect();
    let sample = Sample {
        scenario: Scenario {
            graph,
            routing,
            traffic,
        },
        targets,
        topology: cfg.topology.name(),
        intensity,
        seed,
    };
    (sample, result.events_processed, result.total_packets)
}

/// What one replay pass produced.
struct Pass {
    wall_s: f64,
    /// (round, set, index in set, sample), in replay order.
    samples: Vec<(u64, usize, usize, Sample)>,
    events: u64,
    packets: u64,
    bytes: u64,
}

fn replay_pass(ctx: &Ctx, st: &Setup, rounds: u64, t: &mut Tracer) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        samples: Vec::new(),
        events: 0,
        packets: 0,
        bytes: 0,
    };
    let mut req = 0;
    for round in 0..rounds {
        for (j, cfg) in round_configs(ctx, round).iter().enumerate() {
            let start = Instant::now();
            let mut set = Vec::with_capacity(cfg.n_samples);
            for i in 0..cfg.n_samples {
                t.set_request(req);
                req += 1;
                let op = t.begin("op");
                let (s, ev, pk) = replay_sample(cfg, i, t);
                t.end(op);
                pass.events += ev;
                pass.packets += pk;
                set.push(s);
            }
            let path = st.dir.join(format!("replay-{round}-{j}.jsonl"));
            let saved = t.span("dataset.save", || save_jsonl(&path, &set));
            pass.wall_s += start.elapsed().as_secs_f64();
            saved.expect("replay save");
            pass.bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            let _ = std::fs::remove_file(&path);
            let tagged = set.into_iter().enumerate().map(|(i, s)| (round, j, i, s));
            pass.samples.extend(tagged);
        }
    }
    pass
}

pub fn trace(ctx: &Ctx, st: &Setup, rep: &mut Report) -> (Tracer, f64, f64) {
    let rounds = if ctx.tiny { 1 } else { 2 };
    let a = replay_pass(ctx, st, rounds, &mut Tracer::new(false));
    // Outside timing: the replay must reproduce generate_sample's bytes.
    rep.attempt(a.samples.len() as u64);
    for (round, j, i, s) in &a.samples {
        let cfg = &round_configs(ctx, *round)[*j];
        let want = serde_json::to_string(&generate_sample(cfg, *i)).expect("serialize");
        if want != serde_json::to_string(s).expect("serialize") {
            let why = format!(
                "replayed {} sample {} differs from generate_sample",
                s.topology, s.seed
            );
            rep.fail(1, why);
        }
    }

    let mut t = Tracer::new(true);
    let b = replay_pass(ctx, st, rounds, &mut t);
    let sim_s = t.self_time_of("simnet.simulate");
    rep.set("simnet.events", b.events as f64, 1);
    rep.set("simnet.packets", b.packets as f64, 1);
    rep.set(
        "simnet.events_per_s",
        b.events as f64 / sim_s,
        b.samples.len() as u64,
    );
    rep.set("dataset.bytes", b.bytes as f64, 1);

    // The paper's section 1 cost table: simulating a scenario vs predicting
    // it, per topology, at this workload's recipe and capacities.
    let samples: Vec<Sample> = a.samples.iter().map(|(.., s)| s.clone()).collect();
    let mut model = RouteNet::new(RouteNetConfig::default());
    model.set_normalizer(Normalizer::fit(&samples));
    let spans = t.spans();
    for (j, (_, _, key)) in mix(ctx.tiny).iter().enumerate() {
        let sims: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "simnet.simulate" && b.samples[s.req as usize].1 == j)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect();
        let sim_ms = sims.iter().sum::<f64>() / sims.len() as f64;
        let mine: Vec<&Sample> = (a.samples.iter())
            .filter(|(_, k, ..)| *k == j)
            .map(|(.., s)| s)
            .take(4)
            .collect();
        let t0 = Instant::now();
        for s in &mine {
            std::hint::black_box(model.predict_scenario(&s.scenario));
        }
        let predict_ms = t0.elapsed().as_secs_f64() * 1e3 / mine.len() as f64;
        rep.set(&format!("cost.sim_ms.{key}"), sim_ms, sims.len() as u64);
        rep.set(
            &format!("cost.predict_ms.{key}"),
            predict_ms,
            mine.len() as u64,
        );
        rep.set(&format!("cost.speedup.{key}"), sim_ms / predict_ms, 1);
    }

    let compiled: Vec<_> = samples
        .iter()
        .take(8)
        .map(|s| model.compile(&s.scenario))
        .collect();
    let refs: Vec<_> = compiled.iter().collect();
    crate::kernels::probe(&refs, ctx.tiny, rep);
    (t, a.wall_s, b.wall_s)
}
