//! Criterion benches for training-step cost (forward + backward + Adam) and
//! for the substrate layers (simulator event throughput, autodiff tape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use routenet_core::prelude::*;
use routenet_core::trainer::{train, TrainConfig};
use routenet_dataset::gen::{generate_sample, GenConfig, TopologySpec};
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::{Graph, NodeId, TrafficMatrix};

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for (spec, name) in [
        (TopologySpec::Nsfnet, "nsfnet14"),
        (
            TopologySpec::Synthetic {
                n: 50,
                topo_seed: 2019,
            },
            "synth50",
        ),
    ] {
        let mut cfg = GenConfig::new(spec, 1, 3);
        cfg.sim.duration_s = 50.0;
        cfg.sim.warmup_s = 5.0;
        let sample = generate_sample(&cfg, 0);
        group.bench_with_input(
            BenchmarkId::new("one_sample_epoch", name),
            &sample,
            |b, s| {
                // One-epoch training on a single sample: forward + backward +
                // optimizer step, including normalizer fit and compilation.
                b.iter(|| {
                    let mut model = RouteNet::new(RouteNetConfig::default());
                    let cfg = TrainConfig {
                        epochs: 1,
                        batch_size: 1,
                        keep_best: false,
                        ..TrainConfig::default()
                    };
                    train(&mut model, std::slice::from_ref(s), &[], &cfg).expect("train")
                });
            },
        );
    }
    group.finish();
}

/// Thread scaling of the batched CSR kernel. Throughput is samples/s over
/// a fixed nsfnet14 sweep (epochs × samples).
fn bench_batched_kernel(c: &mut Criterion) {
    let mut cfg = GenConfig::new(TopologySpec::Nsfnet, 1, 3);
    cfg.sim.duration_s = 20.0;
    cfg.sim.warmup_s = 2.0;
    let samples: Vec<_> = (0..8).map(|i| generate_sample(&cfg, i)).collect();
    let epochs = 2usize;
    let work = (samples.len() * epochs) as u64;

    let train_once = |samples: &[routenet_core::Sample], threads: usize| {
        let mut model = RouteNet::new(RouteNetConfig::default());
        let cfg = TrainConfig {
            epochs,
            batch_size: samples.len(),
            threads,
            keep_best: false,
            ..TrainConfig::default()
        };
        train(&mut model, samples, &[], &cfg).expect("train")
    };

    let mut group = c.benchmark_group("batched_thread_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(work));
    // Sweeping past the machine's core count measures oversubscription, not
    // scaling: the extra workers time-slice one core and the "speedup" row is
    // noise. Skip those points and say so, instead of reporting them.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [1usize, 2, 4, 8] {
        if threads > cores {
            eprintln!(
                "batched_thread_sweep: skipping {threads} threads (only {cores} core(s) available)"
            );
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("nsfnet14x8_threads", threads),
            &samples,
            |b, s| {
                b.iter(|| train_once(s, threads));
            },
        );
    }
    group.finish();
}

fn bench_simulator_throughput(c: &mut Criterion) {
    // One saturated link: measures raw event-processing rate.
    let mut g = Graph::new("1link", 2);
    g.add_duplex(NodeId(0), NodeId(1), 1_000_000.0, 0.0)
        .unwrap();
    let routing = shortest_path_routing(&g).unwrap();
    let mut tm = TrafficMatrix::zeros(2);
    tm.set_demand(NodeId(0), NodeId(1), 800_000.0); // 800 pps at 1000-bit pkts
    let cfg = routenet_simnet::sim::SimConfig {
        duration_s: 50.0,
        warmup_s: 5.0,
        ..routenet_simnet::sim::SimConfig::default()
    };
    let events = routenet_simnet::sim::simulate(&g, &routing, &tm, &cfg)
        .unwrap()
        .events_processed;
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    group.bench_function("event_throughput_50s_800pps", |b| {
        b.iter(|| routenet_simnet::sim::simulate(&g, &routing, &tm, &cfg).unwrap());
    });
    group.finish();
}

fn bench_autodiff(c: &mut Criterion) {
    use routenet_nn::prelude::*;
    // A representative GRU-chain tape: forward + backward.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "g", 16, 16, &mut rng);
    let x = Tensor::full(256, 16, 0.1);
    let target = Tensor::zeros(256, 16);
    c.bench_function("autodiff_gru_chain_8steps_b256", |b| {
        b.iter(|| {
            let mut sess = Session::new(&store);
            let xv = sess.input(x.clone());
            let mut h = sess.input(Tensor::zeros(256, 16));
            for _ in 0..8 {
                h = gru.step(&mut sess, xv, h);
            }
            let loss = sess.tape.mse(h, &target);
            let grads = sess.tape.backward(loss);
            sess.param_grads(&grads)
        });
    });
}

criterion_group!(
    benches,
    bench_train_step,
    bench_batched_kernel,
    bench_simulator_throughput,
    bench_autodiff
);
criterion_main!(benches);
