//! Allocation counts of the loops whose cost the paper's speed claim rests
//! on: the simulator's event loop, the model's message-passing loop (offline
//! and served) and the training epoch. A counting global allocator measures
//! every heap allocation, including those made inside callees, and each test
//! pins how the count grows with the loop's trip count, so one allocation
//! added per iteration fails here. The simulator and training cases also
//! keep telemetry out of those loops: every write to the telemetry registry
//! (the one lock the loops can reach) allocates its key, so the allocations
//! an in-memory `Telemetry` adds over a disabled one, and the events it
//! records, must not grow with the trip count either. Two more cases pin
//! the tape arena under passes of mixed shapes: the memory its pool keeps,
//! and that its misses stop.
//!
//! Counts are per thread: libtest runs tests on parallel threads, and each
//! test only reads its own thread's counter. Every measured call therefore
//! runs on the calling thread (`threads: 1` for training).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::features::Normalizer;
use routenet_core::model::CompiledScenario;
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset_with_threads, GenConfig, TopologySpec};
use routenet_netgraph::routing::{randomized_routing, shortest_path_routing};
use routenet_netgraph::topology::{assign_capacities, gbn, geant2, nsfnet, CapacityScheme};
use routenet_netgraph::traffic::{sample_traffic_matrix, TrafficModel};
use routenet_netgraph::{Graph, RoutingScheme, TrafficMatrix};
use routenet_nn::Tape;
use routenet_obs::Telemetry;
use routenet_serve::Engine;
use routenet_simnet::{simulate, SimConfig};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting each allocation on the allocating thread.
struct Counting;

fn count_one() {
    // A const-initialised, drop-free thread local never allocates, so the
    // allocator cannot recurse into itself here.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so each
// call meets `System`'s contract whenever its caller meets `GlobalAlloc`'s;
// counting touches only a thread-local integer and never allocates.
#[expect(
    unsafe_code,
    reason = "a global allocator implements an unsafe trait; this one only counts and forwards to System"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return how many allocations this thread made during it.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// NSFNET with KDN capacities, shortest-path routing and a uniform traffic
/// matrix at bottleneck utilisation 0.7: the `simulate` binary's recipe.
fn nsfnet_scenario(seed: u64) -> (Graph, RoutingScheme, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = nsfnet();
    assign_capacities(&mut graph, &CapacityScheme::kdn_default(), &mut rng);
    let routing = shortest_path_routing(&graph).unwrap();
    let model = TrafficModel::Uniform { min_frac: 0.25 };
    let traffic = sample_traffic_matrix(&graph, &routing, &model, 0.7, &mut rng);
    (graph, routing, traffic)
}

/// Allocations of one `simulate` call over `duration_s` with `buffer_pkts`
/// and `telemetry`, and its events.
fn simulation(duration_s: f64, buffer_pkts: Option<usize>, telemetry: &Telemetry) -> (u64, u64) {
    let (graph, routing, traffic) = nsfnet_scenario(7);
    let cfg = SimConfig {
        duration_s,
        warmup_s: 2.0,
        buffer_pkts,
        seed: 3,
        telemetry: telemetry.clone(),
        ..SimConfig::default()
    };
    let (n, res) = allocations(|| simulate(&graph, &routing, &traffic, &cfg).unwrap());
    (n, res.events_processed)
}

/// Allocations an in-memory [`Telemetry`] adds to `run` over a disabled
/// one, and the events it recorded.
fn telemetry_cost(run: impl Fn(&Telemetry) -> u64) -> (u64, usize) {
    let disabled = run(&Telemetry::disabled());
    let telemetry = Telemetry::in_memory("alloc_counts", "telemetry");
    let enabled = run(&telemetry);
    (enabled - disabled, telemetry.records().len())
}

/// Extra allocations a 4x longer simulation may make: the event heap, the
/// packet slab and (with a finite buffer) the per-link departure queues
/// reach a slightly higher high-water mark, and nothing else in the loop
/// allocates.
const SIM_EXTRA_ALLOCS: u64 = 16;

#[test]
fn simulator_event_loop_does_not_allocate_per_event() {
    for buffer_pkts in [None, Some(8)] {
        let (short_allocs, short_events) = simulation(20.0, buffer_pkts, &Telemetry::disabled());
        let (long_allocs, long_events) = simulation(80.0, buffer_pkts, &Telemetry::disabled());
        assert!(
            long_events > 3 * short_events,
            "the long run must process many more events: {short_events} -> {long_events}"
        );
        let extra = long_allocs.saturating_sub(short_allocs);
        assert!(
            extra <= SIM_EXTRA_ALLOCS,
            "buffer {buffer_pkts:?}: {short_allocs} -> {long_allocs} allocations \
             for {short_events} -> {long_events} events"
        );
        let [short_tel, long_tel] =
            [20.0, 80.0].map(|d| telemetry_cost(|t| simulation(d, buffer_pkts, t).0));
        assert_eq!(
            short_tel, long_tel,
            "buffer {buffer_pkts:?}: (allocations, events) telemetry adds at 20 s and 80 s"
        );
    }
}

fn untrained_model(t_iterations: usize) -> RouteNet {
    let mut model = RouteNet::new(RouteNetConfig {
        link_state_dim: 8,
        path_state_dim: 8,
        readout_hidden: 16,
        t_iterations,
        predict_jitter: true,
        predict_drops: false,
        seed: 5,
    });
    model.set_normalizer(Normalizer {
        capacity_scale: 10_000.0,
        traffic_scale: 200.0,
        ..Normalizer::default()
    });
    model
}

/// Three NSFNET traffic matrices over one routing.
fn scenarios() -> Vec<Scenario> {
    (0..3)
        .map(|seed| {
            let (graph, routing, traffic) = nsfnet_scenario(seed);
            let mut sc = Scenario {
                graph,
                routing,
                traffic,
            };
            sc.finalize();
            sc
        })
        .collect()
}

/// Allocations a message-passing iteration over [`scenarios`] may make:
/// none in release; in debug builds `replace_rows_plan`'s distinctness
/// check allocates one `seen` vector per hop position.
fn allocs_per_iteration() -> u64 {
    if !cfg!(debug_assertions) {
        return 0;
    }
    let model = untrained_model(2);
    let compiled: Vec<CompiledScenario> = scenarios().iter().map(|s| model.compile(s)).collect();
    let refs: Vec<&CompiledScenario> = compiled.iter().collect();
    BatchedScenario::pack(&refs).max_len as u64
}

/// Allocations of a warm `predict_batch_compiled_reuse` pass.
fn warm_predict(t_iterations: usize) -> u64 {
    let model = untrained_model(t_iterations);
    let scenarios = scenarios();
    let compiled: Vec<CompiledScenario> = scenarios.iter().map(|s| model.compile(s)).collect();
    let refs: Vec<&CompiledScenario> = compiled.iter().collect();
    // Two passes fill the arena's pool before anything is counted.
    let mut arena = Tape::new();
    for _ in 0..2 {
        arena = model.predict_batch_compiled_reuse(&refs, arena).1;
    }
    let mut counts = Vec::new();
    for _ in 0..2 {
        let (n, (_, returned)) = allocations(|| model.predict_batch_compiled_reuse(&refs, arena));
        arena = returned;
        counts.push(n);
    }
    assert_eq!(counts[0], counts[1], "a warm pass is a steady state");
    counts[0]
}

#[test]
fn warm_predict_does_not_allocate_per_iteration() {
    let (two, eight) = (warm_predict(2), warm_predict(8));
    assert_eq!(
        eight,
        two + 6 * allocs_per_iteration(),
        "t_iterations 2 -> 8: {two} -> {eight} allocations"
    );
}

/// Allocations of a served batch whose plans all hit the cache.
fn warm_served_batch(t_iterations: usize) -> u64 {
    let scenarios = scenarios();
    let refs: Vec<&Scenario> = scenarios.iter().collect();
    let mut engine = Engine::from_model(untrained_model(t_iterations), 4);
    for _ in 0..2 {
        engine.predict(&refs);
    }
    let mut counts = Vec::new();
    for _ in 0..2 {
        let (n, _) = allocations(|| engine.predict(&refs));
        counts.push(n);
    }
    assert_eq!(
        engine.cache_stats(),
        (11, 1),
        "every warm query hits the plan"
    );
    assert_eq!(counts[0], counts[1], "a warm batch is a steady state");
    counts[0]
}

#[test]
fn served_batch_does_not_allocate_per_iteration() {
    let (two, eight) = (warm_served_batch(2), warm_served_batch(8));
    assert_eq!(
        eight,
        two + 6 * allocs_per_iteration(),
        "t_iterations 2 -> 8: {two} -> {eight} allocations"
    );
}

/// Allocations of one training epoch after the first on the data below, one
/// minibatch per epoch: backward partials, the gradient accumulator and the
/// losses. Debug builds add the `debug_assert!` checks' allocations.
const EPOCH_ALLOCS: u64 = if cfg!(debug_assertions) { 966 } else { 954 };

fn tiny_dataset() -> Vec<Sample> {
    let mut cfg = GenConfig::new(
        TopologySpec::Synthetic {
            n: 6,
            topo_seed: 13,
        },
        8,
        33,
    );
    cfg.sim.duration_s = 60.0;
    cfg.sim.warmup_s = 6.0;
    generate_dataset_with_threads(&cfg, 1)
}

#[test]
fn every_epoch_after_the_first_allocates_the_same_pinned_count() {
    let data = tiny_dataset();
    let (train_set, val_set) = data.split_at(6);
    let run = |epochs: usize| {
        let cfg = TrainConfig {
            epochs,
            batch_size: train_set.len(),
            lr: 3e-3,
            threads: 1,
            ..TrainConfig::default()
        };
        let mut model = untrained_model(2);
        allocations(|| train(&mut model, train_set, val_set, &cfg).unwrap()).0
    };
    let counts: Vec<u64> = (2..=4).map(run).collect();
    let per_epoch: Vec<u64> = counts.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(
        per_epoch,
        vec![EPOCH_ALLOCS; 2],
        "allocations of 2..=4 epochs: {counts:?}"
    );
}

/// Six training samples in one minibatch per epoch against six of one
/// sample each: the allocations and events telemetry adds must not change.
#[test]
fn training_calls_telemetry_per_epoch_not_per_minibatch() {
    let data = tiny_dataset();
    let (train_set, val_set) = data.split_at(6);
    let [one, six] = [6, 1].map(|batch_size| {
        telemetry_cost(|telemetry| {
            let cfg = TrainConfig {
                epochs: 2,
                batch_size,
                lr: 3e-3,
                threads: 1,
                telemetry: telemetry.clone(),
                ..TrainConfig::default()
            };
            let mut model = untrained_model(2);
            allocations(|| train(&mut model, train_set, val_set, &cfg).unwrap()).0
        })
    });
    assert_eq!(
        one, six,
        "(allocations, events) telemetry adds at 1 and 6 minibatches per epoch"
    );
}

/// NSFNET, GBN and Geant2 in turn, each scenario with its own capacities,
/// randomised routing and traffic: the what-if rerouting workload's mix.
fn rerouted_scenarios(n: usize, seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut graph = [nsfnet, gbn, geant2][i % 3]();
            assign_capacities(&mut graph, &CapacityScheme::kdn_default(), &mut rng);
            let routing = randomized_routing(&graph, 2.0, &mut rng).unwrap();
            let model = TrafficModel::Uniform { min_frac: 0.25 };
            let intensity = rng.gen_range(0.2..=0.8);
            let traffic = sample_traffic_matrix(&graph, &routing, &model, intensity, &mut rng);
            let mut sc = Scenario {
                graph,
                routing,
                traffic,
            };
            sc.finalize();
            sc
        })
        .collect()
}

/// Micro-batches of 1 to 4 consecutive positions covering `0..n`.
fn micro_batches(n: usize, rng: &mut StdRng) -> Vec<std::ops::Range<usize>> {
    let mut batches = Vec::new();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + rng.gen_range(1..=4usize)).min(n);
        batches.push(lo..hi);
        lo = hi;
    }
    batches
}

/// A daemon's arena under rerouting queries: micro-batches of mixed
/// topologies and sizes through one tape. After one round the pool holds at
/// most twice the largest tape's scalars, and replaying the same
/// micro-batches draws every buffer from it.
#[test]
fn mixed_shape_replay_keeps_the_arena_bounded_and_reaches_a_fixed_point() {
    let model = untrained_model(2);
    let scenarios = rerouted_scenarios(36, 27);
    let compiled: Vec<CompiledScenario> = scenarios.iter().map(|s| model.compile(s)).collect();
    let batches = micro_batches(compiled.len(), &mut StdRng::seed_from_u64(4));
    let round = |mut arena: Tape| {
        for range in &batches {
            let refs: Vec<&CompiledScenario> = compiled[range.clone()].iter().collect();
            arena = model.predict_batch_compiled_reuse(&refs, arena).1;
        }
        arena.reset();
        arena
    };
    let arena = round(Tape::new());
    let (pooled, largest) = (arena.pool_scalars(), arena.max_scalars());
    assert!(
        pooled <= 2 * largest,
        "the pool holds {pooled} scalars against a largest tape of {largest}"
    );
    let misses = arena.reuse_misses();
    let arena = round(arena);
    assert_eq!(arena.reuse_misses(), misses, "the second round missed");
}

/// Training at `batch_size` 4 packs minibatches of different shapes as each
/// epoch's shuffle regroups the samples, so only the buffers the largest
/// minibatch needs bound the arenas: after the second epoch no pass misses.
/// (The total allocation count still varies per epoch: a minibatch's longest
/// path sets how many nodes its backward pass allocates.)
#[test]
fn training_arena_misses_stop_after_the_second_epoch() {
    let data = tiny_dataset();
    let (train_set, val_set) = data.split_at(6);
    let misses = |epochs: usize| {
        let telemetry = Telemetry::in_memory("alloc_counts", "arena");
        let cfg = TrainConfig {
            epochs,
            batch_size: 4,
            lr: 3e-3,
            threads: 1,
            telemetry: telemetry.clone(),
            ..TrainConfig::default()
        };
        let mut model = untrained_model(2);
        train(&mut model, train_set, val_set, &cfg).unwrap();
        telemetry.counter("train.arena_reuse_misses")
    };
    let counts: Vec<u64> = (2..=6).map(misses).collect();
    assert!(
        counts.iter().all(|&m| m == counts[0]),
        "arena misses after 2..=6 epochs: {counts:?}"
    );
}
