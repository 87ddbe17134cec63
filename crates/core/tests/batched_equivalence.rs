//! Property test of the batched CSR kernel's core contract: packing any
//! mix of scenarios into one [`BatchedScenario`] and running a single
//! forward/backward is **bitwise identical** to running each sample on its
//! own tape through the reference [`RouteNet::forward`] — output rows,
//! per-sample losses, and per-sample parameter gradients. This is what lets
//! the trainer split a minibatch across any number of workers, and the
//! daemon micro-batch queries, without perturbing a single bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::prelude::*;
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::TrafficMatrix;
use routenet_netgraph::{generate, Graph};
use routenet_nn::{ParamId, Session, Tensor};

fn model(seed: u64) -> RouteNet {
    let mut m = RouteNet::new(RouteNetConfig {
        link_state_dim: 6,
        path_state_dim: 6,
        readout_hidden: 8,
        t_iterations: 3,
        predict_jitter: true,
        predict_drops: false,
        seed,
    });
    m.set_normalizer(Normalizer {
        capacity_scale: 10_000.0,
        traffic_scale: 500.0,
        ..Normalizer::default()
    });
    m
}

fn random_scenario(n: usize, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph: Graph = generate::synthetic(n, &mut rng);
    let routing = shortest_path_routing(&graph).unwrap();
    let mut traffic = TrafficMatrix::zeros(n);
    for (s, d) in graph.node_pairs() {
        traffic.set_demand(s, d, 100.0 + 900.0 * rng.gen::<f64>());
    }
    Scenario {
        graph,
        routing,
        traffic,
    }
}

/// Positive pseudo-observed targets (the trainer only ever regresses onto
/// simulator KPIs, which are strictly positive).
fn targets(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| 0.01 + rng.gen::<f64>()).collect();
    Tensor::from_vec(rows, cols, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_pass_is_bitwise_identical_to_per_sample(
        seed in 0u64..500,
        n_scenarios in 2usize..5,
    ) {
        let m = model(7);
        let mut size_rng = StdRng::seed_from_u64(seed ^ 0xB47C);
        let scenarios: Vec<Scenario> = (0..n_scenarios)
            .map(|i| {
                let n = size_rng.gen_range(4usize..8);
                random_scenario(n, seed.wrapping_mul(31).wrapping_add(i as u64))
            })
            .collect();
        let compiled: Vec<_> = scenarios.iter().map(|sc| m.compile(sc)).collect();
        let tgts: Vec<Tensor> = scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| targets(sc.n_pairs(), m.out_dim(), seed.wrapping_add(1000 + i as u64)))
            .collect();

        // Per-sample reference: each scenario through the dense reference
        // forward on its own fresh tape, independent of the packing code.
        let mut ref_rows: Vec<Tensor> = Vec::new();
        let mut ref_losses: Vec<f64> = Vec::new();
        let mut ref_grads: Vec<Vec<(ParamId, Tensor)>> = Vec::new();
        for (c, t) in compiled.iter().zip(&tgts) {
            let mut sess = Session::new(m.store());
            let out = m.forward(&mut sess, c);
            let loss = sess.tape.mse(out, t);
            ref_rows.push(sess.tape.value(out).clone());
            ref_losses.push(sess.tape.value(loss).get(0, 0));
            let grads = sess.tape.backward(loss);
            ref_grads.push(sess.param_grads(&grads));
        }

        // Batched: one packed CSR pass over all scenarios at once.
        let refs: Vec<&_> = compiled.iter().collect();
        let batch = BatchedScenario::pack(&refs);
        let mut tdata = Vec::new();
        for t in &tgts {
            tdata.extend_from_slice(t.data());
        }
        let target = Tensor::from_vec(batch.path_seg().total(), m.out_dim(), tdata);
        let mut sess = Session::new(m.store());
        let out = m.forward_batch(&mut sess, &batch);
        let seg_loss = sess.tape.seg_mse(out, &target, batch.path_seg());
        let total = sess.tape.sum_all(seg_loss);
        let out_rows = sess.tape.value(out).clone();
        let seg_loss_vals = sess.tape.value(seg_loss).clone();
        let grads = sess.tape.backward(total);
        let per_sample = sess.param_grads_seg(&grads, compiled.len());

        // Forward rows: each sample's block equals its solo forward, bitwise.
        for (s, r) in ref_rows.iter().enumerate() {
            let (lo, hi) = batch.sample_path_range(s);
            prop_assert_eq!(hi - lo, r.rows());
            for (row_b, row_r) in (lo..hi).zip(0..r.rows()) {
                for col in 0..r.cols() {
                    prop_assert!(
                        out_rows.get(row_b, col).to_bits() == r.get(row_r, col).to_bits(),
                        "forward row {row_r} col {col} of sample {s} diverged"
                    );
                }
            }
        }
        // Per-sample losses from the segmented MSE, bitwise.
        for (s, &l) in ref_losses.iter().enumerate() {
            prop_assert_eq!(seg_loss_vals.get(s, 0).to_bits(), l.to_bits());
        }
        // Per-sample parameter gradients, bitwise.
        for (s, rg) in ref_grads.iter().enumerate() {
            let bg = &per_sample[s];
            prop_assert_eq!(bg.len(), rg.len());
            for ((pid_b, tb), (pid_r, tr)) in bg.iter().zip(rg) {
                prop_assert_eq!(pid_b, pid_r);
                let bitwise = tb
                    .data()
                    .iter()
                    .zip(tr.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                prop_assert!(bitwise, "gradient for sample {s} param {pid_b:?} diverged");
            }
        }
    }
}
