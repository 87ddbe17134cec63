//! Batched scenario packing: many [`CompiledScenario`]s, one tape.
//!
//! [`BatchedScenario::pack`] concatenates the per-sample path and link
//! tensors row-block-wise and rebases every position's gather/scatter
//! indices into the concatenated row space — a CSR layout where
//! [`SegmentPlan`]s are the row pointers. [`crate::model::RouteNet::forward_batch`]
//! then computes the reference per-sample forward's values over the
//! concatenated rows, using segment-aware ops for every cross-row
//! reduction that touches a parameter, so per-sample losses and gradients
//! recovered from a batched tape are bitwise identical to running each
//! sample as a batch of one (see DESIGN.md "Batched execution & memory
//! arenas").

use crate::model::CompiledScenario;
use routenet_nn::{IndexPlan, SegmentPlan, Tensor};

/// Rebased gather/scatter index for one hop position of a batch.
#[derive(Debug, Clone)]
pub struct BatchPosition {
    /// Concatenated active-path rows (indices into the batch path rows),
    /// sample blocks in pack order.
    pub path_idx: IndexPlan,
    /// For each active path, the batch link row it traverses here.
    pub link_idx: IndexPlan,
    /// Sample segmentation of the gathered rows (empty segments mark
    /// samples already past their longest path).
    pub seg: SegmentPlan,
}

/// A minibatch of compiled scenarios packed into one concatenated row space.
#[derive(Debug, Clone)]
pub struct BatchedScenario {
    n_samples: usize,
    /// Total path rows across the batch.
    pub n_paths: usize,
    /// Total link rows across the batch.
    pub n_links: usize,
    /// Longest path length across the batch.
    pub max_len: usize,
    link_x: Tensor,
    path_x: Tensor,
    path_seg: SegmentPlan,
    link_seg: SegmentPlan,
    /// Per hop position. A path row absent from a position's `path_idx`
    /// (including every row of a sample whose longest path ends earlier)
    /// keeps its state through that position's update.
    positions: Vec<BatchPosition>,
}

impl BatchedScenario {
    /// Pack compiled scenarios into one batch. Order is significant: segment
    /// order is the reduction order, so callers that need determinism must
    /// pack in a deterministic sample order. Panics on an empty slice or a
    /// scenario with no paths (a segment in the loss must be non-empty).
    pub fn pack(scenarios: &[&CompiledScenario]) -> Self {
        assert!(!scenarios.is_empty(), "cannot pack an empty batch");
        let n_samples = scenarios.len();
        let path_dim = scenarios[0].path_x.cols();
        let link_dim = scenarios[0].link_x.cols();

        let mut path_lens = Vec::with_capacity(n_samples);
        let mut link_lens = Vec::with_capacity(n_samples);
        let mut max_len = 0usize;
        for sc in scenarios {
            assert!(sc.tensors.n_paths > 0, "scenario with zero paths");
            assert_eq!(sc.path_x.cols(), path_dim, "mixed path state widths");
            assert_eq!(sc.link_x.cols(), link_dim, "mixed link state widths");
            path_lens.push(sc.tensors.n_paths);
            link_lens.push(sc.tensors.n_links);
            max_len = max_len.max(sc.tensors.max_len);
        }
        let path_seg = SegmentPlan::from_lens(&path_lens);
        let link_seg = SegmentPlan::from_lens(&link_lens);
        let n_paths = path_seg.total();
        let n_links = link_seg.total();

        let mut path_data = Vec::with_capacity(n_paths * path_dim);
        let mut link_data = Vec::with_capacity(n_links * link_dim);
        for sc in scenarios {
            path_data.extend_from_slice(sc.path_x.data());
            link_data.extend_from_slice(sc.link_x.data());
        }
        let path_x = Tensor::from_vec(n_paths, path_dim, path_data);
        let link_x = Tensor::from_vec(n_links, link_dim, link_data);

        let mut positions = Vec::with_capacity(max_len);
        let mut seg_lens = Vec::with_capacity(n_samples);
        for k in 0..max_len {
            // Not per-iteration scratch: both index vecs are moved into the
            // IndexPlan retained by the returned BatchedScenario.
            let mut path_idx = Vec::new();
            let mut link_idx = Vec::new();
            seg_lens.clear();
            for (s, sc) in scenarios.iter().enumerate() {
                let (path_off, _) = path_seg.range(s);
                let (link_off, _) = link_seg.range(s);
                if k >= sc.tensors.max_len {
                    seg_lens.push(0);
                    continue;
                }
                let pos = &sc.tensors.positions[k];
                seg_lens.push(pos.path_idx.len());
                for (&p, &l) in pos.path_idx.iter().zip(&pos.link_idx) {
                    path_idx.push(path_off + p);
                    link_idx.push(link_off + l);
                }
            }
            positions.push(BatchPosition {
                path_idx: IndexPlan::new(path_idx),
                link_idx: IndexPlan::new(link_idx),
                seg: SegmentPlan::from_lens(&seg_lens),
            });
        }

        BatchedScenario {
            n_samples,
            n_paths,
            n_links,
            max_len,
            link_x,
            path_x,
            path_seg,
            link_seg,
            positions,
        }
    }

    /// Number of samples packed.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Sample segmentation of the batch path rows. This is the `n_seg`
    /// contract for [`routenet_nn::Session::param_grads_seg`] and the
    /// segment plan for a per-sample loss over the batched readout.
    pub fn path_seg(&self) -> &SegmentPlan {
        &self.path_seg
    }

    /// Sample segmentation of the batch link rows.
    pub fn link_seg(&self) -> &SegmentPlan {
        &self.link_seg
    }

    /// Row range `[lo, hi)` of sample `s` in the batch path rows.
    pub fn sample_path_range(&self, s: usize) -> (usize, usize) {
        self.path_seg.range(s)
    }

    pub(crate) fn position(&self, k: usize) -> &BatchPosition {
        &self.positions[k]
    }

    pub(crate) fn link_x(&self) -> &Tensor {
        &self.link_x
    }

    pub(crate) fn path_x(&self) -> &Tensor {
        &self.path_x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RouteNet, RouteNetConfig};
    use crate::sample::Scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::{generate, TrafficMatrix};

    fn model() -> RouteNet {
        let mut m = RouteNet::new(RouteNetConfig {
            link_state_dim: 4,
            path_state_dim: 4,
            readout_hidden: 8,
            t_iterations: 2,
            predict_jitter: true,
            predict_drops: false,
            seed: 5,
        });
        m.set_normalizer(crate::features::Normalizer {
            capacity_scale: 10_000.0,
            traffic_scale: 230.0,
            ..crate::features::Normalizer::default()
        });
        m
    }

    fn scenario(n: usize, seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::synthetic(n, &mut rng);
        let routing = shortest_path_routing(&g).unwrap();
        let mut traffic = TrafficMatrix::zeros(n);
        for (s, d) in g.node_pairs() {
            traffic.set_demand(s, d, 100.0 + 7.0 * (s.0 * n + d.0) as f64);
        }
        Scenario {
            graph: g,
            routing,
            traffic,
        }
    }

    #[test]
    fn pack_concatenates_row_blocks() {
        let m = model();
        let scs = [scenario(5, 1), scenario(8, 2)];
        let compiled: Vec<_> = scs.iter().map(|s| m.compile(s)).collect();
        let refs: Vec<&CompiledScenario> = compiled.iter().collect();
        let b = BatchedScenario::pack(&refs);
        assert_eq!(b.n_samples(), 2);
        assert_eq!(
            b.n_paths,
            compiled[0].tensors.n_paths + compiled[1].tensors.n_paths
        );
        assert_eq!(
            b.n_links,
            compiled[0].tensors.n_links + compiled[1].tensors.n_links
        );
        assert_eq!(
            b.max_len,
            compiled[0].tensors.max_len.max(compiled[1].tensors.max_len)
        );
        // Feature rows are verbatim copies of the per-sample tensors.
        let (lo, hi) = b.sample_path_range(1);
        assert_eq!(hi - lo, compiled[1].tensors.n_paths);
        for r in 0..(hi - lo) {
            for c in 0..compiled[1].path_x.cols() {
                assert_eq!(b.path_x().get(lo + r, c), compiled[1].path_x.get(r, c));
            }
        }
    }

    #[test]
    fn position_indices_stay_inside_sample_blocks() {
        let m = model();
        let scs = [scenario(6, 3), scenario(4, 4), scenario(7, 5)];
        let compiled: Vec<_> = scs.iter().map(|s| m.compile(s)).collect();
        let refs: Vec<&CompiledScenario> = compiled.iter().collect();
        let b = BatchedScenario::pack(&refs);
        for k in 0..b.max_len {
            let pos = b.position(k);
            assert_eq!(pos.seg.n_segments(), 3);
            assert_eq!(pos.seg.total(), pos.path_idx.len());
            for (s, sample) in compiled.iter().enumerate() {
                let (lo, hi) = pos.seg.range(s);
                let (plo, phi) = b.path_seg().range(s);
                let (llo, lhi) = b.link_seg().range(s);
                for i in lo..hi {
                    let p = pos.path_idx.indices()[i];
                    let l = pos.link_idx.indices()[i];
                    assert!(p >= plo && p < phi, "path row escaped its block");
                    assert!(l >= llo && l < lhi, "link row escaped its block");
                }
                // Past a sample's own max_len the segment must be empty, so
                // no row of the sample is replaced (its state passes through
                // unchanged).
                if k >= sample.tensors.max_len {
                    assert_eq!(hi, lo, "inactive sample has gathered rows");
                    assert!(pos.path_idx.indices().iter().all(|&p| p < plo || p >= phi));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn pack_rejects_empty() {
        BatchedScenario::pack(&[]);
    }

    /// Smallest scenario a serving query can carry: two nodes, two one-hop
    /// paths. `generate::synthetic` cannot build it (preferential attachment
    /// needs n > 2), so it comes from a full mesh.
    fn minimal_scenario(demand: f64) -> Scenario {
        let g = generate::full_mesh(2);
        let routing = shortest_path_routing(&g).unwrap();
        let mut traffic = TrafficMatrix::zeros(2);
        for (s, d) in g.node_pairs() {
            traffic.set_demand(s, d, demand);
        }
        Scenario {
            graph: g,
            routing,
            traffic,
        }
    }

    fn assert_bitwise(got: &[crate::sample::Prediction], want: &[crate::sample::Prediction]) {
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
            assert_eq!(a.jitter_s2.to_bits(), b.jitter_s2.to_bits());
            assert_eq!(a.drop_prob.to_bits(), b.drop_prob.to_bits());
        }
    }

    #[test]
    fn batch_of_one_minimal_scenario() {
        let m = model();
        let sc = minimal_scenario(120.0);
        let compiled = m.compile(&sc);
        let b = BatchedScenario::pack(&[&compiled]);
        assert_eq!(b.n_samples(), 1);
        assert_eq!(b.n_paths, 2);
        assert_eq!(b.max_len, 1);
        assert_eq!(b.sample_path_range(0), (0, 2));
        // The batch of one reproduces the dense reference forward bitwise.
        let mut sess = routenet_nn::Session::new(m.store());
        let batched = m.forward_batch(&mut sess, &b);
        let mut ref_sess = routenet_nn::Session::new(m.store());
        let reference = m.forward(&mut ref_sess, &compiled);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(sess.tape.value(batched)),
            bits(ref_sess.tape.value(reference))
        );
    }

    #[test]
    fn batch_mixing_empty_and_nonempty_segments() {
        // The minimal sample goes inactive after position 0; deeper samples
        // keep their segments populated, so later positions mix empty and
        // non-empty segments — the shape a mixed-topology micro-batch hits.
        let m = model();
        let scs = [minimal_scenario(90.0), scenario(8, 11), scenario(5, 12)];
        let compiled: Vec<_> = scs.iter().map(|s| m.compile(s)).collect();
        let refs: Vec<&CompiledScenario> = compiled.iter().collect();
        let b = BatchedScenario::pack(&refs);
        assert!(b.max_len > 1, "need depth to exercise inactive samples");
        let pos = b.position(b.max_len - 1);
        let (lo, hi) = pos.seg.range(0);
        assert_eq!(lo, hi, "minimal sample must be inactive at the last hop");
        assert!(
            (1..3).any(|s| {
                let (lo, hi) = pos.seg.range(s);
                hi > lo
            }),
            "a deep sample must stay active at the last hop"
        );
        let batched = m.predict_batch_compiled(&refs);
        for (preds, c) in batched.iter().zip(&compiled) {
            assert_bitwise(preds, &m.predict_batch_compiled(&[c])[0]);
        }
    }

    #[test]
    fn repeated_topology_queries_share_one_cached_plan() {
        // The daemon's cache hands every same-topology query one PathTensors
        // plan; only the traffic differs. Per-query answers from the shared
        // plan must match compiling each scenario from scratch, bitwise.
        let m = model();
        let base = scenario(6, 21);
        let index = crate::indexing::PathTensors::build(&base);
        let mut queries = Vec::new();
        for i in 0..4 {
            let mut sc = base.clone();
            for (s, d) in sc.graph.node_pairs() {
                let demand = 80.0 + 13.0 * (i * 40 + s.0 * 6 + d.0) as f64;
                sc.traffic.set_demand(s, d, demand);
            }
            queries.push(sc);
        }
        let compiled: Vec<_> = queries
            .iter()
            .map(|sc| m.compile_with_index(sc, index.clone()))
            .collect();
        let refs: Vec<&CompiledScenario> = compiled.iter().collect();
        let batched = m.predict_batch_compiled(&refs);
        assert_eq!(batched.len(), 4);
        for (preds, sc) in batched.iter().zip(&queries) {
            assert_bitwise(preds, &m.predict_scenario(sc));
        }
        // Different traffic must actually produce different answers — the
        // shared plan is an indexing cache, not a result cache.
        assert!(batched[0]
            .iter()
            .zip(&batched[1])
            .any(|(a, b)| a.delay_s != b.delay_s));
    }
}
