//! Random topology generators.
//!
//! The paper's training set includes a 50-node synthetically-generated
//! topology; [`synthetic`] is the entry point used by the dataset pipeline.
//! Several generator families are provided so experiments can vary the
//! structural distribution (the paper's demo stresses "topologies of variable
//! size up to 50 nodes").

use crate::graph::{Graph, NodeId};
use crate::topology::{DEFAULT_CAPACITY_BPS, DEFAULT_PROP_DELAY_S};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// Undirected edge set builder used by all generators; dedups and forbids
/// self-loops. Ordered so link ids are deterministic without compensating
/// sorts at every iteration site.
#[derive(Default)]
struct EdgeSet {
    edges: BTreeSet<(usize, usize)>,
}

impl EdgeSet {
    fn insert(&mut self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        self.edges.insert((a.min(b), a.max(b)))
    }

    fn into_graph(self, name: &str, n: usize) -> Graph {
        let mut g = Graph::new(name, n);
        #[expect(
            clippy::expect_used,
            reason = "EdgeSet normalizes pairs: no self-loops or duplicates by construction"
        )]
        for (a, b) in self.edges {
            g.add_duplex(
                NodeId(a),
                NodeId(b),
                DEFAULT_CAPACITY_BPS,
                DEFAULT_PROP_DELAY_S,
            )
            .expect("EdgeSet guarantees validity");
        }
        g
    }
}

/// Connect disconnected components by adding random inter-component edges
/// until one (undirected) component remains.
fn repair_connectivity<R: Rng>(edges: &mut EdgeSet, n: usize, rng: &mut R) {
    // Union-find over nodes.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    let edge_list: Vec<_> = edges.edges.iter().copied().collect();
    for (a, b) in edge_list {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    loop {
        let mut roots: Vec<usize> = (0..n).map(|x| find(&mut parent, x)).collect();
        roots.sort_unstable();
        roots.dedup();
        if roots.len() <= 1 {
            break;
        }
        // Pick one node from each of two random components and join them.
        let ra = roots[rng.gen_range(0..roots.len())];
        let rb = loop {
            let r = roots[rng.gen_range(0..roots.len())];
            if r != ra {
                break r;
            }
        };
        let members_a: Vec<usize> = (0..n).filter(|&x| find(&mut parent, x) == ra).collect();
        let members_b: Vec<usize> = (0..n).filter(|&x| find(&mut parent, x) == rb).collect();
        #[expect(
            clippy::expect_used,
            reason = "every union-find root has at least its own member"
        )]
        let a = *members_a.choose(rng).expect("non-empty component");
        #[expect(
            clippy::expect_used,
            reason = "every union-find root has at least its own member"
        )]
        let b = *members_b.choose(rng).expect("non-empty component");
        edges.insert(a, b);
        let (fa, fb) = (find(&mut parent, a), find(&mut parent, b));
        parent[fa] = fb;
    }
}

/// Erdős–Rényi G(n, p) with connectivity repair.
pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n >= 2, "need at least 2 nodes");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut es = EdgeSet::default();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen::<f64>() < p {
                es.insert(a, b);
            }
        }
    }
    repair_connectivity(&mut es, n, rng);
    es.into_graph(&format!("ER-{n}"), n)
}

/// Barabási–Albert preferential attachment: start from a clique of `m + 1`
/// nodes; every new node attaches to `m` distinct existing nodes with
/// probability proportional to degree.
pub fn barabasi_albert<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "m must be >= 1");
    assert!(n > m, "need n > m");
    let mut es = EdgeSet::default();
    // Seed clique.
    for a in 0..=m {
        for b in (a + 1)..=m {
            es.insert(a, b);
        }
    }
    // Repeated-nodes trick: each edge endpoint appears once per degree.
    let mut repeated: Vec<usize> = Vec::new();
    for &(a, b) in &es.edges {
        repeated.push(a);
        repeated.push(b);
    }
    // Ascending pool order: keeps seeded outputs byte-stable across the
    // BTreeSet migration (the pool used to be sorted after hash iteration).
    repeated.sort_unstable();
    for v in (m + 1)..n {
        let mut targets = BTreeSet::new();
        while targets.len() < m {
            let t = repeated[rng.gen_range(0..repeated.len())];
            if t != v {
                targets.insert(t);
            }
        }
        for t in targets {
            es.insert(v, t);
            repeated.push(v);
            repeated.push(t);
        }
    }
    es.into_graph(&format!("BA-{n}"), n)
}

/// Bidirectional ring of `n` nodes.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "ring needs >= 3 nodes");
    let mut es = EdgeSet::default();
    for i in 0..n {
        es.insert(i, (i + 1) % n);
    }
    es.into_graph(&format!("Ring-{n}"), n)
}

/// `w x h` grid (4-neighborhood).
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(w >= 1 && h >= 1 && w * h >= 2);
    let idx = |x: usize, y: usize| y * w + x;
    let mut es = EdgeSet::default();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                es.insert(idx(x, y), idx(x + 1, y));
            }
            if y + 1 < h {
                es.insert(idx(x, y), idx(x, y + 1));
            }
        }
    }
    es.into_graph(&format!("Grid-{w}x{h}"), w * h)
}

/// Full mesh over `n` nodes.
pub fn full_mesh(n: usize) -> Graph {
    assert!(n >= 2);
    let mut es = EdgeSet::default();
    for a in 0..n {
        for b in (a + 1)..n {
            es.insert(a, b);
        }
    }
    es.into_graph(&format!("Mesh-{n}"), n)
}

/// The synthetic topology family used for the paper's 50-node training
/// topology: scale-free preferential attachment with `m = 2` (average degree
/// ~4, matching backbone-like sparsity), named `Synth-<n>`.
pub fn synthetic<R: Rng>(n: usize, rng: &mut R) -> Graph {
    let mut g = barabasi_albert(n, 2, rng);
    g.name = format!("Synth-{n}");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::is_strongly_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn er_connected_and_right_size() {
        let mut rng = StdRng::seed_from_u64(42);
        for &n in &[5usize, 20, 50] {
            let g = erdos_renyi(n, 0.1, &mut rng);
            assert_eq!(g.n_nodes(), n);
            assert!(
                is_strongly_connected(&g),
                "ER-{n} must be repaired to connected"
            );
        }
    }

    #[test]
    fn er_p1_is_full_mesh() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi(6, 1.0, &mut rng);
        assert_eq!(g.n_links(), 6 * 5);
    }

    #[test]
    fn ba_edge_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 30;
        let m = 2;
        let g = barabasi_albert(n, m, &mut rng);
        // clique(m+1)=m(m+1)/2 undirected + (n-m-1)*m new
        let undirected = m * (m + 1) / 2 + (n - m - 1) * m;
        assert_eq!(g.n_links(), undirected * 2);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn ba_has_hubs() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = barabasi_albert(100, 2, &mut rng);
        let max_deg = g.nodes().map(|n| g.out_degree(n)).max().unwrap();
        // Preferential attachment should create at least one hub well above
        // the average degree (~4).
        assert!(max_deg >= 8, "expected a hub, max degree was {max_deg}");
    }

    #[test]
    fn ring_and_grid_shapes() {
        let g = ring(8);
        assert_eq!(g.n_links(), 16);
        assert!(g.nodes().all(|n| g.out_degree(n) == 2));
        let g = grid(3, 4);
        assert_eq!(g.n_nodes(), 12);
        // edges: 3 rows of horizontal? horizontal: (3-1)*4=8, vertical: 3*(4-1)=9 => 17
        assert_eq!(g.n_links(), 34);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn synthetic50_matches_paper_scale() {
        let mut rng = StdRng::seed_from_u64(2019);
        let g = synthetic(50, &mut rng);
        assert_eq!(g.n_nodes(), 50);
        assert_eq!(g.name, "Synth-50");
        assert!(is_strongly_connected(&g));
        let avg_deg = g.nodes().map(|n| g.out_degree(n)).sum::<usize>() as f64 / g.n_nodes() as f64;
        assert!((3.0..=5.0).contains(&avg_deg), "avg degree {avg_deg}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g1 = synthetic(20, &mut StdRng::seed_from_u64(5));
        let g2 = synthetic(20, &mut StdRng::seed_from_u64(5));
        let e1: Vec<_> = g1.links().map(|(_, l)| (l.src.0, l.dst.0)).collect();
        let e2: Vec<_> = g2.links().map(|(_, l)| (l.src.0, l.dst.0)).collect();
        assert_eq!(e1, e2);
    }
}
