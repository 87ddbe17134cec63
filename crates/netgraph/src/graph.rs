//! Directed network graph with capacitated links.
//!
//! The graph is the shared substrate of the whole suite: the simulator walks
//! its links, routing schemes are sequences of its link ids, and RouteNet's
//! message passing is assembled from its adjacency structure.
//!
//! Conventions:
//! - Links are **directed**. A physical full-duplex cable between `a` and `b`
//!   is modeled as two independent links (`a→b`, `b→a`), which is how both
//!   OMNeT++ models and the public RouteNet datasets treat them.
//! - Capacities are in **bits per second**, propagation delays in **seconds**.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Index of a directed link in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A directed, capacitated link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Transmission capacity in bits/s. Must be finite and positive.
    pub capacity_bps: f64,
    /// Propagation delay in seconds (ignored by pure queueing models, added
    /// verbatim by the simulator). Non-negative.
    pub prop_delay_s: f64,
    /// Administrative weight used by weighted shortest-path routing.
    pub weight: f64,
}

/// Errors produced when building or querying a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node id referenced a node that does not exist.
    NodeOutOfRange {
        /// Offending node id.
        node: usize,
        /// Number of nodes in the graph.
        n_nodes: usize,
    },
    /// A link id referenced a link that does not exist.
    LinkOutOfRange {
        /// Offending link id.
        link: usize,
        /// Number of links in the graph.
        n_links: usize,
    },
    /// A link had a non-positive or non-finite capacity.
    BadCapacity(f64),
    /// A link had a negative or non-finite propagation delay.
    BadPropDelay(f64),
    /// A self-loop (`src == dst`) was rejected.
    SelfLoop {
        /// The node with the rejected self-loop.
        node: usize,
    },
    /// A duplicate directed link between the same node pair was rejected.
    DuplicateLink {
        /// Source node id.
        src: usize,
        /// Destination node id.
        dst: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node id {node} out of range (graph has {n_nodes} nodes)")
            }
            GraphError::LinkOutOfRange { link, n_links } => {
                write!(f, "link id {link} out of range (graph has {n_links} links)")
            }
            GraphError::BadCapacity(c) => {
                write!(f, "link capacity must be finite and > 0, got {c}")
            }
            GraphError::BadPropDelay(d) => {
                write!(f, "propagation delay must be finite and >= 0, got {d}")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node} rejected"),
            GraphError::DuplicateLink { src, dst } => {
                write!(f, "duplicate directed link {src}->{dst} rejected")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed network topology.
///
/// Node ids are dense (`0..n_nodes()`), link ids are dense (`0..n_links()`).
/// At most one directed link may exist per ordered node pair; parallel links
/// are rejected so that `(src, dst)` uniquely identifies a link, matching the
/// routing-table representation used throughout the suite.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    /// Optional human-readable name ("NSFNET", "Geant2", ...).
    pub name: String,
    n_nodes: usize,
    links: Vec<Link>,
    /// Outgoing link ids per node, in insertion order.
    out_links: Vec<Vec<LinkId>>,
    /// Incoming link ids per node, in insertion order.
    in_links: Vec<Vec<LinkId>>,
    /// Map (src, dst) -> link id for O(1) lookup.
    #[serde(skip)]
    pair_index: HashMap<(usize, usize), LinkId>,
}

impl Graph {
    /// Create a graph with `n_nodes` nodes and no links.
    pub fn new(name: impl Into<String>, n_nodes: usize) -> Self {
        Graph {
            name: name.into(),
            n_nodes,
            links: Vec::new(),
            out_links: vec![Vec::new(); n_nodes],
            in_links: vec![Vec::new(); n_nodes],
            pair_index: HashMap::new(),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_nodes).map(NodeId)
    }

    /// Iterator over `(LinkId, &Link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Access a link by id.
    pub fn link(&self, id: LinkId) -> Result<&Link, GraphError> {
        self.links.get(id.0).ok_or(GraphError::LinkOutOfRange {
            link: id.0,
            n_links: self.links.len(),
        })
    }

    /// Infallible link access for ids minted by this graph itself — ids
    /// obtained from [`Graph::out_links`], [`Graph::in_links`],
    /// [`Graph::links`], or [`Graph::link_between`]. For ids from untrusted
    /// input (deserialized routing tables, CLI arguments) use [`Graph::link`],
    /// which returns a typed error instead.
    ///
    /// INVARIANT: every LinkId stored in the adjacency structure indexes into
    /// `links` — `add_link` is the only writer and appends consistently.
    pub fn adj_link(&self, id: LinkId) -> &Link {
        debug_assert!(
            id.0 < self.links.len(),
            "foreign LinkId {id} passed to adj_link"
        );
        &self.links[id.0]
    }

    /// Mutable counterpart of [`Graph::adj_link`], same precondition.
    ///
    /// INVARIANT: the id was minted by this graph (see [`Graph::adj_link`]).
    pub fn adj_link_mut(&mut self, id: LinkId) -> &mut Link {
        debug_assert!(
            id.0 < self.links.len(),
            "foreign LinkId {id} passed to adj_link_mut"
        );
        &mut self.links[id.0]
    }

    /// Mutable access to a link's attributes (capacity, weight, delay).
    pub fn link_mut(&mut self, id: LinkId) -> Result<&mut Link, GraphError> {
        let n_links = self.links.len();
        self.links.get_mut(id.0).ok_or(GraphError::LinkOutOfRange {
            link: id.0,
            n_links,
        })
    }

    fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n.0 >= self.n_nodes {
            Err(GraphError::NodeOutOfRange {
                node: n.0,
                n_nodes: self.n_nodes,
            })
        } else {
            Ok(())
        }
    }

    /// Add a directed link. Returns its id.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity_bps: f64,
        prop_delay_s: f64,
    ) -> Result<LinkId, GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop { node: src.0 });
        }
        if !(capacity_bps.is_finite() && capacity_bps > 0.0) {
            return Err(GraphError::BadCapacity(capacity_bps));
        }
        if !(prop_delay_s.is_finite() && prop_delay_s >= 0.0) {
            return Err(GraphError::BadPropDelay(prop_delay_s));
        }
        if self.pair_index.contains_key(&(src.0, dst.0)) {
            return Err(GraphError::DuplicateLink {
                src: src.0,
                dst: dst.0,
            });
        }
        let id = LinkId(self.links.len());
        self.links.push(Link {
            src,
            dst,
            capacity_bps,
            prop_delay_s,
            weight: 1.0,
        });
        self.out_links[src.0].push(id);
        self.in_links[dst.0].push(id);
        self.pair_index.insert((src.0, dst.0), id);
        Ok(id)
    }

    /// Add a full-duplex connection: two directed links with identical
    /// attributes. Returns `(forward, backward)` ids.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        prop_delay_s: f64,
    ) -> Result<(LinkId, LinkId), GraphError> {
        let f = self.add_link(a, b, capacity_bps, prop_delay_s)?;
        let r = self.add_link(b, a, capacity_bps, prop_delay_s)?;
        Ok((f, r))
    }

    /// Directed link id between `src` and `dst`, if one exists.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.pair_index.get(&(src.0, dst.0)).copied()
    }

    /// Outgoing links of `n`.
    pub fn out_links(&self, n: NodeId) -> &[LinkId] {
        &self.out_links[n.0]
    }

    /// Incoming links of `n`.
    pub fn in_links(&self, n: NodeId) -> &[LinkId] {
        &self.in_links[n.0]
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_links[n.0].len()
    }

    /// Successor nodes of `n` (one per outgoing link).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links[n.0].iter().map(move |l| self.links[l.0].dst)
    }

    /// Set every link weight to 1 (hop-count routing).
    pub fn set_unit_weights(&mut self) {
        for l in &mut self.links {
            l.weight = 1.0;
        }
    }

    /// Rebuild the internal `(src, dst) -> link` index. Must be called after
    /// deserializing a graph (the index is not serialized).
    pub fn rebuild_index(&mut self) {
        self.pair_index = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| ((l.src.0, l.dst.0), LinkId(i)))
            .collect();
    }

    /// All ordered node pairs `(s, d)` with `s != d`; the canonical iteration
    /// order of traffic matrices and routing schemes.
    pub fn node_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let n = self.n_nodes;
        (0..n).flat_map(move |s| {
            (0..n)
                .filter(move |d| *d != s)
                .map(move |d| (NodeId(s), NodeId(d)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new("tri", 3);
        g.add_duplex(NodeId(0), NodeId(1), 1e6, 1e-3).unwrap();
        g.add_duplex(NodeId(1), NodeId(2), 2e6, 1e-3).unwrap();
        g.add_duplex(NodeId(2), NodeId(0), 3e6, 1e-3).unwrap();
        g
    }

    #[test]
    fn nodes_and_links_counted() {
        let g = triangle();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_links(), 6);
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.links().count(), 6);
    }

    #[test]
    fn duplex_creates_both_directions() {
        let g = triangle();
        let f = g.link_between(NodeId(0), NodeId(1)).unwrap();
        let r = g.link_between(NodeId(1), NodeId(0)).unwrap();
        assert_ne!(f, r);
        assert_eq!(g.link(f).unwrap().src, NodeId(0));
        assert_eq!(g.link(r).unwrap().src, NodeId(1));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new("g", 2);
        assert_eq!(
            g.add_link(NodeId(0), NodeId(0), 1e6, 0.0),
            Err(GraphError::SelfLoop { node: 0 })
        );
    }

    #[test]
    fn duplicate_link_rejected() {
        let mut g = Graph::new("g", 2);
        g.add_link(NodeId(0), NodeId(1), 1e6, 0.0).unwrap();
        assert_eq!(
            g.add_link(NodeId(0), NodeId(1), 2e6, 0.0),
            Err(GraphError::DuplicateLink { src: 0, dst: 1 })
        );
    }

    #[test]
    fn bad_capacity_rejected() {
        let mut g = Graph::new("g", 2);
        assert!(matches!(
            g.add_link(NodeId(0), NodeId(1), 0.0, 0.0),
            Err(GraphError::BadCapacity(_))
        ));
        assert!(matches!(
            g.add_link(NodeId(0), NodeId(1), f64::NAN, 0.0),
            Err(GraphError::BadCapacity(_))
        ));
        assert!(matches!(
            g.add_link(NodeId(0), NodeId(1), f64::INFINITY, 0.0),
            Err(GraphError::BadCapacity(_))
        ));
    }

    #[test]
    fn bad_prop_delay_rejected() {
        let mut g = Graph::new("g", 2);
        assert!(matches!(
            g.add_link(NodeId(0), NodeId(1), 1e6, -1.0),
            Err(GraphError::BadPropDelay(_))
        ));
    }

    #[test]
    fn node_out_of_range_rejected() {
        let mut g = Graph::new("g", 2);
        assert!(matches!(
            g.add_link(NodeId(0), NodeId(5), 1e6, 0.0),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                n_nodes: 2
            })
        ));
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = triangle();
        for (id, l) in g.links() {
            assert!(g.out_links(l.src).contains(&id));
            assert!(g.in_links(l.dst).contains(&id));
        }
        for n in g.nodes() {
            assert_eq!(g.out_degree(n), 2);
            assert_eq!(g.successors(n).count(), 2);
        }
    }

    #[test]
    fn node_pairs_enumerates_all_ordered_pairs() {
        let g = triangle();
        let pairs: Vec<_> = g.node_pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&(NodeId(0), NodeId(2))));
        assert!(!pairs.iter().any(|(s, d)| s == d));
    }

    #[test]
    fn weight_helpers() {
        let mut g = triangle();
        let l = g.link_between(NodeId(0), NodeId(1)).unwrap();
        g.link_mut(l).unwrap().weight = 7.0;
        g.set_unit_weights();
        assert_eq!(g.link(l).unwrap().weight, 1.0);
    }

    #[test]
    fn serde_roundtrip_and_reindex() {
        let g = triangle();
        let s = serde_json::to_string(&g).unwrap();
        let mut g2: Graph = serde_json::from_str(&s).unwrap();
        g2.rebuild_index();
        assert_eq!(g2.n_nodes(), 3);
        assert_eq!(g2.n_links(), 6);
        assert_eq!(
            g2.link_between(NodeId(2), NodeId(0)),
            g.link_between(NodeId(2), NodeId(0))
        );
    }
}
