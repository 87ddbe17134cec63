//! Per-topology plan cache: compiled message-passing indexings keyed by
//! routing.
//!
//! A [`PathTensors`] indexing depends only on the routing scheme and link
//! count — not on traffic — so a stream of what-if queries against a
//! handful of network topologies (the expected control-loop workload:
//! thousands of traffic matrices, few topologies) pays the index build once
//! per topology. Lookup is a linear scan with full routing equality: the
//! cache holds at most a handful of entries, [`RoutingScheme`] equality
//! short-circuits on the first differing path, and — unlike a hash map —
//! scan order is insertion order, keeping the daemon free of hash-order
//! nondeterminism (denied in library code by clippy's hash-iteration lints).

use routenet_core::indexing::PathTensors;
use routenet_core::Scenario;
use routenet_netgraph::RoutingScheme;

/// One cached plan.
struct CacheEntry {
    n_links: usize,
    routing: RoutingScheme,
    plan: PathTensors,
}

/// FIFO-evicting cache of per-topology [`PathTensors`] plans.
pub struct PlanCache {
    cap: usize,
    /// Insertion order, oldest first — index 0 is the eviction victim.
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Cache holding at most `cap` plans (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "plan cache needs capacity for at least one plan");
        PlanCache {
            cap,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The message-passing plan for `scenario`'s routing, built on first
    /// sight and recalled (cloned) on every later query with an equal
    /// routing. The clone hands the caller an owned plan cheaper than the
    /// graph traversal that built it; `compile_with_index` wants ownership.
    pub fn plan_for(&mut self, scenario: &Scenario) -> PathTensors {
        let n_links = scenario.graph.n_links();
        if let Some(e) = self
            .entries
            .iter()
            .find(|e| e.n_links == n_links && e.routing == scenario.routing)
        {
            self.hits += 1;
            return e.plan.clone();
        }
        self.misses += 1;
        let plan = PathTensors::build(scenario);
        if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push(CacheEntry {
            n_links,
            routing: scenario.routing.clone(),
            plan: plan.clone(),
        });
        plan
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plan is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::{generate, NodeId, TrafficMatrix};

    fn scenario_on(g: routenet_netgraph::Graph) -> Scenario {
        let routing = shortest_path_routing(&g).unwrap();
        let mut traffic = TrafficMatrix::zeros(g.n_nodes());
        traffic.set_demand(NodeId(0), NodeId(1), 500.0);
        Scenario {
            graph: g,
            routing,
            traffic,
        }
    }

    #[test]
    fn repeated_topology_hits_after_first_miss() {
        let mut cache = PlanCache::new(4);
        let sc = scenario_on(nsfnet());
        let a = cache.plan_for(&sc);
        // A different traffic matrix over the same routing is still a hit.
        let mut sc2 = sc.clone();
        sc2.traffic.set_demand(NodeId(2), NodeId(0), 900.0);
        let b = cache.plan_for(&sc2);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(a.n_paths, b.n_paths);
        assert_eq!(a.positions.len(), b.positions.len());
    }

    #[test]
    fn distinct_topologies_get_distinct_plans() {
        let mut cache = PlanCache::new(4);
        let a = cache.plan_for(&scenario_on(nsfnet()));
        let b = cache.plan_for(&scenario_on(generate::full_mesh(3)));
        assert_eq!(cache.stats(), (0, 2));
        assert_eq!(cache.len(), 2);
        assert_ne!(a.n_paths, b.n_paths);
    }

    #[test]
    fn fifo_eviction_drops_oldest() {
        let mut cache = PlanCache::new(2);
        let first = scenario_on(nsfnet());
        cache.plan_for(&first);
        cache.plan_for(&scenario_on(generate::full_mesh(3)));
        cache.plan_for(&scenario_on(generate::full_mesh(4)));
        assert_eq!(cache.len(), 2);
        // The NSFNET plan (oldest) was evicted: querying it again misses.
        cache.plan_for(&first);
        assert_eq!(cache.stats(), (0, 4));
    }
}
