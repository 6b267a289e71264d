//! Route planning over the live mesh graph.
//!
//! Two planners bracket the design space the paper's constrained-network
//! setting cares about. [`StaticShortestPath`] is the naive baseline:
//! hop-count BFS planned once, blind to failures — when its path breaks
//! the transfer fails hard. [`CostAwareDijkstra`] re-plans on the *live*
//! graph whenever a failure or recovery lands, minimising a composite
//! per-edge cost
//!
//! ```text
//! cost(e) = latency_e + ref_bytes / bandwidth_e − loss_weight · ln(1 − p_e)
//! ```
//!
//! which is exactly the expected traversal time of a reference payload
//! plus a log-penalty that makes a path's loss terms add the way
//! independent per-hop delivery probabilities multiply.

use super::Topology;
use crate::TransferDirection;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Strategy for picking a path of link ids from `src` to `dst`.
///
/// Planners are pure functions of the topology snapshot they are handed;
/// [`MeshNetwork`](super::MeshNetwork) owns caching and decides *when* to
/// re-plan (never for static planners, on every topology epoch change for
/// dynamic ones).
pub trait RoutePlanner: std::fmt::Debug + Send {
    /// Short name for telemetry and bench tables, e.g. `"naive"`.
    fn label(&self) -> &'static str;

    /// Whether cached routes must be re-planned when the topology's
    /// failure/recovery epoch changes.
    fn dynamic(&self) -> bool;

    /// Plans a path of link ids from `src` to `dst` over the currently
    /// usable links, or `None` when the nodes are partitioned.
    fn plan(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        direction: TransferDirection,
    ) -> Option<Vec<usize>>;

    /// Boxed clone, so networks holding a planner stay `Clone`.
    fn clone_box(&self) -> Box<dyn RoutePlanner>;
}

impl Clone for Box<dyn RoutePlanner> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The naive baseline: breadth-first search minimising hop count.
///
/// Ties are broken deterministically by link insertion order. The planner
/// reports itself non-dynamic, so the mesh plans each (client, direction)
/// once and keeps that path forever — a relay failure on it makes every
/// subsequent transfer fail until the relay recovers.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticShortestPath;

impl RoutePlanner for StaticShortestPath {
    fn label(&self) -> &'static str {
        "naive"
    }

    fn dynamic(&self) -> bool {
        false
    }

    fn plan(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        _direction: TransferDirection,
    ) -> Option<Vec<usize>> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut incoming: Vec<Option<usize>> = vec![None; topo.nodes()];
        let mut visited = vec![false; topo.nodes()];
        visited[src] = true;
        let mut frontier = std::collections::VecDeque::from([src]);
        while let Some(node) = frontier.pop_front() {
            for &link in topo.outgoing(node) {
                if !topo.usable(link) {
                    continue;
                }
                let next = topo.link(link).dst();
                if visited[next] {
                    continue;
                }
                visited[next] = true;
                incoming[next] = Some(link);
                if next == dst {
                    return Some(unwind(topo, &incoming, src, dst));
                }
                frontier.push_back(next);
            }
        }
        None
    }

    fn clone_box(&self) -> Box<dyn RoutePlanner> {
        Box::new(*self)
    }
}

/// Dijkstra over composite edge costs, re-planned on the live graph.
///
/// The per-edge cost is the expected time to move `ref_bytes` across it
/// plus `−loss_weight · ln(1 − p)` where `p` is the link's long-run loss
/// estimate (burst-channel stationary rate when attached, Bernoulli
/// `drop_prob` otherwise). Links with `p ≥ 1` are treated as unusable.
#[derive(Debug, Clone, Copy)]
pub struct CostAwareDijkstra {
    /// Reference payload size used to convert bandwidth into seconds.
    ref_bytes: usize,
    /// Seconds charged per unit of `−ln(1 − p)` path unreliability.
    loss_weight: f64,
}

impl CostAwareDijkstra {
    /// A planner costing edges for `ref_bytes`-sized payloads with the
    /// given loss penalty weight.
    ///
    /// # Panics
    ///
    /// Panics when `loss_weight` is negative or not finite.
    pub fn new(ref_bytes: usize, loss_weight: f64) -> Self {
        assert!(
            loss_weight.is_finite() && loss_weight >= 0.0,
            "loss weight must be finite and non-negative"
        );
        CostAwareDijkstra {
            ref_bytes,
            loss_weight,
        }
    }

    fn edge_cost(&self, topo: &Topology, link: usize, direction: TransferDirection) -> Option<f64> {
        let loss = topo.link_loss_estimate(link);
        if loss >= 1.0 {
            return None;
        }
        let time = topo
            .link(link)
            .spec()
            .transfer_time(self.ref_bytes, direction);
        Some(time.seconds() - self.loss_weight * (1.0 - loss).ln())
    }
}

impl Default for CostAwareDijkstra {
    /// Costs edges for a 100 KB payload (the order of a compressed model
    /// update) with a 1 s/nat loss penalty.
    fn default() -> Self {
        CostAwareDijkstra::new(100_000, 1.0)
    }
}

/// Max-heap entry ordered for min-cost extraction; ties broken by node id
/// so the frontier pops in one deterministic order on every platform.
#[derive(Debug, PartialEq)]
struct Candidate {
    cost: f64,
    node: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl RoutePlanner for CostAwareDijkstra {
    fn label(&self) -> &'static str {
        "dynamic"
    }

    fn dynamic(&self) -> bool {
        true
    }

    fn plan(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        direction: TransferDirection,
    ) -> Option<Vec<usize>> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut dist = vec![f64::INFINITY; topo.nodes()];
        let mut incoming: Vec<Option<usize>> = vec![None; topo.nodes()];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Candidate {
            cost: 0.0,
            node: src,
        });
        while let Some(Candidate { cost, node }) = heap.pop() {
            if cost > dist[node] {
                continue; // stale entry
            }
            if node == dst {
                return Some(unwind(topo, &incoming, src, dst));
            }
            for &link in topo.outgoing(node) {
                if !topo.usable(link) {
                    continue;
                }
                let Some(edge) = self.edge_cost(topo, link, direction) else {
                    continue;
                };
                let next = topo.link(link).dst();
                let candidate = cost + edge;
                if candidate < dist[next] {
                    dist[next] = candidate;
                    incoming[next] = Some(link);
                    heap.push(Candidate {
                        cost: candidate,
                        node: next,
                    });
                }
            }
        }
        None
    }

    fn clone_box(&self) -> Box<dyn RoutePlanner> {
        Box::new(*self)
    }
}

/// Walks the `incoming` link tree backwards from `dst` to `src` and
/// returns the path in forward order.
fn unwind(topo: &Topology, incoming: &[Option<usize>], src: usize, dst: usize) -> Vec<usize> {
    let mut path = Vec::new();
    let mut node = dst;
    while node != src {
        let link = incoming[node].expect("unwind follows a reached node");
        path.push(link);
        node = topo.link(link).src();
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeRole;
    use crate::{LinkProfile, LinkSpec, SimTime};

    /// server(0) — relay(1) — client(2), plus a direct lossy shortcut
    /// client(2) → server(0).
    fn diamond() -> Topology {
        let mut t = Topology::new();
        let s = t.add_node(NodeRole::Server);
        let r = t.add_node(NodeRole::Relay);
        let c = t.add_node(NodeRole::Client);
        t.add_duplex_link(c, r, LinkProfile::Broadband.spec()); // links 0, 1
        t.add_duplex_link(r, s, LinkProfile::Broadband.spec()); // links 2, 3
                                                                // One-hop shortcut with heavy loss: fewer hops, worse cost.
        t.add_link(c, s, LinkSpec::new(2e6, 10e6, 0.01, 0.01, 0.9)); // link 4
        t
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        let topo = diamond();
        let path = StaticShortestPath
            .plan(&topo, 2, 0, TransferDirection::Uplink)
            .unwrap();
        assert_eq!(path, vec![4], "BFS takes the lossy one-hop shortcut");
    }

    #[test]
    fn dijkstra_pays_hops_to_dodge_loss() {
        let topo = diamond();
        let path = CostAwareDijkstra::default()
            .plan(&topo, 2, 0, TransferDirection::Uplink)
            .unwrap();
        assert_eq!(path, vec![0, 2], "cost routing avoids the 90%-loss hop");
    }

    #[test]
    fn certain_loss_links_are_unroutable_for_dijkstra() {
        let mut topo = Topology::new();
        let s = topo.add_node(NodeRole::Server);
        let c = topo.add_node(NodeRole::Client);
        topo.add_link(c, s, LinkProfile::Broadband.spec().with_drop_prob(1.0));
        assert!(StaticShortestPath
            .plan(&topo, c, s, TransferDirection::Uplink)
            .is_some());
        assert!(CostAwareDijkstra::default()
            .plan(&topo, c, s, TransferDirection::Uplink)
            .is_none());
    }

    #[test]
    fn planners_respect_down_links_and_nodes() {
        let mut topo = diamond();
        topo.schedule_link_down(SimTime::ZERO, 4);
        topo.schedule_node_down(SimTime::ZERO, 1);
        topo.advance_to(SimTime::ZERO);
        for planner in [
            &StaticShortestPath as &dyn RoutePlanner,
            &CostAwareDijkstra::default(),
        ] {
            assert!(
                planner
                    .plan(&topo, 2, 0, TransferDirection::Uplink)
                    .is_none(),
                "{} routed through a dead graph",
                planner.label()
            );
        }
    }

    #[test]
    fn plans_are_deterministic_across_equal_cost_ties() {
        // Two identical disjoint relay paths: planners must pick the same
        // one on every call.
        let mut topo = Topology::new();
        let s = topo.add_node(NodeRole::Server);
        let r1 = topo.add_node(NodeRole::Relay);
        let r2 = topo.add_node(NodeRole::Relay);
        let c = topo.add_node(NodeRole::Client);
        let spec = LinkProfile::Constrained.spec();
        topo.add_link(c, r1, spec);
        topo.add_link(c, r2, spec);
        topo.add_link(r1, s, spec);
        topo.add_link(r2, s, spec);
        for planner in [
            &StaticShortestPath as &dyn RoutePlanner,
            &CostAwareDijkstra::default(),
        ] {
            let first = planner.plan(&topo, c, s, TransferDirection::Uplink);
            for _ in 0..10 {
                assert_eq!(first, planner.plan(&topo, c, s, TransferDirection::Uplink));
            }
        }
    }

    #[test]
    fn empty_route_for_self_transfer() {
        let topo = diamond();
        assert_eq!(
            StaticShortestPath.plan(&topo, 0, 0, TransferDirection::Uplink),
            Some(Vec::new())
        );
    }
}
