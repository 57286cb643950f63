//! The vantage-point view: a BGP table snapshot.
//!
//! The paper reads `AS_PATH`s from "the (core) routing table of a router
//! close to the machine running the monitoring software" — e.g. Penn's
//! GigaPoP router. [`BgpTable`] is that artifact: the best routes of a
//! single AS toward a set of destinations, per family.
//!
//! Routes are stored columnar: one sorted destination column, two flat
//! symbol arenas (AS-path ids and edge ids), and per-route span offsets
//! into them. A route is therefore a [`RouteRef`] view over the arenas
//! rather than an owned struct — at the internet tier a study holds
//! `destinations × vantages × families × epochs` routes, and the arena
//! keeps that to a handful of allocations per table instead of two `Vec`s
//! per route.

use crate::compute::RouteKind;
use crate::path::AsPathRef;
use ipv6web_topology::{AsId, EdgeId, Family, Topology};

/// One installed route in a vantage point's table: a borrowed view over
/// the table's interned arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRef<'a> {
    /// Destination (origin) AS of the route.
    pub dest: AsId,
    /// The AS-level path, vantage AS first.
    pub as_path: AsPathRef<'a>,
    /// Edges traversed, in order — consumed by the data-plane simulator.
    pub edges: &'a [EdgeId],
}

impl RouteRef<'_> {
    /// AS hop count of the route.
    pub fn hops(&self) -> usize {
        self.as_path.hops()
    }
}

/// The routing table of one AS (the vantage point's upstream router) for
/// one address family, restricted to the destinations of interest.
#[derive(Debug, Clone)]
pub struct BgpTable {
    /// The AS whose view this is.
    pub vantage_as: AsId,
    /// Address family of the table.
    pub family: Family,
    /// Routed destinations, ascending.
    dests: Vec<AsId>,
    /// `path_starts[i]..path_starts[i+1]` spans route `i` in `path_arena`.
    path_starts: Vec<u32>,
    /// `edge_starts[i]..edge_starts[i+1]` spans route `i` in `edge_arena`.
    edge_starts: Vec<u32>,
    /// Interned AS-path symbols of every route, concatenated.
    path_arena: Vec<AsId>,
    /// Interned edge ids of every route, concatenated.
    edge_arena: Vec<EdgeId>,
}

impl BgpTable {
    /// An empty table ready for [`BgpTable::push_route`].
    pub(crate) fn empty(vantage_as: AsId, family: Family) -> Self {
        BgpTable {
            vantage_as,
            family,
            dests: Vec::new(),
            path_starts: vec![0],
            edge_starts: vec![0],
            path_arena: Vec::new(),
            edge_arena: Vec::new(),
        }
    }

    /// Appends a route. Destinations must arrive in ascending order (the
    /// builder walks a sorted destination set) so lookups can bisect.
    pub(crate) fn push_route(&mut self, dest: AsId, as_path: &[AsId], edges: &[EdgeId]) {
        debug_assert!(
            self.dests.last().is_none_or(|&d| d < dest),
            "routes must be pushed in ascending destination order"
        );
        debug_assert_eq!(as_path.len(), edges.len() + 1, "one edge per AS hop");
        self.dests.push(dest);
        self.path_arena.extend_from_slice(as_path);
        self.edge_arena.extend_from_slice(edges);
        let path_end = u32::try_from(self.path_arena.len()).expect("path arena fits u32 spans");
        let edge_end = u32::try_from(self.edge_arena.len()).expect("edge arena fits u32 spans");
        self.path_starts.push(path_end);
        self.edge_starts.push(edge_end);
    }

    fn route_at(&self, i: usize) -> RouteRef<'_> {
        let path = &self.path_arena[self.path_starts[i] as usize..self.path_starts[i + 1] as usize];
        let edges =
            &self.edge_arena[self.edge_starts[i] as usize..self.edge_starts[i + 1] as usize];
        RouteRef { dest: self.dests[i], as_path: AsPathRef::from_symbols(path), edges }
    }

    /// Builds one vantage point's table by running per-destination route
    /// computation for every AS in `dests` (in parallel): a
    /// [`RouteChain`](crate::RouteChain) with this vantage alone and no
    /// routing events.
    pub fn build(topo: &Topology, vantage_as: AsId, family: Family, dests: &[AsId]) -> Self {
        crate::RouteChain::start(topo, family, dests, &[vantage_as], &[])
            .into_tables()
            .pop()
            .expect("one vantage, one table")
    }

    /// The `AS_PATH` to `dest`, if routed.
    pub fn as_path(&self, dest: AsId) -> Option<AsPathRef<'_>> {
        self.route(dest).map(|r| r.as_path)
    }

    /// Full route entry to `dest`, if routed.
    pub fn route(&self, dest: AsId) -> Option<RouteRef<'_>> {
        let i = self.dests.binary_search(&dest).ok()?;
        Some(self.route_at(i))
    }

    /// Number of routed destinations.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// True when no destination is routed.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// Iterates over all routes in destination order.
    pub fn iter(&self) -> impl Iterator<Item = RouteRef<'_>> {
        (0..self.dests.len()).map(|i| self.route_at(i))
    }

    /// The set of distinct ASes crossed by any route in the table,
    /// destination ASes included, vantage AS excluded (Table 2 semantics).
    pub fn ases_crossed(&self) -> std::collections::BTreeSet<AsId> {
        self.iter().flat_map(|r| r.as_path.crossed().iter().copied()).collect()
    }
}

// re-export for doc linking convenience
pub use crate::compute::RouteKind as _RouteKindForDocs;
const _: Option<RouteKind> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6web_topology::{generate, Tier, TopologyConfig};

    fn topo() -> ipv6web_topology::Topology {
        generate(&TopologyConfig::test_small(), 23)
    }

    #[test]
    fn table_contains_reachable_dests() {
        let t = topo();
        let dests: Vec<AsId> =
            t.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).take(20).collect();
        let vantage = t.nodes().iter().find(|n| n.tier == Tier::Access).unwrap().id;
        let table = BgpTable::build(&t, vantage, Family::V4, &dests);
        assert_eq!(table.len(), dests.len(), "v4 reaches everything");
        for r in table.iter() {
            assert_eq!(r.as_path.source(), vantage);
            assert_eq!(r.as_path.dest(), r.dest);
            assert_eq!(r.edges.len(), r.hops());
        }
    }

    #[test]
    fn v6_table_smaller_than_v4() {
        let t = topo();
        let dests: Vec<AsId> =
            t.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).collect();
        let vantage =
            t.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
        let t4 = BgpTable::build(&t, vantage, Family::V4, &dests);
        let t6 = BgpTable::build(&t, vantage, Family::V6, &dests);
        assert!(t6.len() < t4.len(), "v6 {} !< v4 {}", t6.len(), t4.len());
        assert!(!t6.is_empty(), "some dual-stack content reachable");
    }

    #[test]
    fn ases_crossed_excludes_vantage_includes_dest() {
        let t = topo();
        let dests: Vec<AsId> =
            t.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).take(15).collect();
        let vantage = t.nodes().iter().find(|n| n.tier == Tier::Access).unwrap().id;
        let table = BgpTable::build(&t, vantage, Family::V4, &dests);
        let crossed = table.ases_crossed();
        assert!(!crossed.contains(&vantage));
        for r in table.iter() {
            assert!(crossed.contains(&r.dest));
        }
    }

    #[test]
    fn missing_dest_returns_none() {
        let t = topo();
        let vantage = t.nodes().iter().find(|n| n.tier == Tier::Access).unwrap().id;
        let table = BgpTable::build(&t, vantage, Family::V4, &[]);
        assert!(table.is_empty());
        assert_eq!(table.as_path(AsId(1)), None);
        assert_eq!(table.route(AsId(1)), None);
    }

    #[test]
    fn arena_spans_reconstruct_routes_exactly() {
        let t = topo();
        let dests: Vec<AsId> =
            t.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).take(30).collect();
        let vantage = t.nodes().iter().find(|n| n.tier == Tier::Access).unwrap().id;
        let table = BgpTable::build(&t, vantage, Family::V4, &dests);
        // arenas hold exactly the concatenation of every route, no gaps
        let total_path: usize = table.iter().map(|r| r.as_path.ases().len()).sum();
        let total_edges: usize = table.iter().map(|r| r.edges.len()).sum();
        assert_eq!(total_path, table.path_arena.len());
        assert_eq!(total_edges, table.edge_arena.len());
        // lookups agree with iteration
        for r in table.iter() {
            assert_eq!(table.route(r.dest), Some(r));
        }
    }
}
