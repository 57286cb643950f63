//! The route pipeline: every destination streamed through every routing
//! epoch.
//!
//! Route computation is the expensive step of table construction, and its
//! result is vantage-independent. [`RouteChain::start`] runs it once per
//! destination, over one [`RouteGraph`] that every worker thread shares,
//! keeps only the vantage points' rows and drops the
//! ~`13 bytes × |ASes|` computation, so memory peaks at one in-flight
//! computation per worker thread even at the internet tier's ~37k ASes.
//! Before the drop it records the first routing event that can change the
//! destination's routes; [`RouteChain::epoch_tables`] recomputes only
//! those destinations, and every other one reuses its base row.
//!
//! `ipv6web_par::par_map` preserves input order, so every table is
//! bit-identical regardless of worker count.

use crate::compute::{RouteGraph, RoutesToDest};
use crate::table::BgpTable;
use ipv6web_topology::{AsId, EdgeId, Family, Topology};
use std::collections::BTreeSet;

/// One routing event: the edges that gain IPv6 and the edges that lose it,
/// applied on top of every earlier event (see [`Topology::with_v6_flips`]).
pub type Flips = (Vec<EdgeId>, Vec<EdgeId>);

/// What of a flip event decides whether a destination must be recomputed.
struct Event {
    losses: BTreeSet<EdgeId>,
    gain_ends: BTreeSet<AsId>,
}

impl Event {
    /// Whether this event can change the best routes in `r`:
    ///
    /// * a **gained** edge endpoint already reaches the destination. Any
    ///   new path must cross a gained edge; past its last gained edge
    ///   (nearest the destination) it walks pre-event edges only, and that
    ///   suffix is itself a valley-free route — so the endpoint was already
    ///   reachable. Destinations failing this test (v4-only islands
    ///   included) gain no route; or
    /// * a **lost** edge appears in its installed route tree — removing any
    ///   other edge leaves every best route intact (nothing new appears,
    ///   and no installed route breaks).
    ///
    /// The gain test runs first: it probes a few endpoints, where the loss
    /// test walks every AS.
    fn can_change(&self, r: &RoutesToDest) -> bool {
        self.gain_ends.iter().any(|&x| r.reachable_from(x))
            || (!self.losses.is_empty() && r.uses_any_edge(&self.losses))
    }
}

/// The first of `events[from..]` that can change `r`, as an index into
/// `events`.
fn first_change(events: &[Event], from: usize, r: &RoutesToDest) -> Option<usize> {
    (from..events.len()).find(|&k| events[k].can_change(r))
}

/// Every vantage point's route to one destination, packed: vantage `i`'s
/// AS path and edges end at `ends[i]` in `ases` and `edges`, and start
/// where vantage `i - 1`'s end. An empty AS path means no route.
struct Row {
    ends: Vec<(usize, usize)>,
    ases: Vec<AsId>,
    edges: Vec<EdgeId>,
}

impl Row {
    fn extract(r: &RoutesToDest, vantages: &[AsId]) -> Row {
        let mut row =
            Row { ends: Vec::with_capacity(vantages.len()), ases: Vec::new(), edges: Vec::new() };
        for &v in vantages {
            if let (Some(path), Some(edges)) = (r.as_path(v), r.edge_path(v)) {
                row.ases.extend_from_slice(path.ases());
                row.edges.extend_from_slice(&edges);
            }
            row.ends.push((row.ases.len(), row.edges.len()));
        }
        row
    }

    fn route(&self, vi: usize) -> Option<(&[AsId], &[EdgeId])> {
        let (a0, e0) = if vi == 0 { (0, 0) } else { self.ends[vi - 1] };
        let (a1, e1) = self.ends[vi];
        (a1 > a0).then(|| (&self.ases[a0..a1], &self.edges[e0..e1]))
    }
}

/// One vantage point's table over the ascending `dests`, taking
/// destination `di`'s route from `route(di)`.
fn table<'a>(
    vantage: AsId,
    family: Family,
    dests: &[AsId],
    route: impl Fn(usize) -> Option<(&'a [AsId], &'a [EdgeId])>,
) -> BgpTable {
    ipv6web_obs::inc("bgp.tables_built");
    let mut table = BgpTable::empty(vantage, family);
    for (di, &dest) in dests.iter().enumerate() {
        if let Some((path, edges)) = route(di) {
            table.push_route(dest, path, edges);
        }
    }
    table
}

/// Per-vantage tables for one family: the base tables, plus what
/// [`RouteChain::epoch_tables`] needs to derive every routing epoch's
/// tables from them.
pub struct RouteChain {
    family: Family,
    vantages: Vec<AsId>,
    /// Routed destinations, ascending and distinct.
    dests: Vec<AsId>,
    events: Vec<Event>,
    /// Per destination, the first event that can change its base routes.
    stale_from: Vec<Option<usize>>,
    /// The pre-event table of every vantage point, in `vantages` order.
    tables: Vec<BgpTable>,
}

impl RouteChain {
    /// Computes every destination's routes on `topo` once (duplicates in
    /// `dests` collapse), fanning out across worker threads, and keeps
    /// each vantage point's row. `flips` are the routing events, in
    /// order; their edge ids and endpoints are those of `topo`, which
    /// [`Topology::with_v6_flips`] preserves.
    pub fn start(
        topo: &Topology,
        family: Family,
        dests: &[AsId],
        vantages: &[AsId],
        flips: &[Flips],
    ) -> RouteChain {
        let dests: Vec<AsId> = dests.iter().copied().collect::<BTreeSet<_>>().into_iter().collect();
        let events: Vec<Event> = flips
            .iter()
            .map(|(gains, losses)| Event {
                losses: losses.iter().copied().collect(),
                gain_ends: gains
                    .iter()
                    .flat_map(|&eid| {
                        let e = topo.edge(eid);
                        [e.a, e.b]
                    })
                    .collect(),
            })
            .collect();
        let graph = RouteGraph::new(topo, family);
        let (rows, stale_from): (Vec<Row>, Vec<Option<usize>>) =
            ipv6web_par::par_map(&dests, |_, &dest| {
                let r = graph.routes_to(dest);
                (Row::extract(&r, vantages), first_change(&events, 0, &r))
            })
            .into_iter()
            .unzip();
        let tables = vantages
            .iter()
            .enumerate()
            .map(|(vi, &v)| table(v, family, &dests, |di| rows[di].route(vi)))
            .collect();
        RouteChain { family, vantages: vantages.to_vec(), dests, events, stale_from, tables }
    }

    /// Every event's per-vantage tables, in event order. `topos[k]` is the
    /// cumulative topology after events `0..=k`.
    ///
    /// Each stale destination is recomputed on its first stale event's
    /// topology, and again at each later event that can change the
    /// recomputation. At event `k` a destination takes its latest
    /// recomputation at or before `k`, else its base row. Adds the
    /// per-event reuse and recomputation totals to `bgp.epoch.reused` and
    /// `bgp.epoch.recomputed`.
    pub fn epoch_tables(&self, topos: &[Topology]) -> Vec<Vec<BgpTable>> {
        assert_eq!(topos.len(), self.events.len(), "one topology per event");
        let graphs: Vec<RouteGraph> =
            topos.iter().map(|t| RouteGraph::new(t, self.family)).collect();
        // per destination, its recomputations `(event, row)` in event order
        let redone: Vec<Vec<(usize, Row)>> =
            ipv6web_par::par_map(&self.stale_from, |di, &first| {
                let mut out = Vec::new();
                let mut next = first;
                while let Some(k) = next {
                    let r = graphs[k].routes_to(self.dests[di]);
                    next = first_change(&self.events, k + 1, &r);
                    out.push((k, Row::extract(&r, &self.vantages)));
                }
                out
            });
        let recomputed: usize = redone.iter().map(Vec::len).sum();
        ipv6web_obs::add(
            "bgp.epoch.reused",
            (self.dests.len() * self.events.len() - recomputed) as u64,
        );
        ipv6web_obs::add("bgp.epoch.recomputed", recomputed as u64);

        (0..self.events.len())
            .map(|k| {
                self.tables
                    .iter()
                    .enumerate()
                    .map(|(vi, base)| {
                        table(base.vantage_as, self.family, &self.dests, |di| {
                            match redone[di].iter().rev().find(|(j, _)| *j <= k) {
                                Some((_, row)) => row.route(vi),
                                None => {
                                    base.route(self.dests[di]).map(|r| (r.as_path.ases(), r.edges))
                                }
                            }
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// The pre-event tables, in the order of `start`'s vantages.
    pub fn into_tables(self) -> Vec<BgpTable> {
        self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6web_topology::{generate, Tier, TopologyConfig};

    #[test]
    fn multi_vantage_tables_match_single_vantage_builds() {
        let topo = generate(&TopologyConfig::test_small(), 17);
        let dests: Vec<AsId> =
            topo.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).collect();
        let vantages: Vec<AsId> = topo
            .nodes()
            .iter()
            .filter(|n| n.tier == Tier::Access && n.is_dual_stack())
            .map(|n| n.id)
            .take(4)
            .collect();
        for family in [Family::V4, Family::V6] {
            let tables = RouteChain::start(&topo, family, &dests, &vantages, &[]).into_tables();
            assert_eq!(tables.len(), vantages.len());
            for (t, &v) in tables.iter().zip(&vantages) {
                let single = BgpTable::build(&topo, v, family, &dests);
                assert_eq!(t.vantage_as, v);
                assert_eq!(t.len(), single.len(), "family {family:?}");
                for r in single.iter() {
                    assert_eq!(t.route(r.dest), Some(r), "family {family:?}");
                }
            }
        }
    }

    #[test]
    fn duplicate_dests_collapse() {
        let topo = generate(&TopologyConfig::test_small(), 17);
        let dests: Vec<AsId> =
            topo.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).collect();
        let mut doubled = dests.clone();
        doubled.extend(dests.iter().rev());
        let vantage = topo.nodes()[0].id;
        let a = BgpTable::build(&topo, vantage, Family::V4, &dests);
        let b = BgpTable::build(&topo, vantage, Family::V4, &doubled);
        assert_eq!(a.len(), dests.len());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().eq(b.iter()));
    }
}
