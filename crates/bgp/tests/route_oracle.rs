//! Oracle for route computation: [`RouteGraph`] splits adjacency by
//! relationship and walks phase 3 in hop-count buckets, and its routes
//! must equal those of a direct three-phase reference over
//! `Topology::neighbors` with a heap-ordered phase 3 — the same kind, AS
//! path and edge path from every AS, for every destination.

use ipv6web_bgp::{routes_to_dest, RouteGraph, RouteKind, RoutesToDest};
use ipv6web_topology::asys::V6Profile;
use ipv6web_topology::graph::TunnelInfo;
use ipv6web_topology::{
    generate, AsId, AsNode, EdgeId, Family, LinkProps, Region, Relationship, Tier, Topology,
    TopologyConfig,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One AS's route in the reference: kind, hops, and next hop with the edge.
type RefEntry = Option<(RouteKind, u32, Option<(AsId, EdgeId)>)>;

/// The reference: each phase scans all of an AS's neighbours and filters
/// on relationship; phase 3 is a Dijkstra over a binary heap.
fn reference_routes(topo: &Topology, dest: AsId, family: Family) -> Vec<RefEntry> {
    let key = |e: RefEntry| e.map(|(k, h, next)| (k, h, next.map_or(u32::MAX, |(a, _)| a.0)));
    let n = topo.num_ases();
    let mut entries: Vec<RefEntry> = vec![None; n];
    entries[dest.index()] = Some((RouteKind::Customer, 0, None));

    // Phase 1: customer routes, BFS up provider edges.
    let mut frontier = vec![dest];
    while !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for &x in &frontier {
            let x_hops = entries[x.index()].expect("frontier has entry").1;
            for &(nbr, rel, eid) in topo.neighbors(x, family) {
                if rel != Relationship::CustomerOf {
                    continue;
                }
                let cand = (RouteKind::Customer, x_hops + 1, x.0);
                let first_time = entries[nbr.index()].is_none();
                if key(entries[nbr.index()]).is_none_or(|inc| cand < inc) {
                    entries[nbr.index()] = Some((RouteKind::Customer, x_hops + 1, Some((x, eid))));
                    if first_time {
                        next_frontier.push(nbr);
                    }
                }
            }
        }
        frontier = next_frontier;
    }

    // Phase 2: peer routes, one peer edge off a customer route.
    let holders: Vec<AsId> = (0..n as u32)
        .map(AsId)
        .filter(|a| matches!(entries[a.index()], Some((RouteKind::Customer, _, _))))
        .collect();
    for &x in &holders {
        let x_hops = entries[x.index()].expect("holder").1;
        for &(nbr, rel, eid) in topo.neighbors(x, family) {
            if rel != Relationship::Peer {
                continue;
            }
            let cand = (RouteKind::Peer, x_hops + 1, x.0);
            if key(entries[nbr.index()]).is_none_or(|inc| cand < inc) {
                entries[nbr.index()] = Some((RouteKind::Peer, x_hops + 1, Some((x, eid))));
            }
        }
    }

    // Phase 3: provider routes, Dijkstra down customer edges.
    let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
    for (i, e) in entries.iter().enumerate() {
        if let Some((_, hops, next)) = e {
            heap.push(Reverse((*hops, next.map_or(0, |(a, _)| a.0), i as u32)));
        }
    }
    while let Some(Reverse((hops, _, u))) = heap.pop() {
        let u = AsId(u);
        let Some((_, u_hops, _)) = entries[u.index()] else { continue };
        if u_hops != hops {
            continue; // stale heap entry
        }
        for &(nbr, rel, eid) in topo.neighbors(u, family) {
            if rel != Relationship::ProviderOf {
                continue;
            }
            let cand = (RouteKind::Provider, hops + 1, u.0);
            if key(entries[nbr.index()]).is_none_or(|inc| cand < inc) {
                entries[nbr.index()] = Some((RouteKind::Provider, hops + 1, Some((u, eid))));
                heap.push(Reverse((hops + 1, u.0, nbr.0)));
            }
        }
    }
    entries
}

/// The reference's AS path and edge path from `src`, by following next hops.
fn reference_path(entries: &[RefEntry], src: AsId) -> Option<(Vec<AsId>, Vec<EdgeId>)> {
    entries[src.index()]?;
    let (mut ases, mut edges) = (vec![src], Vec::new());
    let mut cur = src;
    while let Some((_, _, Some((next, eid)))) = entries[cur.index()] {
        ases.push(next);
        edges.push(eid);
        cur = next;
    }
    Some((ases, edges))
}

/// Asserts `got` equals the reference from every AS.
fn check(topo: &Topology, dest: AsId, family: Family, got: &RoutesToDest) {
    let want = reference_routes(topo, dest, family);
    for src in topo.nodes().iter().map(|n| n.id) {
        let got_path = got
            .as_path(src)
            .map(|p| (p.ases().to_vec(), got.edge_path(src).expect("edges with path")));
        assert_eq!(
            (got.kind(src), got_path),
            (want[src.index()].map(|e| e.0), reference_path(&want, src)),
            "{family:?} route from {src} to {dest}"
        );
    }
}

/// Routes every destination of `topo` in `family` and checks each one.
fn check_every_dest(topo: &Topology, family: Family) {
    let graph = RouteGraph::new(topo, family);
    for dest in topo.nodes().iter().map(|n| n.id) {
        check(topo, dest, family, &graph.routes_to(dest));
    }
}

/// Picks `picks` (modulo its length) out of `pool`, without repeats.
fn pick(pool: &[EdgeId], picks: &[usize]) -> Vec<EdgeId> {
    let mut out: Vec<EdgeId> = Vec::new();
    for &p in picks {
        if let Some(&e) = pool.get(p % pool.len().max(1)) {
            if !out.contains(&e) {
                out.push(e);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn route_graph_matches_reference_on_generated_topologies(
        n in 60usize..=400,
        seed in 0u64..1_000_000,
        flips in proptest::collection::vec(
            (proptest::collection::vec(0usize..10_000, 0..6),
             proptest::collection::vec(0usize..10_000, 0..4)),
            1..4,
        ),
    ) {
        let topo = generate(&TopologyConfig::scaled(n), seed);
        for family in Family::BOTH {
            check_every_dest(&topo, family);
        }
        // IPv6 flip events, cumulatively: gains are v4-only edges between
        // dual-stack ASes, losses native v6 edges (flips leave v4 alone)
        let mut late = topo.clone();
        for (gains, losses) in &flips {
            let gain_pool: Vec<EdgeId> = late
                .edges()
                .iter()
                .filter(|e| {
                    e.v4 && !e.v6 && late.node(e.a).is_dual_stack() && late.node(e.b).is_dual_stack()
                })
                .map(|e| e.id)
                .collect();
            let loss_pool: Vec<EdgeId> =
                late.edges().iter().filter(|e| e.v6 && e.tunnel.is_none()).map(|e| e.id).collect();
            late = late.with_v6_flips(&pick(&gain_pool, gains), &pick(&loss_pool, losses));
            check_every_dest(&late, Family::V6);
        }
    }
}

/// Dual-stack ASes 0–1 (tier-1 peers), 2–3 (transit), 4 (stub). Between 3
/// and 2 run a native peer edge and, listed after it, a 6in4 tunnel with 3
/// as the customer; between 4 and 3 run two provider edges.
fn parallel_edges() -> (Topology, [EdgeId; 7]) {
    let mk = |i: u32, tier: Tier| {
        let (v4, v6) = AsNode::address_plan(AsId(i));
        AsNode {
            id: AsId(i),
            tier,
            region: Region::Europe,
            v4_prefix: v4,
            v6: Some(V6Profile { prefix: v6, forwarding_factor: 1.0 }),
        }
    };
    let tiers = [Tier::Tier1, Tier::Tier1, Tier::Transit, Tier::Transit, Tier::Content];
    let mut t = Topology::new(tiers.iter().zip(0..).map(|(&tier, i)| mk(i, tier)).collect());
    let p = || LinkProps::new(10.0, 1000.0, 0.0);
    let tunnel = Some(TunnelInfo { hidden_hops: 3, extra_delay_ms: 40.0 });
    let edges = [
        t.add_edge(AsId(0), AsId(1), Relationship::Peer, p(), true, true, None),
        t.add_edge(AsId(2), AsId(0), Relationship::CustomerOf, p(), true, true, None),
        t.add_edge(AsId(3), AsId(1), Relationship::CustomerOf, p(), true, true, None),
        t.add_edge(AsId(3), AsId(2), Relationship::Peer, p(), true, true, None),
        t.add_edge(AsId(3), AsId(2), Relationship::CustomerOf, p(), false, true, tunnel),
        t.add_edge(AsId(4), AsId(3), Relationship::CustomerOf, p(), true, true, None),
        t.add_edge(AsId(4), AsId(3), Relationship::CustomerOf, p(), true, true, None),
    ];
    (t, edges)
}

#[test]
fn parallel_edges_route_like_the_reference() {
    let (t, [_, _, _, peer32, tunnel32, first43, _]) = parallel_edges();
    for family in Family::BOTH {
        check_every_dest(&t, family);
    }
    // 2 hears 3's prefix from a customer over the tunnel, not from a peer
    // over the native edge listed first
    let to3 = routes_to_dest(&t, AsId(3), Family::V6);
    assert_eq!(to3.kind(AsId(2)), Some(RouteKind::Customer));
    assert_eq!(to3.edge_path(AsId(2)), Some(vec![tunnel32]));
    // of two equal provider edges, the first listed carries the route,
    // down (phase 3) and up (phase 1)
    assert_eq!(to3.kind(AsId(4)), Some(RouteKind::Provider));
    assert_eq!(to3.edge_path(AsId(4)), Some(vec![first43]));
    let to4 = routes_to_dest(&t, AsId(4), Family::V6);
    assert_eq!(to4.edge_path(AsId(3)), Some(vec![first43]));
    // 3 reaches 2 over the peer edge: a peer route beats the tunnel's
    // provider route at equal hops
    let to2 = routes_to_dest(&t, AsId(2), Family::V6);
    assert_eq!(to2.kind(AsId(3)), Some(RouteKind::Peer));
    assert_eq!(to2.edge_path(AsId(4)), Some(vec![first43, peer32]));
}
