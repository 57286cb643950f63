//! Oracle for incremental epoch rebuilds: at every routing epoch, the
//! tables a [`RouteChain`] derives by recomputing only stale destinations
//! must equal tables built from scratch on that epoch's cumulative
//! topology, from every AS.
//!
//! This binary holds a single test: it reads the process-wide
//! `bgp.epoch.*` counters, which no sibling test may touch meanwhile.

use ipv6web_bgp::{BgpTable, Flips, RouteChain};
use ipv6web_topology::{generate, AsId, EdgeId, Family, Topology, TopologyConfig};
use proptest::prelude::*;

/// One drawn event: gain and loss picks into the candidate lists.
type EventDraw = (Vec<usize>, Vec<usize>);

/// Picks `picks` (modulo its length) out of `pool`, without repeats.
fn pick(pool: &[EdgeId], picks: &[usize]) -> Vec<EdgeId> {
    let mut out: Vec<EdgeId> = Vec::new();
    if pool.is_empty() {
        return out;
    }
    for &p in picks {
        let e = pool[p % pool.len()];
        if !out.contains(&e) {
            out.push(e);
        }
    }
    out
}

/// The event chain for one case: the drawn events, with an empty event
/// inserted at `empty_at` and, last, an event that re-gains every edge
/// an earlier event lost. Candidates follow the route-change filters:
/// gains are v4-only edges between dual-stack ASes, losses native v6
/// edges.
fn events(topo: &Topology, draws: &[EventDraw], empty_at: usize) -> Vec<Flips> {
    let gain_pool: Vec<EdgeId> = topo
        .edges()
        .iter()
        .filter(|e| {
            e.v4 && !e.v6 && topo.node(e.a).is_dual_stack() && topo.node(e.b).is_dual_stack()
        })
        .map(|e| e.id)
        .collect();
    let loss_pool: Vec<EdgeId> =
        topo.edges().iter().filter(|e| e.v6 && e.v4 && e.tunnel.is_none()).map(|e| e.id).collect();
    let mut out: Vec<Flips> =
        draws.iter().map(|(g, l)| (pick(&gain_pool, g), pick(&loss_pool, l))).collect();
    out.insert(empty_at % (out.len() + 1), (Vec::new(), Vec::new()));
    let mut lost: Vec<EdgeId> = out.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    lost.sort();
    lost.dedup();
    out.push((lost, Vec::new()));
    out
}

/// The cumulative topology after each event.
fn cumulative(topo: &Topology, flips: &[Flips]) -> Vec<Topology> {
    let mut topos: Vec<Topology> = Vec::with_capacity(flips.len());
    for (gains, losses) in flips {
        let next = topos.last().unwrap_or(topo).with_v6_flips(gains, losses);
        topos.push(next);
    }
    topos
}

/// Runs the chain and returns its epoch tables with the `(reused,
/// recomputed)` totals it counted.
fn run_chain(
    topo: &Topology,
    dests: &[AsId],
    vantages: &[AsId],
    flips: &[Flips],
) -> (Vec<Vec<BgpTable>>, u64, u64) {
    ipv6web_obs::reset();
    ipv6web_obs::enable();
    let chain = RouteChain::start(topo, Family::V6, dests, vantages, flips);
    let tables = chain.epoch_tables(&cumulative(topo, flips));
    let snap = ipv6web_obs::snapshot();
    ipv6web_obs::disable();
    ipv6web_obs::reset();
    (tables, snap.counter("bgp.epoch.reused"), snap.counter("bgp.epoch.recomputed"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chained_epochs_match_from_scratch_tables(
        seed in 0u64..1_000,
        draws in proptest::collection::vec(
            (proptest::collection::vec(0usize..10_000, 0..5),
             proptest::collection::vec(0usize..10_000, 0..4)),
            1..5,
        ),
        empty_at in 0usize..5,
        dest_picks in proptest::collection::vec(0usize..10_000, 1..7),
        any_dest in 0usize..10_000,
    ) {
        let topo = generate(&TopologyConfig::test_small(), seed);
        let flips = events(&topo, &draws, empty_at);
        let duals: Vec<AsId> =
            topo.nodes().iter().filter(|n| n.is_dual_stack()).map(|n| n.id).collect();
        // mostly dual-stack destinations (the ones v6 routes reach), plus
        // any AS at all (possibly a v4-only island)
        let mut dests: Vec<AsId> = dest_picks.iter().map(|&p| duals[p % duals.len()]).collect();
        dests.push(AsId((any_dest % topo.num_ases()) as u32));
        dests.sort();
        dests.dedup();
        let every_as: Vec<AsId> = topo.nodes().iter().map(|n| n.id).collect();

        let (chained, reused, recomputed) = run_chain(&topo, &dests, &every_as, &flips);
        prop_assert_eq!(chained.len(), flips.len());
        prop_assert_eq!(reused + recomputed, (dests.len() * flips.len()) as u64);

        for (k, late) in cumulative(&topo, &flips).iter().enumerate() {
            for (t, &v) in chained[k].iter().zip(&every_as) {
                let scratch = BgpTable::build(late, v, Family::V6, &dests);
                prop_assert_eq!(t.vantage_as, v);
                prop_assert!(
                    t.iter().eq(scratch.iter()),
                    "epoch {} vantage {:?}: chained {} routes, from scratch {}",
                    k, v, t.len(), scratch.len()
                );
            }
        }

        // the empty event recomputes nothing: without it, the chain makes
        // the same recomputations and reuses one epoch's worth fewer
        let mut without = flips.clone();
        without.remove(empty_at % (draws.len() + 1));
        let (_, reused_without, recomputed_without) =
            run_chain(&topo, &dests, &every_as, &without);
        prop_assert_eq!(recomputed_without, recomputed);
        prop_assert_eq!(reused_without + dests.len() as u64, reused);
    }
}
