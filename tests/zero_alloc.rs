//! A warm, fault-free probe makes no heap allocations.
//!
//! Each vantage runs one round to warm its resolver and the probe's header
//! buffer, flushes the resolver, and probes the same sites again; every
//! probe of the second pass must allocate nothing. This file is its own
//! test binary because a binary can have only one `#[global_allocator]`,
//! and counts per thread so nothing else the harness does is charged.

use ipv6web::bgp::BgpTable;
use ipv6web::dns::{Resolver, ZoneDb};
use ipv6web::monitor::{
    probe_site, DisturbanceConfig, Disturbances, ProbeContext, ProbeOutcome, ProbeXlat,
};
use ipv6web::netsim::TcpConfig;
use ipv6web::stats::RelativeCiRule;
use ipv6web::topology::{generate, AsId, Family, Tier, Topology, TopologyConfig};
use ipv6web::web::{build_zone, population, PopulationConfig, Site};
use ipv6web::xlat::{gateway_costs, place_gateways, ClientStack, XlatConfig, XlatWiring};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const WEEKS: u32 = 52;

struct World {
    topo: Topology,
    sites: Vec<Site>,
    zone: ZoneDb,
    table_v4: BgpTable,
    table_v6: BgpTable,
    /// A v6 table that misses every other site's v6 destination AS, so
    /// part of the dual-stack population is unroutable from its vantage.
    partial_v6: BgpTable,
    disturbances: Disturbances,
    /// The v6 table of a NAT64 vantage (it also routes to the gateways),
    /// and the translation plane it reaches the v4 side through.
    xlat_v6: BgpTable,
    wiring: XlatWiring,
    pref: Vec<usize>,
    clat_ms: f64,
}

fn world() -> World {
    let topo = generate(&TopologyConfig::test_small(), 21);
    let (sites, names) = population::generate(&PopulationConfig::test_small(WEEKS), &topo, 21);
    let zone = build_zone(&topo, &sites, names);
    let vantage =
        topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
    let xlat = XlatConfig { gateways: 2, ..Default::default() };
    let gateways = place_gateways(&topo, 21, xlat.gateways);
    let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
    dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
    dests.sort();
    dests.dedup();
    let table_v4 = BgpTable::build(&topo, vantage, Family::V4, &dests);
    let table_v6 = BgpTable::build(&topo, vantage, Family::V6, &dests);
    let v4_dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
    let partial: Vec<AsId> = dests
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, d)| i % 2 == 0 || v4_dests.contains(&d))
        .map(|(_, d)| d)
        .collect();
    let partial_v6 = BgpTable::build(&topo, vantage, Family::V6, &partial);
    let mut xlat_dests = dests.clone();
    xlat_dests.extend(gateways.iter().copied());
    xlat_dests.sort();
    xlat_dests.dedup();
    let xlat_v6 = BgpTable::build(&topo, vantage, Family::V6, &xlat_dests);
    let tables = gateways.iter().map(|&g| BgpTable::build(&topo, g, Family::V4, &dests)).collect();
    let wiring = XlatWiring { costs: gateway_costs(&xlat, 21, gateways.len()), tables, gateways };
    let pref = (0..wiring.gateways.len()).collect();
    let disturbances = Disturbances::generate(&DisturbanceConfig::none(), sites.len(), WEEKS, 21);
    World {
        topo,
        sites,
        zone,
        table_v4,
        table_v6,
        partial_v6,
        disturbances,
        xlat_v6,
        wiring,
        pref,
        clat_ms: xlat.clat_ms,
    }
}

fn dual_stack(w: &World) -> ProbeContext<'_> {
    ProbeContext {
        topo: &w.topo,
        sites: &w.sites,
        zone: &w.zone,
        table_v4: &w.table_v4,
        table_v6: &w.table_v6,
        disturbances: &w.disturbances,
        tcp: TcpConfig::paper(),
        ci_rule: RelativeCiRule::paper(),
        identity_threshold: 0.06,
        round_noise_sigma: 0.08,
        seed: 99,
        vantage_name: "Penn",
        white_listed: true,
        v6_epoch: None,
        faults: None,
        stack: ClientStack::DualStack,
        xlat: None,
    }
}

fn partial_v6(w: &World) -> ProbeContext<'_> {
    ProbeContext { table_v6: &w.partial_v6, vantage_name: "Comcast", ..dual_stack(w) }
}

fn nat64(w: &World) -> ProbeContext<'_> {
    ProbeContext {
        table_v6: &w.xlat_v6,
        vantage_name: "Tsinghua U.",
        stack: ClientStack::V6OnlyClat,
        xlat: Some(ProbeXlat { wiring: &w.wiring, pref: &w.pref, clat_ms: w.clat_ms }),
        ..dual_stack(w)
    }
}

fn class(out: &ProbeOutcome) -> &'static str {
    match out {
        ProbeOutcome::V4Only => "v4-only",
        ProbeOutcome::Measured { .. } => "measured",
        ProbeOutcome::Unroutable(_) => "unroutable",
        _ => "other",
    }
}

/// Allocations per outcome class on the second of two passes over every
/// site: `class -> (probes, allocations)`.
fn warm_pass(ctx: &ProbeContext<'_>, mut resolver: Resolver) -> BTreeMap<&'static str, (u64, u64)> {
    let weeks = [3, WEEKS / 2, WEEKS - 1];
    for &week in &weeks {
        for site in ctx.sites {
            probe_site(ctx, &mut resolver, site.id, week, 0, false);
        }
    }
    resolver.flush();
    let mut per_class = BTreeMap::new();
    for &week in &weeks {
        for site in ctx.sites {
            let before = allocations();
            let out = probe_site(ctx, &mut resolver, site.id, week, 0, false);
            let spent = allocations() - before;
            let slot = per_class.entry(class(&out)).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += spent;
        }
    }
    per_class
}

#[test]
fn warm_fault_free_probes_allocate_nothing() {
    let w = world();
    let mut seen = BTreeMap::new();
    for (vantage, ctx, resolver) in [
        ("dual-stack", dual_stack(&w), Resolver::new()),
        ("partial-v6", partial_v6(&w), Resolver::new()),
        ("dns64", nat64(&w), Resolver::dns64()),
    ] {
        let per_class = warm_pass(&ctx, resolver);
        for (class, &(probes, allocs)) in &per_class {
            assert_eq!(
                allocs, 0,
                "{vantage}: {allocs} allocations over {probes} warm {class} probes ({per_class:?})"
            );
            *seen.entry(*class).or_insert(0) += probes;
        }
    }
    for class in ["v4-only", "measured", "unroutable"] {
        assert!(seen.get(class).is_some_and(|&n| n > 0), "no {class} probe exercised: {seen:?}");
    }
}
