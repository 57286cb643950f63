//! The internet scale tier: interned names and columnar storage must
//! preserve the determinism guarantees of the smaller tiers, and the
//! full-magnitude topology must match the structural properties measured
//! for the real IPv6 AS graph.

use ipv6web::topology::{generate, stats, Family, Tier, TopologyConfig};
use ipv6web::{run_study, Scenario};
use std::sync::Mutex;

/// `IPV6WEB_THREADS` is process-global: tests that set it run under one
/// lock so concurrent siblings never observe a half-configured budget.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// [`Scenario::internet_smoke`] shrunk to debug-build test cost while
/// keeping everything that distinguishes the internet tier: a
/// hosting-pool cap concentrating destinations, and paper-scale
/// population parameters. CI runs the full smoke tier in release mode.
fn tiny_internet(seed: u64) -> Scenario {
    let mut s = Scenario::internet_smoke(seed);
    s.topology = TopologyConfig::scaled(900);
    s.population.n_sites = 6_000;
    s.population.hosting_pool_cap = Some(150);
    s.tail_sites = 500;
    s.campaign.total_weeks = 12;
    s.timeline.total_weeks = 12;
    s.timeline.iana_week = 4;
    s.timeline.ipv6_day_week = 9;
    s.fig1_from_week = 2;
    s.analysis.min_paired_samples = 4;
    s.route_change = Some((6, 0.03, 0.01));
    s
}

#[test]
fn streamed_internet_tier_is_byte_identical_across_threads() {
    let _g = ENV_LOCK.lock().unwrap();
    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("IPV6WEB_THREADS", threads);
        let s = run_study(&tiny_internet(33)).expect("valid scenario");
        runs.push((threads, serde_json::to_string(&s.report).unwrap(), s.dbs));
    }
    std::env::remove_var("IPV6WEB_THREADS");
    let (_, ref json0, ref dbs0) = runs[0];
    for (threads, json, dbs) in &runs[1..] {
        assert_eq!(json, json0, "report diverged at IPV6WEB_THREADS={threads}");
        assert_eq!(dbs, dbs0, "databases diverged at IPV6WEB_THREADS={threads}");
    }
}

#[test]
fn internet_scale_topology_matches_ipv6_structural_targets() {
    // Validation targets from the AS-level IPv6 structural study (arxiv
    // 2403.00193): the IPv6 graph is far *sparser* than IPv4 overall —
    // adoption-era parity holds on the provider hierarchy first — while
    // its *core* is dense: the tier-1 backbone forms a near-clique in v6
    // just as in v4.
    let cfg = TopologyConfig::internet_scale();
    let topo = generate(&cfg, 42);
    // the generator's golden digest at full magnitude (FNV-1a 64 of the
    // JSON form; the smaller configs are pinned in the topology crate)
    let json = serde_json::to_string(&topo).expect("topology serializes");
    let digest = ipv6web::stats::fnv1a64(json.as_bytes());
    assert_eq!(format!("{digest:016x}"), "900b89787d626fd4", "internet_scale() at seed 42");
    let s = stats::measure(&topo);
    assert_eq!(s.n_ases, 37_000, "2011 Internet magnitude");

    // peering sparsity: v6 carries a small fraction of the v4 edge set,
    // and peer edges replicate into v6 less readily than provider edges
    let edge_ratio = s.edges_v6 as f64 / s.edges_v4 as f64;
    assert!(
        (0.02..0.35).contains(&edge_ratio),
        "v6/v4 edge ratio {edge_ratio:.3} outside the adoption-era band"
    );
    assert!(
        s.peering_parity < s.provider_parity,
        "peering parity {:.2} must lag provider parity {:.2}",
        s.peering_parity,
        s.provider_parity
    );

    // core density: among dual-stack tier-1 ASes, the v6 mesh is
    // near-complete (the structural study's densely connected v6 core)
    let t1_dual: Vec<_> = topo
        .nodes()
        .iter()
        .filter(|n| n.tier == Tier::Tier1 && n.is_dual_stack())
        .map(|n| n.id)
        .collect();
    assert!(t1_dual.len() >= 3, "the v6 core must include several tier-1 ASes");
    let mut present = 0usize;
    let mut pairs = 0usize;
    for (i, &a) in t1_dual.iter().enumerate() {
        for &b in &t1_dual[i + 1..] {
            pairs += 1;
            if topo.neighbors(a, Family::V6).iter().any(|&(n, _, _)| n == b) {
                present += 1;
            }
        }
    }
    let core_density = present as f64 / pairs as f64;
    assert!(
        core_density > 0.9,
        "v6 core density {core_density:.2} — the tier-1 backbone must stay a near-clique"
    );
}
