//! Internet-like topology generation.
//!
//! The generator grows a tiered AS graph the way the real Internet's
//! customer-provider hierarchy looks from BGP table studies: a small clique
//! of transit-free tier-1s, preferentially-attached multihomed transit
//! providers below them, and leaf ASes (access networks, content hosters,
//! CDNs) buying transit at the edge. The IPv6 overlay is then derived from
//! the IPv4 graph per [`DualStackConfig`], and stranded IPv6 islands are
//! stitched to the core with 6in4 tunnels.

use crate::asys::{AsId, AsNode, IdOverflow, Region, Tier, V6Profile};
use crate::dualstack::DualStackConfig;
use crate::graph::{Topology, TunnelInfo};
use crate::link::LinkProps;
use crate::relationship::Relationship;
use ipv6web_stats::{coin, derive_rng, lognormal};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Structural parameters of the generated topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Number of tier-1 backbone ASes (fully meshed).
    pub n_tier1: usize,
    /// Number of transit ASes.
    pub n_transit: usize,
    /// Number of access (eyeball) ASes — vantage points live here.
    pub n_access: usize,
    /// Number of content-hosting ASes — web sites live here.
    pub n_content: usize,
    /// Number of CDN ASes.
    pub n_cdn: usize,
    /// Probability two same-region transit ASes peer (IPv4).
    pub transit_peer_prob: f64,
    /// Probability two cross-region transit ASes peer (IPv4).
    pub transit_peer_prob_xregion: f64,
    /// Probability a CDN peers directly with an access (eyeball) AS — the
    /// 1-hop adjacency that gives CDN-served IPv4 its speed edge (Table 6).
    pub cdn_access_peering: f64,
    /// Dual-stack overlay parameters.
    pub dual: DualStackConfig,
}

impl TopologyConfig {
    /// A small topology for unit/integration tests (≈300 ASes).
    pub fn test_small() -> Self {
        Self::scaled(300)
    }

    /// The default full-study topology (≈4000 ASes — a 1:10 scale model of
    /// the ~37k-AS 2011 Internet preserving tier proportions).
    pub fn paper_scale() -> Self {
        Self::scaled(4000)
    }

    /// A full-magnitude topology: ~37k ASes, matching the 2011 Internet the
    /// paper measured. Peering probabilities are scaled down because they
    /// multiply *pair counts*, which grow quadratically: at 6½k transit
    /// ASes the `scaled()` defaults would mesh millions of peerings where
    /// the 2011 Internet had ~110k edges total.
    pub fn internet_scale() -> Self {
        let mut cfg = Self::scaled(37_000);
        cfg.transit_peer_prob = 0.004;
        cfg.transit_peer_prob_xregion = 0.0005;
        cfg.cdn_access_peering = 0.08;
        cfg
    }

    /// Builds a config with `n` total ASes split into realistic tier shares.
    pub fn scaled(n: usize) -> Self {
        assert!(n >= 30, "need at least 30 ASes");
        let n_tier1 = 8.min(n / 20).max(3);
        let n_cdn = (n / 100).clamp(2, 25);
        let rest = n - n_tier1 - n_cdn;
        let n_transit = rest * 18 / 100;
        let n_access = rest * 30 / 100;
        let n_content = rest - n_transit - n_access;
        TopologyConfig {
            n_tier1,
            n_transit,
            n_access,
            n_content,
            n_cdn,
            transit_peer_prob: 0.3,
            transit_peer_prob_xregion: 0.04,
            cdn_access_peering: 0.5,
            dual: DualStackConfig::year2011(),
        }
    }

    /// Total AS count.
    pub fn total(&self) -> usize {
        self.n_tier1 + self.n_transit + self.n_access + self.n_content + self.n_cdn
    }

    /// Validates structural sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_tier1 < 2 {
            return Err("need at least 2 tier-1 ASes".into());
        }
        if self.n_transit < 2 {
            return Err("need at least 2 transit ASes".into());
        }
        for (name, p) in [
            ("transit_peer_prob", self.transit_peer_prob),
            ("transit_peer_prob_xregion", self.transit_peer_prob_xregion),
            ("cdn_access_peering", self.cdn_access_peering),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} outside [0,1]"));
            }
        }
        self.dual.validate()
    }
}

/// Edge under construction (mutable until the final [`Topology`] is built).
struct ProtoEdge {
    a: AsId,
    b: AsId,
    rel_a: Relationship,
    props: LinkProps,
    v4: bool,
    v6: bool,
    tunnel: Option<TunnelInfo>,
}

/// Generates a dual-stack topology from `config`, deterministically in
/// `seed`.
///
/// # Panics
/// Panics if `config.validate()` fails or the AS count overflows the id
/// space (see [`try_generate`]).
pub fn generate(config: &TopologyConfig, seed: u64) -> Topology {
    try_generate(config, seed).expect("topology id space overflow")
}

/// Generates a dual-stack topology from `config`, deterministically in
/// `seed`, reporting id-space overflow as a typed error instead of
/// truncating node indices into `u32` ids.
///
/// # Panics
/// Panics if `config.validate()` fails.
pub fn try_generate(config: &TopologyConfig, seed: u64) -> Result<Topology, IdOverflow> {
    config.validate().expect("invalid topology config");
    let mut rng = derive_rng(seed, "topology");

    // ---- nodes -----------------------------------------------------------
    let mut nodes = Vec::with_capacity(config.total());
    let push_tier = |nodes: &mut Vec<AsNode>,
                     tier: Tier,
                     count: usize,
                     rng: &mut ipv6web_stats::StudyRng|
     -> Result<(), IdOverflow> {
        for _ in 0..count {
            let id = AsId::from_index(nodes.len())?;
            let region = pick_region(rng, tier);
            let (v4_prefix, _) = AsNode::address_plan(id);
            nodes.push(AsNode { id, tier, region, v4_prefix, v6: None });
        }
        Ok(())
    };
    push_tier(&mut nodes, Tier::Tier1, config.n_tier1, &mut rng)?;
    push_tier(&mut nodes, Tier::Transit, config.n_transit, &mut rng)?;
    push_tier(&mut nodes, Tier::Access, config.n_access, &mut rng)?;
    push_tier(&mut nodes, Tier::Content, config.n_content, &mut rng)?;
    push_tier(&mut nodes, Tier::Cdn, config.n_cdn, &mut rng)?;

    // ---- IPv6 adoption ----------------------------------------------------
    let d = &config.dual;
    for node in nodes.iter_mut() {
        let p = match node.tier {
            Tier::Tier1 => d.tier1_adoption,
            Tier::Transit => d.transit_adoption,
            Tier::Access => d.access_adoption,
            Tier::Content => d.content_adoption,
            Tier::Cdn => d.cdn_adoption,
        };
        if coin(&mut rng, p) || node.id.0 == 0 {
            let (_, prefix) = AsNode::address_plan(node.id);
            let forwarding_factor = if coin(&mut rng, d.forwarding_penalty_prob) {
                rng.gen_range(d.forwarding_factor_range.0..=d.forwarding_factor_range.1)
            } else {
                1.0
            };
            node.v6 = Some(V6Profile { prefix, forwarding_factor });
        }
    }

    // ---- IPv4 edges --------------------------------------------------------
    let mut edges: Vec<ProtoEdge> = Vec::new();
    let mut degree = vec![0usize; nodes.len()];
    let add = |edges: &mut Vec<ProtoEdge>,
               degree: &mut Vec<usize>,
               a: AsId,
               b: AsId,
               rel_a: Relationship,
               props: LinkProps| {
        degree[a.index()] += 1;
        degree[b.index()] += 1;
        edges.push(ProtoEdge { a, b, rel_a, props, v4: true, v6: false, tunnel: None });
    };

    let t1_range = 0..config.n_tier1;
    // tier-1 clique
    for i in t1_range.clone() {
        for j in (i + 1)..config.n_tier1 {
            let props = link_props(&mut rng, &nodes[i], &nodes[j]);
            add(&mut edges, &mut degree, nodes[i].id, nodes[j].id, Relationship::Peer, props);
        }
    }

    // transit: providers from tier1 + earlier transit, preferential attachment
    let transit_start = config.n_tier1;
    let transit_end = transit_start + config.n_transit;
    for i in transit_start..transit_end {
        let n_providers = rng.gen_range(1..=3.min(i));
        let candidates: Vec<usize> = (0..i.min(transit_end)).collect();
        let chosen = weighted_pick(&mut rng, &candidates, n_providers, |c| {
            let w = (degree[c] + 1) as f64;
            if nodes[c].region == nodes[i].region {
                w * 3.0
            } else {
                w
            }
        });
        for p in chosen {
            let props = link_props(&mut rng, &nodes[i], &nodes[p]);
            add(&mut edges, &mut degree, nodes[i].id, nodes[p].id, Relationship::CustomerOf, props);
        }
    }
    // transit peering
    for i in transit_start..transit_end {
        for j in (i + 1)..transit_end {
            let p = if nodes[i].region == nodes[j].region {
                config.transit_peer_prob
            } else {
                config.transit_peer_prob_xregion
            };
            if coin(&mut rng, p) {
                let props = link_props(&mut rng, &nodes[i], &nodes[j]);
                add(&mut edges, &mut degree, nodes[i].id, nodes[j].id, Relationship::Peer, props);
            }
        }
    }

    // leaves: providers among transit (same region favored); CDNs multihome
    for i in transit_end..nodes.len() {
        let n_providers = match nodes[i].tier {
            // CDNs are massively multihomed — their edges sit inside many
            // transit providers, so most eyeballs reach them in two AS hops
            Tier::Cdn => rng.gen_range(5.min(config.n_transit)..=10.min(config.n_transit)),
            _ => rng.gen_range(1..=2.min(config.n_transit)),
        };
        let candidates: Vec<usize> = (transit_start..transit_end).collect();
        let chosen = weighted_pick(&mut rng, &candidates, n_providers, |c| {
            let w = (degree[c] + 1) as f64;
            if nodes[c].region == nodes[i].region {
                w * 4.0
            } else {
                w
            }
        });
        for p in chosen {
            let props = link_props(&mut rng, &nodes[i], &nodes[p]);
            add(&mut edges, &mut degree, nodes[i].id, nodes[p].id, Relationship::CustomerOf, props);
        }
    }

    // CDN-to-eyeball peering: CDNs put edges directly inside access
    // networks, so most vantage points reach them in one AS hop.
    for i in transit_end..nodes.len() {
        if nodes[i].tier != Tier::Cdn {
            continue;
        }
        for j in transit_end..nodes.len() {
            if nodes[j].tier != Tier::Access {
                continue;
            }
            if coin(&mut rng, config.cdn_access_peering) {
                let props = link_props(&mut rng, &nodes[i], &nodes[j]);
                add(&mut edges, &mut degree, nodes[i].id, nodes[j].id, Relationship::Peer, props);
            }
        }
    }

    // ---- IPv6 overlay ------------------------------------------------------
    for e in edges.iter_mut() {
        let (na, nb) = (&nodes[e.a.index()], &nodes[e.b.index()]);
        if !(na.is_dual_stack() && nb.is_dual_stack()) {
            continue;
        }
        let both_t1 = na.tier == Tier::Tier1 && nb.tier == Tier::Tier1;
        // an access AS that deployed IPv6 almost always got native v6
        // transit from its existing provider (how eyeballs deployed in
        // 2011), so access uplinks replicate with near certainty
        let access_uplink = matches!(e.rel_a, Relationship::CustomerOf)
            && (na.tier == Tier::Access || nb.tier == Tier::Access);
        let p = match e.rel_a {
            Relationship::Peer if both_t1 => 1.0, // v6 core stays meshed
            Relationship::Peer => d.peering_parity,
            _ if access_uplink => d.provider_parity.max(0.95),
            _ => d.provider_parity,
        };
        if coin(&mut rng, p) {
            e.v6 = true;
        }
    }

    // ---- stitch stranded v6 islands ---------------------------------------
    stitch_v6_islands(&mut rng, &nodes, &mut edges, d);

    // ---- build -------------------------------------------------------------
    let mut topo = Topology::new(nodes);
    for e in edges {
        topo.add_edge(e.a, e.b, e.rel_a, e.props, e.v4, e.v6, e.tunnel);
    }
    ipv6web_obs::gauge_max("topology.nodes", topo.num_ases() as u64);
    ipv6web_obs::gauge_max("topology.edges", topo.edges().len() as u64);
    ipv6web_obs::add("topology.generated", 1);
    Ok(topo)
}

/// Weighted sample of `k` distinct items from `candidates`.
fn weighted_pick<R: Rng>(
    rng: &mut R,
    candidates: &[usize],
    k: usize,
    weight: impl Fn(usize) -> f64,
) -> Vec<usize> {
    let mut pool: Vec<(usize, f64)> =
        candidates.iter().map(|&c| (c, weight(c).max(1e-9))).collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k.min(pool.len()) {
        let total: f64 = pool.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        let mut idx = pool.len() - 1;
        for (i, (_, w)) in pool.iter().enumerate() {
            if x < *w {
                idx = i;
                break;
            }
            x -= w;
        }
        out.push(pool.swap_remove(idx).0);
    }
    out
}

fn pick_region<R: Rng>(rng: &mut R, tier: Tier) -> Region {
    // Tier-1s concentrate where the 2011 backbone did.
    let weights: &[(Region, f64)] = match tier {
        Tier::Tier1 => &[(Region::NorthAmerica, 0.5), (Region::Europe, 0.3), (Region::Asia, 0.2)],
        _ => &[
            (Region::NorthAmerica, 0.30),
            (Region::Europe, 0.25),
            (Region::Asia, 0.22),
            (Region::SouthAmerica, 0.09),
            (Region::Africa, 0.06),
            (Region::Oceania, 0.08),
        ],
    };
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for (r, w) in weights {
        if x < *w {
            return *r;
        }
        x -= w;
    }
    weights.last().unwrap().0
}

fn link_props<R: Rng>(rng: &mut R, a: &AsNode, b: &AsNode) -> LinkProps {
    // CDNs are distributed: their edges behave like short regional hops
    // regardless of nominal geography (anycast presence near the peer),
    // which is what gives CDN-served IPv4 its latency advantage (Table 6).
    let cdn_edge = a.tier == Tier::Cdn || b.tier == Tier::Cdn;
    let delay = if cdn_edge {
        rng.gen_range(3.0..10.0)
    } else {
        a.region.base_delay_ms(b.region) * rng.gen_range(0.8..1.4)
    };
    let bw_median = match (a.tier, b.tier) {
        (Tier::Tier1, Tier::Tier1) => 30_000.0,
        (Tier::Cdn, _) | (_, Tier::Cdn) => 20_000.0,
        (Tier::Tier1, _) | (_, Tier::Tier1) => 18_000.0,
        (Tier::Transit, Tier::Transit) => 12_000.0,
        _ => 4_000.0,
    };
    let bandwidth = lognormal(rng, bw_median, 0.4).max(200.0);
    let loss = lognormal(rng, 0.0008, 0.7).min(0.05);
    LinkProps::new(delay, bandwidth, loss)
}

/// Ensures every dual-stack AS has a v6 **up-path**: a chain of v6
/// customer→provider edges reaching the dual-stack tier-1 mesh.
///
/// This is the structural condition under which Gao–Rexford routing makes
/// every dual-stack destination reachable from every dual-stack source:
/// the destination's announcement climbs its up-path to a tier-1, crosses
/// the (meshed) tier-1s via at most one peer edge, and descends the
/// source's up-path in reverse — a valley-free route.
///
/// A stranded AS is fixed either *natively* — upgrading one of its existing
/// IPv4 provider edges (toward a dual-stack, already-uplinked provider) to
/// carry IPv6 — or with a **6in4 tunnel** to a random dual-stack tier-1
/// "tunnel broker", with `tunnel_prob` deciding between the two. Tunnels
/// carry the hidden-hop and extra-delay metadata that drives Table 7.
///
/// Stranded ASes are fixed lowest index first. The uplinked set (everything
/// below a dual tier-1 along v6 provider→customer edges) only grows, so it
/// is kept up to date as fixes land instead of being recomputed, and the
/// scan for the next stranded AS never moves back: every AS below the one
/// just fixed is already uplinked or not dual-stack.
fn stitch_v6_islands<R: Rng>(
    rng: &mut R,
    nodes: &[AsNode],
    edges: &mut Vec<ProtoEdge>,
    d: &DualStackConfig,
) {
    let relays: Vec<usize> = nodes
        .iter()
        .filter(|n| n.tier == Tier::Tier1 && n.is_dual_stack())
        .map(|n| n.id.index())
        .collect();
    if relays.is_empty() {
        return; // no dual tier-1 => degenerate world, nothing to anchor to
    }

    // Each provider's v6 customers, and each AS's v4-only provider edges
    // (its native upgrade candidates) in edge order.
    let mut v6_customers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut v4_uplinks: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, e) in edges.iter().enumerate() {
        let Some((cust, prov)) = customer_provider(e) else { continue };
        if e.v6 {
            v6_customers[prov].push(cust);
        } else if e.v4 {
            v4_uplinks[cust].push(i);
        }
    }
    // uplinked = can reach a dual tier-1 via a v6 CustomerOf chain.
    let mut uplinked = vec![false; nodes.len()];
    for &r in &relays {
        mark_uplinked(r, &v6_customers, &mut uplinked);
    }

    for u in 0..nodes.len() {
        if !nodes[u].is_dual_stack() || uplinked[u] {
            continue;
        }
        let mut provider = None;
        if !coin(rng, d.tunnel_prob) {
            // Native upgrade: one of u's v4 provider edges toward a
            // dual-stack uplinked provider starts carrying IPv6.
            let candidates: Vec<(usize, usize)> = v4_uplinks[u]
                .iter()
                .map(|&i| (i, customer_provider(&edges[i]).expect("a provider edge").1))
                .filter(|&(i, prov)| !edges[i].v6 && nodes[prov].is_dual_stack() && uplinked[prov])
                .collect();
            if let Some(&(i, prov)) = candidates.choose(rng) {
                edges[i].v6 = true;
                provider = Some(prov);
            }
        }
        let provider = provider.unwrap_or_else(|| {
            // 6in4 tunnel to a broker. Real 2011 tunnel brokers (Hurricane
            // Electric and friends) sat at a handful of very well-connected
            // transit providers, which is what makes tunneled IPv6 paths
            // *look* short in AS hops (Table 7): prefer the earliest
            // (highest-degree) uplinked dual-stack transit ASes, fall back
            // to a dual tier-1.
            let broker_pool: Vec<usize> = (0..nodes.len())
                .filter(|&i| {
                    i != u
                        && nodes[i].tier == Tier::Transit
                        && nodes[i].is_dual_stack()
                        && uplinked[i]
                })
                .take(4)
                .collect();
            let relay = broker_pool
                .choose(rng)
                .copied()
                .unwrap_or_else(|| *relays.choose(rng).expect("non-empty"));
            let props = link_props(rng, &nodes[u], &nodes[relay]);
            edges.push(ProtoEdge {
                a: nodes[u].id,
                b: nodes[relay].id,
                rel_a: Relationship::CustomerOf,
                props,
                v4: false,
                v6: true,
                tunnel: Some(TunnelInfo {
                    hidden_hops: rng.gen_range(2..=4),
                    extra_delay_ms: rng.gen_range(20.0..80.0),
                }),
            });
            relay
        });
        // u now hangs below an uplinked provider, and so does every v6
        // customer below u.
        v6_customers[provider].push(u);
        mark_uplinked(u, &v6_customers, &mut uplinked);
    }
}

/// `(customer, provider)` indices of a provider edge; `None` for peering.
fn customer_provider(e: &ProtoEdge) -> Option<(usize, usize)> {
    // e.rel_a is from a's perspective.
    match e.rel_a {
        Relationship::CustomerOf => Some((e.a.index(), e.b.index())),
        Relationship::ProviderOf => Some((e.b.index(), e.a.index())),
        Relationship::Peer => None,
    }
}

/// Marks `root` and everything below it along `v6_customers` as uplinked,
/// stopping at ASes already marked (their customers are marked too).
fn mark_uplinked(root: usize, v6_customers: &[Vec<usize>], uplinked: &mut [bool]) {
    if uplinked[root] {
        return;
    }
    uplinked[root] = true;
    let mut stack = vec![root];
    while let Some(p) = stack.pop() {
        for &c in &v6_customers[p] {
            if !uplinked[c] {
                uplinked[c] = true;
                stack.push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Family;

    fn small() -> Topology {
        generate(&TopologyConfig::test_small(), 42)
    }

    #[test]
    fn generates_requested_counts() {
        let cfg = TopologyConfig::test_small();
        let t = small();
        assert_eq!(t.num_ases(), cfg.total());
        let count = |tier: Tier| t.nodes().iter().filter(|n| n.tier == tier).count();
        assert_eq!(count(Tier::Tier1), cfg.n_tier1);
        assert_eq!(count(Tier::Transit), cfg.n_transit);
        assert_eq!(count(Tier::Access), cfg.n_access);
        assert_eq!(count(Tier::Content), cfg.n_content);
        assert_eq!(count(Tier::Cdn), cfg.n_cdn);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&TopologyConfig::test_small(), 7);
        let b = generate(&TopologyConfig::test_small(), 7);
        assert_eq!(a.num_ases(), b.num_ases());
        assert_eq!(a.edges().len(), b.edges().len());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopologyConfig::test_small(), 1);
        let b = generate(&TopologyConfig::test_small(), 2);
        let same_edges = a.edges().len() == b.edges().len()
            && a.edges().iter().zip(b.edges()).all(|(x, y)| x == y);
        assert!(!same_edges);
    }

    #[test]
    fn v4_fully_connected() {
        assert!(small().is_connected(Family::V4));
    }

    #[test]
    fn v6_subgraph_connected() {
        assert!(small().is_connected(Family::V6));
    }

    #[test]
    fn v6_is_sparser_than_v4() {
        let t = small();
        assert!(t.edge_count(Family::V6) < t.edge_count(Family::V4));
        assert!(t.dual_stack_count() < t.num_ases());
        assert!(t.dual_stack_count() > 0);
    }

    #[test]
    fn tier1_clique_in_v4() {
        let cfg = TopologyConfig::test_small();
        let t = small();
        for i in 0..cfg.n_tier1 {
            for j in (i + 1)..cfg.n_tier1 {
                assert!(
                    t.edge_between(AsId(i as u32), AsId(j as u32), Family::V4).is_some(),
                    "tier1 {i} and {j} must peer"
                );
            }
        }
    }

    #[test]
    fn dual_tier1s_meshed_in_v6() {
        let cfg = TopologyConfig::test_small();
        let t = small();
        let dual_t1: Vec<u32> =
            (0..cfg.n_tier1 as u32).filter(|&i| t.node(AsId(i)).is_dual_stack()).collect();
        for (x, &i) in dual_t1.iter().enumerate() {
            for &j in &dual_t1[x + 1..] {
                assert!(
                    t.edge_between(AsId(i), AsId(j), Family::V6).is_some(),
                    "dual tier1 {i} and {j} must peer in v6"
                );
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let t = small();
        for n in t.nodes() {
            if n.tier == Tier::Tier1 {
                continue;
            }
            let has_provider = t
                .neighbors(n.id, Family::V4)
                .iter()
                .any(|(_, rel, _)| *rel == Relationship::CustomerOf);
            assert!(has_provider, "{} ({:?}) must buy transit", n.id, n.tier);
        }
    }

    #[test]
    fn tunnels_are_v6_only_with_metadata() {
        let t = small();
        for e in t.edges() {
            if let Some(info) = e.tunnel {
                assert!(e.v6 && !e.v4);
                assert!((2..=4).contains(&info.hidden_hops));
                assert!(info.extra_delay_ms >= 20.0 && info.extra_delay_ms < 80.0);
            }
        }
    }

    #[test]
    fn full_parity_config_gives_equal_graphs() {
        let mut cfg = TopologyConfig::test_small();
        cfg.dual = DualStackConfig::full_parity();
        let t = generate(&cfg, 9);
        assert_eq!(t.dual_stack_count(), t.num_ases());
        assert_eq!(t.edge_count(Family::V4), t.edge_count(Family::V6));
        assert!(t.edges().iter().all(|e| e.tunnel.is_none()));
    }

    #[test]
    fn forwarding_factors_valid() {
        let t = small();
        for n in t.nodes() {
            if let Some(p) = &n.v6 {
                assert!(p.forwarding_factor > 0.0 && p.forwarding_factor <= 1.0);
            }
        }
    }

    #[test]
    fn link_props_sane() {
        let t = small();
        for e in t.edges() {
            assert!(e.props.delay_ms > 0.0 && e.props.delay_ms < 200.0);
            assert!(e.props.bandwidth_kbps >= 200.0);
            assert!((0.0..=0.05).contains(&e.props.loss));
        }
    }

    #[test]
    fn scaled_config_proportions() {
        let cfg = TopologyConfig::scaled(1000);
        assert_eq!(cfg.total(), 1000);
        assert!(cfg.n_content > cfg.n_transit, "content-heavy edge");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least 30")]
    fn tiny_scale_panics() {
        TopologyConfig::scaled(10);
    }

    #[test]
    fn validate_rejects_bad_probs() {
        let mut cfg = TopologyConfig::test_small();
        cfg.transit_peer_prob = 2.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn smallest_scaled_configs_generate() {
        // below 5 transit ASes a CDN multihomes to every transit AS
        for n in 30..=60 {
            for seed in [1, 42] {
                let cfg = TopologyConfig::scaled(n);
                let t = generate(&cfg, seed);
                assert_eq!(t.num_ases(), n);
                assert!(t.is_connected(Family::V4), "scaled({n}) seed {seed}");
            }
        }
    }

    /// FNV-1a 64 of the topology's JSON form.
    fn digest(t: &Topology) -> String {
        let json = serde_json::to_string(t).expect("topology serializes");
        format!("{:016x}", ipv6web_stats::fnv1a64(json.as_bytes()))
    }

    #[test]
    fn generated_topologies_match_golden_digests() {
        // Every random draw, edge and tunnel of the generator is pinned:
        // a change to any of them changes these digests.
        let cases = [
            (TopologyConfig::test_small(), 42, "524220cff551bf02"),
            (TopologyConfig::test_small(), 7, "5f0bd81819b9a70d"),
            (TopologyConfig::test_small(), 1, "77fc6bf1c48a3e5d"),
            (TopologyConfig::scaled(2000), 42, "53ac82339ef0b81a"),
            (TopologyConfig::scaled(2000), 7, "483885a4dee5d00e"),
            (TopologyConfig::paper_scale(), 42, "f68b77fe19b43712"),
            (TopologyConfig::scaled(5000), 42, "7c114c3f46520ee4"),
        ];
        for (cfg, seed, want) in cases {
            assert_eq!(digest(&generate(&cfg, seed)), want, "{} ASes, seed {seed}", cfg.total());
        }
    }
}
