//! Site population generation.
//!
//! Reproduces the structural facts the paper's analysis rests on:
//!
//! * **Rank-dependent IPv6 adoption** (Fig 3a): the most popular sites are
//!   several times more likely to be IPv6-accessible than the long tail.
//! * **Hosting concentration**: sites cluster in hosting ASes with a
//!   Zipf-like weight, so destination ASes contain enough sites for the
//!   per-AS distribution analysis (zero-mode detection) to be meaningful.
//! * **DL mechanisms**: a share of sites is CDN-fronted in IPv4 (with IPv6,
//!   if any, at the origin), and a small share of IPv6 presences is via
//!   6to4 — both produce different IPv4/IPv6 destination ASes.
//! * **Server-side IPv6 penalties**: a fraction of dual-stack sites serve
//!   IPv6 worse than IPv4, independent of the network (what H1's zero-mode
//!   machinery detects).
//! * **Adoption timeline**: AAAA publication weeks are drawn from a
//!   cumulative adoption curve (supplied by the `ipv6web-alexa` timeline)
//!   so Fig 1's jumps appear in plain DNS data, and churned-in sites join
//!   within the campaign's weeks. The caller supplies both the curve and
//!   the campaign length.

use crate::server::ServerProfile;
use crate::site::{Site, SiteId, SiteV6};
use ipv6web_dns::NameTable;
use ipv6web_stats::{coin, derive_rng, lognormal};
use ipv6web_topology::{AsId, IdOverflow, Tier, Topology};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Population generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of sites to generate.
    pub n_sites: usize,
    /// Global multiplier on the rank-dependent IPv6 adoption probability
    /// (1.0 ≈ the 2011 Internet's ~1.2% overall).
    pub adoption_multiplier: f64,
    /// Zipf exponent concentrating sites into hosting ASes.
    pub hosting_zipf_exponent: f64,
    /// Fraction of sites CDN-fronted over IPv4.
    pub cdn_share: f64,
    /// Fraction of IPv6 presences realized via 6to4 (RFC 3056).
    pub sixto4_share: f64,
    /// Fraction of dual-stack sites whose *origin* AS never deployed IPv6,
    /// so their IPv6 presence lives elsewhere (a v6 hosting platform or a
    /// 6to4 relay) — the paper's "not always CDN users" DL mechanism, and
    /// the reason IPv4 destination-AS counts exceed IPv6 ones (Table 2).
    pub dl_origin_share: f64,
    /// Fraction of dual-stack sites whose server serves IPv6 poorly.
    pub poor_v6_server_prob: f64,
    /// v6 service factor range for poor servers.
    pub poor_v6_factor_range: (f64, f64),
    /// Fraction of dual-stack sites serving materially different content
    /// over IPv6 (fails the monitor's 6% identity check).
    pub different_content_prob: f64,
    /// Median main-page size, bytes.
    pub page_median_bytes: f64,
    /// Log-normal sigma of page sizes.
    pub page_sigma: f64,
    /// Median server think time, ms.
    pub think_median_ms: f64,
    /// Median server rate cap, kB/s.
    pub rate_cap_median_kbps: f64,
    /// Fraction of dual-stack sites that advertised World IPv6 Day
    /// participation.
    pub ipv6_day_share: f64,
    /// Probability a top-100-ranked dual-stack site gates its AAAA behind
    /// resolver white-listing (the Google model).
    pub whitelist_share_top: f64,
    /// Fraction of sites present from week 0 (the rest churn in later).
    pub initial_presence: f64,
    /// Caps each Zipf hosting pool to its first N (highest-weight) ASes.
    /// The internet tier uses this: ~2½k distinct hosting ASes bounds the
    /// destination set routing tables are built for, matching the paper's
    /// observation that a million sites concentrate in a few thousand
    /// destination ASes. `None` = every eligible AS can host.
    pub hosting_pool_cap: Option<usize>,
}

impl PopulationConfig {
    /// A small population for tests: high adoption so dual-stack analysis
    /// has data even with few sites.
    pub fn test_small() -> Self {
        PopulationConfig {
            n_sites: 3000,
            adoption_multiplier: 10.0,
            hosting_zipf_exponent: 1.1,
            cdn_share: 0.10,
            sixto4_share: 0.03,
            dl_origin_share: 0.05,
            poor_v6_server_prob: 0.15,
            poor_v6_factor_range: (0.2, 0.6),
            different_content_prob: 0.03,
            page_median_bytes: 45_000.0,
            page_sigma: 0.9,
            think_median_ms: 25.0,
            rate_cap_median_kbps: 400.0,
            ipv6_day_share: 0.12,
            whitelist_share_top: 0.15,
            initial_presence: 0.7,
            hosting_pool_cap: None,
        }
    }

    /// Paper-scale population (hundred-thousand-site "1M-equivalent").
    pub fn paper_scale() -> Self {
        PopulationConfig { n_sites: 120_000, adoption_multiplier: 1.6, ..Self::test_small() }
    }
}

/// The paper's Fig 3a shape: IPv6 accessibility probability as a function
/// of rank, interpolated log-linearly between per-decade anchors calibrated
/// to the figure (Top 10 ≈ 12%, Top 1M ≈ 1.2%).
pub fn v6_adoption_prob(rank: u32, n_sites: usize) -> f64 {
    debug_assert!(rank >= 1);
    // anchors at log10(rank) = 0..6
    const ANCHORS: [f64; 7] = [0.13, 0.10, 0.055, 0.033, 0.022, 0.015, 0.012];
    let lr = (rank as f64).log10().clamp(0.0, 6.0);
    let lo = lr.floor() as usize;
    let hi = (lo + 1).min(6);
    let frac = lr - lo as f64;
    let p = ANCHORS[lo] * (1.0 - frac) + ANCHORS[hi] * frac;
    let _ = n_sites;
    p
}

/// Samples a publication week from a cumulative adoption curve.
fn sample_adoption_week<R: Rng>(rng: &mut R, curve: &[(u32, f64)]) -> u32 {
    if curve.is_empty() {
        return 0;
    }
    let u: f64 = rng.gen();
    for &(week, cum) in curve {
        if u <= cum {
            return week;
        }
    }
    curve.last().expect("non-empty").0
}

/// Zipf-weighted AS pool: deterministic shuffle then weight by position.
fn zipf_pool<R: Rng>(rng: &mut R, ases: &[AsId], exponent: f64) -> Vec<(AsId, f64)> {
    let mut shuffled: Vec<AsId> = ases.to_vec();
    shuffled.shuffle(rng);
    shuffled
        .into_iter()
        .enumerate()
        .map(|(i, a)| (a, 1.0 / ((i + 1) as f64).powf(exponent)))
        .collect()
}

fn pick_zipf<R: Rng>(rng: &mut R, pool: &[(AsId, f64)], total: f64) -> AsId {
    let mut x = rng.gen_range(0.0..total);
    for &(a, w) in pool {
        if x < w {
            return a;
        }
        x -= w;
    }
    pool.last().expect("non-empty pool").0
}

/// Generates the monitored site population and the shared name table its
/// sites' interned DNS names resolve through.
///
/// # Panics
/// Panics if the topology lacks the AS kinds sites need (see
/// [`try_generate`]) or the site count overflows the id space.
pub fn generate(
    config: &PopulationConfig,
    topo: &Topology,
    total_weeks: u32,
    adoption_curve: &[(u32, f64)],
    seed: u64,
) -> (Vec<Site>, NameTable) {
    try_generate(config, topo, total_weeks, adoption_curve, seed).expect("site id space overflow")
}

/// Generates the monitored site population, reporting id-space overflow as
/// a typed error instead of truncating site indices into `u32` ids.
///
/// Sites not present from week 0 churn in at a week in
/// `1..total_weeks`, the campaign's length; AAAA publication weeks are
/// drawn from `adoption_curve`, cumulative `(week, fraction)` pairs in
/// ascending order (empty: every AAAA record is published at week 0).
///
/// # Panics
/// Panics if the topology lacks content ASes, dual-stack content ASes, CDN
/// ASes, or dual-stack transit ASes (6to4 relays).
pub fn try_generate(
    config: &PopulationConfig,
    topo: &Topology,
    total_weeks: u32,
    adoption_curve: &[(u32, f64)],
    seed: u64,
) -> Result<(Vec<Site>, NameTable), IdOverflow> {
    let mut rng = derive_rng(seed, "population");
    let content: Vec<AsId> =
        topo.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).collect();
    let dual_content: Vec<AsId> = topo
        .nodes()
        .iter()
        .filter(|n| n.tier == Tier::Content && n.is_dual_stack())
        .map(|n| n.id)
        .collect();
    let cdns: Vec<AsId> =
        topo.nodes().iter().filter(|n| n.tier == Tier::Cdn).map(|n| n.id).collect();
    let relays: Vec<AsId> = topo
        .nodes()
        .iter()
        .filter(|n| n.tier == Tier::Transit && n.is_dual_stack())
        .map(|n| n.id)
        .collect();
    let single_content: Vec<AsId> = topo
        .nodes()
        .iter()
        .filter(|n| n.tier == Tier::Content && !n.is_dual_stack())
        .map(|n| n.id)
        .collect();
    assert!(!content.is_empty(), "topology has no content ASes");
    assert!(!dual_content.is_empty(), "topology has no dual-stack content ASes");
    assert!(!cdns.is_empty(), "topology has no CDN ASes");
    assert!(!relays.is_empty(), "topology has no dual-stack transit ASes (6to4 relays)");

    // The cap truncates *after* the shuffle (keeping the highest positional
    // weights), so capped and uncapped configs draw the same RNG stream up
    // to this point.
    let cap = |mut pool: Vec<(AsId, f64)>| {
        if let Some(n) = config.hosting_pool_cap {
            pool.truncate(n.max(1));
        }
        pool
    };
    let all_pool = cap(zipf_pool(&mut rng, &content, config.hosting_zipf_exponent));
    let all_total: f64 = all_pool.iter().map(|(_, w)| w).sum();
    let dual_pool = cap(zipf_pool(&mut rng, &dual_content, config.hosting_zipf_exponent));
    let dual_total: f64 = dual_pool.iter().map(|(_, w)| w).sum();
    let single_pool = cap(zipf_pool(&mut rng, &single_content, config.hosting_zipf_exponent));
    let single_total: f64 = single_pool.iter().map(|(_, w)| w).sum();
    // The real 2011 Internet had a handful of public 6to4 relays and a few
    // dedicated v6 hosting platforms; fixed small pools concentrate the
    // IPv6 destination-AS set the way the paper observed.
    // relays sit at the best-connected transit providers (lowest ids are
    // generated first and accrete the most preferential-attachment edges),
    // so 6to4 destinations look close in AS hops while the tunnel leg
    // hides the true distance — Table 7's short-hop IPv6 anomaly
    let relay_pool: Vec<AsId> = relays.iter().copied().take(3).collect();
    let platform_pool: Vec<AsId> = {
        let mut p = dual_content.clone();
        p.shuffle(&mut rng);
        p.truncate(3);
        p
    };

    let mut sites = Vec::with_capacity(config.n_sites);
    let mut names = NameTable::new();
    for i in 0..config.n_sites {
        let id = SiteId::from_index(i)?;
        let rank = id.0.checked_add(1).ok_or(IdOverflow::new("SiteId", i + 1))?;
        let page_v4 = lognormal(&mut rng, config.page_median_bytes, config.page_sigma)
            .clamp(2_000.0, 800_000.0) as u64;

        let becomes_v6 =
            coin(&mut rng, v6_adoption_prob(rank, config.n_sites) * config.adoption_multiplier);

        // Hosting. Dual-stack sites mostly originate in a dual-stack AS;
        // a small share sits in a v4-only hoster and serves IPv6 from a
        // v6 platform or through 6to4 (DL).
        let origin_single =
            becomes_v6 && !single_content.is_empty() && coin(&mut rng, config.dl_origin_share);
        let origin = if origin_single {
            pick_zipf(&mut rng, &single_pool, single_total)
        } else if becomes_v6 {
            pick_zipf(&mut rng, &dual_pool, dual_total)
        } else {
            pick_zipf(&mut rng, &all_pool, all_total)
        };
        let v4_as = if coin(&mut rng, config.cdn_share) {
            *cdns.choose(&mut rng).expect("cdns non-empty")
        } else {
            origin
        };

        let v6 = becomes_v6.then(|| {
            let via_6to4 =
                coin(&mut rng, config.sixto4_share) || (origin_single && coin(&mut rng, 0.5));
            let (dest_as, extra_v6_rtt_ms) = if via_6to4 {
                // 2011's public 6to4 relays were few and far: the
                // relay→origin tunnel leg costs real latency
                (
                    *relay_pool.choose(&mut rng).expect("relay pool non-empty"),
                    rng.gen_range(60.0..160.0),
                )
            } else if origin_single {
                (
                    *platform_pool.choose(&mut rng).expect("platform pool non-empty"),
                    rng.gen_range(40.0..120.0),
                )
            } else {
                (origin, 0.0)
            };
            // World IPv6 Day participants were the big, well-run sites:
            // native IPv6, origins with redundant v6 transit. That is why
            // the paper's Table 12 looks so much better than Table 11.
            let well_connected = !via_6to4
                && extra_v6_rtt_ms == 0.0
                && topo
                    .neighbors(dest_as, ipv6web_topology::Family::V6)
                    .iter()
                    .filter(|(_, rel, _)| *rel == ipv6web_topology::Relationship::CustomerOf)
                    .count()
                    >= 2;
            let participation_p = if well_connected {
                (config.ipv6_day_share * 3.0).min(0.9)
            } else {
                config.ipv6_day_share * 0.3
            };
            // the Google model: a few top sites certify resolvers before
            // answering AAAA (Table 1's W-L column exists for them)
            let whitelist_only = rank <= 100 && coin(&mut rng, config.whitelist_share_top);
            SiteV6 {
                dest_as,
                from_week: sample_adoption_week(&mut rng, adoption_curve),
                via_6to4,
                extra_v6_rtt_ms,
                ipv6_day_participant: coin(&mut rng, participation_p),
                whitelist_only,
            }
        });

        // v6 page: nearly identical normally, materially different rarely.
        let page_v6 = if v6.is_some() {
            if coin(&mut rng, config.different_content_prob) {
                let f = if coin(&mut rng, 0.5) {
                    rng.gen_range(0.3..0.8)
                } else {
                    rng.gen_range(1.3..2.5)
                };
                (page_v4 as f64 * f) as u64
            } else {
                (page_v4 as f64 * lognormal(&mut rng, 1.0, 0.01)) as u64
            }
        } else {
            page_v4
        };

        let mut server = ServerProfile::parity(
            lognormal(&mut rng, config.think_median_ms, 0.5).clamp(2.0, 400.0),
            lognormal(&mut rng, config.rate_cap_median_kbps, 0.5).clamp(60.0, 50_000.0),
        );
        if v6.is_some() && coin(&mut rng, config.poor_v6_server_prob) {
            let (lo, hi) = config.poor_v6_factor_range;
            server = server.with_v6_factor(rng.gen_range(lo..hi));
        }

        let first_seen_week = if coin(&mut rng, config.initial_presence) {
            0
        } else {
            rng.gen_range(1..total_weeks.max(2))
        };

        sites.push(Site {
            id,
            name: names.intern(&format!("site{i}.web.example")),
            rank,
            page_bytes_v4: page_v4,
            page_bytes_v6: page_v6,
            v4_as,
            v6,
            first_seen_week,
            server,
        });
    }
    Ok((sites, names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6web_topology::{generate as gen_topo, Family, TopologyConfig};

    fn world() -> (ipv6web_topology::Topology, Vec<Site>) {
        let topo = gen_topo(&TopologyConfig::test_small(), 5);
        let (sites, _names) = generate(&PopulationConfig::test_small(), &topo, 60, &[], 5);
        (topo, sites)
    }

    #[test]
    fn adoption_prob_declines_with_rank() {
        let n = 1_000_000;
        assert!(v6_adoption_prob(1, n) > v6_adoption_prob(100, n));
        assert!(v6_adoption_prob(100, n) > v6_adoption_prob(10_000, n));
        assert!(v6_adoption_prob(10_000, n) > v6_adoption_prob(1_000_000, n));
        // calibrated endpoints
        assert!((v6_adoption_prob(1, n) - 0.13).abs() < 1e-9);
        assert!((v6_adoption_prob(1_000_000, n) - 0.012).abs() < 1e-9);
    }

    #[test]
    fn generates_requested_count_with_dense_ids() {
        let (_, sites) = world();
        assert_eq!(sites.len(), 3000);
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id.index(), i);
            assert_eq!(s.rank, i as u32 + 1);
        }
    }

    #[test]
    fn deterministic() {
        let topo = gen_topo(&TopologyConfig::test_small(), 5);
        let cfg = PopulationConfig::test_small();
        assert_eq!(generate(&cfg, &topo, 60, &[], 9), generate(&cfg, &topo, 60, &[], 9));
    }

    #[test]
    fn names_intern_in_site_order() {
        let topo = gen_topo(&TopologyConfig::test_small(), 5);
        let (sites, names) = generate(&PopulationConfig::test_small(), &topo, 60, &[], 5);
        assert_eq!(names.len(), sites.len());
        for s in sites.iter().take(50) {
            assert_eq!(names.get(s.name), format!("site{}.web.example", s.id.0));
        }
    }

    #[test]
    fn hosting_pool_cap_concentrates_destinations() {
        let topo = gen_topo(&TopologyConfig::test_small(), 5);
        let mut cfg = PopulationConfig::test_small();
        cfg.hosting_pool_cap = Some(4);
        let (sites, _) = generate(&cfg, &topo, 60, &[], 5);
        use std::collections::HashSet;
        let v4_ases: HashSet<AsId> = sites
            .iter()
            .filter(|s| {
                // CDN-fronted sites pull v4 destinations outside the pools
                s.v4_as == s.v6.as_ref().map_or(s.v4_as, |v| v.dest_as) || s.v6.is_none()
            })
            .map(|s| s.v4_as)
            .collect();
        // capped pools: at most 4 per pool (all/dual/single) plus CDN fronts
        assert!(v4_ases.len() <= 12 + topo.nodes().len() / 100 + 25, "{}", v4_ases.len());
        let origin_ases: HashSet<AsId> =
            sites.iter().filter_map(|s| s.v6.as_ref()).map(|v| v.dest_as).collect();
        // v6 dests: dual pool (≤4) + 3 relays + 3 platforms
        assert!(origin_ases.len() <= 10, "{}", origin_ases.len());
    }

    #[test]
    fn v6_sites_exist_and_live_in_dual_stack_ases() {
        let (topo, sites) = world();
        let dual: Vec<&Site> = sites.iter().filter(|s| s.v6.is_some()).collect();
        assert!(dual.len() > 100, "only {} dual sites", dual.len());
        for s in &dual {
            let v6 = s.v6.as_ref().unwrap();
            assert!(
                topo.node(v6.dest_as).is_dual_stack(),
                "{} v6 dest AS must be dual-stack",
                s.id
            );
        }
    }

    #[test]
    fn top_ranks_adopt_more() {
        // With multiplier 10 the top decile should clearly beat the bottom.
        let (_, sites) = world();
        let half = sites.len() / 2;
        let top = sites[..half].iter().filter(|s| s.v6.is_some()).count() as f64 / half as f64;
        let bottom = sites[half..].iter().filter(|s| s.v6.is_some()).count() as f64 / half as f64;
        assert!(top > bottom, "top {top} !> bottom {bottom}");
    }

    #[test]
    fn dl_mechanisms_present() {
        let (_, sites) = world();
        let dual: Vec<&Site> = sites.iter().filter(|s| s.v6.is_some()).collect();
        let dl = dual.iter().filter(|s| s.same_location() == Some(false)).count();
        let sixto4 = dual.iter().filter(|s| s.v6.as_ref().unwrap().via_6to4).count();
        assert!(dl > 0, "need some DL sites");
        assert!(sixto4 > 0, "need some 6to4 sites");
        // CDN + 6to4 shares are minority
        assert!(dl * 2 < dual.len(), "DL must be a minority");
    }

    #[test]
    fn poor_v6_servers_in_range() {
        let (_, sites) = world();
        let poor: Vec<f64> = sites
            .iter()
            .filter(|s| s.v6.is_some() && s.server.poor_v6())
            .map(|s| s.server.v6_service_factor)
            .collect();
        assert!(!poor.is_empty());
        for f in poor {
            assert!((0.2..0.6).contains(&f));
        }
        // v4-only sites never carry a v6 penalty
        assert!(sites.iter().filter(|s| s.v6.is_none()).all(|s| s.server.v6_service_factor == 1.0));
    }

    #[test]
    fn page_sizes_realistic_and_mostly_identical() {
        let (_, sites) = world();
        for s in &sites {
            assert!((2_000..=800_000).contains(&s.page_bytes_v4));
        }
        let dual: Vec<&Site> = sites.iter().filter(|s| s.v6.is_some()).collect();
        let identical = dual
            .iter()
            .filter(|s| crate::http::pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06))
            .count();
        assert!(
            identical as f64 / dual.len() as f64 > 0.9,
            "the vast majority of sites serve identical pages"
        );
        assert!(identical < dual.len(), "a few sites must differ");
    }

    #[test]
    fn adoption_curve_sampling() {
        let mut rng = derive_rng(1, "curve");
        let curve = vec![(0, 0.2), (10, 0.5), (30, 1.0)];
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            match sample_adoption_week(&mut rng, &curve) {
                0 => counts[0] += 1,
                10 => counts[1] += 1,
                30 => counts[2] += 1,
                w => panic!("unexpected week {w}"),
            }
        }
        assert!((500..700).contains(&counts[0]), "{counts:?}");
        assert!((800..1000).contains(&counts[1]), "{counts:?}");
        assert!((1400..1600).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn empty_curve_publishes_at_week_zero() {
        let mut rng = derive_rng(2, "curve");
        assert_eq!(sample_adoption_week(&mut rng, &[]), 0);
    }

    #[test]
    fn churn_spreads_first_seen_weeks() {
        let (_, sites) = world();
        let initial = sites.iter().filter(|s| s.first_seen_week == 0).count();
        let later = sites.len() - initial;
        assert!(later > 0, "some churn expected");
        assert!(initial > later, "majority present initially");
        assert!(sites.iter().all(|s| s.first_seen_week < 60));
    }

    #[test]
    fn hosting_is_concentrated() {
        let (_, sites) = world();
        use std::collections::HashMap;
        let mut per_as: HashMap<ipv6web_topology::AsId, usize> = HashMap::new();
        for s in sites.iter().filter(|s| s.v6.is_some()) {
            *per_as.entry(s.v6.as_ref().unwrap().dest_as).or_default() += 1;
        }
        let max = per_as.values().max().copied().unwrap_or(0);
        assert!(max >= 10, "Zipf hosting should give some AS ≥10 dual sites, max={max}");
        let _ = Family::V6;
    }
}
