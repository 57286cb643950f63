//! Classification and the per-vantage analysis builder.

use crate::hypotheses::categorize;
use crate::sanitize::{sanitize_site_windows, SanitizeOutcome};
use crate::types::{AnalysisConfig, AsGroup, RemovedSite, SiteClass, SitePerf, VantageAnalysis};
use ipv6web_bgp::BgpTable;
use ipv6web_monitor::MonitorDb;
use ipv6web_web::Site;
use std::collections::BTreeMap;

/// Classifies one site given the vantage point's routing tables.
///
/// Returns `None` when a required route is missing (the site never
/// completed a measurement from here anyway).
pub fn classify_site(site: &Site, table_v4: &BgpTable, table_v6: &BgpTable) -> Option<SiteClass> {
    let v6 = site.v6.as_ref()?;
    if v6.dest_as != site.v4_as {
        return Some(SiteClass::Dl);
    }
    let p4 = table_v4.as_path(site.v4_as)?;
    let p6 = table_v6.as_path(v6.dest_as)?;
    Some(if p4.same_route(p6) { SiteClass::Sp } else { SiteClass::Dp })
}

/// Runs sanitization + classification + AS grouping for one vantage point,
/// producing everything the paper's tables consume.
pub fn analyze_vantage(
    cfg: &AnalysisConfig,
    sites: &[Site],
    db: &MonitorDb,
    table_v4: &BgpTable,
    table_v6: &BgpTable,
) -> VantageAnalysis {
    analyze_vantage_faulted(cfg, sites, db, table_v4, table_v6, &[])
}

/// [`analyze_vantage`] with fault attribution: transition removals whose
/// onset falls inside one of `fault_windows` (inclusive week ranges from
/// the campaign's fault plan) are flagged
/// [`RemovedSite::fault_attributed`], tying the Table 3 ↑/↓ buckets back
/// to injected disruptions. With no windows this is exactly
/// [`analyze_vantage`].
pub fn analyze_vantage_faulted(
    cfg: &AnalysisConfig,
    sites: &[Site],
    db: &MonitorDb,
    table_v4: &BgpTable,
    table_v6: &BgpTable,
    fault_windows: &[(u32, u32)],
) -> VantageAnalysis {
    let mut out = VantageAnalysis {
        vantage: db.vantage.clone(),
        sites_total: 0,
        kept: Vec::new(),
        removed: Vec::new(),
        dest_ases_v4: Default::default(),
        dest_ases_v6: Default::default(),
        crossed_v4: Default::default(),
        crossed_v6: Default::default(),
        sp_groups: BTreeMap::new(),
        dp_groups: BTreeMap::new(),
        dp_v6_paths: BTreeMap::new(),
        good_v6_paths: BTreeMap::new(),
    };

    for (site_id, rec) in db.iter() {
        // candidates: dual-stack sites that entered the performance phase
        let attempted = !rec.samples_v4.is_empty() || rec.unconfident_rounds > 0;
        if rec.dual_since.is_none() || !attempted {
            continue;
        }
        out.sites_total += 1;
        ipv6web_obs::inc("analysis.sites_considered");

        let site = &sites[site_id.index()];
        let class = classify_site(site, table_v4, table_v6);

        match sanitize_site_windows(rec, cfg.min_paired_samples, cfg.tolerance, fault_windows) {
            (SanitizeOutcome::Removed { cause, good_v6_perf }, fault_attributed) => {
                ipv6web_obs::inc("analysis.sites_removed");
                out.removed.push(RemovedSite {
                    site: site_id,
                    cause,
                    class,
                    good_v6_perf,
                    fault_attributed,
                });
            }
            (SanitizeOutcome::Kept { v4_mean, v6_mean }, _) => {
                ipv6web_obs::inc("analysis.sites_kept");
                let Some(class) = class else { continue };
                let v6_dest = site.v6.as_ref().expect("dual site").dest_as;
                let (Some(r4), Some(r6)) = (table_v4.route(site.v4_as), table_v6.route(v6_dest))
                else {
                    continue;
                };
                out.kept.push(SitePerf {
                    site: site_id,
                    class,
                    v4_mean,
                    v6_mean,
                    v4_hops: r4.hops(),
                    v6_hops: r6.hops(),
                    dest_v4: site.v4_as,
                    dest_v6: v6_dest,
                });
                out.dest_ases_v4.insert(site.v4_as);
                out.dest_ases_v6.insert(v6_dest);
                out.crossed_v4.extend(r4.as_path.crossed().iter().copied());
                out.crossed_v6.extend(r6.as_path.crossed().iter().copied());
            }
        }
    }

    // per-destination-AS grouping for SL sites
    let mut groups: BTreeMap<(SiteClass, ipv6web_topology::AsId), Vec<usize>> = BTreeMap::new();
    for (idx, perf) in out.kept.iter().enumerate() {
        if perf.class == SiteClass::Dl {
            continue;
        }
        groups.entry((perf.class, perf.dest_v6)).or_default().push(idx);
    }
    for ((class, dest), site_idx) in groups {
        let members: Vec<&SitePerf> = site_idx.iter().map(|&i| &out.kept[i]).collect();
        let (category, sites_at_zero, v4_mean, v6_mean) = categorize(&members, cfg);
        let group = AsGroup { dest, site_idx, v4_mean, v6_mean, category, sites_at_zero };
        match class {
            SiteClass::Sp => {
                if category == crate::types::AsCategory::Comparable {
                    if let Some(p) = table_v6.as_path(dest) {
                        out.good_v6_paths.insert(dest, p.ases().to_vec());
                    }
                }
                out.sp_groups.insert(dest, group);
            }
            SiteClass::Dp => {
                if let Some(p) = table_v6.as_path(dest) {
                    out.dp_v6_paths.insert(dest, p.ases().to_vec());
                }
                out.dp_groups.insert(dest, group);
            }
            SiteClass::Dl => unreachable!("DL filtered above"),
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::types::AsCategory;
    use ipv6web_bgp::BgpTable;
    use ipv6web_monitor::{
        run_campaign, CampaignConfig, DisturbanceConfig, Disturbances, ProbeContext, VantageKind,
        VantagePoint,
    };
    use ipv6web_netsim::TcpConfig;
    use ipv6web_stats::RelativeCiRule;
    use ipv6web_topology::{generate as gen_topo, AsId, Family, Tier, TopologyConfig};
    use ipv6web_web::{build_zone, population, PopulationConfig};

    /// End-to-end mini campaign reused by classify/hypotheses/table tests.
    pub(crate) struct Campaign {
        #[allow(dead_code)]
        pub topo: ipv6web_topology::Topology,
        pub sites: Vec<Site>,
        pub db: MonitorDb,
        pub table_v4: BgpTable,
        pub table_v6: BgpTable,
    }

    /// One shared campaign for the whole test module (expensive to run).
    pub(crate) fn shared_campaign() -> &'static Campaign {
        static CAMPAIGN: std::sync::OnceLock<Campaign> = std::sync::OnceLock::new();
        CAMPAIGN.get_or_init(|| run_mini_campaign(3))
    }

    pub(crate) fn run_mini_campaign(seed: u64) -> Campaign {
        let topo = gen_topo(&TopologyConfig::test_small(), seed);
        let mut pcfg = PopulationConfig::test_small();
        pcfg.n_sites = 1200;
        let (sites, names) = population::generate(&pcfg, &topo, 26, &[], seed);
        let zone = build_zone(&topo, &sites, names);
        let vantage_as =
            topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
        let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
        dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
        dests.sort();
        dests.dedup();
        let table_v4 = BgpTable::build(&topo, vantage_as, Family::V4, &dests);
        let table_v6 = BgpTable::build(&topo, vantage_as, Family::V6, &dests);
        let disturbances =
            Disturbances::generate(&DisturbanceConfig::paper(), sites.len(), 26, seed);
        let list = ipv6web_alexa_list(&sites);
        let vantage = VantagePoint {
            name: "MiniVP".into(),
            location: "Lab".into(),
            as_id: vantage_as,
            start_week: 0,
            has_as_path: true,
            white_listed: false,
            kind: VantageKind::Academic,
            external_inputs: false,
            stack: ipv6web_xlat::ClientStack::DualStack,
        };
        let ctx = ProbeContext {
            topo: &topo,
            sites: &sites,
            zone: &zone,
            table_v4: &table_v4,
            table_v6: &table_v6,
            disturbances: &disturbances,
            tcp: TcpConfig::paper(),
            ci_rule: RelativeCiRule::paper(),
            identity_threshold: 0.06,
            round_noise_sigma: 0.08,
            seed,
            vantage_name: "MiniVP",
            white_listed: false,
            v6_epoch: None,
            faults: None,
            stack: ipv6web_xlat::ClientStack::DualStack,
            xlat: None,
        };
        let mut ccfg = CampaignConfig::test_small();
        ccfg.total_weeks = 26;
        let db = run_campaign(&ctx, &vantage, &list, &[], |_| 0, &ccfg).expect("valid config");
        Campaign { topo, sites, db, table_v4, table_v6 }
    }

    fn ipv6web_alexa_list(sites: &[Site]) -> ipv6web_alexa::TopList {
        ipv6web_alexa::TopList::from_parts(
            sites.iter().map(|s| (s.id.0, s.rank, s.first_seen_week)),
        )
    }

    #[test]
    fn analysis_splits_classes_and_groups() {
        let c = shared_campaign();
        let a =
            analyze_vantage(&AnalysisConfig::paper(), &c.sites, &c.db, &c.table_v4, &c.table_v6);
        assert!(a.sites_total > 0);
        assert!(!a.kept.is_empty(), "some sites kept");
        assert!(!a.removed.is_empty(), "disturbances must remove some sites");
        let total_classified =
            a.count_of(SiteClass::Dl) + a.count_of(SiteClass::Sp) + a.count_of(SiteClass::Dp);
        assert_eq!(total_classified, a.kept.len(), "every kept site classified");
        assert_eq!(a.sites_total, a.kept.len() + a.removed.len());
        assert!(a.count_of(SiteClass::Dl) > 0, "CDN/6to4 sites exist");
        assert!(!a.sp_groups.is_empty() || !a.dp_groups.is_empty());
    }

    #[test]
    fn sp_sites_have_identical_paths_dp_differ() {
        let c = shared_campaign();
        let a =
            analyze_vantage(&AnalysisConfig::paper(), &c.sites, &c.db, &c.table_v4, &c.table_v6);
        for perf in &a.kept {
            let p4 = c.table_v4.as_path(perf.dest_v4).expect("kept => routed");
            let p6 = c.table_v6.as_path(perf.dest_v6).expect("kept => routed");
            match perf.class {
                SiteClass::Sp => {
                    assert!(p4.same_route(p6), "SP must mean identical paths");
                    assert_eq!(perf.v4_hops, perf.v6_hops);
                    assert_eq!(perf.dest_v4, perf.dest_v6);
                }
                SiteClass::Dp => {
                    assert!(!p4.same_route(p6), "DP must mean different paths");
                    assert_eq!(perf.dest_v4, perf.dest_v6, "DP is same-location");
                }
                SiteClass::Dl => {
                    assert_ne!(perf.dest_v4, perf.dest_v6, "DL is different-location");
                }
            }
        }
    }

    #[test]
    fn groups_cover_all_sl_kept_sites() {
        let c = shared_campaign();
        let a =
            analyze_vantage(&AnalysisConfig::paper(), &c.sites, &c.db, &c.table_v4, &c.table_v6);
        let grouped: usize =
            a.sp_groups.values().chain(a.dp_groups.values()).map(|g| g.site_idx.len()).sum();
        assert_eq!(grouped, a.count_of(SiteClass::Sp) + a.count_of(SiteClass::Dp));
        // group means are averages of their members
        for g in a.sp_groups.values() {
            let v4: f64 = g.site_idx.iter().map(|&i| a.kept[i].v4_mean).sum::<f64>()
                / g.site_idx.len() as f64;
            assert!((g.v4_mean - v4).abs() < 1e-9);
        }
    }

    #[test]
    fn good_paths_only_from_comparable_sp_groups() {
        let c = shared_campaign();
        let a =
            analyze_vantage(&AnalysisConfig::paper(), &c.sites, &c.db, &c.table_v4, &c.table_v6);
        for dest in a.good_v6_paths.keys() {
            let g = &a.sp_groups[dest];
            assert_eq!(g.category, AsCategory::Comparable);
        }
    }

    #[test]
    fn crossed_sets_superset_of_dest_sets() {
        let c = shared_campaign();
        let a =
            analyze_vantage(&AnalysisConfig::paper(), &c.sites, &c.db, &c.table_v4, &c.table_v6);
        for d in &a.dest_ases_v4 {
            assert!(a.crossed_v4.contains(d), "dest {d} must be crossed");
        }
        for d in &a.dest_ases_v6 {
            assert!(a.crossed_v6.contains(d));
        }
        assert!(a.crossed_v4.len() >= a.dest_ases_v4.len());
    }

    #[test]
    fn v6_coverage_smaller_than_v4() {
        let c = shared_campaign();
        let a =
            analyze_vantage(&AnalysisConfig::paper(), &c.sites, &c.db, &c.table_v4, &c.table_v6);
        // Table 2's structural fact: the IPv6 topology is sparser.
        assert!(a.crossed_v6.len() <= a.crossed_v4.len());
    }
}
