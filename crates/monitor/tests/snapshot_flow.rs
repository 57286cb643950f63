//! The central-repository workflow: each vantage point runs its campaign,
//! archives its local database as JSON, and the aggregation site loads and
//! merges them — exactly the paper's "common repository at Penn aggregates
//! the measurement data from the different vantage points".

use ipv6web_alexa::TopList;
use ipv6web_bgp::BgpTable;
use ipv6web_monitor::{
    run_campaign, CampaignConfig, DisturbanceConfig, Disturbances, MonitorDb, ProbeContext,
    VantageKind, VantagePoint,
};
use ipv6web_netsim::TcpConfig;
use ipv6web_stats::RelativeCiRule;
use ipv6web_topology::{generate, AsId, Family, Tier, TopologyConfig};
use ipv6web_web::{build_zone, population, PopulationConfig};

#[test]
fn campaign_snapshot_and_central_merge() {
    let topo = generate(&TopologyConfig::test_small(), 99);
    let mut pcfg = PopulationConfig::test_small();
    pcfg.n_sites = 250;
    let (sites, names) = population::generate(&pcfg, &topo, 10, &[], 99);
    let zone = build_zone(&topo, &sites, names);
    let list = TopList::from_parts(sites.iter().map(|s| (s.id.0, s.rank, s.first_seen_week)));
    let disturbances = Disturbances::generate(&DisturbanceConfig::none(), sites.len(), 10, 99);

    let vantage_ases: Vec<AsId> = topo
        .nodes()
        .iter()
        .filter(|n| n.tier == Tier::Access && n.is_dual_stack())
        .map(|n| n.id)
        .take(2)
        .collect();
    assert_eq!(vantage_ases.len(), 2, "need two vantage points");

    let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
    dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
    dests.sort();
    dests.dedup();

    let dir = std::env::temp_dir().join("ipv6web-snapshot-flow");
    std::fs::create_dir_all(&dir).unwrap();

    let mut archived_paths = Vec::new();
    for (i, &as_id) in vantage_ases.iter().enumerate() {
        let name = format!("VP{i}");
        let t4 = BgpTable::build(&topo, as_id, Family::V4, &dests);
        let t6 = BgpTable::build(&topo, as_id, Family::V6, &dests);
        let vantage = VantagePoint {
            name: name.clone(),
            location: "Lab".into(),
            as_id,
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
            table_v4: &t4,
            table_v6: &t6,
            disturbances: &disturbances,
            tcp: TcpConfig::paper(),
            ci_rule: RelativeCiRule::paper(),
            identity_threshold: 0.06,
            round_noise_sigma: 0.05,
            seed: 99,
            vantage_name: &name,
            white_listed: false,
            v6_epoch: None,
            faults: None,
            stack: ipv6web_xlat::ClientStack::DualStack,
            xlat: None,
        };
        let cfg = CampaignConfig { total_weeks: 10, ipv6_day_rounds: 2 };
        let db = run_campaign(&ctx, &vantage, &list, &[], |_| 0, &cfg).unwrap();
        assert!(!db.is_empty());
        let path = dir.join(format!("{name}.json"));
        db.save_json(&path).unwrap();
        archived_paths.push((path, db));
    }

    // the central repository reloads the archives and merges them
    let mut central = MonitorDb::new("central repository");
    for (path, original) in &archived_paths {
        let loaded = MonitorDb::load_json(path).unwrap();
        assert_eq!(&loaded, original, "archive must round-trip exactly");
        central.merge_samples_from(&loaded);
    }
    assert!(central.len() >= archived_paths[0].1.len());
    // merged sample counts are the per-vantage sums
    let merged_samples: usize = central.iter().map(|(_, r)| r.samples_v4.len()).sum();
    let individual: usize = archived_paths
        .iter()
        .map(|(_, db)| db.iter().map(|(_, r)| r.samples_v4.len()).sum::<usize>())
        .sum();
    assert_eq!(merged_samples, individual);

    for (path, _) in &archived_paths {
        std::fs::remove_file(path).ok();
    }
}
