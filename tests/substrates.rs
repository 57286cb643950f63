//! Cross-crate substrate integration: the pieces must fit together without
//! the full study driver.

use ipv6web::bgp::{routes_to_dest, BgpTable};
use ipv6web::dns::{RecordType, Resolver};
use ipv6web::monitor::{probe_site, Disturbances, ProbeContext, ProbeOutcome};
use ipv6web::netsim::{download_time, traceroute, DataPlane, TcpConfig, TracerouteConfig};
use ipv6web::packet::tunnel::{decapsulate_6in4, encapsulate_6in4};
use ipv6web::packet::{Ipv6Header, UdpHeader};
use ipv6web::stats::{derive_rng, RelativeCiRule};
use ipv6web::topology::{generate, AsId, Family, Tier, TopologyConfig};
use ipv6web::web::{build_zone, population, PopulationConfig};

#[test]
fn dns_query_resolves_into_generated_topology_addresses() {
    let topo = generate(&TopologyConfig::test_small(), 3);
    let (sites, names) = population::generate(&PopulationConfig::test_small(), &topo, 10, &[], 3);
    let zone = build_zone(&topo, &sites, names);
    let mut resolver = Resolver::new();
    let dual = sites
        .iter()
        .find(|s| s.v6.as_ref().is_some_and(|v| v.from_week == 0 && !v.via_6to4))
        .expect("native dual site");
    let name = zone.name_of(dual.name);
    let a = resolver.resolve(&zone, name, RecordType::A, 0).unwrap();
    let aaaa = resolver.resolve(&zone, name, RecordType::Aaaa, 0).unwrap();
    assert_eq!(a.len(), 1);
    assert_eq!(aaaa.len(), 1);
    // the addresses belong to the right ASes
    let ipv6web::dns::RecordData::V4(v4) = a[0].data else { panic!() };
    assert!(topo.node(dual.v4_as).v4_prefix.contains(v4));
    let ipv6web::dns::RecordData::V6(v6) = aaaa[0].data else { panic!() };
    let origin = dual.v6.as_ref().unwrap().dest_as;
    assert!(topo.node(origin).v6.as_ref().unwrap().prefix.contains(v6));
}

/// The resolver — codec round trip, answers by `NameId`, DNS64 synthesis —
/// answers exactly what the authority holds: for every name of a generated
/// zone, both families, at the weeks where the answer can change, on plain
/// and DNS64 resolvers, and again when asked twice; and its statistics
/// count one exchange per query and one NXDOMAIN per query of a missing
/// name.
#[test]
fn resolver_answers_equal_the_authority_across_weeks() {
    use ipv6web::dns::{Answer, RecordData, ResolverStats};
    const WEEKS: u32 = 52;
    let topo = generate(&TopologyConfig::test_small(), 4);
    let (sites, names) =
        population::generate(&PopulationConfig::test_small(), &topo, WEEKS, &[], 4);
    let zone = build_zone(&topo, &sites, names);
    // every interned name, plus names the zone never interned: a trailing-dot
    // form (cold path, but its decoded question is a real name) and misses
    let mut queried: Vec<String> = zone.names().iter().map(|(_, n)| n.to_string()).collect();
    queried.push(format!("{}.", queried[0]));
    queried.extend((0..3).map(|i| format!("missing{i}.web.example")));
    let expected = |name: &str, qtype: RecordType, week: u32, dns64: bool| {
        let canonical = name.trim_end_matches('.');
        let records = zone.query(canonical, qtype, week)?;
        let answer = match records.as_slice() {
            [] => Answer::NODATA,
            [r] => Answer::record(r.data, r.ttl),
            more => panic!("{name}: the authority answered {} records", more.len()),
        };
        if !(dns64 && qtype == RecordType::Aaaa && answer.is_empty()) {
            return Some(answer);
        }
        // RFC 6147: synthesize from the A record
        let a = zone.query(canonical, RecordType::A, week).expect("NODATA implies the name exists");
        let RecordData::V4(v4) = a[0].data else { panic!("A record carries IPv4") };
        Some(Answer::record(RecordData::V6(ipv6web::xlat::synthesize(v4)), a[0].ttl))
    };
    let mut synthesized = 0;
    for dns64 in [false, true] {
        let mut r = if dns64 { Resolver::dns64() } else { Resolver::new() };
        let mut want = ResolverStats::default();
        for name in &queried {
            let from = zone.entry(name.trim_end_matches('.')).map_or(0, |e| e.v6_from_week);
            let mut weeks = vec![0, from.saturating_sub(1), from, WEEKS - 1];
            weeks.sort_unstable();
            weeks.dedup();
            for week in weeks {
                for pass in 0..2 {
                    for qtype in [RecordType::A, RecordType::Aaaa] {
                        let got = r.resolve(&zone, name, qtype, week);
                        let exp = expected(name, qtype, week, dns64);
                        assert_eq!(got, exp, "{name} {qtype:?} week {week} dns64 {dns64}");
                        want.exchanges += 1;
                        want.nxdomain += u64::from(exp.is_none());
                        if dns64 && pass == 0 && qtype == RecordType::Aaaa {
                            synthesized += got.is_some_and(|a| {
                                let RecordData::V6(v6) = a.first().expect("AAAA answer").data
                                else {
                                    panic!("AAAA carries IPv6")
                                };
                                ipv6web::xlat::is_synthesized(v6)
                            }) as u32;
                        }
                    }
                }
            }
        }
        assert_eq!(r.stats(), want, "dns64 {dns64}");
    }
    assert!(synthesized > 0, "the zone has v4-only names to synthesize for");
}

#[test]
fn bgp_route_feeds_dataplane_feeds_tcp_model() {
    let topo = generate(&TopologyConfig::test_small(), 5);
    let vantage =
        topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
    let dest =
        topo.nodes().iter().find(|n| n.tier == Tier::Content && n.is_dual_stack()).unwrap().id;
    for family in [Family::V4, Family::V6] {
        let table = BgpTable::build(&topo, vantage, family, &[dest]);
        let Some(route) = table.route(dest) else {
            assert_eq!(family, Family::V6, "v4 always routes");
            continue;
        };
        let metrics = DataPlane::new(&topo).metrics(route, family);
        assert!(metrics.rtt_ms > 0.0);
        let mut rng = derive_rng(5, "subst");
        let out = download_time(&mut rng, 50_000, &metrics, 20.0, &TcpConfig::paper());
        assert!(out.speed_kbps > 0.5 && out.speed_kbps < 5_000.0, "{}", out.speed_kbps);
    }
}

#[test]
fn tunneled_probe_packet_survives_encapsulation() {
    // an IPv6 traceroute probe, 6in4-encapsulated across a v4 island, must
    // decode back to the identical inner packet
    let src6 = "2400:1::1".parse().unwrap();
    let dst6 = "2400:2::1".parse().unwrap();
    let udp = UdpHeader::new(33434, 33440, 8);
    let payload = udp.to_vec_v6(src6, dst6, &[0u8; 8]);
    let hdr = Ipv6Header::new(src6, dst6, 17, payload.len() as u16);
    let mut inner = hdr.to_vec();
    inner.extend_from_slice(&payload);

    let entry = "192.0.2.1".parse().unwrap();
    let exit = "198.51.100.1".parse().unwrap();
    let wire = encapsulate_6in4(entry, exit, &inner);
    let (outer, recovered) = decapsulate_6in4(&wire).unwrap();
    assert_eq!(outer.src, entry);
    assert_eq!(recovered, &inner[..]);
    let parsed = Ipv6Header::decode(&mut &recovered[..]).unwrap();
    assert_eq!(parsed, hdr);
    let (uh, _) = UdpHeader::decode_v6(&recovered[40..], src6, dst6).unwrap();
    assert_eq!(uh, udp);
}

#[test]
fn traceroute_hop_rtts_consistent_with_path_metrics() {
    let topo = generate(&TopologyConfig::test_small(), 7);
    let vantage = topo.nodes().iter().find(|n| n.tier == Tier::Access).unwrap().id;
    let dests: Vec<AsId> =
        topo.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).take(5).collect();
    let table = BgpTable::build(&topo, vantage, Family::V4, &dests);
    let cfg = TracerouteConfig {
        hop_silence_prob: 0.0,
        dest_filter_prob: 0.0,
        probes_per_hop: 1,
        max_ttl: 30,
    };
    let mut rng = derive_rng(7, "subst-tr");
    for route in table.iter() {
        let tr = traceroute(&mut rng, &topo, route, Family::V4, &cfg);
        assert!(tr.completed);
        let metrics = DataPlane::new(&topo).metrics(route, Family::V4);
        let last_rtt = tr.hops.last().unwrap().rtt_ms.unwrap();
        // the last hop's RTT approximates the path RTT (±15% jitter)
        assert!(
            (last_rtt - metrics.rtt_ms).abs() / metrics.rtt_ms < 0.20,
            "traceroute RTT {last_rtt:.1} vs path {:.1}",
            metrics.rtt_ms
        );
    }
}

#[test]
fn probe_pipeline_runs_outside_the_campaign_driver() {
    let topo = generate(&TopologyConfig::test_small(), 9);
    let (sites, names) = population::generate(&PopulationConfig::test_small(), &topo, 10, &[], 9);
    let zone = build_zone(&topo, &sites, names);
    let vantage =
        topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
    let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
    dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
    dests.sort();
    dests.dedup();
    let t4 = BgpTable::build(&topo, vantage, Family::V4, &dests);
    let t6 = BgpTable::build(&topo, vantage, Family::V6, &dests);
    let disturbances = Disturbances::default();
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
        seed: 9,
        vantage_name: "adhoc",
        white_listed: false,
        v6_epoch: None,
        faults: None,
        stack: ipv6web::xlat::ClientStack::DualStack,
        xlat: None,
    };
    let mut resolver = Resolver::new();
    let mut measured = 0;
    let mut v4_only = 0;
    for site in &sites {
        match probe_site(&ctx, &mut resolver, site.id, 5, 0, false) {
            ProbeOutcome::Measured { v4, v6 } => {
                measured += 1;
                assert!(v4.speed_kbps > 0.0 && v6.speed_kbps > 0.0);
            }
            ProbeOutcome::V4Only => v4_only += 1,
            _ => {}
        }
    }
    assert!(measured > 0, "some dual sites measured");
    assert!(v4_only > measured, "2011: v4-only dominates");
}

#[test]
fn valley_free_holds_for_both_families_at_scale() {
    let topo = generate(&TopologyConfig::scaled(600), 21);
    for family in [Family::V4, Family::V6] {
        let dests: Vec<AsId> = topo
            .nodes()
            .iter()
            .filter(|n| n.tier == Tier::Content && (family == Family::V4 || n.is_dual_stack()))
            .map(|n| n.id)
            .take(10)
            .collect();
        for dest in dests {
            let routes = routes_to_dest(&topo, dest, family);
            for n in topo.nodes() {
                if let Some(path) = routes.as_path(n.id) {
                    assert!(
                        ipv6web::bgp::compute::is_valley_free(&topo, &path, family),
                        "{family}: {path}"
                    );
                }
            }
        }
    }
}
