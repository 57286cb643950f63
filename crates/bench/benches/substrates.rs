//! Microbenchmarks of the substrates the study is built on: wire codecs,
//! route computation, the TCP model, DNS resolution, topology generation,
//! and one weekly round of end-to-end site probes.

use criterion::{criterion_group, criterion_main, Criterion};
use ipv6web_bgp::{routes_to_dest, BgpTable};
use ipv6web_core::{Scenario, World};
use ipv6web_dns::{NameId, RecordType, Resolver, ZoneDb, ZoneEntry};
use ipv6web_monitor::{run_campaign, CampaignConfig};
use ipv6web_netsim::{download_time, DataPlane, TcpConfig};
use ipv6web_packet::{Icmpv6Message, Ipv4Header, Ipv6Header, TcpHeader, UdpHeader};
use ipv6web_stats::{derive_rng, RngLabel};
use ipv6web_topology::{generate, AsId, Family, Tier, TopologyConfig};
use rand::RngCore;
use std::hint::black_box;
use std::net::{Ipv4Addr, Ipv6Addr};

fn bench_packet(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet");
    let v4 = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 6, 1000);
    g.bench_function("ipv4_encode", |b| b.iter(|| black_box(v4.to_vec())));
    let wire4 = v4.to_vec();
    g.bench_function("ipv4_decode", |b| {
        b.iter(|| black_box(Ipv4Header::decode(&mut &wire4[..]).unwrap()))
    });
    let v6 =
        Ipv6Header::new("2001:db8::1".parse().unwrap(), "2001:db8::2".parse().unwrap(), 6, 1000);
    g.bench_function("ipv6_encode", |b| b.iter(|| black_box(v6.to_vec())));
    let s6: Ipv6Addr = "2001:db8::1".parse().unwrap();
    let d6: Ipv6Addr = "2001:db8::2".parse().unwrap();
    let icmp = Icmpv6Message::echo_request(1, 1, vec![0u8; 56]);
    g.bench_function("icmpv6_echo_roundtrip", |b| {
        b.iter(|| {
            let wire = icmp.to_vec(s6, d6);
            black_box(Icmpv6Message::decode(&wire, s6, d6).unwrap())
        })
    });
    let tcp = TcpHeader::syn(49152, 80, 1, 1460);
    let payload = vec![0u8; 512];
    g.bench_function("tcp_segment_roundtrip_v4", |b| {
        b.iter(|| {
            let wire =
                tcp.to_vec_v4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), &payload);
            let (hdr, _) =
                TcpHeader::decode_v4(&wire, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
                    .unwrap();
            black_box(hdr)
        })
    });
    let udp = UdpHeader::new(33434, 33435, 8);
    g.bench_function("udp_encode_v6", |b| b.iter(|| black_box(udp.to_vec_v6(s6, d6, &[0u8; 8]))));
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let topo = generate(&TopologyConfig::scaled(1000), 5);
    let dest = topo.nodes().iter().find(|n| n.tier == Tier::Content).unwrap().id;
    let vantage = topo.nodes().iter().find(|n| n.tier == Tier::Access).unwrap().id;
    let dests: Vec<AsId> =
        topo.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).take(50).collect();
    let big = generate(&TopologyConfig::scaled(5000), 42);
    let big_dest = big.nodes().iter().find(|n| n.tier == Tier::Content).unwrap().id;
    let mut g = c.benchmark_group("bgp");
    g.bench_function("routes_to_dest_1k_ases", |b| {
        b.iter(|| black_box(routes_to_dest(&topo, dest, Family::V4)))
    });
    g.bench_function("routes_to_dest_5k_ases", |b| {
        b.iter(|| black_box(routes_to_dest(&big, big_dest, Family::V4)))
    });
    g.sample_size(10);
    g.bench_function("table_build_50_dests", |b| {
        b.iter(|| black_box(BgpTable::build(&topo, vantage, Family::V4, &dests)))
    });
    g.finish();

    c.bench_function("topology_generate_1k", |b| {
        b.iter(|| black_box(generate(&TopologyConfig::scaled(1000), 5)))
    });
    let mut g = c.benchmark_group("topology");
    g.sample_size(10);
    g.bench_function("topology_generate_5k", |b| {
        b.iter(|| black_box(generate(&TopologyConfig::scaled(5000), 42)))
    });
    g.finish();
}

fn bench_dataplane(c: &mut Criterion) {
    let topo = generate(&TopologyConfig::test_small(), 9);
    let vantage =
        topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
    let dests: Vec<AsId> =
        topo.nodes().iter().filter(|n| n.tier == Tier::Content).map(|n| n.id).take(10).collect();
    let table = BgpTable::build(&topo, vantage, Family::V4, &dests);
    let route = table.iter().next().unwrap();
    let dp = DataPlane::new(&topo);
    c.bench_function("path_metrics", |b| b.iter(|| black_box(dp.metrics(route, Family::V4))));

    let metrics = dp.metrics(route, Family::V4);
    let cfg = TcpConfig::paper();
    let mut rng = derive_rng(1, "bench");
    c.bench_function("tcp_download_60kB", |b| {
        b.iter(|| black_box(download_time(&mut rng, 60_000, &metrics, 20.0, &cfg)))
    });
}

fn bench_dns(c: &mut Criterion) {
    let mut zone = ZoneDb::new();
    let mut insert = |name: String, i: u32, v6: Option<Ipv6Addr>| {
        let v4 = Ipv4Addr::new(16, (i / 256) as u8, (i % 256) as u8, 1);
        zone.insert(name, ZoneEntry { v4, v6, v6_from_week: 0, ttl: 300 })
    };
    let v6 = Some("2400:1::1".parse().unwrap());
    let dual: Vec<NameId> =
        (0..1000).map(|i| insert(format!("site{i}.web.example"), i, v6)).collect();
    let v4_only: Vec<NameId> =
        (0..1000).map(|i| insert(format!("v4only{i}.web.example"), i, None)).collect();
    let mut i = 0usize;
    // The probe's path: a lookup by interned id over rotating names.
    let mut resolver = Resolver::new();
    c.bench_function("dns_resolve_miss", |b| {
        b.iter(|| {
            i += 1;
            black_box(resolver.resolve_id(&zone, dual[i % 1000], RecordType::Aaaa, 10))
        })
    });
    // The path that keeps the wire codec: a DNS64 resolver's AAAA lookup on
    // a v4-only name, answered by synthesis.
    let mut dns64 = Resolver::dns64();
    c.bench_function("dns_resolve_dns64_aaaa", |b| {
        b.iter(|| {
            i += 1;
            black_box(dns64.resolve_id(&zone, v4_only[i % 1000], RecordType::Aaaa, 10))
        })
    });
}

/// Deriving a probe's stream and reading from it: a probe that reaches its
/// downloads derives the stream and discards its first `u64`, so the
/// first-read cost is paid once per such probe (a probe that ends before
/// its downloads derives nothing).
fn bench_rng(c: &mut Criterion) {
    // the probe's label shape, "{vantage}:probe:{week}:{salt}:{site}"
    let label = |site: u32| {
        RngLabel::new()
            .push_str(black_box("Penn"))
            .push_str(":probe:")
            .push_u32(black_box(30))
            .push_str(":")
            .push_u32(black_box(0))
            .push_str(":")
            .push_u32(site)
    };
    let mut site = 0u32;
    c.bench_function("rng_derive_first_u64", |b| {
        b.iter(|| {
            site = site.wrapping_add(1);
            black_box(label(site).rng(black_box(42)).next_u64())
        })
    });
    c.bench_function("rng_derive_64_words", |b| {
        b.iter(|| {
            site = site.wrapping_add(1);
            let mut rng = label(site).rng(black_box(42));
            black_box((0..64).fold(0u32, |acc, _| acc ^ rng.next_u32()))
        })
    });
}

/// One weekly round of vantage 0 at its start week through `run_campaign`:
/// list ingest, the shuffled order, every probe and the database updates.
/// `internet-smoke`'s 42,219 sites outgrow the caches; `panel`'s 706 stay
/// resident.
fn bench_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("round");
    g.sample_size(10);
    for (name, scenario) in [
        ("round_internet_smoke", Scenario::internet_smoke(42)),
        ("round_panel", Scenario::panel(42)),
    ] {
        let world = World::build(&scenario);
        let vantage = &world.vantages[0];
        let ctx = world.probe_ctx(0, None);
        let first_seen = |id: u32| world.sites[id as usize].first_seen_week;
        let cfg = CampaignConfig { total_weeks: vantage.start_week + 1, ..scenario.campaign };
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    run_campaign(&ctx, vantage, &world.list, &world.tail_ids, first_seen, &cfg)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_packet, bench_routing, bench_dataplane, bench_dns, bench_rng, bench_round
}
criterion_main!(benches);
