//! The layers inside a probe, measured on a deterministic sample of the
//! study's own probes.
//!
//! The sample is whole weekly rounds, each probed in its campaign order
//! with one resolver, as the campaign does. Every probe runs through
//! `probe_site` once, timed on its own (latency by outcome class); then
//! each round runs again with obs counters off and with them on, timed as
//! a whole (their cost per probe). Then the public calls a probe makes are
//! replayed on the same inputs and timed in batches, since one
//! `Instant::now()` + `elapsed()` pair costs about as much as a route
//! lookup: `derive_rng` with the probe's label, `Resolver::resolve`,
//! `BgpTable::route`, `DataPlane::metrics`, the HTTP request and
//! response-header build and parse, and the download/CI loop
//! (`download_time` + `RelativeCiRule::decide`).

use crate::probes::ProbeKey;
use ipv6web_bgp::{BgpTable, RouteRef};
use ipv6web_core::World;
use ipv6web_dns::{DnsError, RecordType, Resolver};
use ipv6web_faults::DnsFaultKind;
use ipv6web_monitor::{probe_site, ProbeContext, ProbeOutcome};
use ipv6web_netsim::{download_time, translated_metrics, DataPlane, PathMetrics};
use ipv6web_stats::ci::SamplingDecision;
use ipv6web_stats::{derive_rng, lognormal, StudyRng, Welford};
use ipv6web_topology::{Family, Tier};
use ipv6web_web::{build_request, build_response_header, parse_response_len, Site, SiteId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Probes per timed batch of sub-calls.
const BATCH: usize = 64;

/// `probe_site` latency of one outcome class.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassLatency {
    /// `v4_only`, `measured` or `other`.
    pub class: String,
    /// Sampled probes in the class.
    pub count: u64,
    /// Median latency with obs counters off, ns.
    pub p50_ns: f64,
    /// 99th-percentile latency with obs counters off, ns.
    pub p99_ns: f64,
    /// Mean latency with obs counters off, ns.
    pub mean_ns: f64,
}

/// Per-call costs inside a probe, from the sample.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Replay {
    /// Sampled probes.
    pub sampled: u64,
    /// Cost of one `Instant::now()` + `elapsed()` pair, ns; subtracted
    /// from each individually timed probe.
    pub timer_ns: f64,
    /// Latency by outcome class.
    pub classes: Vec<ClassLatency>,
    /// `probe_site` time with obs counters on over the time with them off,
    /// on the same (warm) rounds.
    pub obs_factor: f64,
    /// `derive_rng` with the probe's label, ns per probe.
    pub rng_derive_ns: f64,
    /// `Resolver::resolve`, ns per lookup.
    pub resolve_ns: f64,
    /// `BgpTable::route`, ns per lookup.
    pub route_lookup_ns: f64,
    /// `DataPlane::metrics`, ns per call.
    pub path_metrics_ns: f64,
    /// Request and response-header build plus parse, ns per probe.
    pub http_ns: f64,
    /// `download_time`, ns per download.
    pub download_ns: f64,
    /// `RelativeCiRule::decide`, ns per decision.
    pub ci_decide_ns: f64,
    /// Replayed downloads whose count differed from the probe's own
    /// sample (checked on fault-free probes only; must be 0).
    pub download_mismatches: u64,
}

/// Outcome class names, in report order.
pub const CLASSES: [&str; 3] = ["v4_only", "measured", "other"];

fn class_of(out: &ProbeOutcome) -> usize {
    match out {
        ProbeOutcome::V4Only => 0,
        ProbeOutcome::Measured { .. } => 1,
        _ => 2,
    }
}

/// The resolver a round on this vantage uses.
fn resolver_for(ctx: &ProbeContext<'_>) -> Resolver {
    if ctx.stack.translates_v4() {
        Resolver::dns64()
    } else {
        Resolver::new()
    }
}

/// The v6 table a probe in `week` routes with: the latest epoch that has
/// arrived, else the week-0 table.
fn v6_table_at<'a>(ctx: &ProbeContext<'a>, week: u32) -> &'a BgpTable {
    match ctx.faults {
        Some(f) => f
            .v6_epochs
            .iter()
            .rev()
            .find(|(epoch_week, _)| week >= *epoch_week)
            .map_or(ctx.table_v6, |(_, late)| *late),
        None => match ctx.v6_epoch {
            Some((epoch_week, late)) if week >= epoch_week => late,
            _ => ctx.table_v6,
        },
    }
}

fn label(ctx: &ProbeContext<'_>, key: &ProbeKey) -> String {
    format!("{}:probe:{}:{}:{}", ctx.vantage_name, key.week, 0, key.site)
}

fn dns_error_of(kind: DnsFaultKind) -> DnsError {
    match kind {
        DnsFaultKind::ServFail => DnsError::ServFail,
        DnsFaultKind::Timeout => DnsError::Timeout,
        DnsFaultKind::Truncated => DnsError::Truncated,
    }
}

fn median_ns(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0) as f64
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// Cost of one timer read pair, ns (median of many).
pub fn timer_cost_ns() -> f64 {
    let v: Vec<u64> = (0..4001)
        .map(|_| {
            let t = Instant::now();
            black_box(t).elapsed().as_nanos() as u64
        })
        .collect();
    median_ns(v)
}

/// What one sampled probe needs for the sub-call replay.
struct Prepared<'w> {
    key: ProbeKey,
    /// Whether the probe got past DNS to its route lookups.
    routed: bool,
    /// The probe's accepted download counts `(v4, v6)`, when measured.
    downloads: Option<(u32, u32)>,
    now_s: u64,
    /// The probe's RNG after its last draw before the downloads.
    dl_rng: Option<StudyRng>,
    /// `(table, destination, family)` of each route lookup it makes.
    lookups: Vec<(&'w BgpTable, ipv6web_topology::AsId, Family)>,
    /// Resolved routes, in `lookups` order.
    routes: Vec<(RouteRef<'w>, Family)>,
}

/// Runs the replay over `sample` (ordered by vantage, then week).
pub fn replay(world: &World, sample: &[ProbeKey]) -> Replay {
    let timer_ns = timer_cost_ns();
    let faults: Vec<_> = (0..world.vantages.len()).map(|i| world.probe_faults(i)).collect();
    let ctxs: Vec<ProbeContext<'_>> =
        (0..world.vantages.len()).map(|i| world.probe_ctx(i, faults[i].as_ref())).collect();
    // (vantage, week) groups: one resolver per round, as in a campaign
    let groups = group_bounds(sample);

    // --- probe_site: each probe timed once, the rounds fanned out over the
    // workload's threads as its campaigns are, so the latencies carry the
    // same contention
    let was_on = ipv6web_obs::enabled();
    ipv6web_obs::disable();
    let per_round = ipv6web_par::par_map(&groups, |_, &(lo, hi)| {
        let faults = world.probe_faults(sample[lo].vantage);
        let ctx = world.probe_ctx(sample[lo].vantage, faults.as_ref());
        let mut resolver = resolver_for(&ctx);
        let probe = |key: &ProbeKey| {
            let t = Instant::now();
            let out = probe_site(&ctx, &mut resolver, SiteId(key.site), key.week, 0, false);
            ((t.elapsed().as_nanos() as f64 - timer_ns).max(0.0) as u64, out)
        };
        sample[lo..hi].iter().map(probe).collect::<Vec<_>>()
    });
    let mut lat: [Vec<u64>; 3] = Default::default();
    let mut prepared: Vec<Prepared<'_>> = Vec::with_capacity(sample.len());
    for (key, (dt, out)) in sample.iter().zip(per_round.into_iter().flatten()) {
        lat[class_of(&out)].push(dt);
        let downloads = match &out {
            ProbeOutcome::Measured { v4, v6 } => Some((v4.downloads, v6.downloads)),
            _ => None,
        };
        prepared.push(Prepared {
            key: *key,
            routed: !matches!(
                out,
                ProbeOutcome::V4Only | ProbeOutcome::NxDomain | ProbeOutcome::DnsFailure
            ),
            downloads,
            now_s: 0,
            dl_rng: None,
            lookups: Vec::new(),
            routes: Vec::new(),
        });
    }
    // obs counters off against on, round by round, alternating which goes
    // first so that neither drift nor a warmer second pass favours a side
    let (mut off_ns, mut on_ns) = (0u64, 0u64);
    for (g, &(lo, hi)) in groups.iter().enumerate() {
        let ctx = &ctxs[sample[lo].vantage];
        for on in [g % 2 == 1, g % 2 == 0] {
            if on {
                ipv6web_obs::enable();
            } else {
                ipv6web_obs::disable();
            }
            let mut resolver = resolver_for(ctx);
            let t = Instant::now();
            for key in &sample[lo..hi] {
                black_box(probe_site(ctx, &mut resolver, SiteId(key.site), key.week, 0, false));
            }
            let dt = t.elapsed().as_nanos() as u64;
            if on {
                on_ns += dt;
            } else {
                off_ns += dt;
            }
        }
    }
    if was_on {
        ipv6web_obs::enable();
    } else {
        ipv6web_obs::disable();
    }
    let classes = CLASSES
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let mut v = std::mem::take(&mut lat[c]);
            v.sort_unstable();
            ClassLatency {
                class: name.to_string(),
                count: v.len() as u64,
                p50_ns: percentile(&v, 0.5),
                p99_ns: percentile(&v, 0.99),
                mean_ns: if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<u64>() as f64 / v.len() as f64
                },
            }
        })
        .collect();

    // --- inputs for the sub-call replay (untimed) --------------------------
    let mut download_mismatches = 0u64;
    for p in &mut prepared {
        let ctx = &ctxs[p.key.vantage];
        let site = &ctx.sites[p.key.site as usize];
        let mut rng = derive_rng(ctx.seed, &label(ctx, &p.key));
        p.now_s = u64::from(p.key.week) * 604_800 + rng.gen_range(0..600_000);
        // probes past the DNS phase route both families
        if p.routed {
            let v6_table = v6_table_at(ctx, p.key.week);
            if ctx.stack.translates_v4() {
                if let Some(x) = ctx.xlat {
                    if let Some(&gw) = x.pref.first() {
                        p.lookups.push((v6_table, x.wiring.gateways[gw], Family::V6));
                        p.lookups.push((&x.wiring.tables[gw], site.v4_as, Family::V4));
                    }
                }
            } else {
                p.lookups.push((ctx.table_v4, site.v4_as, Family::V4));
            }
            if let Some(v6) = &site.v6 {
                p.lookups.push((v6_table, v6.dest_as, Family::V6));
            }
            p.routes = p
                .lookups
                .iter()
                .filter_map(|&(t, dest, fam)| t.route(dest).map(|r| (r, fam)))
                .collect();
        }
        if let Some((n4, n6)) = p.downloads {
            let _ = lognormal(&mut rng, 1.0, ctx.round_noise_sigma);
            p.dl_rng = Some(rng.clone());
            if ctx.faults.is_none() {
                let (got4, got6) = download_counts(ctx, site, &p.routes, rng);
                if (got4, got6) != (n4, n6) {
                    download_mismatches += 1;
                }
            }
        }
    }

    // --- batched sub-calls, obs off ----------------------------------------
    let dp = DataPlane::new(&world.topo);
    let mut rng_ns = 0u64;
    let mut rng_calls = 0u64;
    for chunk in prepared.chunks(BATCH) {
        let t = Instant::now();
        for p in chunk {
            let ctx = &ctxs[p.key.vantage];
            black_box(derive_rng(ctx.seed, &label(ctx, &p.key)));
        }
        rng_ns += t.elapsed().as_nanos() as u64;
        rng_calls += chunk.len() as u64;
    }

    let mut resolvers: Vec<Resolver> =
        groups.iter().map(|&(lo, _)| resolver_for(&ctxs[sample[lo].vantage])).collect();
    let group_of: Vec<usize> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, &(lo, hi))| std::iter::repeat_n(g, hi - lo))
        .collect();
    // the faults each lookup meets on its first attempt, decided up front
    let dns_faults: Vec<[Option<DnsError>; 2]> = prepared
        .iter()
        .map(|p| {
            let ctx = &ctxs[p.key.vantage];
            let fault = |q: &str| {
                ctx.faults.and_then(|f| {
                    f.injector
                        .dns_fault(ctx.vantage_name, p.key.site, q, p.key.week, 0, 0)
                        .map(dns_error_of)
                })
            };
            [fault("A"), fault("AAAA")]
        })
        .collect();
    let mut dns_ns = 0u64;
    let mut dns_calls = 0u64;
    for (ci, chunk) in prepared.chunks(BATCH).enumerate() {
        let base = ci * BATCH;
        let t = Instant::now();
        for (j, p) in chunk.iter().enumerate() {
            let ctx = &ctxs[p.key.vantage];
            let name = ctx.zone.name_of(ctx.sites[p.key.site as usize].name);
            let resolver = &mut resolvers[group_of[base + j]];
            let [fa, faaaa] = dns_faults[base + j];
            let a =
                resolver.resolve_faulted(ctx.zone, name, RecordType::A, p.key.week, p.now_s, fa);
            dns_calls += 1;
            if matches!(a, Ok(Some(_))) {
                let _ = black_box(resolver.resolve_faulted(
                    ctx.zone,
                    name,
                    RecordType::Aaaa,
                    p.key.week,
                    p.now_s,
                    faaaa,
                ));
                dns_calls += 1;
            }
            let _ = black_box(a);
        }
        dns_ns += t.elapsed().as_nanos() as u64;
    }

    let routed: Vec<&Prepared<'_>> = prepared.iter().filter(|p| !p.lookups.is_empty()).collect();
    let (mut route_ns, mut route_calls) = (0u64, 0u64);
    let (mut metrics_ns, mut metrics_calls) = (0u64, 0u64);
    let (mut http_ns, mut http_calls) = (0u64, 0u64);
    for chunk in routed.chunks(BATCH) {
        let t = Instant::now();
        for p in chunk {
            for &(table, dest, _) in &p.lookups {
                black_box(table.route(black_box(dest)));
            }
        }
        route_ns += t.elapsed().as_nanos() as u64;
        route_calls += chunk.iter().map(|p| p.lookups.len() as u64).sum::<u64>();

        let t = Instant::now();
        for p in chunk {
            for &(route, fam) in &p.routes {
                black_box(dp.metrics(route, fam));
            }
        }
        metrics_ns += t.elapsed().as_nanos() as u64;
        metrics_calls += chunk.iter().map(|p| p.routes.len() as u64).sum::<u64>();

        let t = Instant::now();
        for p in chunk {
            let ctx = &ctxs[p.key.vantage];
            let site = &ctx.sites[p.key.site as usize];
            let req = build_request(ctx.zone.name_of(site.name));
            let r4 = build_response_header(site.page_bytes(Family::V4) as usize);
            let r6 = build_response_header(site.page_bytes(Family::V6) as usize);
            black_box((parse_response_len(&r4), parse_response_len(&r6), req));
        }
        http_ns += t.elapsed().as_nanos() as u64;
        http_calls += chunk.len() as u64;
    }

    // the download/CI loop on measured probes: first the downloads with
    // the probe's own RNG stream, then the decisions on their times
    let measured: Vec<&Prepared<'_>> = prepared.iter().filter(|p| p.dl_rng.is_some()).collect();
    let plans: Vec<[(u64, PathMetrics, f64, u32); 2]> = measured
        .iter()
        .map(|p| {
            let ctx = &ctxs[p.key.vantage];
            let site = &ctx.sites[p.key.site as usize];
            let (n4, n6) = p.downloads.expect("measured");
            let [e4, e6] = effective(ctx, site, &p.routes);
            [(e4.0, e4.1, e4.2, n4), (e6.0, e6.1, e6.2, n6)]
        })
        .collect();
    let (mut dl_ns, mut dl_calls) = (0u64, 0u64);
    let mut times: Vec<Vec<f64>> = Vec::with_capacity(measured.len() * 2);
    for (chunk_p, chunk_plan) in measured.chunks(BATCH).zip(plans.chunks(BATCH)) {
        let mut chunk_times: Vec<Vec<f64>> = Vec::with_capacity(chunk_p.len() * 2);
        let t = Instant::now();
        for (p, plan) in chunk_p.iter().zip(chunk_plan) {
            let ctx = &ctxs[p.key.vantage];
            let mut rng = p.dl_rng.clone().expect("measured");
            for &(bytes, eff, think, n) in plan {
                let mut v = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    v.push(download_time(&mut rng, bytes, &eff, think, &ctx.tcp).time_s);
                }
                chunk_times.push(v);
            }
        }
        dl_ns += t.elapsed().as_nanos() as u64;
        dl_calls += chunk_times.iter().map(|v| v.len() as u64).sum::<u64>();
        times.extend(chunk_times);
    }
    let (mut decide_ns, mut decide_calls) = (0u64, 0u64);
    let rule = ctxs.first().map(|c| c.ci_rule);
    if let Some(rule) = rule {
        for chunk in times.chunks(BATCH) {
            let t = Instant::now();
            for v in chunk {
                let mut w = Welford::new();
                for &x in v {
                    w.push(x);
                    black_box(rule.decide(&w));
                }
            }
            decide_ns += t.elapsed().as_nanos() as u64;
            decide_calls += chunk.iter().map(|v| v.len() as u64).sum::<u64>();
        }
    }

    let per = |ns: u64, calls: u64| if calls == 0 { 0.0 } else { ns as f64 / calls as f64 };
    Replay {
        sampled: sample.len() as u64,
        timer_ns,
        classes,
        obs_factor: if off_ns == 0 { 1.0 } else { on_ns as f64 / off_ns as f64 },
        rng_derive_ns: per(rng_ns, rng_calls),
        resolve_ns: per(dns_ns, dns_calls),
        route_lookup_ns: per(route_ns, route_calls),
        path_metrics_ns: per(metrics_ns, metrics_calls),
        http_ns: per(http_ns, http_calls),
        download_ns: per(dl_ns, dl_calls),
        ci_decide_ns: per(decide_ns, decide_calls),
        download_mismatches,
    }
}

/// `(bytes, effective path, server think ms)` of each family's downloads,
/// computed the way a probe's measure step does from its routes (`routes`
/// in lookup order: the v4 slot's route or its two translated legs, then
/// the v6 route).
fn effective(
    ctx: &ProbeContext<'_>,
    site: &Site,
    routes: &[(RouteRef<'_>, Family)],
) -> [(u64, PathMetrics, f64); 2] {
    let dp = DataPlane::new(ctx.topo);
    let (m4, r6) = match (ctx.stack.translates_v4(), ctx.xlat, routes) {
        (true, Some(x), [(leg6, _), (leg4, _), (r6, _)]) => {
            let gw = x.pref[0];
            let mut m = translated_metrics(
                &dp.metrics(*leg6, Family::V6),
                &dp.metrics(*leg4, Family::V4),
                &x.wiring.costs[gw],
            );
            if ctx.stack.has_clat() {
                m.rtt_ms += 2.0 * x.clat_ms;
            }
            (m, *r6)
        }
        (_, _, [(r4, _), (r6, _)]) => (dp.metrics(*r4, Family::V4), *r6),
        _ => unreachable!("measured probes route both families"),
    };
    let m6 = dp.metrics(r6, Family::V6);
    let v4_via_cdn = ctx.topo.node(site.v4_as).tier == Tier::Cdn;
    let v6_factor = site.server.v6_service_factor;
    let (cap4, think4) =
        if v4_via_cdn { (8_000.0, 5.0) } else { (site.server.rate_cap_kbps, site.server.think_ms) };
    let extra_rtt6 = site.v6.as_ref().map_or(0.0, |v| 2.0 * v.extra_v6_rtt_ms);
    let eff4 = PathMetrics { bottleneck_kbps: m4.bottleneck_kbps.min(cap4), ..m4 };
    let eff6 = PathMetrics {
        bottleneck_kbps: m6.bottleneck_kbps.min(site.server.rate_cap_kbps * v6_factor),
        rtt_ms: m6.rtt_ms + extra_rtt6,
        ..m6
    };
    [
        (site.page_bytes(Family::V4), eff4, think4),
        (site.page_bytes(Family::V6), eff6, site.server.think_ms / v6_factor),
    ]
}

/// Downloads each family takes until the CI rule stops, from the probe's
/// RNG as it stands before its first download.
fn download_counts(
    ctx: &ProbeContext<'_>,
    site: &Site,
    routes: &[(RouteRef<'_>, Family)],
    mut rng: StudyRng,
) -> (u32, u32) {
    let mut counts = [0u32; 2];
    for (slot, (bytes, eff, think)) in effective(ctx, site, routes).into_iter().enumerate() {
        let mut w = Welford::new();
        loop {
            w.push(download_time(&mut rng, bytes, &eff, think, &ctx.tcp).time_s);
            counts[slot] += 1;
            if ctx.ci_rule.decide(&w) != SamplingDecision::Continue {
                break;
            }
        }
    }
    (counts[0], counts[1])
}

/// Half-open index ranges of the sample's `(vantage, week)` groups.
fn group_bounds(sample: &[ProbeKey]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut lo = 0;
    for i in 1..=sample.len() {
        if i == sample.len()
            || (sample[i].vantage, sample[i].week) != (sample[lo].vantage, sample[lo].week)
        {
            if i > lo {
                out.push((lo, i));
            }
            lo = i;
        }
    }
    out
}
