//! Monitoring one site in one round (the per-thread unit of work).
//!
//! With fault injection active ([`ProbeContext::faults`]), every exchange
//! of the pipeline can fail: DNS queries SERVFAIL/time out/truncate, HTTP
//! exchanges stall, reset or arrive torn, and injected link faults
//! black-hole or degrade a family's path. The probe retries transient
//! failures under the plan's [`RetryPolicy`] — capped exponential backoff
//! on a simulated [`FaultClock`], never the wall clock — and classifies
//! what it cannot recover into dedicated [`ProbeOutcome`] variants instead
//! of panicking. With `faults: None` the pipeline is bit-identical to the
//! fault-free implementation: fault decisions live on separate RNG label
//! streams and no extra draw ever touches the probe's own stream.
//!
//! A probe is a function of (world, vantage, week, salt, site, fault plan):
//! the resolver keeps no cache, and the probe's own RNG stream is keyed by
//! its label. The stream is derived only when a probe reaches its
//! downloads, the first phase that draws from it; most probes end at DNS.
//!
//! A fault-free probe allocates nothing once warm: its RNG label is hashed
//! piecewise ([`RngLabel`]), the resolver answers by the site's interned
//! name, and the HTTP headers are written into, and parsed from, one header
//! buffer per thread.

use crate::db::PerfSample;
use crate::disturbance::Disturbances;
use ipv6web_bgp::{BgpTable, RouteRef};
use ipv6web_dns::{Answer, DnsError, RecordData, RecordType, Resolver, ZoneDb};
use ipv6web_faults::{DnsFaultKind, FaultClock, FaultInjector, HttpFaultKind, RetryPolicy};
use ipv6web_netsim::{download_time, translated_metrics, DataPlane, PathMetrics, TcpConfig};
use ipv6web_stats::ci::SamplingDecision;
use ipv6web_stats::{lognormal, mean_ci, RelativeCiRule, RngLabel, StudentT, Welford};
use ipv6web_topology::{Family, Topology};
use ipv6web_web::{
    pages_identical, parse_response_len, torn_len, write_request, write_response_header, Site,
    SiteId,
};
use ipv6web_xlat::{ClientStack, XlatWiring};
use rand::Rng;
use std::cell::RefCell;

thread_local! {
    /// This thread's HTTP header bytes: every probe writes its request and
    /// then each family's response header here in turn, so the exchange
    /// allocates nothing once the buffer has grown to fit.
    static HEADERS: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Per-campaign fault wiring, shared read-only by every probe of one
/// vantage point.
#[derive(Debug)]
pub struct ProbeFaults<'a> {
    /// The fault decision function.
    pub injector: &'a FaultInjector,
    /// How probes retry through injected faults.
    pub retry: RetryPolicy,
    /// The cumulative v6 routing epoch chain — `(effective week, table)`
    /// sorted by week, covering the scenario's scheduled route change
    /// *and* injected BGP session flaps. When present it supersedes
    /// [`ProbeContext::v6_epoch`]: a probe uses the latest epoch whose week
    /// has arrived, falling back to [`ProbeContext::table_v6`].
    pub v6_epochs: Vec<(u32, &'a BgpTable)>,
}

/// The translation plane as one vantage's probes see it: the world's
/// gateway wiring plus this vantage's gateway preference order. Present
/// only on v6-only vantages of a scenario with NAT64 gateways.
#[derive(Debug, Clone, Copy)]
pub struct ProbeXlat<'a> {
    /// Gateway placement, cost draws, and per-gateway v4 tables.
    pub wiring: &'a XlatWiring,
    /// Gateway indices in this vantage's preference order (nearest first
    /// by v6 AS-path length).
    pub pref: &'a [usize],
    /// Host-side CLAT per-exchange latency, ms (charged by 464XLAT
    /// vantages on every translated exchange; ignored by plain v6-only).
    pub clat_ms: f64,
}

/// Everything a probe needs, shared read-only across worker threads.
#[derive(Clone, Copy)]
pub struct ProbeContext<'a> {
    /// The topology (for the data plane).
    pub topo: &'a Topology,
    /// The site population, indexed by `SiteId`.
    pub sites: &'a [Site],
    /// Authoritative DNS.
    pub zone: &'a ZoneDb,
    /// The vantage point's IPv4 BGP table.
    pub table_v4: &'a BgpTable,
    /// The vantage point's IPv6 BGP table.
    pub table_v6: &'a BgpTable,
    /// Injected performance disturbances.
    pub disturbances: &'a Disturbances,
    /// TCP model parameters.
    pub tcp: TcpConfig,
    /// The repeat-until-confident rule (paper: 95% CI within 10%).
    pub ci_rule: RelativeCiRule,
    /// Page identity threshold (paper: 0.06).
    pub identity_threshold: f64,
    /// σ of the cross-round congestion factor (log-normal), applied to both
    /// families alike.
    pub round_noise_sigma: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Vantage point name (part of the RNG derivation).
    pub vantage_name: &'a str,
    /// Whether this vantage point's resolver is white-listed (Table 1's
    /// W-L column): non-white-listed monitors never receive AAAA answers
    /// from white-list-gated sites (the Google model).
    pub white_listed: bool,
    /// Mid-campaign IPv6 route change: from the given week onward, v6
    /// routes come from this table instead of `table_v6`. Superseded by
    /// `faults` (whose epoch chain includes this event) when present.
    pub v6_epoch: Option<(u32, &'a BgpTable)>,
    /// Fault injection wiring; `None` runs the fault-free pipeline.
    pub faults: Option<&'a ProbeFaults<'a>>,
    /// The vantage host's client stack. [`ClientStack::DualStack`] runs
    /// the classic pipeline bit-for-bit; the v6-only stacks reach the v4
    /// side of every site through `xlat`.
    pub stack: ClientStack,
    /// The translation plane, when this vantage needs one.
    pub xlat: Option<ProbeXlat<'a>>,
}

/// What one probe of one site produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// The name does not resolve at all.
    NxDomain,
    /// A record only — the overwhelmingly common case in 2011.
    V4Only,
    /// Dual-stack in DNS but no BGP route in one family from here.
    Unroutable(Family),
    /// Dual-stack but the two pages differ beyond the identity threshold.
    DifferentContent,
    /// Both families measured to confidence.
    Measured {
        /// Accepted IPv4 sample.
        v4: PerfSample,
        /// Accepted IPv6 sample.
        v6: PerfSample,
    },
    /// The sampling cap was reached without confidence in `0`.
    Unconfident(Family),
    /// A response arrived that failed to parse (truncated/corrupted); the
    /// sanitizer discards the round.
    Malformed,
    /// DNS failed beyond the retry policy; nothing can be concluded about
    /// the site's records this round.
    DnsFailure,
    /// The exchange over `0` kept failing past the retry budget (resets,
    /// black-holed path) — the round's equivalent of a stuck connection.
    TimedOut(Family),
}

/// Runs the Fig 2 pipeline for `site` at `week`.
///
/// `salt` distinguishes multiple rounds within the same week (the World
/// IPv6 Day 30-minute cadence); weekly rounds pass 0. `ipv6_day_mode`
/// lifts server-side IPv6 penalties (participants had made their
/// end-systems "fully IPv6 qualified") — used by the World IPv6 Day rounds
/// feeding Tables 10 and 12.
pub fn probe_site(
    ctx: &ProbeContext<'_>,
    resolver: &mut Resolver,
    site_id: SiteId,
    week: u32,
    salt: u32,
    ipv6_day_mode: bool,
) -> ProbeOutcome {
    let mut fs = ctx.faults.map(FaultSession::new);
    let out = probe_site_inner(ctx, resolver, &mut fs, site_id, week, salt, ipv6_day_mode);
    ipv6web_obs::inc(match out {
        ProbeOutcome::NxDomain => "monitor.outcome.nxdomain",
        ProbeOutcome::V4Only => "monitor.outcome.v4_only",
        ProbeOutcome::Unroutable(_) => "monitor.outcome.unroutable",
        ProbeOutcome::DifferentContent => "monitor.outcome.different_content",
        ProbeOutcome::Measured { .. } => "monitor.outcome.measured",
        ProbeOutcome::Unconfident(_) => "monitor.outcome.unconfident",
        ProbeOutcome::Malformed => "monitor.outcome.malformed",
        ProbeOutcome::DnsFailure => "monitor.outcome.dns_failure",
        ProbeOutcome::TimedOut(_) => "monitor.outcome.timed_out",
    });
    if let Some(fs) = fs {
        if fs.retried > 0 {
            ipv6web_obs::observe("faults.retries_per_probe", u64::from(fs.retried));
        }
    }
    out
}

fn probe_site_inner(
    ctx: &ProbeContext<'_>,
    resolver: &mut Resolver,
    fs: &mut Option<FaultSession<'_>>,
    site_id: SiteId,
    week: u32,
    salt: u32,
    ipv6_day_mode: bool,
) -> ProbeOutcome {
    ipv6web_obs::inc("monitor.probes");
    let site = &ctx.sites[site_id.index()];

    // --- phase 1: DNS ------------------------------------------------------
    let Ok(a) = resolve_through_faults(ctx, resolver, fs, site_id, RecordType::A, week, salt)
    else {
        return ProbeOutcome::DnsFailure;
    };
    let Some(a) = a else {
        return ProbeOutcome::NxDomain;
    };
    let Ok(aaaa) = resolve_through_faults(ctx, resolver, fs, site_id, RecordType::Aaaa, week, salt)
    else {
        return ProbeOutcome::DnsFailure;
    };
    let aaaa = aaaa.unwrap_or_default();
    if a.is_empty() || aaaa.is_empty() {
        return ProbeOutcome::V4Only;
    }
    if site.v6.as_ref().is_some_and(|v| v.whitelist_only) && !ctx.white_listed {
        // the authority answers AAAA only to certified resolvers
        ipv6web_obs::inc("monitor.whitelist_denials");
        return ProbeOutcome::V4Only;
    }
    if ctx.stack.translates_v4() {
        // A v6-only monitor's DNS64 resolver synthesized every one of these
        // AAAA records: the site has no native v6 presence and is reachable
        // only through the translator. Keep the classic classification (the
        // reachability tables count native dual-stack) and count it for the
        // xlat report.
        let all_synthesized = !aaaa.is_empty()
            && aaaa.iter().all(|r| match r.data {
                RecordData::V6(v6) => ipv6web_xlat::is_synthesized(v6),
                RecordData::V4(_) => false,
            });
        if all_synthesized {
            ipv6web_obs::inc("xlat.translator_only");
            return ProbeOutcome::V4Only;
        }
    }

    // --- phase 2: routability + one download per family --------------------
    let v6_table = match fs.as_ref() {
        Some(s) => s
            .faults
            .v6_epochs
            .iter()
            .rev()
            .find(|(epoch_week, _)| week >= *epoch_week)
            .map_or(ctx.table_v6, |(_, late)| *late),
        None => match ctx.v6_epoch {
            Some((epoch_week, late)) if week >= epoch_week => late,
            _ => ctx.table_v6,
        },
    };
    // The v4-family slot: a dual-stack host routes natively; a v6-only host
    // reaches the site's v4 presence through the first live NAT64 gateway in
    // its preference order (v6 leg to the gateway, v4 leg onward).
    enum V4Slot<'r> {
        Native(RouteRef<'r>),
        Translated { leg6: RouteRef<'r>, leg4: RouteRef<'r>, gw: usize },
    }
    let v4_slot = if ctx.stack.translates_v4() {
        let Some(x) = ctx.xlat else {
            // a v6-only host without a translation plane has no path to
            // the v4 side at all
            return ProbeOutcome::Unroutable(Family::V4);
        };
        let mut live = None;
        for &gw in x.pref {
            if fs.as_ref().is_some_and(|s| s.faults.injector.xlat_out(gw, week)) {
                ipv6web_faults::record_injection("faults.injected.xlat");
                continue;
            }
            live = Some(gw);
            break;
        }
        let Some(gw) = live else {
            // every gateway dark: the translated side black-holes and the
            // probe spends its retry budget against it
            if let Some(s) = fs.as_mut() {
                s.burn_retries();
            }
            return ProbeOutcome::TimedOut(Family::V4);
        };
        let Some(leg6) = v6_table.route(x.wiring.gateways[gw]) else {
            return ProbeOutcome::Unroutable(Family::V4);
        };
        let Some(leg4) = x.wiring.tables[gw].route(site.v4_as) else {
            return ProbeOutcome::Unroutable(Family::V4);
        };
        V4Slot::Translated { leg6, leg4, gw }
    } else {
        let Some(route4) = ctx.table_v4.route(site.v4_as) else {
            return ProbeOutcome::Unroutable(Family::V4);
        };
        V4Slot::Native(route4)
    };
    // An AAAA answer without site v6 metadata cannot happen through the
    // simulated zone; treat it defensively as v4-only rather than panicking.
    let Some(site_v6) = site.v6.as_ref() else {
        return ProbeOutcome::V4Only;
    };
    let Some(route6) = v6_table.route(site_v6.dest_as) else {
        return ProbeOutcome::Unroutable(Family::V6);
    };

    // Injected link faults: a down link on the path black-holes the family
    // (connects keep timing out until the retry budget is spent); loss
    // bursts degrade the measured path instead. A translated v4 slot is
    // down if either of its legs is, and composes both legs' loss bursts.
    let mut extra_loss = [0.0f64; 2];
    if let Some(s) = fs.as_mut() {
        let v4_slot_impact = match &v4_slot {
            V4Slot::Native(route4) => s.faults.injector.link_impact(week, Family::V4, route4.edges),
            V4Slot::Translated { leg6, leg4, .. } => {
                let i6 = s.faults.injector.link_impact(week, Family::V6, leg6.edges);
                let i4 = s.faults.injector.link_impact(week, Family::V4, leg4.edges);
                ipv6web_faults::LinkImpact {
                    down: i6.down || i4.down,
                    extra_loss: 1.0 - (1.0 - i6.extra_loss) * (1.0 - i4.extra_loss),
                }
            }
        };
        let v6_impact = s.faults.injector.link_impact(week, Family::V6, route6.edges);
        for (slot, family, impact) in
            [(0usize, Family::V4, v4_slot_impact), (1usize, Family::V6, v6_impact)]
        {
            if impact.down {
                s.burn_retries();
                return ProbeOutcome::TimedOut(family);
            }
            extra_loss[slot] = impact.extra_loss;
        }
    }

    // The HTTP exchange, once per family, through this thread's header
    // buffer. Only `Content-Length` feeds the identity rule, so the
    // simulated server sends headers without materializing the
    // (deterministic) body — byte-identical decisions at a fraction of the
    // cost. Each response is parsed as it arrives (`None`: unparseable);
    // both families are fetched before either length is judged, so a
    // timeout in either one outranks a malformed response.
    let fetched = HEADERS.with_borrow_mut(|wire| {
        wire.clear();
        write_request(wire, ctx.zone.name_of(site.name));
        debug_assert!(wire.starts_with(b"GET / HTTP/1.1"));
        let content_length = |bytes: &[u8]| parse_response_len(bytes).map(|(_, len)| len);
        let mut fetch = |family: Family| -> Result<Option<usize>, Family> {
            wire.clear();
            write_response_header(wire, site.page_bytes(family) as usize);
            let Some(s) = fs.as_mut() else { return Ok(content_length(wire)) };
            let mut attempt = 0u32;
            loop {
                match s.faults.injector.http_fault(
                    ctx.vantage_name,
                    site_id.0,
                    family,
                    "hdr",
                    week,
                    salt,
                    attempt,
                ) {
                    // a stall delays an untimed exchange: harmless here
                    None | Some((HttpFaultKind::Stall, _)) => {
                        if attempt > 0 {
                            ipv6web_obs::inc("faults.probe.recovered");
                        }
                        return Ok(content_length(wire));
                    }
                    // torn mid-header: delivered, but unparseable
                    Some((HttpFaultKind::Truncate, _)) => {
                        return Ok(content_length(&wire[..torn_len(wire)]))
                    }
                    Some((HttpFaultKind::Reset, _)) => {
                        let cost = s.faults.retry.timeout_ms;
                        if !s.try_again(attempt, cost) {
                            return Err(family);
                        }
                        attempt += 1;
                    }
                }
            }
        };
        Ok((fetch(Family::V4)?, fetch(Family::V6)?))
    });
    let (len4, len6) = match fetched {
        Ok(lens) => lens,
        Err(family) => return ProbeOutcome::TimedOut(family),
    };
    let (Some(len4), Some(len6)) = (len4, len6) else {
        return ProbeOutcome::Malformed;
    };
    if !pages_identical(len4 as u64, len6 as u64, ctx.identity_threshold) {
        return ProbeOutcome::DifferentContent;
    }

    // --- phase 3: confidence-driven performance sampling --------------------
    let dp = DataPlane::new(ctx.topo);
    // The stream of the label "{vantage}:probe:{week}:{salt}:{site}", derived
    // at its first reader.
    let mut rng = RngLabel::new()
        .push_str(ctx.vantage_name)
        .push_str(":probe:")
        .push_u32(week)
        .push_str(":")
        .push_u32(salt)
        .push_str(":")
        .push_u32(site_id.0)
        .rng(ctx.seed);
    // The stream's first word is drawn, as a `u64` range, and discarded:
    // dropping it would shift every later draw and so every report, and the
    // study benchmark's replay draws the same word.
    let _: u64 = rng.gen_range(0..600_000);
    let shared_round_factor = lognormal(&mut rng, 1.0, ctx.round_noise_sigma);
    let disturbance_factor = ctx.disturbances.factor(site_id, week);
    // unique id per downloaded exchange, so retries of different downloads
    // never share a fault decision stream
    let mut exchange = 0u32;

    let mut measure = |family: Family,
                       metrics: PathMetrics,
                       fs: &mut Option<FaultSession<'_>>|
     -> MeasureEnd {
        let bytes = site.page_bytes(family);
        let v6_factor =
            if ipv6_day_mode && family == Family::V6 { 1.0 } else { site.server.v6_service_factor };
        // A CDN-fronted IPv4 presence is served by the CDN's edge servers,
        // not the origin: fast, high-capacity, low think time. That is the
        // whole value proposition the paper's Table 6 quantifies.
        let v4_via_cdn = ctx.topo.node(site.v4_as).tier == ipv6web_topology::Tier::Cdn;
        let rate_cap = match family {
            Family::V4 if v4_via_cdn => 8_000.0,
            Family::V4 => site.server.rate_cap_kbps,
            Family::V6 => site.server.rate_cap_kbps * v6_factor,
        };
        let think_ms = match family {
            Family::V4 if v4_via_cdn => 5.0,
            Family::V4 => site.server.think_ms,
            Family::V6 => site.server.think_ms / v6_factor,
        };
        let extra_rtt = match family {
            Family::V4 => 0.0,
            Family::V6 => site.v6.as_ref().map_or(0.0, |v| 2.0 * v.extra_v6_rtt_ms),
        };
        let eff = PathMetrics {
            bottleneck_kbps: metrics.bottleneck_kbps.min(rate_cap),
            rtt_ms: metrics.rtt_ms + extra_rtt,
            ..metrics
        };
        let mut times = Welford::new();
        loop {
            // "each after proper resetting to avoid local caching effects":
            // this holds by construction, as the resolver keeps no cache.
            // server-side faults for this download: stalls slow it, resets
            // and truncations force a retried exchange
            let mut injected_stall_ms = 0.0;
            if let Some(s) = fs.as_mut() {
                let mut attempt = 0u32;
                loop {
                    exchange += 1;
                    match s.faults.injector.http_fault(
                        ctx.vantage_name,
                        site_id.0,
                        family,
                        "dl",
                        week,
                        salt,
                        exchange,
                    ) {
                        None => break,
                        Some((HttpFaultKind::Stall, stall_ms)) => {
                            injected_stall_ms = stall_ms;
                            break;
                        }
                        Some((HttpFaultKind::Reset | HttpFaultKind::Truncate, _)) => {
                            let cost = s.faults.retry.timeout_ms;
                            if !s.try_again(attempt, cost) {
                                return MeasureEnd::TimedOut;
                            }
                            attempt += 1;
                        }
                    }
                }
                if attempt > 0 {
                    ipv6web_obs::inc("faults.probe.recovered");
                }
            }
            let out = download_time(&mut rng, bytes, &eff, think_ms + injected_stall_ms, &ctx.tcp);
            ipv6web_obs::inc("monitor.downloads");
            times.push(out.time_s);
            match ctx.ci_rule.decide(&times) {
                SamplingDecision::Continue => {
                    // every extra pass is a CI-rule repeat
                    ipv6web_obs::inc("monitor.ci_repeats");
                    continue;
                }
                SamplingDecision::GiveUp => {
                    ipv6web_obs::inc("monitor.ci_giveups");
                    return MeasureEnd::Unconfident;
                }
                SamplingDecision::Accept => {
                    ipv6web_obs::observe("monitor.downloads_per_sample", times.count());
                    let ci = mean_ci(&times, StudentT::P95);
                    debug_assert!(
                        ci.relative_half_width() <= ctx.ci_rule.relative_tolerance + 1e-9
                    );
                    let speed =
                        bytes as f64 / 1024.0 / ci.mean * shared_round_factor * disturbance_factor;
                    return MeasureEnd::Sample(PerfSample {
                        week,
                        speed_kbps: speed,
                        downloads: times.count() as u32,
                    });
                }
            }
        }
    };

    // "first for IPv4 and then IPv6"
    let mut m4 = match &v4_slot {
        V4Slot::Native(route4) => dp.metrics(*route4, Family::V4),
        V4Slot::Translated { leg6, leg4, gw } => {
            ipv6web_obs::inc("xlat.translated_paths");
            let mut m = translated_metrics(
                &dp.metrics(*leg6, Family::V6),
                &dp.metrics(*leg4, Family::V4),
                &ctx.xlat.expect("translated slot implies xlat plane").wiring.costs[*gw],
            );
            if ctx.stack.has_clat() {
                // the CLAT on the host stateless-translates in both
                // directions before the packet ever reaches the PLAT
                m.rtt_ms += 2.0 * ctx.xlat.expect("translated slot implies xlat plane").clat_ms;
            }
            m
        }
    };
    if extra_loss[0] > 0.0 {
        m4 = m4.with_extra_loss(extra_loss[0]);
    }
    let v4 = match measure(Family::V4, m4, fs) {
        MeasureEnd::Sample(s) => s,
        MeasureEnd::Unconfident => return ProbeOutcome::Unconfident(Family::V4),
        MeasureEnd::TimedOut => return ProbeOutcome::TimedOut(Family::V4),
    };
    let mut m6 = dp.metrics(route6, Family::V6);
    if extra_loss[1] > 0.0 {
        m6 = m6.with_extra_loss(extra_loss[1]);
    }
    let v6 = match measure(Family::V6, m6, fs) {
        MeasureEnd::Sample(s) => s,
        MeasureEnd::Unconfident => return ProbeOutcome::Unconfident(Family::V6),
        MeasureEnd::TimedOut => return ProbeOutcome::TimedOut(Family::V6),
    };
    ProbeOutcome::Measured { v4, v6 }
}

enum MeasureEnd {
    Sample(PerfSample),
    Unconfident,
    TimedOut,
}

/// Cost charged for a failed DNS exchange that answers quickly (SERVFAIL,
/// torn response) — unlike a timeout, the failure is visible almost
/// immediately.
const DNS_FAIL_COST_MS: f64 = 40.0;

/// Per-probe fault-handling state: the sim-time clock plus retry counting.
struct FaultSession<'a> {
    faults: &'a ProbeFaults<'a>,
    clock: FaultClock,
    retried: u32,
}

impl<'a> FaultSession<'a> {
    fn new(faults: &'a ProbeFaults<'a>) -> Self {
        FaultSession { faults, clock: FaultClock::new(faults.retry.probe_budget_ms), retried: 0 }
    }

    /// Charges one failed exchange (`cost_ms`) and decides whether attempt
    /// `attempt + 1` may run: on yes, charges the backoff and counts the
    /// retry; on no (attempt cap or budget exhausted), counts the
    /// abandonment.
    fn try_again(&mut self, attempt: u32, cost_ms: f64) -> bool {
        self.clock.advance(cost_ms);
        if attempt + 1 >= self.faults.retry.max_attempts || self.clock.expired() {
            ipv6web_obs::inc("faults.probe.abandoned");
            return false;
        }
        self.clock.advance(self.faults.retry.backoff_ms(attempt));
        self.retried += 1;
        ipv6web_obs::inc("faults.probe.retried");
        true
    }

    /// Spends the whole retry budget against a black-holed path (every
    /// connect times out; nothing to vary per attempt).
    fn burn_retries(&mut self) {
        let mut attempt = 0u32;
        loop {
            let cost = self.faults.retry.timeout_ms;
            if !self.try_again(attempt, cost) {
                return;
            }
            attempt += 1;
        }
    }
}

fn dns_error_of(kind: DnsFaultKind) -> DnsError {
    match kind {
        DnsFaultKind::ServFail => DnsError::ServFail,
        DnsFaultKind::Timeout => DnsError::Timeout,
        DnsFaultKind::Truncated => DnsError::Truncated,
    }
}

/// One DNS lookup, retried through injected faults. `Err(())` means the
/// retry policy was exhausted; `Ok(None)` is an authoritative NXDOMAIN.
fn resolve_through_faults(
    ctx: &ProbeContext<'_>,
    resolver: &mut Resolver,
    fs: &mut Option<FaultSession<'_>>,
    site_id: SiteId,
    qtype: RecordType,
    week: u32,
    salt: u32,
) -> Result<Option<Answer>, ()> {
    let name = ctx.sites[site_id.index()].name;
    let Some(s) = fs.as_mut() else {
        return Ok(resolver.resolve_id(ctx.zone, name, qtype, week));
    };
    let qtag = match qtype {
        RecordType::A => "A",
        RecordType::Aaaa => "AAAA",
    };
    let mut attempt = 0u32;
    loop {
        let fault =
            s.faults.injector.dns_fault(ctx.vantage_name, site_id.0, qtag, week, salt, attempt);
        match resolver.resolve_id_faulted(ctx.zone, name, qtype, week, fault.map(dns_error_of)) {
            Ok(answer) => {
                if attempt > 0 {
                    ipv6web_obs::inc("faults.probe.recovered");
                }
                return Ok(answer);
            }
            Err(err) => {
                let cost = match err {
                    DnsError::Timeout => s.faults.retry.timeout_ms,
                    DnsError::ServFail | DnsError::Truncated => DNS_FAIL_COST_MS,
                };
                if !s.try_again(attempt, cost) {
                    return Err(());
                }
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disturbance::{DisturbanceConfig, Disturbances};
    use ipv6web_faults::{DnsDisruption, FaultPlan, HttpDisruption, LinkFlap, XlatOutage};
    use ipv6web_topology::{generate as gen_topo, AsId, Tier, TopologyConfig};
    use ipv6web_web::{build_zone, population, PopulationConfig};

    struct World {
        topo: ipv6web_topology::Topology,
        sites: Vec<Site>,
        zone: ipv6web_dns::ZoneDb,
        table_v4: BgpTable,
        table_v6: BgpTable,
        disturbances: Disturbances,
        vantage: AsId,
    }

    fn world() -> World {
        let topo = gen_topo(&TopologyConfig::test_small(), 21);
        let (sites, names) =
            population::generate(&PopulationConfig::test_small(), &topo, 52, &[], 21);
        let zone = build_zone(&topo, &sites, names);
        let vantage =
            topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
        let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
        dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
        dests.sort();
        dests.dedup();
        let table_v4 = BgpTable::build(&topo, vantage, Family::V4, &dests);
        let table_v6 = BgpTable::build(&topo, vantage, Family::V6, &dests);
        let disturbances = Disturbances::generate(&DisturbanceConfig::none(), sites.len(), 52, 21);
        World { topo, sites, zone, table_v4, table_v6, disturbances, vantage }
    }

    fn ctx<'a>(w: &'a World) -> ProbeContext<'a> {
        let _ = w.vantage;
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
            vantage_name: "TestVP",
            white_listed: false,
            v6_epoch: None,
            faults: None,
            stack: ClientStack::DualStack,
            xlat: None,
        }
    }

    fn find_site(w: &World, pred: impl Fn(&Site) -> bool) -> SiteId {
        w.sites.iter().find(|s| pred(s)).map(|s| s.id).expect("site matching predicate")
    }

    #[test]
    fn v4_only_site_stops_at_dns() {
        let w = world();
        let c = ctx(&w);
        let mut r = Resolver::new();
        let sid = find_site(&w, |s| s.v6.is_none());
        assert_eq!(probe_site(&c, &mut r, sid, 50, 0, false), ProbeOutcome::V4Only);
    }

    #[test]
    fn dual_site_before_publication_week_is_v4_only() {
        let w = world();
        let c = ctx(&w);
        let mut r = Resolver::new();
        // force a site with a late publication week
        let Some(site) = w.sites.iter().find(|s| s.v6.as_ref().is_some_and(|v| v.from_week > 5))
        else {
            return; // population happened to publish everything early; fine
        };
        assert_eq!(
            probe_site(&c, &mut r, site.id, site.v6.as_ref().unwrap().from_week - 1, 0, false),
            ProbeOutcome::V4Only
        );
    }

    #[test]
    fn healthy_dual_site_measures_both_families() {
        let w = world();
        let c = ctx(&w);
        let mut r = Resolver::new();
        let sid = find_site(&w, |s| {
            s.v6.as_ref().is_some_and(|v| v.from_week == 0)
                && pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06)
        });
        match probe_site(&c, &mut r, sid, 50, 0, false) {
            ProbeOutcome::Measured { v4, v6 } => {
                assert!(v4.speed_kbps > 1.0 && v4.speed_kbps < 1000.0, "{}", v4.speed_kbps);
                assert!(v6.speed_kbps > 1.0 && v6.speed_kbps < 1000.0, "{}", v6.speed_kbps);
                assert!(v4.downloads >= 3, "min samples enforced");
                assert_eq!(v4.week, 50);
            }
            other => panic!("expected Measured, got {other:?}"),
        }
    }

    #[test]
    fn different_content_site_rejected() {
        let w = world();
        let c = ctx(&w);
        let mut r = Resolver::new();
        let Some(site) = w.sites.iter().find(|s| {
            s.v6.as_ref().is_some_and(|v| v.from_week == 0)
                && !pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06)
        }) else {
            return; // none generated under this seed
        };
        assert_eq!(probe_site(&c, &mut r, site.id, 50, 0, false), ProbeOutcome::DifferentContent);
    }

    #[test]
    fn probe_is_deterministic() {
        let w = world();
        let c = ctx(&w);
        let sid = find_site(&w, |s| s.v6.as_ref().is_some_and(|v| v.from_week == 0));
        let mut r1 = Resolver::new();
        let mut r2 = Resolver::new();
        assert_eq!(
            probe_site(&c, &mut r1, sid, 40, 0, false),
            probe_site(&c, &mut r2, sid, 40, 0, false)
        );
    }

    #[test]
    fn poor_v6_server_shows_in_measurement() {
        let w = world();
        let c = ctx(&w);
        let mut r = Resolver::new();
        let Some(site) = w.sites.iter().find(|s| {
            s.v6.as_ref().is_some_and(|v| v.from_week == 0 && !v.via_6to4)
                && s.server.v6_service_factor < 0.6
                && s.same_location() == Some(true)
                && pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06)
        }) else {
            return;
        };
        if let ProbeOutcome::Measured { v4, v6 } = probe_site(&c, &mut r, site.id, 50, 0, false) {
            assert!(
                v6.speed_kbps < v4.speed_kbps,
                "poor v6 server must measure slower (v4 {} vs v6 {})",
                v4.speed_kbps,
                v6.speed_kbps
            );
        }
    }

    #[test]
    fn ipv6_day_mode_lifts_server_penalty() {
        let w = world();
        let c = ctx(&w);
        let Some(site) = w.sites.iter().find(|s| {
            s.v6.as_ref().is_some_and(|v| v.from_week == 0)
                && s.server.v6_service_factor < 0.6
                && s.same_location() == Some(true)
                && pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06)
        }) else {
            return;
        };
        let mut r1 = Resolver::new();
        let normal = probe_site(&c, &mut r1, site.id, 43, 0, false);
        let mut r2 = Resolver::new();
        let day = probe_site(&c, &mut r2, site.id, 43, 0, true);
        if let (ProbeOutcome::Measured { v6: n6, .. }, ProbeOutcome::Measured { v6: d6, .. }) =
            (normal, day)
        {
            assert!(d6.speed_kbps > n6.speed_kbps, "day mode must lift the penalty");
        }
    }

    #[test]
    fn whitelist_gated_site_needs_whitelisted_vantage() {
        let w = world();
        let c = ctx(&w);
        // force a synthetic whitelist-only dual site
        let Some(site) = w
            .sites
            .iter()
            .find(|s| s.v6.as_ref().is_some_and(|v| v.from_week == 0 && v.whitelist_only))
        else {
            // population may not have produced one under this seed; craft
            // the check against any dual site by flipping the context flag
            let sid = find_site(&w, |s| s.v6.as_ref().is_some_and(|v| v.from_week == 0));
            let mut r = Resolver::new();
            let c_wl = ProbeContext { white_listed: true, ..c };
            // a non-gated site behaves identically either way
            assert_eq!(
                probe_site(&c, &mut Resolver::new(), sid, 50, 0, false),
                probe_site(&c_wl, &mut r, sid, 50, 0, false)
            );
            return;
        };
        let mut r1 = Resolver::new();
        assert_eq!(
            probe_site(&c, &mut r1, site.id, 50, 0, false),
            ProbeOutcome::V4Only,
            "non-white-listed vantage must not see the AAAA service"
        );
        let c_wl = ProbeContext { white_listed: true, ..c };
        let mut r2 = Resolver::new();
        assert!(
            !matches!(probe_site(&c_wl, &mut r2, site.id, 50, 0, false), ProbeOutcome::V4Only),
            "white-listed vantage proceeds past DNS"
        );
    }

    #[test]
    fn unknown_name_nxdomain() {
        let w = world();
        let c = ctx(&w);
        let mut r = Resolver::new();
        // site id beyond population has no zone entry — simulate by a
        // record-less zone that still knows the interned names.
        let empty = ipv6web_dns::ZoneDb::with_names(w.zone.names().clone());
        let c2 = ProbeContext { zone: &empty, ..c };
        assert_eq!(probe_site(&c2, &mut r, SiteId(0), 10, 0, false), ProbeOutcome::NxDomain);
    }

    // ---- fault injection --------------------------------------------------

    #[test]
    fn zero_probability_plan_is_bit_identical_to_no_faults() {
        let w = world();
        let c = ctx(&w);
        let mut plan = FaultPlan::default();
        plan.dns_faults.push(DnsDisruption {
            kind: DnsFaultKind::ServFail,
            prob: 0.0,
            from_week: 0,
            weeks: 52,
        });
        plan.http_faults.push(HttpDisruption {
            kind: HttpFaultKind::Reset,
            prob: 0.0,
            stall_ms: 0.0,
            from_week: 0,
            weeks: 52,
        });
        plan.xlat_outages.push(XlatOutage { gateway_frac: 0.0, from_week: 0, weeks: 52 });
        let injector = FaultInjector::new(plan, c.seed);
        let pf =
            ProbeFaults { injector: &injector, retry: RetryPolicy::paper(), v6_epochs: vec![] };
        let c_faulted = ProbeContext { faults: Some(&pf), ..c };
        for sid in w.sites.iter().take(30).map(|s| s.id) {
            let mut r1 = Resolver::new();
            let mut r2 = Resolver::new();
            assert_eq!(
                probe_site(&c, &mut r1, sid, 50, 0, false),
                probe_site(&c_faulted, &mut r2, sid, 50, 0, false),
                "zero-probability faults must not perturb the probe stream"
            );
        }
    }

    /// Owned tables/wiring for a NAT64-enabled vantage: the v6 table also
    /// carries routes to the gateway ASes, and each gateway owns a v4 table
    /// toward every site.
    struct XlatFixture {
        v6_table: BgpTable,
        wiring: ipv6web_xlat::XlatWiring,
        pref: Vec<usize>,
        clat_ms: f64,
    }

    fn xlat_fixture(w: &World) -> XlatFixture {
        let cfg = ipv6web_xlat::XlatConfig { gateways: 2, ..Default::default() };
        let gateways = ipv6web_xlat::place_gateways(&w.topo, 21, cfg.gateways);
        assert_eq!(gateways.len(), 2, "test topology must offer two gateway sites");
        let costs = ipv6web_xlat::gateway_costs(&cfg, 21, gateways.len());
        let mut dests: Vec<AsId> = w.sites.iter().map(|s| s.v4_as).collect();
        dests.extend(w.sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
        dests.extend(gateways.iter().copied());
        dests.sort();
        dests.dedup();
        let v6_table = BgpTable::build(&w.topo, w.vantage, Family::V6, &dests);
        let tables =
            gateways.iter().map(|&g| BgpTable::build(&w.topo, g, Family::V4, &dests)).collect();
        let pref = (0..gateways.len()).collect();
        XlatFixture {
            v6_table,
            wiring: ipv6web_xlat::XlatWiring { gateways, costs, tables },
            pref,
            clat_ms: cfg.clat_ms,
        }
    }

    fn xlat_ctx<'a>(w: &'a World, f: &'a XlatFixture, stack: ClientStack) -> ProbeContext<'a> {
        ProbeContext {
            table_v6: &f.v6_table,
            stack,
            xlat: Some(ProbeXlat { wiring: &f.wiring, pref: &f.pref, clat_ms: f.clat_ms }),
            ..ctx(w)
        }
    }

    fn healthy_dual_site(w: &World) -> SiteId {
        find_site(w, |s| {
            s.v6.as_ref().is_some_and(|v| v.from_week == 0)
                && pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06)
        })
    }

    #[test]
    fn v6_only_vantage_measures_dual_site_through_translator() {
        let w = world();
        let f = xlat_fixture(&w);
        let sid = healthy_dual_site(&w);
        let mut rd = Resolver::new();
        let native = match probe_site(&ctx(&w), &mut rd, sid, 50, 0, false) {
            ProbeOutcome::Measured { v4, .. } => v4,
            other => panic!("expected native Measured, got {other:?}"),
        };
        for stack in [ClientStack::V6Only, ClientStack::V6OnlyClat] {
            let c = xlat_ctx(&w, &f, stack);
            let mut r = Resolver::dns64();
            match probe_site(&c, &mut r, sid, 50, 0, false) {
                ProbeOutcome::Measured { v4, v6 } => {
                    assert!(v6.speed_kbps > 1.0, "native v6 leg still measured");
                    assert!(
                        v4.speed_kbps < native.speed_kbps,
                        "{stack}: the stateful translator must cost throughput \
                         (translated {} vs native {})",
                        v4.speed_kbps,
                        native.speed_kbps
                    );
                }
                other => panic!("{stack}: expected Measured, got {other:?}"),
            }
        }
    }

    #[test]
    fn translator_only_site_is_v4_only_on_v6_only_host() {
        let w = world();
        let f = xlat_fixture(&w);
        let c = xlat_ctx(&w, &f, ClientStack::V6Only);
        let mut r = Resolver::dns64();
        let sid = find_site(&w, |s| s.v6.is_none());
        // DNS64 synthesizes AAAA from the A records, but every one of them
        // is a translator address: classified v4-only, like a dual host.
        assert_eq!(probe_site(&c, &mut r, sid, 50, 0, false), ProbeOutcome::V4Only);
    }

    #[test]
    fn v6_only_host_without_xlat_plane_is_unroutable_v4() {
        let w = world();
        let c = ProbeContext { stack: ClientStack::V6Only, ..ctx(&w) };
        let mut r = Resolver::dns64();
        let sid = healthy_dual_site(&w);
        assert_eq!(probe_site(&c, &mut r, sid, 50, 0, false), ProbeOutcome::Unroutable(Family::V4));
    }

    #[test]
    fn total_gateway_outage_blackholes_the_translated_slot() {
        let w = world();
        let f = xlat_fixture(&w);
        let mut plan = FaultPlan::default();
        plan.xlat_outages.push(XlatOutage { gateway_frac: 1.0, from_week: 40, weeks: 20 });
        let injector = FaultInjector::new(plan, 99);
        let pf =
            ProbeFaults { injector: &injector, retry: RetryPolicy::paper(), v6_epochs: vec![] };
        let base = xlat_ctx(&w, &f, ClientStack::V6Only);
        let c = ProbeContext { faults: Some(&pf), ..base };
        let sid = healthy_dual_site(&w);
        let mut r = Resolver::dns64();
        assert_eq!(
            probe_site(&c, &mut r, sid, 50, 0, false),
            ProbeOutcome::TimedOut(Family::V4),
            "every gateway down inside the window black-holes the v4 slot"
        );
        let mut r = Resolver::dns64();
        match probe_site(&c, &mut r, sid, 10, 0, false) {
            ProbeOutcome::Measured { .. } => {}
            other => panic!("outside the window the translator recovers, got {other:?}"),
        }
    }

    #[test]
    fn certain_dns_fault_abandons_probe() {
        let w = world();
        let c = ctx(&w);
        let mut plan = FaultPlan::default();
        plan.dns_faults.push(DnsDisruption {
            kind: DnsFaultKind::Timeout,
            prob: 1.0,
            from_week: 0,
            weeks: 52,
        });
        let injector = FaultInjector::new(plan, c.seed);
        let pf =
            ProbeFaults { injector: &injector, retry: RetryPolicy::paper(), v6_epochs: vec![] };
        let c_faulted = ProbeContext { faults: Some(&pf), ..c };
        let mut r = Resolver::new();
        assert_eq!(
            probe_site(&c_faulted, &mut r, SiteId(0), 10, 0, false),
            ProbeOutcome::DnsFailure
        );
    }

    #[test]
    fn certain_truncation_yields_malformed() {
        let w = world();
        let c = ctx(&w);
        let mut plan = FaultPlan::default();
        plan.http_faults.push(HttpDisruption {
            kind: HttpFaultKind::Truncate,
            prob: 1.0,
            stall_ms: 0.0,
            from_week: 0,
            weeks: 52,
        });
        let injector = FaultInjector::new(plan, c.seed);
        let pf =
            ProbeFaults { injector: &injector, retry: RetryPolicy::paper(), v6_epochs: vec![] };
        let c_faulted = ProbeContext { faults: Some(&pf), ..c };
        let sid = find_site(&w, |s| s.v6.as_ref().is_some_and(|v| v.from_week == 0));
        let mut r = Resolver::new();
        assert_eq!(probe_site(&c_faulted, &mut r, sid, 50, 0, false), ProbeOutcome::Malformed);
    }

    #[test]
    fn certain_reset_times_out_after_retries() {
        let w = world();
        let c = ctx(&w);
        let mut plan = FaultPlan::default();
        plan.http_faults.push(HttpDisruption {
            kind: HttpFaultKind::Reset,
            prob: 1.0,
            stall_ms: 0.0,
            from_week: 0,
            weeks: 52,
        });
        let injector = FaultInjector::new(plan, c.seed);
        let pf =
            ProbeFaults { injector: &injector, retry: RetryPolicy::paper(), v6_epochs: vec![] };
        let c_faulted = ProbeContext { faults: Some(&pf), ..c };
        let sid = find_site(&w, |s| s.v6.as_ref().is_some_and(|v| v.from_week == 0));
        let mut r = Resolver::new();
        assert_eq!(
            probe_site(&c_faulted, &mut r, sid, 50, 0, false),
            ProbeOutcome::TimedOut(Family::V4)
        );
    }

    #[test]
    fn full_link_flap_black_holes_family() {
        let w = world();
        let c = ctx(&w);
        let mut plan = FaultPlan::default();
        plan.link_flaps.push(LinkFlap {
            family: Family::V6,
            from_week: 50,
            weeks: 1,
            edge_frac: 1.0,
        });
        let injector = FaultInjector::new(plan, c.seed);
        let pf =
            ProbeFaults { injector: &injector, retry: RetryPolicy::paper(), v6_epochs: vec![] };
        let c_faulted = ProbeContext { faults: Some(&pf), ..c };
        let sid = find_site(&w, |s| {
            s.v6.as_ref().is_some_and(|v| v.from_week == 0)
                && pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06)
        });
        let mut r = Resolver::new();
        match probe_site(&c_faulted, &mut r, sid, 50, 0, false) {
            // intra-AS v6 (empty edge list) cannot flap; anything else must
            ProbeOutcome::TimedOut(Family::V6) | ProbeOutcome::Measured { .. } => {}
            other => panic!("expected v6 timeout or local measure, got {other:?}"),
        }
    }

    #[test]
    fn faulted_probe_is_deterministic() {
        let w = world();
        let c = ctx(&w);
        let plan = FaultPlan::demo(52);
        let injector = FaultInjector::new(plan, c.seed);
        let pf =
            ProbeFaults { injector: &injector, retry: injector.plan().retry, v6_epochs: vec![] };
        let c_faulted = ProbeContext { faults: Some(&pf), ..c };
        for sid in w.sites.iter().take(20).map(|s| s.id) {
            let mut r1 = Resolver::new();
            let mut r2 = Resolver::new();
            assert_eq!(
                probe_site(&c_faulted, &mut r1, sid, 26, 0, false),
                probe_site(&c_faulted, &mut r2, sid, 26, 0, false)
            );
        }
    }
}
