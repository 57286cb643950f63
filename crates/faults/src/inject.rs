//! The pure fault decision function.
//!
//! Every decision derives its own RNG stream from
//! `(seed, "fault:<kind>:<entity...>")`, so outcomes depend only on the
//! plan, the seed, and the entity being asked about — never on thread
//! scheduling or on how many other questions were asked first. The
//! per-exchange and per-edge labels are hashed piecewise with
//! [`RngLabel`], so asking a question allocates nothing.

use crate::plan::{DnsFaultKind, FaultPlan, HttpFaultKind};
use crate::record_injection;
use ipv6web_stats::{coin, derive_rng, RngLabel};
use ipv6web_topology::{EdgeId, Family, Topology};

/// How injected link faults impact one probe's path for one family.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkImpact {
    /// A flapped (down) link sits on the path: the exchange black-holes.
    pub down: bool,
    /// Extra loss probability composed from active loss bursts on the path.
    pub extra_loss: f64,
}

impl LinkImpact {
    /// True when the path is entirely unaffected.
    pub fn is_clear(&self) -> bool {
        !self.down && self.extra_loss == 0.0
    }
}

/// Deterministic fault decisions for one `(plan, seed)` pair.
///
/// All methods are pure with respect to scheduling; the only side effect is
/// obs counter recording (itself scheduling-invariant) on methods
/// documented to count.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
}

impl FaultInjector {
    /// Wraps a plan with the campaign seed.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector { plan, seed }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides whether DNS query `attempt` for `(vantage, site, qtype)` in
    /// `(week, salt)` is disrupted. Records `faults.injected.dns_*` on a
    /// hit. First matching window wins.
    pub fn dns_fault(
        &self,
        vantage: &str,
        site: u32,
        qtype: &str,
        week: u32,
        salt: u32,
        attempt: u32,
    ) -> Option<DnsFaultKind> {
        for (i, f) in self.plan.dns_faults.iter().enumerate() {
            if week < f.from_week || week >= f.from_week + f.weeks {
                continue;
            }
            // "fault:dns:{i}:{vantage}:{site}:{qtype}:{week}:{salt}:{attempt}"
            let label = RngLabel::new()
                .push_str("fault:dns:")
                .push_u64(i as u64)
                .push_str(":")
                .push_str(vantage)
                .push_str(":")
                .push_u32(site)
                .push_str(":")
                .push_str(qtype)
                .push_str(":")
                .push_u32(week)
                .push_str(":")
                .push_u32(salt)
                .push_str(":")
                .push_u32(attempt);
            if coin(&mut label.rng(self.seed), f.prob) {
                record_injection(match f.kind {
                    DnsFaultKind::ServFail => "faults.injected.dns_servfail",
                    DnsFaultKind::Timeout => "faults.injected.dns_timeout",
                    DnsFaultKind::Truncated => "faults.injected.dns_truncated",
                });
                return Some(f.kind);
            }
        }
        None
    }

    /// Decides whether HTTP exchange `attempt` in `phase` (header fetch or
    /// a timed download) for `(vantage, site, family)` in `(week, salt)` is
    /// disrupted. Returns the kind plus the stall duration (meaningful for
    /// [`HttpFaultKind::Stall`] only). Records `faults.injected.http_*` on
    /// a hit.
    #[allow(clippy::too_many_arguments)] // the fault key IS the argument list
    pub fn http_fault(
        &self,
        vantage: &str,
        site: u32,
        family: Family,
        phase: &str,
        week: u32,
        salt: u32,
        attempt: u32,
    ) -> Option<(HttpFaultKind, f64)> {
        for (i, f) in self.plan.http_faults.iter().enumerate() {
            if week < f.from_week || week >= f.from_week + f.weeks {
                continue;
            }
            // "fault:http:{i}:{vantage}:{site}:{family:?}:{phase}:{week}:{salt}:{attempt}"
            let label = RngLabel::new()
                .push_str("fault:http:")
                .push_u64(i as u64)
                .push_str(":")
                .push_str(vantage)
                .push_str(":")
                .push_u32(site)
                .push_str(":")
                .push_str(family_tag(family))
                .push_str(":")
                .push_str(phase)
                .push_str(":")
                .push_u32(week)
                .push_str(":")
                .push_u32(salt)
                .push_str(":")
                .push_u32(attempt);
            if coin(&mut label.rng(self.seed), f.prob) {
                record_injection(match f.kind {
                    HttpFaultKind::Stall => "faults.injected.http_stall",
                    HttpFaultKind::Reset => "faults.injected.http_reset",
                    HttpFaultKind::Truncate => "faults.injected.http_truncate",
                });
                return Some((f.kind, f.stall_ms));
            }
        }
        None
    }

    /// Computes link-fault impact for one family's path (`edges`) in
    /// `week`. Per-edge flap/burst membership is sampled once per spec and
    /// edge — stable across the whole window and across probes — so a down
    /// link stays down for every probe that crosses it. Records
    /// `faults.injected.link_down` / `faults.injected.loss_burst` on a hit
    /// (a down link short-circuits the loss scan).
    pub fn link_impact(&self, week: u32, family: Family, edges: &[EdgeId]) -> LinkImpact {
        for (i, f) in self.plan.link_flaps.iter().enumerate() {
            if f.family != family || week < f.from_week || week >= f.from_week + f.weeks {
                continue;
            }
            // "fault:linkflap:{i}:{edge}"
            let spec = RngLabel::new().push_str("fault:linkflap:").push_u64(i as u64).push_str(":");
            for e in edges {
                if coin(&mut spec.push_u32(e.0).rng(self.seed), f.edge_frac) {
                    record_injection("faults.injected.link_down");
                    return LinkImpact { down: true, extra_loss: 0.0 };
                }
            }
        }
        let mut keep = 1.0f64;
        let mut hit = false;
        for (i, f) in self.plan.loss_bursts.iter().enumerate() {
            if f.family != family || week < f.from_week || week >= f.from_week + f.weeks {
                continue;
            }
            // "fault:lossburst:{i}:{edge}"
            let spec =
                RngLabel::new().push_str("fault:lossburst:").push_u64(i as u64).push_str(":");
            for e in edges {
                if coin(&mut spec.push_u32(e.0).rng(self.seed), f.edge_frac) {
                    keep *= 1.0 - f.extra_loss;
                    hit = true;
                }
            }
        }
        if hit {
            record_injection("faults.injected.loss_burst");
        }
        LinkImpact { down: false, extra_loss: 1.0 - keep }
    }

    /// True when `vantage` is dark in `week`. Pure — the caller records the
    /// outage (once per dark week, guarded against checkpoint replay).
    pub fn vantage_out(&self, vantage: &str, week: u32) -> bool {
        self.plan
            .vantage_outages
            .iter()
            .any(|o| o.vantage == vantage && week >= o.from_week && week < o.from_week + o.weeks)
    }

    /// True when NAT64 gateway `gateway` (by gateway index, not AS id) is
    /// down in `week`. Per-gateway outage membership is sampled once per
    /// spec and gateway — stable across the whole window and every probe —
    /// so a dead gateway stays dead until its scheduled recovery. Pure; the
    /// caller records `faults.injected.xlat` when a translated path
    /// actually hits the dead gateway.
    pub fn xlat_out(&self, gateway: usize, week: u32) -> bool {
        self.plan.xlat_outages.iter().enumerate().any(|(i, o)| {
            week >= o.from_week
                && week < o.from_week + o.weeks
                && coin(
                    // "fault:xlat:{i}:{gateway}"
                    &mut RngLabel::new()
                        .push_str("fault:xlat:")
                        .push_u64(i as u64)
                        .push_str(":")
                        .push_u64(gateway as u64)
                        .rng(self.seed),
                    o.gateway_frac,
                )
        })
    }

    /// Materializes the plan's BGP flaps against a topology: for each flap,
    /// samples eligible edges (same eligibility rules as the scenario's
    /// scheduled route-change event) into concrete gain/loss sets. Returns
    /// `(week, gains, losses)` sorted by week (stable, so equal weeks keep
    /// plan order). Records `faults.injected.bgp_flap` per flap.
    pub fn bgp_events(&self, topo: &Topology) -> Vec<(u32, Vec<EdgeId>, Vec<EdgeId>)> {
        use rand::seq::SliceRandom;
        let mut out = Vec::with_capacity(self.plan.bgp_flaps.len());
        for (i, f) in self.plan.bgp_flaps.iter().enumerate() {
            let mut rng = derive_rng(self.seed, &format!("fault:bgpflap:{i}"));
            let mut gain_candidates: Vec<EdgeId> = topo
                .edges()
                .iter()
                .filter(|e| {
                    e.v4 && !e.v6
                        && topo.node(e.a).is_dual_stack()
                        && topo.node(e.b).is_dual_stack()
                })
                .map(|e| e.id)
                .collect();
            let mut loss_candidates: Vec<EdgeId> = topo
                .edges()
                .iter()
                .filter(|e| e.v6 && e.v4 && e.tunnel.is_none())
                .map(|e| e.id)
                .collect();
            gain_candidates.shuffle(&mut rng);
            loss_candidates.shuffle(&mut rng);
            let n_gain = (gain_candidates.len() as f64 * f.gain_frac).round() as usize;
            let n_loss = (loss_candidates.len() as f64 * f.loss_frac).round() as usize;
            let gains: Vec<EdgeId> = gain_candidates.into_iter().take(n_gain).collect();
            let losses: Vec<EdgeId> = loss_candidates.into_iter().take(n_loss).collect();
            record_injection("faults.injected.bgp_flap");
            out.push((f.week, gains, losses));
        }
        out.sort_by_key(|(week, _, _)| *week);
        out
    }
}

/// `format!("{family:?}")` without formatting.
fn family_tag(family: Family) -> &'static str {
    match family {
        Family::V4 => "V4",
        Family::V6 => "V6",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{
        DnsDisruption, HttpDisruption, LinkFlap, LossBurst, VantageOutage, XlatOutage,
    };

    fn plan_with_dns(prob: f64) -> FaultPlan {
        let mut p = FaultPlan::default();
        p.dns_faults.push(DnsDisruption {
            kind: DnsFaultKind::ServFail,
            prob,
            from_week: 0,
            weeks: 10,
        });
        p
    }

    #[test]
    fn dns_decisions_are_reproducible_and_windowed() {
        let inj = FaultInjector::new(plan_with_dns(0.5), 7);
        let first = inj.dns_fault("Penn", 3, "A", 2, 0, 0);
        for _ in 0..3 {
            assert_eq!(inj.dns_fault("Penn", 3, "A", 2, 0, 0), first, "same key, same answer");
        }
        assert_eq!(inj.dns_fault("Penn", 3, "A", 10, 0, 0), None, "outside the window");
    }

    #[test]
    fn zero_probability_never_fires_and_certainty_always_does() {
        let never = FaultInjector::new(plan_with_dns(0.0), 7);
        let always = FaultInjector::new(plan_with_dns(1.0), 7);
        for site in 0..50 {
            assert_eq!(never.dns_fault("Penn", site, "AAAA", 1, 0, 0), None);
            assert_eq!(
                always.dns_fault("Penn", site, "AAAA", 1, 0, 0),
                Some(DnsFaultKind::ServFail)
            );
        }
    }

    #[test]
    fn distinct_attempts_draw_independently() {
        let inj = FaultInjector::new(plan_with_dns(0.5), 42);
        let hits: Vec<bool> =
            (0..64).map(|a| inj.dns_fault("Penn", 1, "A", 0, 0, a).is_some()).collect();
        assert!(
            hits.iter().any(|h| *h) && hits.iter().any(|h| !*h),
            "attempts must vary: {hits:?}"
        );
    }

    #[test]
    fn fault_streams_are_vantage_keyed_not_call_ordered() {
        // Each decision is a pure function of (seed, vantage, site, week,
        // salt, attempt) — never of how many draws other vantages made
        // before it. This is what lets campaigns race across threads and
        // still inject the exact same faults.
        let inj = FaultInjector::new(plan_with_dns(0.5), 99);
        let penn_alone: Vec<Option<DnsFaultKind>> =
            (0..40).map(|site| inj.dns_fault("Penn", site, "A", 1, 0, 0)).collect();
        // Replay Penn's queries interleaved with heavy traffic from the
        // other vantages, in a different order.
        let mut penn_interleaved = Vec::new();
        for site in (0..40).rev() {
            for other in ["Comcast", "LU", "UPCB", "HE", "FreeBSD"] {
                let _ = inj.dns_fault(other, site, "A", 1, 0, 0);
                let _ = inj.dns_fault(other, site, "AAAA", 1, 0, 1);
            }
            penn_interleaved.push(inj.dns_fault("Penn", site, "A", 1, 0, 0));
        }
        penn_interleaved.reverse();
        assert_eq!(penn_alone, penn_interleaved, "Penn's stream moved with scheduling");
        // ...and the vantage really is part of the key: two vantages do
        // not share one fault stream.
        let comcast: Vec<Option<DnsFaultKind>> =
            (0..40).map(|site| inj.dns_fault("Comcast", site, "A", 1, 0, 0)).collect();
        assert_ne!(penn_alone, comcast, "distinct vantages drew identical streams");
    }

    #[test]
    fn built_labels_draw_the_formatted_labels_streams() {
        // Each decision is the coin its formatted label would flip; even
        // odds make every mismatch in the label visible within a few keys.
        let seed = 17;
        let mut p = plan_with_dns(0.5);
        p.http_faults.push(HttpDisruption {
            kind: HttpFaultKind::Reset,
            prob: 0.5,
            stall_ms: 0.0,
            from_week: 0,
            weeks: 10,
        });
        p.link_flaps.push(LinkFlap { family: Family::V6, from_week: 0, weeks: 10, edge_frac: 0.5 });
        p.loss_bursts.push(LossBurst {
            family: Family::V4,
            from_week: 0,
            weeks: 10,
            edge_frac: 0.5,
            extra_loss: 0.1,
        });
        p.xlat_outages.push(XlatOutage { gateway_frac: 0.5, from_week: 0, weeks: 10 });
        let inj = FaultInjector::new(p, seed);
        let flip = |label: String| coin(&mut derive_rng(seed, &label), 0.5);
        for site in [0u32, 1, 9, 4_000_000, u32::MAX] {
            for attempt in [0u32, 1, 2, 3] {
                let want = flip(format!("fault:dns:0:Tsinghua U.:{site}:AAAA:4:3:{attempt}"));
                let got = inj.dns_fault("Tsinghua U.", site, "AAAA", 4, 3, attempt);
                assert_eq!(got.is_some(), want, "dns site {site} attempt {attempt}");
                for family in [Family::V4, Family::V6] {
                    let want =
                        flip(format!("fault:http:0:Penn:{site}:{family:?}:dl:4:0:{attempt}"));
                    let got = inj.http_fault("Penn", site, family, "dl", 4, 0, attempt);
                    assert_eq!(got.is_some(), want, "http site {site} attempt {attempt}");
                }
            }
        }
        for gateway in [0usize, 1, 7, 1000] {
            let want = flip(format!("fault:xlat:0:{gateway}"));
            assert_eq!(inj.xlat_out(gateway, 4), want, "gateway {gateway}");
        }
        for e in [0u32, 3, 12_345, u32::MAX] {
            let want = flip(format!("fault:linkflap:0:{e}"));
            assert_eq!(inj.link_impact(4, Family::V6, &[EdgeId(e)]).down, want, "edge {e}");
            let want = flip(format!("fault:lossburst:0:{e}"));
            let got = inj.link_impact(4, Family::V4, &[EdgeId(e)]).extra_loss > 0.0;
            assert_eq!(got, want, "edge {e}");
        }
    }

    #[test]
    fn http_fault_carries_stall_duration() {
        let mut p = FaultPlan::default();
        p.http_faults.push(HttpDisruption {
            kind: HttpFaultKind::Stall,
            prob: 1.0,
            stall_ms: 321.0,
            from_week: 0,
            weeks: 4,
        });
        let inj = FaultInjector::new(p, 1);
        assert_eq!(
            inj.http_fault("Penn", 9, Family::V6, "dl", 1, 0, 0),
            Some((HttpFaultKind::Stall, 321.0))
        );
        assert_eq!(inj.http_fault("Penn", 9, Family::V6, "dl", 5, 0, 0), None);
    }

    #[test]
    fn link_impact_stable_within_window_and_family_scoped() {
        let mut p = FaultPlan::default();
        p.link_flaps.push(LinkFlap { family: Family::V6, from_week: 2, weeks: 3, edge_frac: 0.5 });
        let inj = FaultInjector::new(p, 11);
        let edges: Vec<EdgeId> = (0..20).map(EdgeId).collect();
        let at3 = inj.link_impact(3, Family::V6, &edges);
        assert_eq!(at3, inj.link_impact(4, Family::V6, &edges), "stable across the window");
        assert!(inj.link_impact(3, Family::V4, &edges).is_clear(), "other family untouched");
        assert!(inj.link_impact(0, Family::V6, &edges).is_clear(), "outside the window");
    }

    #[test]
    fn loss_bursts_compose() {
        let mut p = FaultPlan::default();
        for _ in 0..2 {
            p.loss_bursts.push(LossBurst {
                family: Family::V4,
                from_week: 0,
                weeks: 1,
                edge_frac: 1.0,
                extra_loss: 0.1,
            });
        }
        let inj = FaultInjector::new(p, 5);
        let impact = inj.link_impact(0, Family::V4, &[EdgeId(0)]);
        assert!(!impact.down);
        let expect = 1.0 - 0.9f64 * 0.9;
        assert!((impact.extra_loss - expect).abs() < 1e-12, "got {}", impact.extra_loss);
    }

    #[test]
    fn xlat_outage_is_stable_per_gateway_and_recovers() {
        let mut p = FaultPlan::default();
        p.xlat_outages.push(XlatOutage { gateway_frac: 0.5, from_week: 4, weeks: 2 });
        let inj = FaultInjector::new(p, 21);
        let down4: Vec<bool> = (0..32).map(|g| inj.xlat_out(g, 4)).collect();
        let down5: Vec<bool> = (0..32).map(|g| inj.xlat_out(g, 5)).collect();
        assert_eq!(down4, down5, "membership stable across the window");
        assert!(down4.iter().any(|d| *d) && down4.iter().any(|d| !*d), "half-fraction splits");
        assert!((0..32).all(|g| !inj.xlat_out(g, 3)), "before the window");
        assert!((0..32).all(|g| !inj.xlat_out(g, 6)), "scheduled recovery");
        // certainty and never
        let mut all = FaultPlan::default();
        all.xlat_outages.push(XlatOutage { gateway_frac: 1.0, from_week: 0, weeks: 1 });
        assert!(FaultInjector::new(all, 1).xlat_out(7, 0));
        assert!(!FaultInjector::new(FaultPlan::default(), 1).xlat_out(7, 0));
    }

    #[test]
    fn outage_windows() {
        let mut p = FaultPlan::default();
        p.vantage_outages.push(VantageOutage { vantage: "Penn".into(), from_week: 4, weeks: 2 });
        let inj = FaultInjector::new(p, 0);
        assert!(!inj.vantage_out("Penn", 3));
        assert!(inj.vantage_out("Penn", 4));
        assert!(inj.vantage_out("Penn", 5));
        assert!(!inj.vantage_out("Penn", 6), "scheduled recovery");
        assert!(!inj.vantage_out("Comcast", 4), "other vantages unaffected");
    }
}
