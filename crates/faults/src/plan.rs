//! The serde-able description of everything that goes wrong.

use crate::clock::RetryPolicy;
use serde::{Deserialize, Serialize};

/// What a disrupted DNS exchange looks like from the stub resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsFaultKind {
    /// The authority answers SERVFAIL.
    ServFail,
    /// The query times out entirely.
    Timeout,
    /// The response arrives torn and fails to parse.
    Truncated,
}

/// What a disrupted HTTP exchange looks like from the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HttpFaultKind {
    /// The server stalls before responding (extra think time).
    Stall,
    /// The connection is reset mid-exchange.
    Reset,
    /// The response is truncated before the header terminator.
    Truncate,
}

/// A window of weeks during which some edges of one family are down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// Family whose forwarding is affected.
    pub family: ipv6web_topology::Family,
    /// First affected week.
    pub from_week: u32,
    /// Window length, weeks (the link recovers afterwards).
    pub weeks: u32,
    /// Fraction of edges (sampled per edge, stable for the window) down.
    pub edge_frac: f64,
}

/// A window of weeks during which some edges carry extra loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossBurst {
    /// Family whose paths are affected.
    pub family: ipv6web_topology::Family,
    /// First affected week.
    pub from_week: u32,
    /// Window length, weeks.
    pub weeks: u32,
    /// Fraction of edges affected (sampled per edge, stable for the
    /// window).
    pub edge_frac: f64,
    /// Extra loss probability composed onto each affected edge.
    pub extra_loss: f64,
}

/// A BGP session flap: at `week`, a fraction of eligible edges gains or
/// loses IPv6, feeding an extra route-change epoch on top of the
/// scenario's scheduled one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BgpFlap {
    /// Week the new routing epoch takes effect.
    pub week: u32,
    /// Fraction of eligible v4-only edges that start carrying IPv6.
    pub gain_frac: f64,
    /// Fraction of eligible native v6 edges that stop.
    pub loss_frac: f64,
}

/// A window of per-query DNS disruption.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DnsDisruption {
    /// Failure mode.
    pub kind: DnsFaultKind,
    /// Per-query injection probability.
    pub prob: f64,
    /// First affected week.
    pub from_week: u32,
    /// Window length, weeks.
    pub weeks: u32,
}

/// A window of per-exchange HTTP disruption.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HttpDisruption {
    /// Failure mode.
    pub kind: HttpFaultKind,
    /// Per-exchange injection probability.
    pub prob: f64,
    /// Extra server think time for [`HttpFaultKind::Stall`], ms (ignored
    /// by the other kinds).
    pub stall_ms: f64,
    /// First affected week.
    pub from_week: u32,
    /// Window length, weeks.
    pub weeks: u32,
}

/// A whole-vantage outage with scheduled recovery: the monitor is dark for
/// the window and resumes afterwards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VantageOutage {
    /// Vantage point name (must match a Table 1 name to have any effect).
    pub vantage: String,
    /// First dark week.
    pub from_week: u32,
    /// Outage length, weeks.
    pub weeks: u32,
}

/// A window of weeks during which a fraction of NAT64 gateways is down:
/// translated paths through a dead gateway fail over to the next gateway
/// in the vantage's preference order (or fail outright if none is left),
/// and recover when the window closes. Has no effect on scenarios without
/// a translation plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XlatOutage {
    /// Fraction of gateways down (sampled per gateway, stable for the
    /// window).
    pub gateway_frac: f64,
    /// First affected week.
    pub from_week: u32,
    /// Window length, weeks (gateways recover afterwards).
    pub weeks: u32,
}

/// Everything that goes wrong in one campaign, plus how probes retry
/// through it. An empty (default) plan injects nothing and leaves every
/// output byte-identical to a run without fault support.
///
/// Every field may be omitted and defaults to empty / [`RetryPolicy::paper`],
/// so `{}` is a valid no-op plan file.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Retry/backoff policy used by fault-aware consumers.
    pub retry: RetryPolicy,
    /// Link-down windows.
    pub link_flaps: Vec<LinkFlap>,
    /// Elevated-loss windows.
    pub loss_bursts: Vec<LossBurst>,
    /// BGP session flaps (extra route-change epochs).
    pub bgp_flaps: Vec<BgpFlap>,
    /// DNS disruption windows.
    pub dns_faults: Vec<DnsDisruption>,
    /// HTTP disruption windows.
    pub http_faults: Vec<HttpDisruption>,
    /// Whole-vantage outages.
    pub vantage_outages: Vec<VantageOutage>,
    /// NAT64 gateway outages.
    pub xlat_outages: Vec<XlatOutage>,
}

fn window_ok(from_week: u32, weeks: u32, total_weeks: u32, what: &str) -> Result<(), String> {
    if weeks == 0 {
        return Err(format!("{what}: window must last at least one week"));
    }
    if from_week >= total_weeks {
        return Err(format!("{what}: from_week {from_week} beyond campaign ({total_weeks} weeks)"));
    }
    if from_week + weeks > total_weeks {
        return Err(format!("{what}: window [{from_week}, {}) beyond campaign", from_week + weeks));
    }
    Ok(())
}

fn frac_ok(v: f64, what: &str) -> Result<(), String> {
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(format!("{what} must be in [0, 1], got {v}"));
    }
    Ok(())
}

impl FaultPlan {
    /// True when the plan injects nothing (the retry policy is ignored —
    /// with no faults there is nothing to retry).
    pub fn is_empty(&self) -> bool {
        self.link_flaps.is_empty()
            && self.loss_bursts.is_empty()
            && self.bgp_flaps.is_empty()
            && self.dns_faults.is_empty()
            && self.http_faults.is_empty()
            && self.vantage_outages.is_empty()
            && self.xlat_outages.is_empty()
    }

    /// Checks every window and probability against a campaign of
    /// `total_weeks` weeks.
    pub fn validate(&self, total_weeks: u32) -> Result<(), String> {
        self.retry.validate()?;
        for (i, f) in self.link_flaps.iter().enumerate() {
            window_ok(f.from_week, f.weeks, total_weeks, &format!("link_flaps[{i}]"))?;
            frac_ok(f.edge_frac, &format!("link_flaps[{i}].edge_frac"))?;
        }
        for (i, f) in self.loss_bursts.iter().enumerate() {
            window_ok(f.from_week, f.weeks, total_weeks, &format!("loss_bursts[{i}]"))?;
            frac_ok(f.edge_frac, &format!("loss_bursts[{i}].edge_frac"))?;
            frac_ok(f.extra_loss, &format!("loss_bursts[{i}].extra_loss"))?;
            if f.extra_loss >= 1.0 {
                return Err(format!("loss_bursts[{i}].extra_loss must stay below 1.0"));
            }
        }
        for (i, f) in self.bgp_flaps.iter().enumerate() {
            if f.week == 0 || f.week >= total_weeks {
                return Err(format!("bgp_flaps[{i}]: epoch week must fall inside the campaign"));
            }
            frac_ok(f.gain_frac, &format!("bgp_flaps[{i}].gain_frac"))?;
            frac_ok(f.loss_frac, &format!("bgp_flaps[{i}].loss_frac"))?;
        }
        for (i, f) in self.dns_faults.iter().enumerate() {
            window_ok(f.from_week, f.weeks, total_weeks, &format!("dns_faults[{i}]"))?;
            frac_ok(f.prob, &format!("dns_faults[{i}].prob"))?;
        }
        for (i, f) in self.http_faults.iter().enumerate() {
            window_ok(f.from_week, f.weeks, total_weeks, &format!("http_faults[{i}]"))?;
            frac_ok(f.prob, &format!("http_faults[{i}].prob"))?;
            if !f.stall_ms.is_finite() || f.stall_ms < 0.0 {
                return Err(format!("http_faults[{i}].stall_ms must be finite and non-negative"));
            }
        }
        for (i, f) in self.vantage_outages.iter().enumerate() {
            window_ok(f.from_week, f.weeks, total_weeks, &format!("vantage_outages[{i}]"))?;
            if f.vantage.is_empty() {
                return Err(format!("vantage_outages[{i}]: vantage name must not be empty"));
            }
        }
        for (i, f) in self.xlat_outages.iter().enumerate() {
            window_ok(f.from_week, f.weeks, total_weeks, &format!("xlat_outages[{i}]"))?;
            frac_ok(f.gateway_frac, &format!("xlat_outages[{i}].gateway_frac"))?;
        }
        Ok(())
    }

    /// The `repro faults` demo: a bit of everything, scheduled relative to
    /// the campaign length. Valid for any campaign of at least 6 weeks.
    pub fn demo(total_weeks: u32) -> FaultPlan {
        let mid = total_weeks / 2;
        let third = total_weeks / 3;
        FaultPlan {
            retry: RetryPolicy::paper(),
            link_flaps: vec![LinkFlap {
                family: ipv6web_topology::Family::V6,
                from_week: third,
                weeks: 2,
                edge_frac: 0.01,
            }],
            loss_bursts: vec![LossBurst {
                family: ipv6web_topology::Family::V6,
                from_week: mid,
                weeks: 3.min(total_weeks - mid),
                edge_frac: 0.05,
                extra_loss: 0.02,
            }],
            bgp_flaps: vec![BgpFlap {
                week: (2 * total_weeks / 3).max(1),
                gain_frac: 0.01,
                loss_frac: 0.005,
            }],
            dns_faults: vec![
                DnsDisruption {
                    kind: DnsFaultKind::ServFail,
                    prob: 0.01,
                    from_week: 0,
                    weeks: total_weeks,
                },
                DnsDisruption {
                    kind: DnsFaultKind::Timeout,
                    prob: 0.005,
                    from_week: mid,
                    weeks: 2,
                },
            ],
            http_faults: vec![
                HttpDisruption {
                    kind: HttpFaultKind::Stall,
                    prob: 0.01,
                    stall_ms: 750.0,
                    from_week: 0,
                    weeks: total_weeks,
                },
                HttpDisruption {
                    kind: HttpFaultKind::Reset,
                    prob: 0.005,
                    stall_ms: 0.0,
                    from_week: 0,
                    weeks: total_weeks,
                },
                HttpDisruption {
                    kind: HttpFaultKind::Truncate,
                    prob: 0.003,
                    stall_ms: 0.0,
                    from_week: third,
                    weeks: 2,
                },
            ],
            // Penn monitors from week 0 at every scale, so the outage
            // window always overlaps its live campaign
            vantage_outages: vec![VantageOutage {
                vantage: "Penn".into(),
                from_week: mid,
                weeks: 2.min(total_weeks - mid),
            }],
            // gateway outages only bite nat64-tier scenarios; the demo plan
            // runs on the classic dual-stack tiers
            xlat_outages: vec![],
        }
    }

    /// Week windows `[start, end]` (end inclusive, the recovery week
    /// included) during which injected faults can shift measured levels —
    /// what the sanitizer uses to attribute Table 3 transitions to the
    /// plan. Per-probe DNS/HTTP noise does not shift levels and is
    /// excluded.
    pub fn disruption_windows(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for f in &self.link_flaps {
            out.push((f.from_week, f.from_week + f.weeks));
        }
        for f in &self.loss_bursts {
            out.push((f.from_week, f.from_week + f.weeks));
        }
        for f in &self.bgp_flaps {
            out.push((f.week, f.week + 1));
        }
        for f in &self.vantage_outages {
            out.push((f.from_week, f.from_week + f.weeks));
        }
        for f in &self.xlat_outages {
            out.push((f.from_week, f.from_week + f.weeks));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert_eq!(p.validate(10), Ok(()));
        assert!(p.disruption_windows().is_empty());
    }

    #[test]
    fn demo_plan_valid_at_both_scales() {
        for weeks in [12, 26, 52] {
            let p = FaultPlan::demo(weeks);
            assert!(!p.is_empty());
            assert_eq!(p.validate(weeks), Ok(()), "{weeks} weeks");
            assert!(!p.disruption_windows().is_empty());
        }
    }

    #[test]
    fn windows_validated_against_campaign() {
        let mut p = FaultPlan::default();
        p.dns_faults.push(DnsDisruption {
            kind: DnsFaultKind::ServFail,
            prob: 0.5,
            from_week: 8,
            weeks: 5,
        });
        assert!(p.validate(12).is_err(), "window spills past the campaign");
        assert!(p.validate(13).is_ok());
        p.dns_faults[0].prob = 1.5;
        assert!(p.validate(13).is_err(), "probability out of range");
    }

    #[test]
    fn zero_length_window_rejected() {
        let mut p = FaultPlan::default();
        p.vantage_outages.push(VantageOutage { vantage: "Penn".into(), from_week: 2, weeks: 0 });
        assert!(p.validate(10).is_err());
    }

    #[test]
    fn empty_json_object_deserializes_to_empty_plan() {
        let p: FaultPlan = serde_json::from_str("{}").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.retry, RetryPolicy::paper());
    }

    #[test]
    fn serde_roundtrip() {
        let mut p = FaultPlan::demo(26);
        p.xlat_outages.push(XlatOutage { gateway_frac: 0.5, from_week: 3, weeks: 2 });
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn xlat_outage_validated_like_any_window() {
        let mut p = FaultPlan::default();
        p.xlat_outages.push(XlatOutage { gateway_frac: 0.5, from_week: 8, weeks: 5 });
        assert!(!p.is_empty());
        assert!(p.validate(12).is_err(), "window spills past the campaign");
        assert!(p.validate(13).is_ok());
        assert_eq!(p.disruption_windows(), vec![(8, 13)]);
        p.xlat_outages[0].gateway_frac = 1.5;
        assert!(p.validate(13).is_err(), "fraction out of range");
        // a pre-xlat plan file still parses, with no gateway outages
        let old: FaultPlan = serde_json::from_str("{\"link_flaps\": []}").unwrap();
        assert!(old.xlat_outages.is_empty());
    }

    #[test]
    fn disruption_windows_cover_level_shifting_faults() {
        let p = FaultPlan::demo(26);
        let w = p.disruption_windows();
        assert!(w.contains(&(13, 16)), "loss burst window, got {w:?}");
        assert!(w.contains(&(17, 18)), "bgp flap window, got {w:?}");
    }
}
