//! Generated vantage populations: hundreds of monitors instead of Table 1's
//! six.
//!
//! "The Blind Men and the Internet" shows conclusions drawn from a handful
//! of vantage points can be artifacts of where you look. A
//! [`VantagePopulation`] is a serde-able spec — count, region mix,
//! academic/commercial split, white-list fraction, client-stack mix — that
//! deterministically samples dual-stack access ASes from the generated
//! topology and turns them into [`VantagePoint`]s. A scenario without a
//! spec keeps the paper's Table 1 six, byte-identically.

use crate::vantage::{VantageKind, VantagePoint};
use ipv6web_stats::derive_rng;
use ipv6web_topology::{AsId, Family, Region, Relationship, Tier, Topology};
use ipv6web_xlat::ClientStack;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Spec for a generated vantage population. Every field has a default, so
/// `{"count": 200}` is a complete spec; an absent spec on the scenario
/// means the paper's Table 1 six.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct VantagePopulation {
    /// How many vantage points to generate.
    pub count: usize,
    /// Region mix as `(region, weight)` pairs; empty means every region
    /// with eligible ASes, weighted equally. Weights are relative, not
    /// normalized. A weighted region whose AS pool runs dry falls back to
    /// the remaining regions rather than failing.
    pub regions: Vec<(Region, f64)>,
    /// Fraction of vantage points on academic networks (the rest are
    /// commercial ISPs). Table 1 is 3/6.
    pub academic_share: f64,
    /// Fraction with BGP `AS_PATH` feeds — only these enter the
    /// path-correlated H1/H2 analysis. Table 1 is 4/6; the default keeps
    /// every generated vantage analyzable.
    pub as_path_share: f64,
    /// Fraction white-listed by Google (Table 1: 1/6).
    pub white_list_share: f64,
    /// Client-stack mix as `(stack, weight)` pairs; empty means all
    /// dual-stack. Translating stacks require `xlat.gateways > 0` on the
    /// scenario.
    pub stacks: Vec<(ClientStack, f64)>,
    /// Start weeks are drawn uniformly from the first `max_start_share`
    /// of the campaign (vantage 0 always starts at week 0, like Penn).
    pub max_start_share: f64,
}

impl Default for VantagePopulation {
    fn default() -> Self {
        VantagePopulation {
            count: 100,
            regions: Vec::new(),
            academic_share: 0.5,
            as_path_share: 1.0,
            white_list_share: 0.15,
            stacks: Vec::new(),
            max_start_share: 0.75,
        }
    }
}

/// Typed error from [`VantagePopulation::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationError {
    /// The topology has fewer eligible (dual-stack access) ASes than the
    /// requested vantage count.
    InsufficientAses {
        /// The requested population size.
        needed: usize,
        /// How many eligible ASes the topology has.
        found: usize,
    },
}

impl std::fmt::Display for PopulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PopulationError::InsufficientAses { needed, found } => write!(
                f,
                "not enough dual-stack access ASes for the vantage population: \
                 {needed} needed, {found} available"
            ),
        }
    }
}

impl std::error::Error for PopulationError {}

impl VantagePopulation {
    /// Structural validation; call before building a world.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("vantage population count must be at least 1".into());
        }
        let share_ok = |name: &str, x: f64| -> Result<(), String> {
            if !(0.0..=1.0).contains(&x) {
                return Err(format!("{name} must be in [0, 1], got {x}"));
            }
            Ok(())
        };
        share_ok("academic_share", self.academic_share)?;
        share_ok("as_path_share", self.as_path_share)?;
        share_ok("white_list_share", self.white_list_share)?;
        share_ok("max_start_share", self.max_start_share)?;
        let weights_ok = |name: &str, ws: &[f64]| -> Result<(), String> {
            if ws.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(format!("{name} weights must be finite and non-negative"));
            }
            if !ws.is_empty() && ws.iter().sum::<f64>() <= 0.0 {
                return Err(format!("{name} weights must not all be zero"));
            }
            Ok(())
        };
        weights_ok("region", &self.regions.iter().map(|(_, w)| *w).collect::<Vec<_>>())?;
        weights_ok("stack", &self.stacks.iter().map(|(_, w)| *w).collect::<Vec<_>>())?;
        Ok(())
    }

    /// Whether the stack mix can assign a NAT64/CLAT stack (which needs
    /// gateways on the scenario).
    pub fn has_translating_stacks(&self) -> bool {
        self.stacks.iter().any(|(s, w)| *w > 0.0 && s.translates_v4())
    }

    /// Deterministically samples the population from `topo` under the
    /// `derive_rng` discipline (label `"vantage-population"`). Vantage
    /// points live in dual-stack access ASes; within each region, ASes
    /// with native (non-tunneled) v6 uplinks are preferred, matching the
    /// paper's "high quality native IPv6 connectivity" requirement.
    ///
    /// Vantage 0 starts at week 0 and imports the DNS-cache tail (the
    /// Penn role), so the Fig 1 / Fig 3b pipelines always have an anchor.
    pub fn generate(
        &self,
        topo: &Topology,
        seed: u64,
        total_weeks: u32,
    ) -> Result<Vec<VantagePoint>, PopulationError> {
        let native_v6 = |id: AsId| {
            topo.neighbors(id, Family::V6).iter().any(|&(_, rel, eid)| {
                rel == Relationship::CustomerOf && topo.edge(eid).tunnel.is_none()
            })
        };
        // Per-region pools of eligible ASes, natives first within each
        // pool; both segments shuffled so the draw is uniform within its
        // preference class.
        let mut rng = derive_rng(seed, "vantage-population");
        let mut pools: Vec<Vec<AsId>> = Vec::with_capacity(Region::ALL.len());
        let mut found = 0usize;
        for region in Region::ALL {
            let mut natives: Vec<AsId> = Vec::new();
            let mut tunneled: Vec<AsId> = Vec::new();
            for n in topo.nodes() {
                if n.tier == Tier::Access && n.is_dual_stack() && n.region == region {
                    if native_v6(n.id) {
                        natives.push(n.id);
                    } else {
                        tunneled.push(n.id);
                    }
                }
            }
            natives.shuffle(&mut rng);
            tunneled.shuffle(&mut rng);
            natives.extend(tunneled);
            found += natives.len();
            pools.push(natives);
        }
        if found < self.count {
            return Err(PopulationError::InsufficientAses { needed: self.count, found });
        }

        let region_weight = |ri: usize| -> f64 {
            if self.regions.is_empty() {
                1.0
            } else {
                self.regions.iter().filter(|(r, _)| *r == Region::ALL[ri]).map(|(_, w)| *w).sum()
            }
        };

        let max_start = (self.max_start_share * total_weeks as f64) as u32;
        let mut vantages = Vec::with_capacity(self.count);
        for i in 0..self.count {
            // weighted region draw over non-empty pools; when every
            // weighted region has run dry, fall back to the rest
            let weight_of = |ri: usize, pools: &[Vec<AsId>]| -> f64 {
                if pools[ri].is_empty() {
                    0.0
                } else {
                    region_weight(ri)
                }
            };
            let mut total: f64 = (0..pools.len()).map(|ri| weight_of(ri, &pools)).sum();
            let fallback = total <= 0.0;
            if fallback {
                total = pools.iter().filter(|p| !p.is_empty()).count() as f64;
            }
            let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut chosen = None;
            for ri in 0..pools.len() {
                let w = if fallback {
                    if pools[ri].is_empty() {
                        0.0
                    } else {
                        1.0
                    }
                } else {
                    weight_of(ri, &pools)
                };
                if w <= 0.0 {
                    continue;
                }
                x -= w;
                chosen = Some(ri);
                if x < 0.0 {
                    break;
                }
            }
            let ri = chosen.expect("found >= count guarantees a non-empty pool");
            let region = Region::ALL[ri];
            let as_id = pools[ri].remove(0);

            let kind = if rng.gen::<f64>() < self.academic_share {
                VantageKind::Academic
            } else {
                VantageKind::Commercial
            };
            let has_as_path = rng.gen::<f64>() < self.as_path_share;
            let white_listed = rng.gen::<f64>() < self.white_list_share;
            let stack = if self.stacks.is_empty() {
                ClientStack::DualStack
            } else {
                let stot: f64 = self.stacks.iter().map(|(_, w)| *w).sum();
                let mut sx = rng.gen_range(0.0..stot.max(f64::MIN_POSITIVE));
                let mut picked = ClientStack::DualStack;
                for (s, w) in &self.stacks {
                    if *w <= 0.0 {
                        continue;
                    }
                    sx -= w;
                    picked = *s;
                    if sx < 0.0 {
                        break;
                    }
                }
                picked
            };
            let start_week = if max_start == 0 {
                0
            } else {
                rng.gen_range(0..max_start.min(total_weeks.saturating_sub(1).max(1)))
            };
            // vantage 0 is the anchor: week 0, AS_PATH feed, external tail
            let anchor = i == 0;
            vantages.push(VantagePoint {
                name: format!("VP-{i:03}"),
                location: format!("{region:?}"),
                as_id,
                start_week: if anchor { 0 } else { start_week },
                has_as_path: has_as_path || anchor,
                white_listed: white_listed && !anchor,
                kind,
                external_inputs: anchor,
                stack: if anchor { ClientStack::DualStack } else { stack },
            });
        }
        Ok(vantages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6web_topology::{generate, TopologyConfig};

    fn topo() -> Topology {
        let mut cfg = TopologyConfig::scaled(700);
        cfg.dual.access_adoption = 0.6;
        generate(&cfg, 7)
    }

    #[test]
    fn generation_is_deterministic_and_distinct() {
        let t = topo();
        let pop = VantagePopulation { count: 40, ..Default::default() };
        let a = pop.generate(&t, 11, 26).unwrap();
        let b = pop.generate(&t, 11, 26).unwrap();
        assert_eq!(a, b, "same seed, same population");
        assert_eq!(a.len(), 40);
        let mut seen = std::collections::BTreeSet::new();
        for v in &a {
            assert!(seen.insert(v.as_id), "vantage ASes must be distinct");
            assert_eq!(t.node(v.as_id).tier, Tier::Access);
            assert!(t.node(v.as_id).is_dual_stack());
            assert!(v.start_week < 26);
        }
        let c = pop.generate(&t, 12, 26).unwrap();
        assert_ne!(a, c, "different seed, different population");
    }

    #[test]
    fn anchor_vantage_plays_the_penn_role() {
        let t = topo();
        let pop = VantagePopulation { count: 10, as_path_share: 0.0, ..Default::default() };
        let vps = pop.generate(&t, 3, 26).unwrap();
        assert_eq!(vps[0].start_week, 0);
        assert!(vps[0].has_as_path, "anchor keeps an AS_PATH feed");
        assert!(vps[0].external_inputs, "anchor imports the tail");
        assert!(vps[1..].iter().all(|v| !v.has_as_path && !v.external_inputs));
    }

    #[test]
    fn region_mix_is_respected() {
        let t = topo();
        let pop = VantagePopulation {
            count: 5,
            regions: vec![(Region::Asia, 1.0)],
            ..Default::default()
        };
        let vps = pop.generate(&t, 9, 26).unwrap();
        assert!(vps.iter().all(|v| t.node(v.as_id).region == Region::Asia), "{vps:?}");
    }

    #[test]
    fn stack_mix_assigns_stacks() {
        let t = topo();
        let pop = VantagePopulation {
            count: 12,
            stacks: vec![(ClientStack::V6Only, 1.0)],
            ..Default::default()
        };
        assert!(pop.has_translating_stacks());
        let vps = pop.generate(&t, 4, 26).unwrap();
        // the anchor stays dual-stack; everyone else gets the mix
        assert_eq!(vps[0].stack, ClientStack::DualStack);
        assert!(vps[1..].iter().all(|v| v.stack == ClientStack::V6Only));
    }

    #[test]
    fn too_small_topology_is_a_typed_error() {
        let mut cfg = TopologyConfig::scaled(300);
        cfg.dual.access_adoption = 0.0;
        let t = generate(&cfg, 5);
        let pop = VantagePopulation { count: 50, ..Default::default() };
        let err = pop.generate(&t, 1, 26).unwrap_err();
        assert_eq!(err, PopulationError::InsufficientAses { needed: 50, found: 0 });
        assert!(err.to_string().contains("50 needed"));
    }

    #[test]
    fn spec_validates() {
        assert!(VantagePopulation::default().validate().is_ok());
        let bad = VantagePopulation { count: 0, ..VantagePopulation::default() };
        assert!(bad.validate().is_err());
        let bad = VantagePopulation { academic_share: 1.5, ..VantagePopulation::default() };
        assert!(bad.validate().is_err());
        let bad = VantagePopulation {
            regions: vec![(Region::Europe, -1.0)],
            ..VantagePopulation::default()
        };
        assert!(bad.validate().is_err());
        let bad = VantagePopulation {
            stacks: vec![(ClientStack::V6Only, 0.0)],
            ..VantagePopulation::default()
        };
        assert!(bad.validate().is_err(), "all-zero stack weights rejected");
    }

    #[test]
    fn partial_spec_deserializes_with_defaults() {
        let v: VantagePopulation = serde_json::from_str(r#"{"count": 200}"#).unwrap();
        assert_eq!(v.count, 200);
        assert_eq!(v.academic_share, VantagePopulation::default().academic_share);
        let d = VantagePopulation::default();
        let json = serde_json::to_string(&d).unwrap();
        let back: VantagePopulation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d, "round-trips");
    }
}
