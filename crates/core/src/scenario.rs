//! Scenario configuration: every knob of the study in one place.

use ipv6web_alexa::AdoptionTimeline;
use ipv6web_analysis::AnalysisConfig;
use ipv6web_faults::FaultPlan;
use ipv6web_monitor::{CampaignConfig, DisturbanceConfig, VantagePoint, VantagePopulation};
use ipv6web_netsim::TcpConfig;
use ipv6web_stats::{fnv1a64, RelativeCiRule};
use ipv6web_topology::{AsId, TopologyConfig};
use ipv6web_web::PopulationConfig;
use ipv6web_xlat::{ClientStack, XlatConfig};
use serde::{Deserialize, Serialize};

/// A complete, reproducible study configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Master seed; every component derives its own stream from it.
    pub seed: u64,
    /// AS-level topology parameters.
    pub topology: TopologyConfig,
    /// Site population parameters (its adoption curve is overwritten from
    /// `timeline` at build time).
    pub population: PopulationConfig,
    /// Number of extra "DNS-cache tail" sites appended beyond the ranked
    /// list (Penn's external inputs, Fig 3b's 5M-sites series).
    pub tail_sites: usize,
    /// The adoption calendar (Fig 1's jumps).
    pub timeline: AdoptionTimeline,
    /// Campaign execution parameters.
    pub campaign: CampaignConfig,
    /// Injected performance messiness (Table 3's causes).
    pub disturbances: DisturbanceConfig,
    /// TCP model.
    pub tcp: TcpConfig,
    /// The monitor's repeat-until-confident rule.
    pub ci_rule: RelativeCiRule,
    /// Page identity threshold (paper: 0.06).
    pub identity_threshold: f64,
    /// Cross-round congestion noise (log-normal σ).
    pub round_noise_sigma: f64,
    /// Analysis thresholds.
    pub analysis: AnalysisConfig,
    /// Campaign week Fig 1's plot starts at (Dec 2010 in the paper).
    pub fig1_from_week: u32,
    /// Mid-campaign IPv6 route changes: `(epoch week, gain fraction, loss
    /// fraction)`. At the epoch week, that fraction of eligible v4-only
    /// edges starts carrying IPv6 and that fraction of native v6 edges
    /// stops — the real path changes behind part of Table 3's transitions.
    pub route_change: Option<(u32, f64, f64)>,
    /// Deterministic fault injection: link flaps, loss bursts, BGP session
    /// flaps, DNS and HTTP disruptions, vantage outages. An empty plan
    /// (the default, and what scenario files written before fault
    /// injection deserialize to) runs the fault-free pipeline
    /// bit-identically.
    #[serde(default)]
    pub faults: FaultPlan,
    /// Directory for per-round campaign checkpoints; `None` disables
    /// checkpointing. A later run with the same directory resumes each
    /// vantage point from its last completed round.
    pub checkpoint_dir: Option<String>,
    /// The NAT64/DNS64/464XLAT transition plane: gateway placement, the
    /// stateful-translation cost model, and the per-vantage client-stack
    /// assignment. The default (zero gateways, all vantages dual-stack)
    /// runs the classic pipeline bit-identically; scenario files written
    /// before the transition tier carry no `xlat` key and deserialize to
    /// that default.
    #[serde(default)]
    pub xlat: XlatConfig,
    /// Generated vantage population: count, region mix, access-type
    /// split, white-list fraction, client-stack mix. `None` (the default,
    /// and what scenario files written before this field deserialize to)
    /// keeps the paper's Table 1 six, byte-identically.
    pub vantage_population: Option<VantagePopulation>,
}

/// A scale tier's constructor: the tier's scenario at a seed.
type ScaleFn = fn(u64) -> Scenario;

/// Every named scale tier and the [`Scenario`] constructor it stands for,
/// in the order usage lines and error messages list them.
pub const SCALES: &[(&str, ScaleFn)] = &[
    ("quick", Scenario::quick),
    ("paper", Scenario::paper),
    ("faults", Scenario::faults),
    ("internet", Scenario::internet),
    ("internet-smoke", Scenario::internet_smoke),
    ("nat64", Scenario::nat64),
    ("panel", Scenario::panel),
];

impl Scenario {
    /// The full paper-scale scenario: ≈4000 ASes, 120k ranked sites plus a
    /// 30k tail, 52 weekly rounds from six vantage points. Takes minutes;
    /// use [`Scenario::quick`] for tests and examples.
    pub fn paper(seed: u64) -> Self {
        let timeline = AdoptionTimeline::paper();
        let population = PopulationConfig::paper_scale(timeline.total_weeks, timeline.curve());
        Scenario {
            seed,
            topology: TopologyConfig::paper_scale(),
            population,
            tail_sites: 30_000,
            timeline,
            campaign: CampaignConfig::paper(),
            disturbances: DisturbanceConfig::paper(),
            tcp: TcpConfig::paper(),
            ci_rule: RelativeCiRule::paper(),
            identity_threshold: 0.06,
            round_noise_sigma: 0.08,
            analysis: AnalysisConfig::paper(),
            fig1_from_week: 17, // 2010-12-09
            route_change: Some((26, 0.03, 0.01)),
            faults: FaultPlan::default(),
            checkpoint_dir: None,
            xlat: XlatConfig::default(),
            vantage_population: None,
        }
    }

    /// A laptop-seconds scenario preserving every mechanism at small scale
    /// (elevated adoption so dual-stack analysis still has data).
    pub fn quick(seed: u64) -> Self {
        let mut timeline = AdoptionTimeline::paper();
        timeline.total_weeks = 26;
        timeline.iana_week = 8;
        timeline.ipv6_day_week = 20;
        let mut population =
            PopulationConfig::test_small(timeline.total_weeks).with_curve(timeline.curve());
        population.n_sites = 2_500;
        let mut campaign = CampaignConfig::paper();
        campaign.total_weeks = timeline.total_weeks;
        campaign.workers = 8;
        campaign.ipv6_day_rounds = 6;
        let mut analysis = AnalysisConfig::paper();
        analysis.min_paired_samples = 6;
        Scenario {
            seed,
            topology: TopologyConfig::test_small(),
            population,
            tail_sites: 600,
            timeline,
            campaign: CampaignConfig { ..campaign },
            disturbances: DisturbanceConfig::paper(),
            tcp: TcpConfig::paper(),
            ci_rule: RelativeCiRule::paper(),
            identity_threshold: 0.06,
            round_noise_sigma: 0.08,
            analysis,
            fig1_from_week: 4,
            route_change: Some((13, 0.03, 0.01)),
            faults: FaultPlan::default(),
            checkpoint_dir: None,
            xlat: XlatConfig::default(),
            vantage_population: None,
        }
    }

    /// The paper-magnitude "whole internet" tier: ~37k ASes (the
    /// internet's size in 2011), one million ranked sites plus a 100k
    /// DNS-cache tail, 26 weekly rounds. Site names are interned and
    /// tables are columnar; route tables come from the same streamed
    /// [`ipv6web_bgp::RouteChain`] as every tier, which never holds more
    /// than one destination's per-AS routes per worker thread. Hosting
    /// concentrates into a 2,500-AS pool, matching
    /// the paper's observation that the top sites cluster into a few
    /// thousand hosting/CDN ASes and keeping the destination set (and
    /// with it route-computation time) bounded.
    pub fn internet(seed: u64) -> Self {
        let mut timeline = AdoptionTimeline::paper();
        timeline.total_weeks = 26;
        timeline.iana_week = 8;
        timeline.ipv6_day_week = 20;
        let mut population = PopulationConfig::paper_scale(timeline.total_weeks, timeline.curve());
        population.n_sites = 1_000_000;
        population.hosting_pool_cap = Some(2_500);
        let mut campaign = CampaignConfig::paper();
        campaign.total_weeks = timeline.total_weeks;
        Scenario {
            seed,
            topology: TopologyConfig::internet_scale(),
            population,
            tail_sites: 100_000,
            timeline,
            campaign,
            disturbances: DisturbanceConfig::paper(),
            tcp: TcpConfig::paper(),
            ci_rule: RelativeCiRule::paper(),
            identity_threshold: 0.06,
            round_noise_sigma: 0.08,
            analysis: AnalysisConfig::paper(),
            fig1_from_week: 8,
            route_change: Some((13, 0.03, 0.01)),
            faults: FaultPlan::default(),
            checkpoint_dir: None,
            xlat: XlatConfig::default(),
            vantage_population: None,
        }
    }

    /// A downsized internet tier (~5k ASes, 50k sites) exercising the
    /// same interned, columnar pipeline as [`Scenario::internet`] at
    /// CI-smoke cost. Used by the determinism tests and CI's tier smoke
    /// matrix.
    pub fn internet_smoke(seed: u64) -> Self {
        let mut s = Scenario::internet(seed);
        s.topology = TopologyConfig::scaled(5_000);
        s.population.n_sites = 50_000;
        s.population.hosting_pool_cap = Some(600);
        s.tail_sites = 5_000;
        s
    }

    /// [`Scenario::quick`] with the demo fault plan active: the `repro
    /// faults` chaos scenario.
    pub fn faults(seed: u64) -> Self {
        let mut s = Scenario::quick(seed);
        s.faults = FaultPlan::demo(s.timeline.total_weeks);
        s
    }

    /// [`Scenario::quick`] with the NAT64/DNS64/464XLAT transition plane
    /// active: three translator gateways in the provider core, two
    /// vantage points re-homed as v6-only hosts behind DNS64 (Go6 and
    /// Loughborough — early v6-only deployers in practice) and two as
    /// 464XLAT clients with an on-host CLAT (Tsinghua and UPC Broadband).
    /// Comcast and Penn stay dual-stack, anchoring the native baseline the
    /// translated paths are compared against in the report's xlat section.
    pub fn nat64(seed: u64) -> Self {
        let mut s = Scenario::quick(seed);
        s.xlat = XlatConfig {
            gateways: 3,
            stacks: vec![
                ("Go6-Slovenia".into(), ClientStack::V6Only),
                ("Loughborough U.".into(), ClientStack::V6Only),
                ("Tsinghua U.".into(), ClientStack::V6OnlyClat),
                ("UPC Broadband".into(), ClientStack::V6OnlyClat),
            ],
            ..XlatConfig::default()
        };
        s
    }

    /// The vantage-panel tier: 200 generated vantage points (instead of
    /// Table 1's six) drawn from a ~2000-AS topology with elevated access
    /// adoption so the panel fits, monitoring a reduced site list at
    /// quick-world cost per campaign. The report gains a cross-vantage
    /// disagreement section: per-vantage H1/H2 verdicts, agreement rates
    /// with 95% CIs, and which conclusions flip with placement.
    pub fn panel(seed: u64) -> Self {
        let mut s = Scenario::quick(seed);
        s.topology = TopologyConfig::scaled(2_000);
        // the quick tier's elevated adoption, and enough dual-stack
        // access ASes to host hundreds of monitors
        s.topology.dual.access_adoption = 0.6;
        s.population.n_sites = 800;
        s.tail_sites = 200;
        // 200 vantages × participants makes per-vantage day rounds the
        // dominant cost; two rounds keep the event analyzable
        s.campaign.ipv6_day_rounds = 2;
        s.vantage_population = Some(VantagePopulation { count: 200, ..Default::default() });
        s
    }

    /// The scenario of the scale tier `name` (one of [`SCALES`]) at
    /// `seed`. The error names `name` and lists every tier.
    pub fn scale(name: &str, seed: u64) -> Result<Scenario, String> {
        if let Some((_, build)) = SCALES.iter().find(|(n, _)| *n == name) {
            return Ok(build(seed));
        }
        let names: Vec<&str> = SCALES.iter().map(|(n, _)| *n).collect();
        let (last, rest) = names.split_last().expect("SCALES is not empty");
        Err(format!("unknown scale `{name}` (expected {}, or {last})", rest.join(", ")))
    }

    /// Resolves a study request that names either a scale tier (with an
    /// optional seed) or a full inline scenario, as the daemon's job
    /// submissions and the sweep's base scenario do: a `scale` or an
    /// `inline` scenario, never both; `seed` only with a scale; defaults
    /// `quick` and seed 42. The checkpoint directory is always cleared,
    /// because the service's store owns checkpoint placement.
    pub fn resolve_request(
        scale: Option<&str>,
        seed: Option<u64>,
        inline: Option<&Scenario>,
    ) -> Result<Scenario, String> {
        let mut scenario = match (inline, scale) {
            (Some(_), Some(_)) => {
                return Err("give either `scale` or an inline `scenario`, not both".into())
            }
            (Some(_), None) if seed.is_some() => {
                return Err("`seed` only applies to a named `scale`; \
                            an inline scenario carries its own seed"
                    .into())
            }
            (Some(sc), None) => sc.clone(),
            (None, name) => Scenario::scale(name.unwrap_or("quick"), seed.unwrap_or(42))?,
        };
        scenario.checkpoint_dir = None;
        Ok(scenario)
    }

    /// This scenario re-seeded. The sweep axes are built from these
    /// `with_*` combinators: each returns a fresh scenario differing in
    /// exactly one knob, so a sweep's study matrix is a pure function of
    /// its base scenario and axis lists.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// This scenario with the IPv6 peer-peer parity probability — the
    /// paper's headline knob — set to `parity`.
    pub fn with_peering_parity(mut self, parity: f64) -> Scenario {
        self.topology.dual.peering_parity = parity;
        self
    }

    /// This scenario under a different adoption timeline, re-syncing every
    /// knob [`Scenario::validate`] ties to the calendar: the campaign
    /// length follows the timeline, and `fig1_from_week` / the
    /// route-change epoch are clamped back inside a shortened campaign
    /// (preserving their week when it still fits).
    pub fn with_timeline(mut self, timeline: AdoptionTimeline) -> Scenario {
        self.campaign.total_weeks = timeline.total_weeks;
        self.fig1_from_week = self.fig1_from_week.min(timeline.total_weeks.saturating_sub(1));
        if let Some((week, gain, loss)) = self.route_change {
            let clamped = week.clamp(1, timeline.total_weeks.saturating_sub(1).max(1));
            self.route_change = Some((clamped, gain, loss));
        }
        self.timeline = timeline;
        self
    }

    /// Validates cross-component consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        if self.campaign.total_weeks != self.timeline.total_weeks {
            return Err(format!(
                "campaign weeks ({}) must match timeline weeks ({})",
                self.campaign.total_weeks, self.timeline.total_weeks
            ));
        }
        if self.timeline.ipv6_day_week >= self.timeline.total_weeks {
            return Err("IPv6 day must fall inside the campaign".into());
        }
        if self.fig1_from_week >= self.timeline.total_weeks {
            return Err("fig1_from_week beyond campaign end".into());
        }
        if !(0.0..1.0).contains(&self.identity_threshold) {
            return Err("identity threshold outside [0,1)".into());
        }
        // site ids (and ranks, id + 1) are u32; a larger population would
        // abort on its allocation before the generator's own id check
        let (n_sites, tail_sites) = (self.population.n_sites, self.tail_sites);
        if n_sites.checked_add(tail_sites).is_none_or(|total| total > u32::MAX as usize) {
            return Err(format!(
                "population.n_sites ({n_sites}) + tail_sites ({tail_sites}) exceeds the \
                 {} site ids available",
                u32::MAX
            ));
        }
        if self.round_noise_sigma.is_nan() {
            return Err("round_noise_sigma is NaN".into());
        }
        if self.population.hosting_zipf_exponent.is_nan() {
            return Err("population.hosting_zipf_exponent is NaN".into());
        }
        if let Some((week, gain, loss)) = self.route_change {
            if week == 0 || week >= self.timeline.total_weeks {
                return Err("route-change epoch must fall inside the campaign".into());
            }
            if !(0.0..=1.0).contains(&gain) || !(0.0..=1.0).contains(&loss) {
                return Err("route-change fractions outside [0,1]".into());
            }
        }
        self.campaign.validate().map_err(|e| format!("campaign: {e}"))?;
        self.faults.validate(self.timeline.total_weeks).map_err(|e| format!("fault plan: {e}"))?;
        self.xlat.validate().map_err(|e| format!("xlat: {e}"))?;
        match &self.vantage_population {
            None => {
                let table1 = VantagePoint::paper_table1(&[AsId(0); 6]);
                for (name, _) in &self.xlat.stacks {
                    if !table1.iter().any(|v| v.name == *name) {
                        return Err(format!(
                            "xlat: unknown vantage point {name:?} in stack assignment"
                        ));
                    }
                }
            }
            Some(pop) => {
                pop.validate().map_err(|e| format!("vantage_population: {e}"))?;
                if !self.xlat.stacks.is_empty() {
                    return Err("vantage_population and xlat.stacks are mutually exclusive; \
                                put the client-stack mix on the population spec"
                        .into());
                }
                if pop.has_translating_stacks() && self.xlat.gateways == 0 {
                    return Err("vantage_population stack mix assigns translating stacks \
                                but xlat.gateways is 0"
                        .into());
                }
            }
        }
        Ok(())
    }

    /// Total site count including the tail.
    pub fn total_sites(&self) -> usize {
        self.population.n_sites + self.tail_sites
    }

    /// This scenario with its checkpoint directory cleared — the
    /// *report-identity* configuration. Two scenarios with equal identity
    /// configurations produce byte-identical reports (where checkpoints
    /// land never changes a result, only where a crashed run resumes
    /// from), so this is what world caches and job stores key on.
    pub fn identity_scenario(&self) -> Scenario {
        let mut s = self.clone();
        s.checkpoint_dir = None;
        s
    }

    /// FNV-1a 64-bit hash of the identity scenario's canonical JSON.
    ///
    /// The vendored serde serializes struct fields in declaration order,
    /// so the JSON — and with it this hash — is deterministic across runs
    /// and processes. Used as the config-hash component of daemon job ids
    /// and as the world-cache key: equal hashes ⇒ same built world and a
    /// byte-identical report.
    pub fn config_hash(&self) -> u64 {
        let json =
            serde_json::to_string(&self.identity_scenario()).expect("scenario always serializes");
        fnv1a64(json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(Scenario::paper(1).validate(), Ok(()));
        assert_eq!(Scenario::quick(1).validate(), Ok(()));
        assert_eq!(Scenario::internet(1).validate(), Ok(()));
        assert_eq!(Scenario::internet_smoke(1).validate(), Ok(()));
    }

    #[test]
    fn legacy_stream_routes_key_is_ignored() {
        // scenario files written while table building had two pipelines
        // carry a `stream_routes` flag; both values parse to the preset
        for preset in [Scenario::quick(7), Scenario::internet_smoke(7)] {
            for flag in [true, false] {
                let mut v = serde_json::to_value(&preset).unwrap();
                if let serde_json::Value::Obj(fields) = &mut v {
                    fields.push(("stream_routes".to_string(), serde_json::Value::Bool(flag)));
                }
                let json = serde_json::to_string(&v).unwrap();
                assert!(json.contains("\"stream_routes\""), "{json}");
                let back: Scenario = serde_json::from_str(&json).unwrap();
                assert_eq!(back, preset, "stream_routes: {flag}");
            }
        }
    }

    #[test]
    fn scale_names_map_to_their_constructors() {
        let expected = [
            ("quick", Scenario::quick(3)),
            ("paper", Scenario::paper(3)),
            ("faults", Scenario::faults(3)),
            ("internet", Scenario::internet(3)),
            ("internet-smoke", Scenario::internet_smoke(3)),
            ("nat64", Scenario::nat64(3)),
            ("panel", Scenario::panel(3)),
        ];
        assert_eq!(SCALES.len(), expected.len());
        for (name, scenario) in expected {
            assert_eq!(Scenario::scale(name, 3), Ok(scenario), "{name}");
        }
        let err = Scenario::scale("galactic", 1).unwrap_err();
        assert_eq!(
            err,
            "unknown scale `galactic` (expected quick, paper, faults, internet, \
             internet-smoke, nat64, or panel)"
        );
    }

    #[test]
    fn quick_is_smaller_than_paper() {
        let q = Scenario::quick(1);
        let p = Scenario::paper(1);
        assert!(q.total_sites() < p.total_sites() / 10);
        assert!(q.campaign.total_weeks < p.campaign.total_weeks);
    }

    #[test]
    fn mismatched_weeks_rejected() {
        let mut s = Scenario::quick(1);
        s.campaign.total_weeks += 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn site_count_beyond_the_id_space_rejected() {
        let mut s = Scenario::quick(1);
        s.tail_sites = 5_000_000_000;
        let err = s.validate().unwrap_err();
        assert!(err.contains("population.n_sites (2500)"), "{err}");
        assert!(err.contains("tail_sites (5000000000)"), "{err}");
        // a sum that overflows usize is rejected, not wrapped
        s.tail_sites = usize::MAX;
        assert!(s.validate().unwrap_err().contains("site ids"));
        // the last id-space-sized population still validates
        s.tail_sites = u32::MAX as usize - s.population.n_sites;
        assert_eq!(s.validate(), Ok(()));
        s.tail_sites += 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn nan_noise_and_zipf_exponent_rejected() {
        let mut s = Scenario::quick(1);
        s.round_noise_sigma = f64::NAN;
        assert!(s.validate().unwrap_err().contains("round_noise_sigma"));
        let mut s = Scenario::quick(1);
        s.population.hosting_zipf_exponent = f64::NAN;
        assert!(s.validate().unwrap_err().contains("hosting_zipf_exponent"));
    }

    #[test]
    fn ipv6_day_must_be_inside_campaign() {
        let mut s = Scenario::quick(1);
        s.timeline.ipv6_day_week = s.timeline.total_weeks + 5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let s = Scenario::quick(7);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn config_hash_is_stable_and_ignores_checkpoint_dir() {
        let a = Scenario::quick(7);
        let mut b = Scenario::quick(7);
        assert_eq!(a.config_hash(), b.config_hash(), "same config, same hash");
        b.checkpoint_dir = Some("/tmp/elsewhere".into());
        assert_eq!(
            a.config_hash(),
            b.config_hash(),
            "checkpoint location never changes a result, so it never changes the hash"
        );
        assert_eq!(b.identity_scenario().checkpoint_dir, None);
        // anything that *can* change a result changes the hash
        assert_ne!(Scenario::quick(7).config_hash(), Scenario::quick(8).config_hash());
        assert_ne!(Scenario::quick(7).config_hash(), Scenario::faults(7).config_hash());
        let mut c = Scenario::quick(7);
        c.identity_threshold = 0.07;
        assert_ne!(a.config_hash(), c.config_hash());
    }

    #[test]
    fn variant_combinators_change_exactly_the_knob() {
        let base = Scenario::quick(1);
        let s = base.clone().with_seed(9);
        assert_eq!(s.seed, 9);
        assert_eq!(s.with_seed(1), base, "seed was the only difference");

        let p = base.clone().with_peering_parity(0.9);
        assert_eq!(p.topology.dual.peering_parity, 0.9);
        assert_ne!(p.config_hash(), base.config_hash(), "parity is part of the identity");
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn with_timeline_resyncs_campaign_and_clamps_weeks() {
        let base = Scenario::quick(1);
        // lengthen: campaign follows, nothing needs clamping
        let mut longer = base.timeline.clone();
        longer.total_weeks += 10;
        let s = base.clone().with_timeline(longer.clone());
        assert_eq!(s.campaign.total_weeks, longer.total_weeks);
        assert_eq!(s.validate(), Ok(()));

        // shorten below fig1_from_week and the route-change epoch: both
        // are clamped back inside the campaign
        let mut shorter = base.timeline.clone();
        shorter.total_weeks = 10; // below quick's route-change epoch (13)
        shorter.iana_week = 3;
        shorter.ipv6_day_week = 8;
        let s = base.clone().with_timeline(shorter);
        assert_eq!(s.campaign.total_weeks, 10);
        assert!(s.fig1_from_week < 10);
        assert_eq!(s.route_change.map(|(w, _, _)| w), Some(9), "epoch clamped inside campaign");
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn faults_preset_validates_and_is_nonempty() {
        let s = Scenario::faults(1);
        assert_eq!(s.validate(), Ok(()));
        assert!(!s.faults.is_empty());
    }

    #[test]
    fn nat64_preset_validates_and_hashes_apart() {
        let s = Scenario::nat64(1);
        assert_eq!(s.validate(), Ok(()));
        assert!(s.xlat.is_active());
        assert_eq!(s.xlat.gateways, 3);
        assert_ne!(s.config_hash(), Scenario::quick(1).config_hash());
        // two dual-stack anchors remain for the native baseline
        assert_eq!(s.xlat.stack_of("Comcast"), ClientStack::DualStack);
        assert_eq!(s.xlat.stack_of("Penn"), ClientStack::DualStack);
        assert_eq!(s.xlat.stack_of("Go6-Slovenia"), ClientStack::V6Only);
        assert_eq!(s.xlat.stack_of("Tsinghua U."), ClientStack::V6OnlyClat);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn xlat_misconfiguration_rejected() {
        let mut s = Scenario::nat64(1);
        s.xlat.stacks.push(("Hogwarts".into(), ClientStack::V6Only));
        assert!(s.validate().unwrap_err().contains("Hogwarts"));
        let mut s = Scenario::quick(1);
        s.xlat.stacks.push(("Penn".into(), ClientStack::V6Only));
        assert!(
            s.validate().unwrap_err().contains("gateway"),
            "a v6-only vantage without gateways cannot reach the v4 web"
        );
    }

    #[test]
    fn scenario_json_from_before_a_field_existed_still_deserializes() {
        // scenario files written before the transition tier, fault
        // injection (which also added `checkpoint_dir`) and vantage
        // populations lack those keys; each absent one takes the value
        // that runs the classic pipeline
        for absent in [&["xlat"][..], &["faults", "checkpoint_dir"], &["vantage_population"]] {
            let mut v = serde_json::to_value(&Scenario::quick(7)).unwrap();
            if let serde_json::Value::Obj(fields) = &mut v {
                fields.retain(|(k, _)| !absent.contains(&k.as_str()));
            }
            let back: Scenario = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
            assert_eq!(back, Scenario::quick(7), "without {absent:?}");
        }
    }

    #[test]
    fn panel_scenario_validates() {
        let s = Scenario::panel(5);
        s.validate().unwrap();
        assert_eq!(s.vantage_population.as_ref().unwrap().count, 200);

        // population + named xlat stacks is a contradiction
        let mut bad = Scenario::panel(5);
        bad.xlat.stacks = vec![("Penn".into(), ipv6web_xlat::ClientStack::V6Only)];
        bad.xlat.gateways = 1;
        assert!(bad.validate().unwrap_err().contains("mutually exclusive"));

        // translating stacks in the mix need gateways
        let mut bad = Scenario::panel(5);
        bad.vantage_population.as_mut().unwrap().stacks =
            vec![(ipv6web_xlat::ClientStack::V6Only, 1.0)];
        assert!(bad.validate().unwrap_err().contains("gateways"));

        // a broken spec is caught at validation, not at build
        let mut bad = Scenario::panel(5);
        bad.vantage_population.as_mut().unwrap().count = 0;
        assert!(bad.validate().unwrap_err().contains("vantage_population"));
    }
}
