//! The serde-able sweep specification and its deterministic expansion.
//!
//! A [`SweepSpec`] names a base scenario (a scale tier or a full inline
//! [`Scenario`]) and up to five axes — seeds, peering-parity levels,
//! adoption-timeline variants, fault plans, translation-plane configs.
//! [`SweepSpec::expand`] takes their cross product in a fixed order
//! (parity × timeline × faults × xlat × seeds, seeds innermost), so the
//! study matrix — indices, scenarios, and
//! with them every [`StudyCase::key`] — is a pure function of the spec.
//! The orchestrator and every worker process expand the same spec
//! independently and agree on the matrix without any coordination.

use ipv6web_alexa::AdoptionTimeline;
use ipv6web_core::Scenario;
use ipv6web_faults::FaultPlan;
use ipv6web_xlat::XlatConfig;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A named variant of the base scenario's adoption timeline: only the
/// fields present override the base. `total_weeks` changes ripple through
/// [`Scenario::with_timeline`]'s campaign resync.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineTweak {
    /// Axis label, carried into study records and aggregate tables.
    pub name: String,
    /// Override: campaign length in weeks.
    pub total_weeks: Option<u32>,
    /// Override: week of the IANA depletion jump.
    pub iana_week: Option<u32>,
    /// Override: week of the World IPv6 Day jump.
    pub ipv6_day_week: Option<u32>,
    /// Override: fraction of eventually-dual sites published at week 0.
    pub base_fraction: Option<f64>,
    /// Override: fraction publishing in the IANA jump.
    pub iana_jump: Option<f64>,
    /// Override: fraction publishing in the World IPv6 Day jump.
    pub ipv6_day_jump: Option<f64>,
}

impl TimelineTweak {
    /// The no-override variant: the base scenario's own timeline.
    pub fn baseline() -> TimelineTweak {
        TimelineTweak {
            name: "base".to_string(),
            total_weeks: None,
            iana_week: None,
            ipv6_day_week: None,
            base_fraction: None,
            iana_jump: None,
            ipv6_day_jump: None,
        }
    }

    /// The base timeline with this tweak's overrides applied.
    pub fn apply(&self, base: &AdoptionTimeline) -> AdoptionTimeline {
        let mut t = base.clone();
        if let Some(v) = self.total_weeks {
            t.total_weeks = v;
        }
        if let Some(v) = self.iana_week {
            t.iana_week = v;
        }
        if let Some(v) = self.ipv6_day_week {
            t.ipv6_day_week = v;
        }
        if let Some(v) = self.base_fraction {
            t.base_fraction = v;
        }
        if let Some(v) = self.iana_jump {
            t.iana_jump = v;
        }
        if let Some(v) = self.ipv6_day_jump {
            t.ipv6_day_jump = v;
        }
        t
    }
}

/// One value of the fault-plan axis: a named builtin (`base` keeps the
/// base scenario's plan, `none` clears it, `demo` is
/// [`FaultPlan::demo`] over the variant's campaign length) or a full
/// inline plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultAxis {
    /// Axis label, carried into study records and aggregate tables.
    pub name: String,
    /// Inline plan; when present it wins over the builtin names.
    pub plan: Option<FaultPlan>,
}

impl FaultAxis {
    /// Resolves to a concrete plan for a campaign of `total_weeks`.
    pub fn resolve(&self, base: &FaultPlan, total_weeks: u32) -> Result<FaultPlan, String> {
        if let Some(plan) = &self.plan {
            return Ok(plan.clone());
        }
        match self.name.as_str() {
            "base" => Ok(base.clone()),
            "none" => Ok(FaultPlan::default()),
            "demo" => Ok(FaultPlan::demo(total_weeks)),
            other => Err(format!(
                "fault axis `{other}` has no inline plan and is not a builtin \
                 (expected base, none, or demo)"
            )),
        }
    }
}

/// One value of the translation-plane axis: a named builtin (`base`
/// keeps the base scenario's config, `none` turns the plane off,
/// `nat64` is the [`Scenario::nat64`] preset) or a full inline
/// [`XlatConfig`]. `gateways` overrides the resolved gateway count, so a
/// spec can sweep translator capacity without spelling out whole
/// configs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XlatAxis {
    /// Axis label, carried into study records and aggregate tables.
    pub name: String,
    /// Inline config; when present it wins over the builtin names.
    pub config: Option<XlatConfig>,
    /// Override applied after resolution: NAT64 gateway count.
    pub gateways: Option<usize>,
}

impl XlatAxis {
    /// Resolves to a concrete translation-plane config.
    pub fn resolve(&self, base: &XlatConfig) -> Result<XlatConfig, String> {
        let mut cfg = if let Some(cfg) = &self.config {
            cfg.clone()
        } else {
            match self.name.as_str() {
                "base" => base.clone(),
                "none" => XlatConfig::default(),
                // the preset's xlat block is seed-independent, so any
                // seed picks out the same config
                "nat64" => Scenario::nat64(0).xlat,
                other => {
                    return Err(format!(
                        "xlat axis `{other}` has no inline config and is not a builtin \
                         (expected base, none, or nat64)"
                    ))
                }
            }
        };
        if let Some(n) = self.gateways {
            cfg.gateways = n;
        }
        Ok(cfg)
    }
}

/// Supervision knobs, all optional in the spec file. Missing fields take
/// the defaults documented on [`Supervision`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SupervisionSpec {
    /// Per-study wall-clock timeout, seconds (default 600).
    pub timeout_secs: Option<u64>,
    /// Worker heartbeat write interval, milliseconds (default 250).
    pub heartbeat_interval_ms: Option<u64>,
    /// Heartbeat silence treated as a stall, seconds (default 30).
    pub heartbeat_stall_secs: Option<u64>,
    /// Attempts before a study is quarantined as poison (default 3).
    pub max_attempts: Option<u32>,
    /// First retry backoff, milliseconds (default 500; doubles per retry).
    pub backoff_base_ms: Option<u64>,
    /// Backoff cap, milliseconds (default 8000).
    pub backoff_cap_ms: Option<u64>,
}

/// Resolved supervision policy — what the orchestrator actually enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// SIGKILL a worker once its study has run this long.
    pub timeout: Duration,
    /// How often workers bump their heartbeat file.
    pub heartbeat_interval: Duration,
    /// SIGKILL a worker whose heartbeat has not moved for this long.
    pub heartbeat_stall: Duration,
    /// Failures (of any kind) before the study becomes a poison record.
    pub max_attempts: u32,
    /// Exponential backoff base between retries of one study.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl SupervisionSpec {
    /// Fills in defaults. `max_attempts` is clamped to ≥ 1: zero attempts
    /// would quarantine every study without running anything.
    pub fn resolve(&self) -> Supervision {
        Supervision {
            timeout: Duration::from_secs(self.timeout_secs.unwrap_or(600).max(1)),
            heartbeat_interval: Duration::from_millis(self.heartbeat_interval_ms.unwrap_or(250)),
            heartbeat_stall: Duration::from_secs(self.heartbeat_stall_secs.unwrap_or(30).max(1)),
            max_attempts: self.max_attempts.unwrap_or(3).max(1),
            backoff_base: Duration::from_millis(self.backoff_base_ms.unwrap_or(500)),
            backoff_cap: Duration::from_millis(self.backoff_cap_ms.unwrap_or(8_000)),
        }
    }
}

/// Deterministic chaos injection, by case index. These hooks exist so CI
/// and the acceptance tests can script worker failures that behave
/// *identically* in a clean reference run and a kill-riddled run — the
/// byte-identity contract covers them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// Cases whose worker runs forever while still heartbeating: killed by
    /// the wall-clock timeout, quarantined after `max_attempts`.
    pub hang: Option<Vec<usize>>,
    /// Cases whose worker runs forever *without* heartbeating: killed by
    /// stall detection.
    pub hang_silent: Option<Vec<usize>>,
    /// Cases whose worker aborts mid-study on its first attempt (leaving a
    /// marker file), then runs normally on retry — a scripted
    /// worker-death-and-recovery.
    pub crash_once: Option<Vec<usize>>,
}

impl ChaosSpec {
    fn has(list: &Option<Vec<usize>>, index: usize) -> bool {
        list.as_deref().is_some_and(|l| l.contains(&index))
    }

    /// Whether `index` is marked as a heartbeating hang.
    pub fn hangs(&self, index: usize) -> bool {
        Self::has(&self.hang, index)
    }

    /// Whether `index` is marked as a silent hang.
    pub fn hangs_silent(&self, index: usize) -> bool {
        Self::has(&self.hang_silent, index)
    }

    /// Whether `index` is marked to crash on its first attempt.
    pub fn crashes_once(&self, index: usize) -> bool {
        Self::has(&self.crash_once, index)
    }
}

/// A complete sweep specification: base scenario + axes + supervision.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Named base scale: `quick`, `paper`, `faults`, `internet`,
    /// `internet-smoke`, `nat64`, `panel`. Mutually exclusive with
    /// `scenario`.
    pub scale: Option<String>,
    /// Base seed for a named scale (default 42); the seed axis overrides
    /// it per study.
    pub seed: Option<u64>,
    /// Full inline base scenario; rejected alongside `scale` or `seed`.
    pub scenario: Option<Scenario>,
    /// Seed axis; empty/absent means just the base seed.
    pub seeds: Option<Vec<u64>>,
    /// Peering-parity axis (the paper's headline knob); absent means the
    /// base scenario's value.
    pub peering_parity: Option<Vec<f64>>,
    /// Adoption-timeline axis; absent means the base timeline.
    pub timelines: Option<Vec<TimelineTweak>>,
    /// Fault-plan axis; absent means the base scenario's plan.
    pub faults: Option<Vec<FaultAxis>>,
    /// Translation-plane axis (NAT64 gateway count / client-stack mix);
    /// absent means the base scenario's config.
    pub xlat: Option<Vec<XlatAxis>>,
    /// Supervision knobs (timeouts, retries, heartbeats).
    pub supervision: Option<SupervisionSpec>,
    /// Scripted chaos, for CI and the acceptance tests.
    pub chaos: Option<ChaosSpec>,
}

/// One cell of the expanded study matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyCase {
    /// Position in expansion order — the stable identity prefix.
    pub index: usize,
    /// The seed-axis value.
    pub seed: u64,
    /// The parity-axis value.
    pub peering_parity: f64,
    /// The timeline-axis label.
    pub timeline: String,
    /// The fault-axis label.
    pub faults: String,
    /// The xlat-axis label.
    pub xlat: String,
    /// The fully resolved, validated scenario.
    pub scenario: Scenario,
}

impl StudyCase {
    /// Stable case key: `{index:05}-{config_hash:016x}`. The index makes
    /// keys unique even when two axis values collapse to the same
    /// configuration; the hash ties the record to the exact scenario, so
    /// a record written under a stale spec can never be mistaken for a
    /// current result.
    pub fn key(&self) -> String {
        format!("{:05}-{:016x}", self.index, self.scenario.config_hash())
    }
}

impl SweepSpec {
    /// Resolves the base scenario (scale tier or inline) under the same
    /// rules as the daemon's job submissions
    /// ([`Scenario::resolve_request`]): the sweep store owns checkpoint
    /// placement, as the job store does.
    pub fn base_scenario(&self) -> Result<Scenario, String> {
        Scenario::resolve_request(self.scale.as_deref(), self.seed, self.scenario.as_ref())
    }

    /// Resolved supervision policy (defaults when the block is absent).
    pub fn supervision(&self) -> Supervision {
        self.supervision.clone().unwrap_or_default().resolve()
    }

    /// Resolved chaos hooks (all empty when the block is absent).
    pub fn chaos(&self) -> ChaosSpec {
        self.chaos.clone().unwrap_or_default()
    }

    /// Expands the spec into the deterministic study matrix.
    ///
    /// Axis order is parity × timeline × faults × xlat × seeds with
    /// seeds innermost; indices number the cells in that order. Every
    /// expanded scenario is validated — one bad cell fails the whole
    /// expansion, before any process is spawned.
    pub fn expand(&self) -> Result<Vec<StudyCase>, String> {
        let base = self.base_scenario()?;
        let seeds = match &self.seeds {
            Some(s) if !s.is_empty() => s.clone(),
            Some(_) => return Err("`seeds` axis is explicitly empty".into()),
            None => vec![base.seed],
        };
        let parities = match &self.peering_parity {
            Some(p) if !p.is_empty() => p.clone(),
            Some(_) => return Err("`peering_parity` axis is explicitly empty".into()),
            None => vec![base.topology.dual.peering_parity],
        };
        let timelines = match &self.timelines {
            Some(t) if !t.is_empty() => t.clone(),
            Some(_) => return Err("`timelines` axis is explicitly empty".into()),
            None => vec![TimelineTweak::baseline()],
        };
        let faults = match &self.faults {
            Some(f) if !f.is_empty() => f.clone(),
            Some(_) => return Err("`faults` axis is explicitly empty".into()),
            None => vec![FaultAxis { name: "base".to_string(), plan: None }],
        };
        let xlats = match &self.xlat {
            Some(x) if !x.is_empty() => x.clone(),
            Some(_) => return Err("`xlat` axis is explicitly empty".into()),
            None => vec![XlatAxis { name: "base".to_string(), config: None, gateways: None }],
        };

        let mut cases = Vec::with_capacity(
            parities.len() * timelines.len() * faults.len() * xlats.len() * seeds.len(),
        );
        for parity in &parities {
            for tweak in &timelines {
                let timeline = tweak.apply(&base.timeline);
                let variant = base.clone().with_peering_parity(*parity).with_timeline(timeline);
                for fx in &faults {
                    let plan = fx.resolve(&base.faults, variant.timeline.total_weeks)?;
                    let mut with_faults = variant.clone();
                    with_faults.faults = plan;
                    for xa in &xlats {
                        let mut with_xlat = with_faults.clone();
                        with_xlat.xlat = xa.resolve(&base.xlat)?;
                        for seed in &seeds {
                            let scenario = with_xlat.clone().with_seed(*seed);
                            scenario.validate().map_err(|e| {
                                format!(
                                    "case (parity {parity}, timeline {}, faults {}, \
                                     xlat {}, seed {seed}) is invalid: {e}",
                                    tweak.name, fx.name, xa.name
                                )
                            })?;
                            cases.push(StudyCase {
                                index: cases.len(),
                                seed: *seed,
                                peering_parity: *parity,
                                timeline: tweak.name.clone(),
                                faults: fx.name.clone(),
                                xlat: xa.name.clone(),
                                scenario,
                            });
                        }
                    }
                }
            }
        }
        Ok(cases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> SweepSpec {
        SweepSpec {
            scale: Some("quick".to_string()),
            seeds: Some(vec![1, 2]),
            peering_parity: Some(vec![0.25, 0.75]),
            ..SweepSpec::default()
        }
    }

    #[test]
    fn expansion_is_deterministic_and_ordered() {
        let a = two_by_two().expand().unwrap();
        let b = two_by_two().expand().unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a, b, "same spec, same matrix");
        // seeds innermost: indices 0,1 share the first parity
        assert_eq!(a[0].peering_parity, 0.25);
        assert_eq!(a[1].peering_parity, 0.25);
        assert_eq!(a[0].seed, 1);
        assert_eq!(a[1].seed, 2);
        assert_eq!(a[2].peering_parity, 0.75);
        for (i, case) in a.iter().enumerate() {
            assert_eq!(case.index, i);
            assert!(case.key().starts_with(&format!("{i:05}-")));
            assert_eq!(case.scenario.topology.dual.peering_parity, case.peering_parity);
            assert_eq!(case.scenario.seed, case.seed);
        }
        // distinct configurations hash apart
        assert_ne!(a[0].key()[6..], a[1].key()[6..]);
    }

    #[test]
    fn default_axes_collapse_to_base() {
        let spec = SweepSpec { scale: Some("quick".to_string()), ..SweepSpec::default() };
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].scenario, Scenario::quick(42));
        assert_eq!(cases[0].timeline, "base");
        assert_eq!(cases[0].faults, "base");
        assert_eq!(cases[0].xlat, "base");
        assert!(!cases[0].scenario.xlat.is_active(), "quick base has no translation plane");
    }

    #[test]
    fn xlat_axis_expands_and_overrides_gateways() {
        let spec = SweepSpec {
            scale: Some("quick".to_string()),
            xlat: Some(vec![
                XlatAxis { name: "none".to_string(), config: None, gateways: None },
                XlatAxis { name: "nat64".to_string(), config: None, gateways: None },
                XlatAxis { name: "nat64-wide".to_string(), config: None, gateways: Some(5) },
            ]),
            ..SweepSpec::default()
        };
        // the gateways override alone can't resolve a label that is not a
        // builtin — it still needs a config to override
        assert!(spec.expand().unwrap_err().contains("nat64-wide"));

        let mut wide = Scenario::nat64(0).xlat;
        wide.gateways = 1; // overridden below
        let spec = SweepSpec {
            xlat: Some(vec![
                XlatAxis { name: "none".to_string(), config: None, gateways: None },
                XlatAxis { name: "nat64".to_string(), config: None, gateways: None },
                XlatAxis { name: "nat64-wide".to_string(), config: Some(wide), gateways: Some(5) },
            ]),
            ..spec
        };
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 3);
        assert_eq!(
            cases.iter().map(|c| c.xlat.as_str()).collect::<Vec<_>>(),
            ["none", "nat64", "nat64-wide"]
        );
        assert!(!cases[0].scenario.xlat.is_active());
        assert_eq!(cases[1].scenario.xlat.gateways, Scenario::nat64(0).xlat.gateways);
        assert_eq!(cases[2].scenario.xlat.gateways, 5, "gateways override applies");
        // distinct translation planes must hash apart, or resumed sweeps
        // could mistake one cell's record for another's
        assert_ne!(cases[0].key()[6..], cases[1].key()[6..]);
        assert_ne!(cases[1].key()[6..], cases[2].key()[6..]);
    }

    #[test]
    fn nat64_scale_is_a_valid_sweep_base() {
        let spec = SweepSpec { scale: Some("nat64".to_string()), ..SweepSpec::default() };
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 1);
        assert!(cases[0].scenario.xlat.is_active());
        assert_eq!(cases[0].scenario, Scenario::nat64(42));
    }

    #[test]
    fn timeline_and_fault_axes_expand() {
        let mut shorter = TimelineTweak::baseline();
        shorter.name = "short".to_string();
        shorter.total_weeks = Some(16);
        shorter.iana_week = Some(5);
        shorter.ipv6_day_week = Some(12);
        let spec = SweepSpec {
            scale: Some("quick".to_string()),
            timelines: Some(vec![TimelineTweak::baseline(), shorter]),
            faults: Some(vec![
                FaultAxis { name: "none".to_string(), plan: None },
                FaultAxis { name: "demo".to_string(), plan: None },
            ]),
            ..SweepSpec::default()
        };
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].scenario.timeline.total_weeks, 26);
        assert!(cases[0].scenario.faults.is_empty(), "none axis clears the plan");
        assert!(!cases[1].scenario.faults.is_empty(), "demo axis injects faults");
        assert_eq!(cases[2].scenario.timeline.total_weeks, 16);
        assert_eq!(cases[2].scenario.campaign.total_weeks, 16, "campaign resynced");
        // the demo plan is sized to the variant's campaign, so it
        // validates under the shortened timeline too
        assert_eq!(cases[3].scenario.validate(), Ok(()));
    }

    #[test]
    fn invalid_specs_are_rejected_before_any_spawn() {
        let both = SweepSpec {
            scale: Some("quick".to_string()),
            scenario: Some(Scenario::quick(1)),
            ..SweepSpec::default()
        };
        assert!(both.expand().is_err());

        let empty_axis = SweepSpec { seeds: Some(vec![]), ..SweepSpec::default() };
        assert!(empty_axis.expand().unwrap_err().contains("explicitly empty"));

        let bad_scale = SweepSpec { scale: Some("galactic".to_string()), ..SweepSpec::default() };
        assert!(bad_scale.expand().unwrap_err().contains("galactic"));

        let mut bad_tweak = TimelineTweak::baseline();
        bad_tweak.name = "broken".to_string();
        bad_tweak.ipv6_day_week = Some(999);
        let bad_cell = SweepSpec { timelines: Some(vec![bad_tweak]), ..SweepSpec::default() };
        let err = bad_cell.expand().unwrap_err();
        assert!(err.contains("broken"), "{err}");

        let bad_fault = SweepSpec {
            faults: Some(vec![FaultAxis { name: "mystery".to_string(), plan: None }]),
            ..SweepSpec::default()
        };
        assert!(bad_fault.expand().unwrap_err().contains("mystery"));

        let bad_xlat = SweepSpec {
            xlat: Some(vec![XlatAxis { name: "teredo".to_string(), config: None, gateways: None }]),
            ..SweepSpec::default()
        };
        let err = bad_xlat.expand().unwrap_err();
        assert!(err.contains("teredo") && err.contains("nat64"), "{err}");
    }

    #[test]
    fn spec_roundtrips_through_json_with_missing_fields() {
        let spec = two_by_two();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.expand().unwrap(), spec.expand().unwrap());
        // a minimal hand-written file: every optional block absent
        let minimal: SweepSpec = serde_json::from_str("{\"scale\": \"quick\"}").unwrap();
        assert_eq!(minimal.expand().unwrap().len(), 1);
        assert_eq!(minimal.supervision().max_attempts, 3);
        assert!(!minimal.chaos().hangs(0));
        // specs written while sweeps could select a sequential schedule
        // still parse, and expand to the same matrix
        let legacy: SweepSpec = serde_json::from_str(
            "{\"scale\": \"quick\", \"seeds\": [1, 2], \"peering_parity\": [0.25, 0.75], \
             \"sequential\": true}",
        )
        .unwrap();
        assert_eq!(legacy.expand().unwrap(), spec.expand().unwrap());
    }

    #[test]
    fn supervision_defaults_and_overrides() {
        let sup = SupervisionSpec::default().resolve();
        assert_eq!(sup.timeout, Duration::from_secs(600));
        assert_eq!(sup.max_attempts, 3);
        let tight = SupervisionSpec {
            timeout_secs: Some(5),
            max_attempts: Some(0), // clamped: zero attempts runs nothing
            backoff_base_ms: Some(10),
            ..SupervisionSpec::default()
        }
        .resolve();
        assert_eq!(tight.timeout, Duration::from_secs(5));
        assert_eq!(tight.max_attempts, 1);
        assert_eq!(tight.backoff_base, Duration::from_millis(10));
    }

    #[test]
    fn chaos_hooks_resolve_by_index() {
        let chaos = ChaosSpec {
            hang: Some(vec![3]),
            hang_silent: Some(vec![4]),
            crash_once: Some(vec![0, 5]),
        };
        assert!(chaos.hangs(3) && !chaos.hangs(4));
        assert!(chaos.hangs_silent(4));
        assert!(chaos.crashes_once(0) && chaos.crashes_once(5) && !chaos.crashes_once(1));
    }
}
