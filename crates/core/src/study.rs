//! Full study execution.

use crate::report::Report;
use crate::scenario::Scenario;
use crate::world::World;
use ipv6web_analysis::{analyze_vantage_faulted, AnalysisConfig, VantageAnalysis};
use ipv6web_monitor::{
    checkpoint_path, run_campaign_resumable, run_ipv6_day_rounds, validate_checkpoint_dir,
    CampaignError, MonitorDb,
};
use std::path::Path;
use std::sync::Arc;

/// Why a study run could not complete.
#[derive(Debug)]
pub enum StudyError {
    /// The scenario failed [`Scenario::validate`].
    InvalidScenario(String),
    /// A campaign aborted (bad config, or a checkpoint write/read failed).
    Campaign(CampaignError),
    /// The world could not be built (e.g. the topology is too small for
    /// the vantage population).
    World(crate::world::WorldError),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            StudyError::Campaign(e) => write!(f, "{e}"),
            StudyError::World(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::InvalidScenario(_) => None,
            StudyError::Campaign(e) => Some(e),
            StudyError::World(e) => Some(e),
        }
    }
}

impl From<CampaignError> for StudyError {
    fn from(e: CampaignError) -> Self {
        StudyError::Campaign(e)
    }
}

impl From<crate::world::WorldError> for StudyError {
    fn from(e: crate::world::WorldError) -> Self {
        StudyError::World(e)
    }
}

/// Everything a study run produces.
pub struct StudyResult {
    /// The world it ran in. Shared (`Arc`) so a long-running service can
    /// run several concurrent studies against one built world — including
    /// its memoized route tables — without rebuilding or copying it.
    pub world: Arc<World>,
    /// Per-vantage campaign databases, in `world.vantages` order.
    pub dbs: Vec<MonitorDb>,
    /// World IPv6 Day databases for the day-experiment vantage points
    /// (Penn, Loughborough, UPCB), as `(vantage index, db)`.
    pub day_dbs: Vec<(usize, MonitorDb)>,
    /// Analyses for the vantage points with `AS_PATH` data.
    pub analyses: Vec<VantageAnalysis>,
    /// World IPv6 Day analyses (same vantage subset as `day_dbs`, minus
    /// any without `AS_PATH`).
    pub day_analyses: Vec<VantageAnalysis>,
    /// The paper: every table and figure.
    pub report: Report,
    /// Wall-clock breakdown of the run (world build, campaigns, analysis,
    /// report), collected from the obs span log of the calling thread.
    /// Not part of [`Report`] — timings never reproduce bit-for-bit.
    pub timings: ipv6web_obs::Timings,
}

/// The study's one schedule: campaigns, IPv6-day rounds and analyses fan
/// out over the vantage points via `ipv6web_par`, under the global
/// `IPV6WEB_THREADS` budget (each campaign's probe pool borrows its share,
/// so the two-level fan-out never oversubscribes). At `IPV6WEB_THREADS=1`
/// the same closures run inline in vantage order. Reports never depend on
/// the schedule: every probe derives its randomness from
/// `(seed, vantage, week, site)`.
///
/// This one-variant type is kept only because the study benchmark
/// (`studybench/src/study.rs`) calls
/// `run_study_on_world(&world, ExecutionMode::default(), None)`; it
/// selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// The vantage-parallel schedule.
    #[default]
    VantageParallel,
}

/// Loads a previous partial run from the checkpoint directory, if one was
/// left behind for this vantage point.
fn load_resume(dir: Option<&Path>, vantage: &str) -> Result<Option<MonitorDb>, CampaignError> {
    let Some(dir) = dir else { return Ok(None) };
    let path = checkpoint_path(dir, vantage);
    if !path.exists() {
        return Ok(None);
    }
    MonitorDb::load_json(&path)
        .map(Some)
        .map_err(|source| CampaignError::Checkpoint { path, source })
}

/// Runs the complete study: weekly campaigns from all six vantage points,
/// the World IPv6 Day experiment, analysis, and report assembly.
///
/// When the scenario carries a checkpoint directory, each vantage point's
/// database is snapshotted after every round and a rerun resumes from the
/// last completed round instead of re-probing. A non-empty
/// [`Scenario::faults`] plan drives deterministic fault injection
/// throughout; an empty plan reproduces the fault-free pipeline
/// bit-identically.
pub fn run_study(scenario: &Scenario) -> Result<StudyResult, StudyError> {
    scenario.validate().map_err(StudyError::InvalidScenario)?;
    // Checkpoint-dir problems (a typo'd parent, a file in the way) surface
    // *before* the world build, not minutes later at the first atomic
    // temp+rename checkpoint write.
    let ckpt_dir = scenario.checkpoint_dir.as_deref().map(Path::new);
    if let Some(dir) = ckpt_dir {
        validate_checkpoint_dir(dir).map_err(CampaignError::Config)?;
    }
    // Mark before the world build so the "world: *" spans land in this
    // study's phase breakdown (a service reusing a cached world goes
    // through `run_study_on_world` and deliberately omits them).
    let mark = ipv6web_obs::span_mark();
    let world = Arc::new(World::try_build(scenario)?);
    run_study_from_mark(&world, ckpt_dir, mark)
}

/// Runs the measurement pipeline — campaigns, IPv6-day rounds, analysis,
/// report — against an already-built (possibly shared) world.
///
/// This is the entry point for services that keep worlds alive across
/// studies: concurrent jobs on the same world seed pass clones of one
/// `Arc<World>`, sharing its route tables instead of recomputing every
/// destination's routes per job. `checkpoint_dir` overrides
/// `world.scenario.checkpoint_dir` so the *same* world can back
/// jobs with different checkpoint locations; the produced report is
/// byte-identical to [`run_study`] on the equivalent scenario either way.
pub fn run_study_on_world(
    world: &Arc<World>,
    _schedule: ExecutionMode,
    checkpoint_dir: Option<&Path>,
) -> Result<StudyResult, StudyError> {
    // Collect only the spans this run produces, so back-to-back studies on
    // one thread (e.g. test suites) keep independent phase breakdowns.
    let mark = ipv6web_obs::span_mark();
    run_study_from_mark(world, checkpoint_dir, mark)
}

fn run_study_from_mark(
    world: &Arc<World>,
    checkpoint_dir: Option<&Path>,
    mark: usize,
) -> Result<StudyResult, StudyError> {
    let scenario = &world.scenario;
    let ckpt_dir = checkpoint_dir;
    if let Some(dir) = ckpt_dir {
        validate_checkpoint_dir(dir).map_err(CampaignError::Config)?;
        // Temp names carry the writer's pid, so a crash mid-write leaves a
        // `*.tmp` no later write replaces; sweep them before resuming.
        let prepare = || {
            std::fs::create_dir_all(dir)?;
            ipv6web_monitor::store::remove_torn_tmp(dir)
        };
        prepare().map_err(|source| {
            StudyError::Campaign(CampaignError::Checkpoint { path: dir.to_path_buf(), source })
        })?;
        // Refuse to resume a directory stamped by a different vantage
        // population — per-vantage checkpoints are keyed by name slug
        // only, so a mismatched resume would misattribute rounds.
        ipv6web_monitor::check_population_stamp(dir, &world.vantages)
            .map_err(StudyError::Campaign)?;
    }

    // --- weekly campaigns ---------------------------------------------------
    // One task per vantage point, fanned out under the shared worker
    // budget. Each task captures its own span subtree on the thread it ran
    // on; the subtrees are attached back here in `world.vantages` order,
    // so the phase breakdown is identical no matter where (or in what
    // order) the campaigns actually ran.
    let campaigns = ipv6web_par::par_map(&world.vantages, |i, vantage| {
        let faults = world.probe_faults(i);
        let ctx = world.probe_ctx(i, faults.as_ref());
        let sites = &world.sites;
        let mark = ipv6web_obs::span_mark();
        let db = {
            let _s = ipv6web_obs::span(format!("campaign: {}", vantage.name));
            let resume = load_resume(ckpt_dir, &vantage.name)?;
            run_campaign_resumable(
                &ctx,
                vantage,
                &world.list,
                &world.tail_ids,
                |id| sites[id as usize].first_seen_week,
                &scenario.campaign,
                resume,
                ckpt_dir,
            )?
        };
        Ok::<_, CampaignError>((db, ipv6web_obs::take_spans_since(mark)))
    });
    let mut dbs = Vec::with_capacity(world.vantages.len());
    for result in campaigns {
        // the first failure in vantage order wins
        let (db, spans) = result?;
        ipv6web_obs::attach_spans(spans);
        dbs.push(db);
    }

    // --- World IPv6 Day (paper: all Table 8 vantage points except Comcast) --
    let participants = world.ipv6_day_participants();
    let day_idxs: Vec<usize> = world
        .vantages
        .iter()
        .enumerate()
        .filter(|(_, v)| v.has_as_path && v.name != "Comcast")
        .map(|(i, _)| i)
        .collect();
    let day_results = {
        let _s = ipv6web_obs::span("ipv6 day rounds");
        ipv6web_par::par_map(&day_idxs, |_, &i| {
            let faults = world.probe_faults(i);
            let ctx = world.probe_ctx(i, faults.as_ref());
            run_ipv6_day_rounds(
                &ctx,
                &world.vantages[i],
                &participants,
                scenario.timeline.ipv6_day_week,
                &scenario.campaign,
            )
        })
    };
    let mut day_dbs = Vec::with_capacity(day_idxs.len());
    for (&i, result) in day_idxs.iter().zip(day_results) {
        day_dbs.push((i, result?));
    }

    // --- analysis ------------------------------------------------------------
    let fault_windows = scenario.faults.disruption_windows();
    let ana_idxs: Vec<usize> =
        world.vantages.iter().enumerate().filter(|(_, v)| v.has_as_path).map(|(i, _)| i).collect();
    let analyses: Vec<VantageAnalysis> = {
        let _s = ipv6web_obs::span("analysis");
        ipv6web_par::par_map(&ana_idxs, |_, &i| {
            analyze_vantage_faulted(
                &scenario.analysis,
                &world.sites,
                &dbs[i],
                &world.tables[i].0,
                &world.tables[i].1,
                &fault_windows,
            )
        })
    };
    let day_cfg = AnalysisConfig::ipv6_day();
    let day_analyses: Vec<VantageAnalysis> = {
        let _s = ipv6web_obs::span("analysis: ipv6 day");
        ipv6web_par::par_map(&day_dbs, |_, (i, db)| {
            analyze_vantage_faulted(
                &day_cfg,
                &world.sites,
                db,
                &world.tables[*i].0,
                &world.tables[*i].1,
                &fault_windows,
            )
        })
    };

    let report = {
        let _s = ipv6web_obs::span("report assembly");
        Report::build(world, &dbs, &analyses, &day_analyses)
    };
    let timings = ipv6web_obs::Timings { phases: ipv6web_obs::take_spans_since(mark) };
    Ok(StudyResult { world: world.clone(), dbs, day_dbs, analyses, day_analyses, report, timings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static StudyResult {
        static S: OnceLock<StudyResult> = OnceLock::new();
        S.get_or_init(|| run_study(&Scenario::quick(2)).expect("quick study runs"))
    }

    #[test]
    fn six_campaigns_run() {
        let s = study();
        assert_eq!(s.dbs.len(), 6);
        for db in &s.dbs {
            assert!(!db.is_empty(), "{} produced nothing", db.vantage);
        }
    }

    #[test]
    fn day_experiment_excludes_comcast_and_no_as_path() {
        let s = study();
        assert_eq!(s.day_dbs.len(), 3, "Penn, LU, UPCB");
        for (i, _) in &s.day_dbs {
            let v = &s.world.vantages[*i];
            assert!(v.has_as_path);
            assert_ne!(v.name, "Comcast");
        }
    }

    #[test]
    fn analyses_cover_as_path_vantages() {
        let s = study();
        assert_eq!(s.analyses.len(), 4);
        let names: Vec<&str> = s.analyses.iter().map(|a| a.vantage.as_str()).collect();
        assert!(names.contains(&"Penn"));
        assert!(names.contains(&"Comcast"));
        for a in &s.analyses {
            assert!(a.sites_total > 0, "{} analyzed nothing", a.vantage);
        }
    }

    #[test]
    fn report_attached_and_renders() {
        let s = study();
        let text = s.report.render();
        for needle in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Table 8",
            "Table 9",
            "Table 10",
            "Table 11",
            "Table 12",
            "Table 13",
            "Figure 1",
            "Figure 3a",
            "Figure 3b",
            "H1",
            "H2",
        ] {
            assert!(text.contains(needle), "report missing {needle}");
        }
    }

    #[test]
    fn headline_findings_hold_in_quick_world() {
        let s = study();
        assert!(s.report.h1.holds, "{}", s.report.h1.summary);
        assert!(s.report.h2.holds, "{}", s.report.h2.summary);
    }

    #[test]
    fn classic_report_has_no_xlat_bytes() {
        let s = study();
        assert!(s.report.xlat.is_none());
        let json = serde_json::to_string(&s.report).unwrap();
        assert!(!json.contains("\"xlat\""), "classic reports must not grow an xlat key");
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s.report);
    }

    #[test]
    fn nat64_study_reports_translated_paths() {
        let mut sc = Scenario::nat64(3);
        sc.population.n_sites = 400;
        sc.tail_sites = 60;
        let s = run_study(&sc).expect("nat64 study runs");
        let x = s.report.xlat.as_ref().expect("nat64 study must carry an xlat section");
        assert_eq!(x.gateways, 3);
        assert_eq!(x.per_vantage.len(), 6);
        let go6 = x.per_vantage.iter().find(|r| r.vantage == "Go6-Slovenia").unwrap();
        assert_eq!(go6.stack, "v6-only");
        assert!(go6.paired_samples > 0, "translated v4-slot samples must pair with native v6");
        let comcast = x.per_vantage.iter().find(|r| r.vantage == "Comcast").unwrap();
        assert_eq!(comcast.stack, "dual-stack");
        assert!(!x.h1_by_stack.is_empty(), "per-stack H1 verdicts");
        assert!(!x.h2_by_stack.is_empty(), "per-stack H2 verdicts");
        let text = s.report.render();
        assert!(text.contains("Transition technologies"), "render carries the section");
        // serde roundtrip with the optional section present
        let json = serde_json::to_string(&s.report).unwrap();
        assert!(json.contains("\"xlat\""));
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s.report);
    }

    #[test]
    fn invalid_scenario_is_a_typed_error() {
        let mut s = Scenario::quick(1);
        s.campaign.workers = 0;
        match run_study(&s) {
            Err(StudyError::InvalidScenario(msg)) => {
                assert!(msg.contains("workers"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidScenario, got {:?}", other.err()),
        }
    }
}
