//! Vantage populations: generated panels must obey the same scheduling-
//! invariance contract as the Table 1 six, spec-less scenarios must stay
//! byte-identical to pre-population reports, and every small-topology
//! failure must surface as a typed error instead of a panic.

use ipv6web::monitor::{CampaignError, VantagePopulation};
use ipv6web::topology::TopologyConfig;
use ipv6web::{obs, run_study, Scenario, StudyError, WorldError};
use std::sync::Mutex;

/// `IPV6WEB_THREADS` and the obs registry are process-global; tests that
/// touch either run under one lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A seconds-scale panel: 50 generated vantage points on a 700-AS
/// topology, exercising the same population path as `--scale panel`.
fn tiny_panel(seed: u64) -> Scenario {
    let mut s = Scenario::quick(seed);
    s.topology = TopologyConfig::scaled(700);
    s.topology.dual.access_adoption = 0.6;
    s.population.n_sites = 300;
    s.tail_sites = 60;
    s.campaign.total_weeks = 10;
    s.timeline.total_weeks = 10;
    s.timeline.iana_week = 3;
    s.timeline.ipv6_day_week = 7;
    s.fig1_from_week = 2;
    s.analysis.min_paired_samples = 4;
    s.route_change = Some((5, 0.03, 0.01));
    s.vantage_population = Some(VantagePopulation { count: 50, ..Default::default() });
    s
}

#[test]
fn panel_reports_and_counters_are_scheduling_invariant() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("IPV6WEB_THREADS", threads);
        obs::reset();
        obs::enable();
        let s = run_study(&tiny_panel(23)).expect("valid scenario");
        obs::disable();
        obs::flush_thread();
        let snap = obs::snapshot();
        obs::reset();
        runs.push((threads, serde_json::to_string(&s.report).unwrap(), snap, s));
    }
    std::env::remove_var("IPV6WEB_THREADS");

    let (_, ref json0, ref snap0, ref study0) = runs[0];
    assert_eq!(study0.report.vantages.len(), 50, "the panel really has 50 vantage points");
    let panel = study0.report.panel.as_ref().expect("population run carries the panel section");
    assert_eq!(panel.vantages, 50);
    assert!(panel.analyzed >= 2, "several vantages enter the path-correlated analysis");
    assert!(json0.contains("\"panel\""), "panel section serialized");
    assert!(study0.report.render().contains("Cross-vantage disagreement"));
    // `par.*` counters describe the scheduling shape itself (fan-out
    // calls and their widths), so — like gauges — they are allowed to
    // differ across thread counts; every measurement counter must not.
    let measured = |snap: &obs::Snapshot| {
        let mut c = snap.counters.clone();
        c.retain(|k, _| !k.starts_with("par."));
        c
    };
    for (threads, json, snap, study) in &runs[1..] {
        assert_eq!(json, json0, "report diverged at IPV6WEB_THREADS={threads}");
        assert_eq!(
            measured(snap),
            measured(snap0),
            "counters diverged at IPV6WEB_THREADS={threads}"
        );
        for (da, db) in study0.dbs.iter().zip(&study.dbs) {
            assert_eq!(da, db, "databases diverged at IPV6WEB_THREADS={threads}");
        }
    }
}

#[test]
fn spec_less_scenarios_have_no_panel_section() {
    // The empty-population contract: without a `vantage_population` the
    // study runs the Table 1 six and the report carries no `panel` key, so
    // its bytes match reports written before populations existed.
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = Scenario::quick(7);
    s.population.n_sites = 400;
    s.tail_sites = 80;
    s.campaign.total_weeks = 10;
    s.timeline.total_weeks = 10;
    s.timeline.iana_week = 3;
    s.timeline.ipv6_day_week = 7;
    s.route_change = Some((5, 0.03, 0.01));
    assert!(s.vantage_population.is_none());
    let study = run_study(&s).expect("valid scenario");
    assert!(study.report.panel.is_none());
    let json = serde_json::to_string(&study.report).unwrap();
    assert!(!json.contains("\"panel\""), "spec-less report must not grow a panel key");
    let names: Vec<&str> = study.report.vantages.iter().map(|v| v.name.as_str()).collect();
    assert_eq!(
        names,
        ["Comcast", "Go6-Slovenia", "Loughborough U.", "Penn", "Tsinghua U.", "UPC Broadband"]
    );
}

#[test]
fn too_small_topology_is_a_typed_study_error() {
    // Population larger than the topology's dual-stack access tier: the
    // study must refuse with the typed error (exit 2 in `repro`), never
    // panic.
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = tiny_panel(3);
    s.vantage_population = Some(VantagePopulation { count: 5_000, ..Default::default() });
    match run_study(&s) {
        Err(StudyError::World(WorldError::InsufficientVantageAses { needed, found })) => {
            assert_eq!(needed, 5_000);
            assert!(found < 5_000, "tiny topology cannot host the panel");
        }
        Ok(_) => panic!("study must refuse an oversized panel"),
        Err(other) => panic!("expected InsufficientVantageAses, got {other}"),
    }

    // The Table 1 path hits the same typed error when the topology has no
    // dual-stack access tier at all.
    let mut bare = Scenario::quick(3);
    bare.topology.dual.access_adoption = 0.0;
    match run_study(&bare) {
        Err(StudyError::World(WorldError::InsufficientVantageAses { needed, .. })) => {
            assert_eq!(needed, 6);
        }
        Ok(_) => panic!("study must refuse a bare topology"),
        Err(other) => panic!("expected InsufficientVantageAses, got {other}"),
    }
}

#[test]
fn resuming_checkpoints_with_a_different_population_is_refused() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("ipv6web-panel-stamp");
    let _ = std::fs::remove_dir_all(&dir);

    // First run: the Table 1 six, stamping the checkpoint dir.
    let mut six = Scenario::quick(11);
    six.population.n_sites = 400;
    six.tail_sites = 80;
    six.campaign.total_weeks = 10;
    six.timeline.total_weeks = 10;
    six.timeline.iana_week = 3;
    six.timeline.ipv6_day_week = 7;
    six.route_change = Some((5, 0.03, 0.01));
    six.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    run_study(&six).expect("valid scenario");

    // Resume with a 50-vantage population: slug-keyed checkpoints would
    // silently misattribute rounds, so the mismatch must be typed.
    let mut panel = tiny_panel(11);
    panel.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    match run_study(&panel) {
        Err(StudyError::Campaign(CampaignError::PopulationMismatch {
            stamped_count,
            count,
            ..
        })) => {
            assert_eq!(stamped_count, 6);
            assert_eq!(count, 50);
        }
        Ok(_) => panic!("resume with a different population must be refused"),
        Err(other) => panic!("expected PopulationMismatch, got {other}"),
    }

    // The matching scenario still resumes cleanly.
    run_study(&six).expect("same population resumes");
    std::fs::remove_dir_all(&dir).ok();
}
