//! One study per process: the untraced study that end-to-end metrics come
//! from, and the traced study that the per-layer ledger comes from.

use crate::check::{fresh_checkpoint_dir, report_bytes};
use crate::probes;
use crate::replay::{replay, Replay};
use crate::trace::{ns_since, thread_index, Span, Trace};
use crate::workload::Workload;
use ipv6web_analysis::{analyze_vantage_faulted, AnalysisConfig, VantageAnalysis};
use ipv6web_core::{run_study_on_world, ExecutionMode, Report, World};
use ipv6web_monitor::{
    checkpoint_path, run_campaign_resumable, run_ipv6_day_rounds, CampaignConfig, MonitorDb,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What an untraced study reports to the benchmark.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StudyOutcome {
    /// Seconds from scenario to finished report.
    pub study_s: f64,
    /// Seconds in `World::try_build`: the study's own build first, then
    /// each extra build.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of the process when the report was done, kB.
    pub peak_rss_kb: u64,
    /// Digest of the report bytes.
    pub digest: String,
    /// Shape checks the report passes, of `shape_checks_total`.
    pub shape_checks_held: u64,
    /// Shape checks evaluated.
    pub shape_checks_total: u64,
    /// Probes the study made (campaigns plus IPv6-day rounds).
    pub probes: u64,
}

/// Runs one untraced study of `workload` at `seed`, as a daemon job does:
/// `World::try_build`, then `run_study_on_world` in the default mode.
/// Then builds the world `extra_setups` more times for `setup_s`, after
/// the peak memory is read. Writes the report bytes to `report_out` when
/// given.
pub fn untraced(
    workload: Workload,
    seed: u64,
    extra_setups: usize,
    report_out: Option<&Path>,
) -> Result<StudyOutcome, String> {
    let scenario = workload.scenario(seed);
    let t0 = Instant::now();
    let world = Arc::new(World::try_build(&scenario).map_err(|e| format!("world build: {e}"))?);
    let setup_s = t0.elapsed().as_secs_f64();
    let study = run_study_on_world(&world, ExecutionMode::default(), None)
        .map_err(|e| format!("study: {e}"))?;
    let study_s = t0.elapsed().as_secs_f64();
    let peak_rss_kb = ipv6web_obs::peak_rss_kb().unwrap_or(0);

    let bytes = report_bytes(&study.report);
    if let Some(path) = report_out {
        std::fs::write(path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let checks = ipv6web_bench::shape_checks(&study.report);
    let probes = probes::count(&world).total();
    drop(study);
    drop(world);

    let mut setups = vec![setup_s];
    for _ in 0..extra_setups {
        let t = Instant::now();
        let w = World::try_build(&scenario).map_err(|e| format!("world build: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        drop(w);
    }
    Ok(StudyOutcome {
        study_s,
        setup_s: setups,
        peak_rss_kb,
        digest: crate::check::digest(bytes.as_bytes()),
        shape_checks_held: checks.iter().filter(|c| c.ok).count() as u64,
        shape_checks_total: checks.len() as u64,
        probes,
    })
}

/// Time and bytes of the per-round checkpoint writes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCost {
    /// `MonitorDb::save_json` calls.
    pub writes: u64,
    /// Seconds inside them.
    pub seconds: f64,
    /// Bytes they wrote.
    pub bytes: u64,
}

/// What the traced study reports to the benchmark.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TracedOutcome {
    /// Seconds from scenario to finished report, obs counters on.
    pub study_s: f64,
    /// Seconds in world build.
    pub setup_s: f64,
    /// Digest of the report bytes.
    pub digest: String,
    /// Probes the walk of the probe population predicts.
    pub probes_planned: u64,
    /// Shape checks the report passes.
    pub shape_checks_held: u64,
    /// The `IPV6WEB_THREADS` budget the study ran under.
    pub threads: u64,
    /// Every timed call of the study.
    pub spans: Vec<Span>,
    /// Obs counters at the end of the study.
    pub counters: BTreeMap<String, u64>,
    /// Accepted performance samples (the `monitor.downloads_per_sample`
    /// histogram's count).
    pub accepted_samples: u64,
    /// The per-probe replay.
    pub replay: Replay,
    /// The replayed per-round checkpoint writes, for workloads that
    /// replay them.
    pub checkpoints: Option<CheckpointCost>,
}

/// Names of the library's world-build phase spans, and the layer each
/// one times.
const WORLD_PHASES: [(&str, &str); 9] = [
    ("world: topology", "topology.generate"),
    ("world: population", "web.population"),
    ("world: dns zone", "web.zone"),
    ("world: vantage population", "monitor.vantage_population"),
    ("world: route tables (v4)", "bgp.tables"),
    ("world: route tables (v6)", "bgp.tables"),
    ("world: route tables (v6 epoch)", "bgp.epoch"),
    ("world: route tables (v6 epochs, faulted)", "bgp.epoch"),
    ("world: xlat wiring", "xlat.wiring"),
];

/// Sampled probes for the per-layer replay.
pub const SAMPLE_TARGET: usize = 50_000;

/// Runs the traced study: obs counters on, every public call of the study
/// timed as a span, then the per-probe replay and, for workloads that
/// replay checkpoint writes, the checkpoint replay into `ckpt_dir`, which
/// must be missing or empty.
pub fn traced(workload: Workload, seed: u64, ckpt_dir: &Path) -> Result<TracedOutcome, String> {
    let scenario = workload.scenario(seed);
    if workload.replays_checkpoints() {
        fresh_checkpoint_dir(ckpt_dir)?;
    }
    ipv6web_obs::reset();
    ipv6web_obs::enable();
    let mut trace = Trace::new();
    let root = trace.open("study", None);
    let setup = trace.open("setup", Some(root));
    let mark = ipv6web_obs::span_mark();
    let world = Arc::new(World::try_build(&scenario).map_err(|e| format!("world build: {e}"))?);
    trace.close(setup);
    adopt_world_phases(&mut trace, setup, ipv6web_obs::take_spans_since(mark));
    let (report, dbs) = drive(&world, &mut trace, root)?;
    trace.close(root);
    ipv6web_obs::flush_thread();
    let snap = ipv6web_obs::snapshot();
    ipv6web_obs::disable();

    let spans = trace.into_spans();
    let study_s = spans[root as usize].dur_ns() as f64 * 1e-9;
    let setup_s = spans[setup as usize].dur_ns() as f64 * 1e-9;
    let digest = crate::check::digest(report_bytes(&report).as_bytes());
    let shape_checks_held =
        ipv6web_bench::shape_checks(&report).iter().filter(|c| c.ok).count() as u64;
    let accepted_samples =
        snap.histograms.get("monitor.downloads_per_sample").map_or(0, |h| h.count);

    let plan = probes::sample(&world, SAMPLE_TARGET);
    let replay = replay(&world, &plan.sample);
    let checkpoints = if workload.replays_checkpoints() {
        Some(checkpoint_cost(&world, &dbs, ckpt_dir)?)
    } else {
        None
    };
    Ok(TracedOutcome {
        study_s,
        setup_s,
        digest,
        probes_planned: plan.total(),
        shape_checks_held,
        threads: ipv6web_par::thread_count() as u64,
        spans,
        counters: snap.counters,
        accepted_samples,
        replay,
        checkpoints,
    })
}

/// Lays the library's world-build phase spans out under `setup`. They
/// ran one after another on this thread, so each starts where the one
/// before it ended; the gaps between them stay `setup`'s self time.
fn adopt_world_phases(trace: &mut Trace, setup: u32, phases: Vec<ipv6web_obs::SpanRecord>) {
    let Some(top) = phases.iter().map(|p| p.depth).min() else { return };
    let (start, end) = trace.bounds(setup);
    let mut cursor = start;
    for p in phases.iter().filter(|p| p.depth == top) {
        let layer = WORLD_PHASES
            .iter()
            .find(|(name, _)| *name == p.name)
            .map_or_else(|| format!("setup.{}", p.name), |(_, layer)| layer.to_string());
        let dur = (p.seconds * 1e9) as u64;
        let stop = (cursor + dur).min(end);
        trace.push(&layer, Some(setup), cursor, stop, 0);
        cursor = stop;
    }
}

/// The study pipeline `run_study_on_world` runs without a checkpoint
/// directory, call by call, with a span around each public call: every
/// vantage's campaign, the IPv6-day rounds, `analyze_vantage_faulted`, and
/// `Report::build`. Fans out over the vantages the way the default
/// execution mode does.
fn drive(
    world: &Arc<World>,
    trace: &mut Trace,
    root: u32,
) -> Result<(Report, Vec<MonitorDb>), String> {
    let scenario = &world.scenario;
    let origin = trace.origin();
    let timed = |f: &dyn Fn() -> Result<MonitorDb, String>| {
        let start = ns_since(origin);
        let out = f();
        (out, start, ns_since(origin), thread_index())
    };

    // weekly campaigns
    let stage = trace.open("stage.campaigns", Some(root));
    let idxs: Vec<usize> = (0..world.vantages.len()).collect();
    let results = ipv6web_par::par_map(&idxs, |_, &i| {
        let faults = world.probe_faults(i);
        let ctx = world.probe_ctx(i, faults.as_ref());
        let sites = &world.sites;
        timed(&|| {
            run_campaign_resumable(
                &ctx,
                &world.vantages[i],
                &world.list,
                &world.tail_ids,
                |id| sites[id as usize].first_seen_week,
                &scenario.campaign,
                None,
                None,
            )
            .map_err(|e| e.to_string())
        })
    });
    trace.close(stage);
    let mut dbs = Vec::with_capacity(results.len());
    for (db, start, end, thread) in results {
        trace.push("monitor.campaign", Some(stage), start, end, thread);
        dbs.push(db?);
    }

    // World IPv6 Day
    let participants = world.ipv6_day_participants();
    let day_idxs: Vec<usize> = world
        .vantages
        .iter()
        .enumerate()
        .filter(|(_, v)| v.has_as_path && v.name != "Comcast")
        .map(|(i, _)| i)
        .collect();
    let stage = trace.open("stage.day_rounds", Some(root));
    let results = ipv6web_par::par_map(&day_idxs, |_, &i| {
        let faults = world.probe_faults(i);
        let ctx = world.probe_ctx(i, faults.as_ref());
        timed(&|| {
            run_ipv6_day_rounds(
                &ctx,
                &world.vantages[i],
                &participants,
                scenario.timeline.ipv6_day_week,
                &scenario.campaign,
            )
            .map_err(|e| e.to_string())
        })
    });
    trace.close(stage);
    let mut day_dbs = Vec::with_capacity(results.len());
    for (&i, (db, start, end, thread)) in day_idxs.iter().zip(results) {
        trace.push("monitor.day_rounds", Some(stage), start, end, thread);
        day_dbs.push((i, db?));
    }

    // analysis
    let fault_windows = scenario.faults.disruption_windows();
    let analyze = |cfg: &AnalysisConfig, i: usize, db: &MonitorDb| {
        let start = ns_since(origin);
        let a = analyze_vantage_faulted(
            cfg,
            &world.sites,
            db,
            &world.tables[i].0,
            &world.tables[i].1,
            &fault_windows,
        );
        (a, start, ns_since(origin), thread_index())
    };
    let ana_idxs: Vec<usize> =
        world.vantages.iter().enumerate().filter(|(_, v)| v.has_as_path).map(|(i, _)| i).collect();
    let stage = trace.open("stage.analysis", Some(root));
    let results = ipv6web_par::par_map(&ana_idxs, |_, &i| analyze(&scenario.analysis, i, &dbs[i]));
    trace.close(stage);
    let mut analyses: Vec<VantageAnalysis> = Vec::with_capacity(results.len());
    for (a, start, end, thread) in results {
        trace.push("analysis.vantage", Some(stage), start, end, thread);
        analyses.push(a);
    }
    let day_cfg = AnalysisConfig::ipv6_day();
    let stage = trace.open("stage.analysis_day", Some(root));
    let results = ipv6web_par::par_map(&day_dbs, |_, (i, db)| analyze(&day_cfg, *i, db));
    trace.close(stage);
    let mut day_analyses: Vec<VantageAnalysis> = Vec::with_capacity(results.len());
    for (a, start, end, thread) in results {
        trace.push("analysis.vantage", Some(stage), start, end, thread);
        day_analyses.push(a);
    }

    let span = trace.open("core.report", Some(root));
    let report = Report::build(world, &dbs, &analyses, &day_analyses);
    trace.close(span);
    Ok((report, dbs))
}

/// Replays the checkpoint writes a study with a checkpoint directory makes:
/// each vantage's campaign runs one round at a time (resuming from the
/// round before), and the database after each round is written into
/// `dir` with `MonitorDb::save_json`, as the campaign's per-round
/// checkpoint does. The last database must equal the study's.
fn checkpoint_cost(world: &World, dbs: &[MonitorDb], dir: &Path) -> Result<CheckpointCost, String> {
    let mut cost = CheckpointCost::default();
    let campaign = world.scenario.campaign;
    for (i, v) in world.vantages.iter().enumerate() {
        let faults = world.probe_faults(i);
        let ctx = world.probe_ctx(i, faults.as_ref());
        let path = checkpoint_path(dir, &v.name);
        let sites = &world.sites;
        let mut db: Option<MonitorDb> = None;
        for week in v.start_week..campaign.total_weeks {
            let cfg = CampaignConfig { total_weeks: week + 1, ..campaign };
            let next = run_campaign_resumable(
                &ctx,
                v,
                &world.list,
                &world.tail_ids,
                |id| sites[id as usize].first_seen_week,
                &cfg,
                db.take(),
                None,
            )
            .map_err(|e| e.to_string())?;
            let t = Instant::now();
            next.save_json(&path).map_err(|e| e.to_string())?;
            cost.seconds += t.elapsed().as_secs_f64();
            cost.bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            cost.writes += 1;
            db = Some(next);
        }
        if let Some(db) = db {
            let replayed = serde_json::to_string(&db).expect("db serializes");
            if replayed != serde_json::to_string(&dbs[i]).expect("db serializes") {
                return Err(format!("round-by-round replay of {} diverged from the study", v.name));
            }
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(cost)
}
