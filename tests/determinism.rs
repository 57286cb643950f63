//! Reproducibility: the same scenario and seed must produce bit-identical
//! results, and different seeds must not.

use ipv6web::{run_study, Scenario};
use std::sync::Mutex;

/// `IPV6WEB_THREADS` is process-global: tests that set it run under one
/// lock so concurrent siblings never observe a half-configured budget.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tiny(seed: u64) -> Scenario {
    let mut s = Scenario::quick(seed);
    s.population.n_sites = 600;
    s.tail_sites = 100;
    s.campaign.total_weeks = 12;
    s.timeline.total_weeks = 12;
    s.timeline.iana_week = 4;
    s.timeline.ipv6_day_week = 9;
    s.fig1_from_week = 2;
    s.analysis.min_paired_samples = 4;
    s.route_change = Some((6, 0.03, 0.01));
    s
}

#[test]
fn same_seed_identical_report() {
    let a = run_study(&tiny(7)).expect("valid scenario");
    let b = run_study(&tiny(7)).expect("valid scenario");
    assert_eq!(a.report, b.report, "same seed must reproduce the report exactly");
    let ja = serde_json::to_string(&a.report).unwrap();
    let jb = serde_json::to_string(&b.report).unwrap();
    assert_eq!(ja, jb);
    // and the raw databases too
    for (da, db) in a.dbs.iter().zip(&b.dbs) {
        assert_eq!(da, db);
    }
}

#[test]
fn different_seed_different_world() {
    let a = run_study(&tiny(1)).expect("valid scenario");
    let b = run_study(&tiny(2)).expect("valid scenario");
    assert_ne!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "different seeds must explore different worlds"
    );
}

/// Runs `tiny(seed)` at each `IPV6WEB_THREADS` budget and asserts that the
/// report bytes and the raw databases equal the first budget's. The
/// variable is process-global, so all runs hold `ENV_LOCK`.
fn assert_budgets_agree(seed: u64, budgets: &[&str]) {
    let _g = ENV_LOCK.lock().unwrap();
    let mut runs = Vec::new();
    for &threads in budgets {
        std::env::set_var("IPV6WEB_THREADS", threads);
        let s = run_study(&tiny(seed)).expect("valid scenario");
        runs.push((threads, serde_json::to_string(&s.report).unwrap(), s.dbs));
    }
    std::env::remove_var("IPV6WEB_THREADS");
    let (_, ref json0, ref dbs0) = runs[0];
    for (threads, json, dbs) in &runs[1..] {
        assert_eq!(json, json0, "report diverged at IPV6WEB_THREADS={threads}");
        assert_eq!(dbs, dbs0, "databases diverged at IPV6WEB_THREADS={threads}");
    }
}

#[test]
fn thread_count_does_not_change_results() {
    // At 12 threads each of the six campaigns gets a probe pool of two
    // workers, so pooled probing must match the inline rounds byte for byte.
    assert_budgets_agree(5, &["1", "12"]);
}

#[test]
fn sequential_and_parallel_reports_are_byte_identical() {
    // A budget of 1 is the sequential reference schedule: every fan-out
    // runs inline, in vantage order. At 4 the campaigns, IPv6-day rounds
    // and analyses are split between vantages, and that must never change
    // a byte of the report or the raw databases.
    assert_budgets_agree(21, &["1", "4"]);
}

#[test]
fn memoized_epoch_rebuild_matches_from_scratch() {
    use ipv6web::bgp::BgpTable;
    use ipv6web::topology::{AsId, Family};
    use ipv6web::World;

    let s = tiny(11);
    assert!(s.route_change.is_some(), "scenario must schedule a route change");
    let w = World::build(&s);
    let late = w.topo_late.as_ref().expect("route change produces a late topology");
    let (_, epoch_tables) = w.scenario_epoch().expect("route change produces epoch tables");

    // The world's epoch tables reuse every destination the route change
    // cannot affect; a from-scratch build over the late topology must agree
    // exactly.
    let mut dests: Vec<AsId> = w.sites.iter().map(|site| site.v4_as).collect();
    dests.extend(w.sites.iter().filter_map(|site| site.v6.as_ref().map(|v| v.dest_as)));
    for (v, memoized) in w.vantages.iter().zip(epoch_tables) {
        let direct = BgpTable::build(late, v.as_id, Family::V6, &dests);
        assert_eq!(memoized.len(), direct.len(), "vantage {:?}", v.name);
        for r in direct.iter() {
            assert_eq!(memoized.route(r.dest), Some(r), "vantage {:?}", v.name);
        }
    }
}

#[test]
fn staggered_checkpoints_resume_to_identical_report() {
    // A mid-campaign kill under vantage-parallel execution leaves each
    // vantage a different distance through its campaign — some with no
    // checkpoint at all. Resuming from that ragged state must reproduce an
    // uninterrupted run byte for byte.
    use ipv6web::monitor::{checkpoint_path, run_campaign_resumable};
    use ipv6web::World;

    let _g = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join("ipv6web-staggered-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut s = tiny(19);
    let clean = run_study(&s).expect("valid scenario");

    // Replay the "crashed" first run: vantage i got truncations[i] weeks in
    // before the kill (0 = never started).
    let world = World::build(&s);
    let truncations = [6u32, 9, 0, 12, 4, 8];
    assert_eq!(world.vantages.len(), truncations.len());
    for (i, &cut) in truncations.iter().enumerate() {
        if cut == 0 {
            continue;
        }
        let faults = world.probe_faults(i);
        let ctx = world.probe_ctx(i, faults.as_ref());
        let mut cfg = s.campaign;
        cfg.total_weeks = cut.min(s.campaign.total_weeks);
        run_campaign_resumable(
            &ctx,
            &world.vantages[i],
            &world.list,
            &world.tail_ids,
            |id| world.sites[id as usize].first_seen_week,
            &cfg,
            None,
            Some(&dir),
        )
        .expect("partial campaign runs");
    }
    let on_disk = (0..world.vantages.len())
        .filter(|&i| checkpoint_path(&dir, &world.vantages[i].name).exists())
        .count();
    assert!(on_disk >= 2, "staggered kill must leave real checkpoints behind");
    assert!(on_disk < world.vantages.len(), "…but not for every vantage");

    s.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    let resumed = run_study(&s).expect("valid scenario");
    assert_eq!(
        serde_json::to_string(&clean.report).unwrap(),
        serde_json::to_string(&resumed.report).unwrap(),
        "resume from a staggered kill must not change the report"
    );
    for (da, db) in clean.dbs.iter().zip(&resumed.dbs) {
        assert_eq!(da, db, "resume must reproduce every database exactly");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_count_does_not_change_results() {
    let mut s1 = tiny(3);
    s1.campaign.workers = 1;
    let mut s2 = tiny(3);
    s2.campaign.workers = 16;
    // scenario inequality is fine — compare only the measurement outputs
    let a = run_study(&s1).expect("valid scenario");
    let b = run_study(&s2).expect("valid scenario");
    for (da, db) in a.dbs.iter().zip(&b.dbs) {
        assert_eq!(da, db, "thread scheduling must never leak into results");
    }
    assert_eq!(a.report.table8, b.report.table8);
}
