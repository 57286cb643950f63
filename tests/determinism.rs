//! Reproducibility: the same scenario and seed must produce bit-identical
//! results, and different seeds must not.

use ipv6web::dns::Resolver;
use ipv6web::faults::FaultPlan;
use ipv6web::monitor::{probe_site, run_campaign, ProbeOutcome};
use ipv6web::stats::fnv1a64;
use ipv6web::{run_study, Scenario, World};
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

/// `tiny(42)` plain, under the demo fault plan, and with the NAT64 tier's
/// translation plane (two v6-only and two 464XLAT vantages).
fn pinned_scenarios() -> [(&'static str, Scenario); 3] {
    let mut faults = tiny(42);
    faults.faults = FaultPlan::demo(12);
    let mut nat64 = tiny(42);
    nat64.xlat = Scenario::nat64(42).xlat;
    [("plain", tiny(42)), ("faults", faults), ("nat64", nat64)]
}

#[test]
fn report_digests_are_pinned() {
    // FNV-1a of each report's JSON bytes. A change that alters report
    // bytes on purpose updates these constants and says why.
    const PINNED: [(&str, u64); 3] = [
        ("plain", 0x455c_d27c_264f_2963),
        ("faults", 0x09fa_f723_2026_fd81),
        ("nat64", 0xfb33_2f30_c86a_cbdf),
    ];
    let got = pinned_scenarios().map(|(name, s)| {
        let report = run_study(&s).expect("valid scenario").report;
        (name, fnv1a64(serde_json::to_string(&report).unwrap().as_bytes()))
    });
    assert_eq!(got, PINNED, "report digests: {got:x?}");
}

#[test]
fn recorded_samples_replay_from_a_fresh_resolver() {
    // A probe is a function of (world, vantage, week, salt, site, fault
    // plan): replayed alone, with a resolver that has answered nothing
    // before, a measured probe gives back exactly the samples its round
    // recorded. Every 7th site record with samples is replayed, every week.
    for (name, s) in pinned_scenarios() {
        let world = World::build(&s);
        let mut replayed = 0;
        let mut translating = 0;
        for (i, vantage) in world.vantages.iter().enumerate() {
            let faults = world.probe_faults(i);
            let ctx = world.probe_ctx(i, faults.as_ref());
            let first_seen = |id: u32| world.sites[id as usize].first_seen_week;
            let db =
                run_campaign(&ctx, vantage, &world.list, &world.tail_ids, first_seen, &s.campaign)
                    .expect("campaign runs");
            let sampled = db.iter().filter(|(_, rec)| !rec.samples_v4.is_empty()).step_by(7);
            for (site, rec) in sampled {
                for (&v4, &v6) in rec.samples_v4.iter().zip(&rec.samples_v6) {
                    let mut fresh =
                        if ctx.stack.translates_v4() { Resolver::dns64() } else { Resolver::new() };
                    assert_eq!(
                        probe_site(&ctx, &mut fresh, site, v4.week, 0, false),
                        ProbeOutcome::Measured { v4, v6 },
                        "{name}: {} site {} week {}",
                        vantage.name,
                        site.0,
                        v4.week
                    );
                    replayed += 1;
                    translating += usize::from(ctx.stack.translates_v4());
                }
            }
        }
        assert!(replayed > 0, "{name}: no recorded sample was replayed");
        if name == "nat64" {
            assert!(translating > 0, "{name}: no translating vantage was replayed");
        }
    }
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
    // At 12 threads the route fan-out runs twelve wide and each of the six
    // campaigns runs on a share of two threads; neither may change a byte.
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
