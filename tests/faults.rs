//! Fault-injection invariants: deterministic chaos, graceful degradation,
//! and exact accounting of everything injected.

use ipv6web::faults::{
    BgpFlap, DnsDisruption, DnsFaultKind, FaultPlan, HttpDisruption, HttpFaultKind, LinkFlap,
    LossBurst, VantageOutage,
};
use ipv6web::topology::Family;
use ipv6web::{obs, run_study, Scenario};
use proptest::prelude::*;
use std::sync::Mutex;

/// The obs registry is process-global; tests that enable/reset it run
/// under one lock so their snapshots cannot interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Same story for the IPV6WEB_THREADS variable.
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

fn tiny_faulted(seed: u64) -> Scenario {
    let mut s = tiny(seed);
    s.faults = FaultPlan::demo(s.timeline.total_weeks);
    s
}

#[test]
fn faulted_run_identical_across_thread_counts() {
    // Fault decisions are keyed on (seed, entity, week, round), never on
    // scheduling, so the chaos scenario must be exactly as reproducible as
    // the clean one.
    let _g = ENV_LOCK.lock().unwrap();
    std::env::set_var("IPV6WEB_THREADS", "1");
    let a = run_study(&tiny_faulted(31)).expect("valid scenario");
    std::env::set_var("IPV6WEB_THREADS", "4");
    let b = run_study(&tiny_faulted(31)).expect("valid scenario");
    std::env::remove_var("IPV6WEB_THREADS");
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "thread count must never leak into a faulted report"
    );
    for (da, db) in a.dbs.iter().zip(&b.dbs) {
        assert_eq!(da, db, "thread count must never leak into faulted databases");
    }
}

#[test]
fn faulted_run_differs_from_clean_run() {
    let clean = run_study(&tiny(31)).expect("valid scenario");
    let faulted = run_study(&tiny_faulted(31)).expect("valid scenario");
    assert_ne!(
        serde_json::to_string(&clean.report).unwrap(),
        serde_json::to_string(&faulted.report).unwrap(),
        "the demo plan must actually perturb the campaign"
    );
    // the demo plan takes Penn (live from week 0) dark for weeks [6, 8)
    let penn = faulted.dbs.iter().find(|d| d.vantage == "Penn").unwrap();
    assert_eq!(penn.outage_weeks, vec![6, 7]);
}

#[test]
fn empty_plan_is_bit_identical_to_no_faults() {
    // A plan whose vectors are all empty — even with a non-default retry
    // policy — must leave the whole pipeline untouched.
    let base = run_study(&tiny(13)).expect("valid scenario");
    let mut s = tiny(13);
    s.faults.retry.max_attempts = 9;
    s.faults.retry.base_backoff_ms = 10.0;
    assert!(s.faults.is_empty());
    let empty = run_study(&s).expect("valid scenario");
    assert_eq!(
        serde_json::to_string(&base.report).unwrap(),
        serde_json::to_string(&empty.report).unwrap(),
        "an empty fault plan must be byte-invisible"
    );
    for (da, db) in base.dbs.iter().zip(&empty.dbs) {
        assert_eq!(da, db);
    }
}

#[test]
fn injected_faults_are_counted_exactly_once() {
    let _g = OBS_LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let _study = run_study(&tiny_faulted(17)).expect("valid scenario");
    obs::disable();
    obs::flush_thread();
    let snap = obs::snapshot();
    obs::reset();
    let total = snap.counter("faults.injected_total");
    assert!(total > 0, "the demo plan must inject something");
    let by_kind: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("faults.injected."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(by_kind, total, "every injected fault must land in exactly one kind counter");
}

// ------------------------------------------------------------- proptest

fn arb_window(total_weeks: u32) -> impl Strategy<Value = (u32, u32)> {
    // sample independently, then clamp the length so the window always
    // fits (the vendored proptest has no flat_map)
    (0..total_weeks, 1..=total_weeks)
        .prop_map(move |(from, len)| (from, len.min(total_weeks - from)))
}

fn arb_plan(total_weeks: u32) -> impl Strategy<Value = FaultPlan> {
    let link = (any::<bool>(), arb_window(total_weeks), 0.0..=0.05f64).prop_map(
        |(v6, (from_week, weeks), edge_frac)| LinkFlap {
            family: if v6 { Family::V6 } else { Family::V4 },
            from_week,
            weeks,
            edge_frac,
        },
    );
    let burst = (any::<bool>(), arb_window(total_weeks), 0.0..=0.1f64, 0.0..=0.05f64).prop_map(
        |(v6, (from_week, weeks), edge_frac, extra_loss)| LossBurst {
            family: if v6 { Family::V6 } else { Family::V4 },
            from_week,
            weeks,
            edge_frac,
            extra_loss,
        },
    );
    let flap = (1..total_weeks, 0.0..=0.02f64, 0.0..=0.02f64)
        .prop_map(|(week, gain_frac, loss_frac)| BgpFlap { week, gain_frac, loss_frac });
    let dns = (0..3u8, 0.0..=0.05f64, arb_window(total_weeks)).prop_map(
        |(kind, prob, (from_week, weeks))| DnsDisruption {
            kind: match kind {
                0 => DnsFaultKind::ServFail,
                1 => DnsFaultKind::Timeout,
                _ => DnsFaultKind::Truncated,
            },
            prob,
            from_week,
            weeks,
        },
    );
    let http = (0..3u8, 0.0..=0.05f64, 100.0..=1000.0f64, arb_window(total_weeks)).prop_map(
        |(kind, prob, stall_ms, (from_week, weeks))| HttpDisruption {
            kind: match kind {
                0 => HttpFaultKind::Stall,
                1 => HttpFaultKind::Reset,
                _ => HttpFaultKind::Truncate,
            },
            prob,
            stall_ms,
            from_week,
            weeks,
        },
    );
    let outage = (0..4u8, arb_window(total_weeks)).prop_map(|(which, (from_week, weeks))| {
        let vantage = match which {
            0 => "Penn",
            1 => "Comcast",
            2 => "Tsinghua U.",
            _ => "nowhere", // names that match no vantage must be harmless
        };
        VantageOutage { vantage: vantage.into(), from_week, weeks }
    });
    (
        proptest::collection::vec(link, 0..2),
        proptest::collection::vec(burst, 0..2),
        proptest::collection::vec(flap, 0..2),
        proptest::collection::vec(dns, 0..2),
        proptest::collection::vec(http, 0..2),
        proptest::collection::vec(outage, 0..2),
    )
        .prop_map(
            |(link_flaps, loss_bursts, bgp_flaps, dns_faults, http_faults, vantage_outages)| {
                FaultPlan {
                    link_flaps,
                    loss_bursts,
                    bgp_flaps,
                    dns_faults,
                    http_faults,
                    vantage_outages,
                    ..FaultPlan::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary valid plans must never panic the driver, and everything
    /// they inject must show up in exactly one `faults.injected.*` counter.
    #[test]
    fn random_plans_never_panic_and_account_for_every_fault(
        plan in arb_plan(12),
        seed in 0u64..1000,
    ) {
        let _g = OBS_LOCK.lock().unwrap();
        let mut s = tiny(seed);
        s.faults = plan;
        prop_assert!(s.validate().is_ok(), "generated plans are valid by construction");
        obs::reset();
        obs::enable();
        let study = run_study(&s).expect("valid scenario");
        obs::disable();
        obs::flush_thread();
        let snap = obs::snapshot();
        obs::reset();
        prop_assert_eq!(study.dbs.len(), 6);
        let total = snap.counter("faults.injected_total");
        let by_kind: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("faults.injected."))
            .map(|(_, v)| v)
            .sum();
        prop_assert_eq!(by_kind, total);
    }
}
