//! Observability invariants: metrics collection must never perturb the
//! bit-comparable report, and collected counters must be independent of
//! the thread budget.

use ipv6web::obs;
use ipv6web::{run_study, Scenario};
use std::sync::Mutex;

/// The obs registry is process-global; tests that enable/reset it run
/// under one lock so their snapshots cannot interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

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
fn report_bytes_identical_with_metrics_on_and_off() {
    let _g = OBS_LOCK.lock().unwrap();
    obs::disable();
    obs::reset();
    let off = run_study(&tiny(13)).expect("valid scenario");
    obs::enable();
    let on = run_study(&tiny(13)).expect("valid scenario");
    obs::disable();
    obs::reset();
    assert_eq!(
        serde_json::to_string(&off.report).unwrap(),
        serde_json::to_string(&on.report).unwrap(),
        "metrics collection must not leak into the report"
    );
    for (da, db) in off.dbs.iter().zip(&on.dbs) {
        assert_eq!(da, db, "metrics collection must not perturb measurements");
    }
}

#[test]
fn counters_identical_across_thread_counts() {
    let _g = OBS_LOCK.lock().unwrap();

    let run = |threads: &str| {
        obs::reset();
        obs::enable();
        std::env::set_var("IPV6WEB_THREADS", threads);
        let _study = run_study(&tiny(17)).expect("valid scenario");
        std::env::remove_var("IPV6WEB_THREADS");
        obs::disable();
        obs::flush_thread();
        let snap = obs::snapshot();
        obs::reset();
        snap
    };

    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial.counters, parallel.counters, "counters must not depend on scheduling");
    assert_eq!(serial.histograms, parallel.histograms, "histograms must not depend on scheduling");
    // sanity: the campaign actually recorded something
    assert!(serial.counter("monitor.probes") > 0, "probes counted");
    assert!(serial.counter("bgp.routes_computed") > 0, "routes counted");
    assert_every_exchange_observed_once(&serial);
    // gauges are allowed to differ (they report the configuration itself)
    assert_eq!(serial.gauge("par.peak_threads"), 1);
    assert_eq!(parallel.gauge("par.peak_threads"), 4);
}

#[test]
fn nat64_counters_identical_across_thread_counts() {
    // Same scheduling-invariance contract, but for the translation-plane
    // counters: DNS64 synthesis and NAT64 path selection run inside the
    // probes, so any scheduling dependence would show up here.
    let _g = OBS_LOCK.lock().unwrap();

    let tiny_nat64 = |seed: u64| {
        let mut s = Scenario::nat64(seed);
        s.population.n_sites = 400;
        s.tail_sites = 60;
        s.campaign.total_weeks = 12;
        s.timeline.total_weeks = 12;
        s.timeline.iana_week = 4;
        s.timeline.ipv6_day_week = 9;
        s.fig1_from_week = 2;
        s.analysis.min_paired_samples = 4;
        s.route_change = Some((6, 0.03, 0.01));
        s
    };
    let run = |threads: &str| {
        obs::reset();
        obs::enable();
        std::env::set_var("IPV6WEB_THREADS", threads);
        let _study = run_study(&tiny_nat64(31)).expect("valid scenario");
        std::env::remove_var("IPV6WEB_THREADS");
        obs::disable();
        obs::flush_thread();
        let snap = obs::snapshot();
        obs::reset();
        snap
    };

    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial.counters, parallel.counters, "xlat counters must not depend on scheduling");
    assert_eq!(serial.histograms, parallel.histograms, "histograms must not depend on scheduling");
    // sanity: the translation plane actually fired
    assert!(serial.counter("dns64.synthesized") > 0, "DNS64 synthesized AAAAs");
    assert!(serial.counter("xlat.translated_paths") > 0, "probes crossed a NAT64 gateway");
    assert_every_exchange_observed_once(&serial);
}

/// Every query that reaches the authority (all but the unencodable ones)
/// records one `dns.wire_bytes` observation, whether it ran the codec or
/// answered from the zone entry, and so does every DNS64 synthesis pass.
fn assert_every_exchange_observed_once(snap: &obs::Snapshot) {
    let observed = snap.histograms.get("dns.wire_bytes").map_or(0, |h| h.count);
    assert_eq!(
        observed,
        snap.counter("dns.queries") - snap.counter("dns.unencodable_names")
            + snap.counter("dns64.synthesized"),
        "dns.wire_bytes observations"
    );
}

#[test]
fn worker_budget_is_never_exceeded() {
    // Six campaigns race under a budget of four threads: the vantage and
    // route fan-outs must really run in parallel and never beyond
    // IPV6WEB_THREADS.
    let _g = OBS_LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    std::env::set_var("IPV6WEB_THREADS", "4");
    let _study = run_study(&tiny(29)).expect("valid scenario");
    std::env::remove_var("IPV6WEB_THREADS");
    obs::disable();
    obs::flush_thread();
    let snap = obs::snapshot();
    obs::reset();
    let peak = snap.gauge("par.peak_threads");
    assert!(peak >= 2, "vantage fan-out never actually ran in parallel");
    assert!(peak <= 4, "par.peak_threads {peak} exceeds the budget of 4");
}

#[test]
fn disabled_registry_stays_empty_through_a_study() {
    let _g = OBS_LOCK.lock().unwrap();
    obs::disable();
    obs::reset();
    let _study = run_study(&tiny(19)).expect("valid scenario");
    obs::flush_thread();
    let snap = obs::snapshot();
    assert!(snap.counters.is_empty(), "disabled collection must record nothing");
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
}

#[test]
fn study_timings_cover_every_phase() {
    // lock: a concurrent sibling with collection enabled would otherwise
    // absorb this study's counters into its snapshot
    let _g = OBS_LOCK.lock().unwrap();
    let study = run_study(&tiny(23)).expect("valid scenario");
    let names: Vec<&str> = study.timings.phases.iter().map(|p| p.name.as_str()).collect();
    for phase in [
        "world: topology",
        "world: population",
        "world: dns zone",
        "world: route tables (v4)",
        "world: route tables (v6)",
        "world: route tables (v6 epoch)",
        "ipv6 day rounds",
        "analysis",
        "analysis: ipv6 day",
        "report assembly",
    ] {
        assert!(names.contains(&phase), "missing phase {phase:?} in {names:?}");
    }
    assert!(names.iter().filter(|n| n.starts_with("campaign: ")).count() >= 6, "six campaigns");
    assert!(study.timings.total_seconds() > 0.0);
    // spans collected per run: a second study must not inherit this one's
    let again = run_study(&tiny(23)).expect("valid scenario");
    assert_eq!(again.timings.phases.len(), study.timings.phases.len());
}
