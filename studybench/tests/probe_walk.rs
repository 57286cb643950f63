//! The probe walk predicts exactly the probes a study makes, outage weeks
//! and IPv6-day rounds included. Its own test binary: it turns on the
//! process-wide obs counters.

use studybench::probes;
use studybench::workload::Workload;

#[test]
fn probe_walk_counts_every_probe_of_a_faulted_study() {
    let mut scenario = Workload::Chaos.scenario(5);
    scenario.population.n_sites = 300;
    scenario.tail_sites = 40;
    ipv6web_obs::reset();
    ipv6web_obs::enable();
    let study = ipv6web_core::run_study(&scenario).expect("small chaos study runs");
    ipv6web_obs::flush_thread();
    let made = ipv6web_obs::snapshot().counter("monitor.probes");
    ipv6web_obs::disable();
    assert!(
        study.dbs.iter().any(|db| !db.outage_weeks.is_empty()),
        "the plan takes a vantage down"
    );
    let plan = probes::sample(&study.world, 500);
    assert_eq!(plan.total(), made);
    assert!(plan.sample.len() >= 500, "whole rounds until the target is met");
    let rounds: std::collections::BTreeSet<_> =
        plan.sample.iter().map(|k| (k.vantage, k.week)).collect();
    assert!(rounds.iter().all(|&(v, w)| !study.dbs[v].outage_weeks.contains(&w)));
}
