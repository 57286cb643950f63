//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each ablation runs a tiny end-to-end study under a counterfactual
//! configuration and prints the headline numbers once, then benches the
//! pipeline so regressions in the heavy path show up in CI:
//!
//! * **peering parity** — the paper's recommendation: parity 1.0 should
//!   erase the DP class and its performance gap;
//! * **H1-fails counterfactual** — widespread IPv6 forwarding penalties
//!   must surface as "Bad" SP ASes (the study would have rejected H1);
//! * **no disturbances** — Table 3's ↑/↓/↗/↘ columns must empty out.

use criterion::{criterion_group, criterion_main, Criterion};
use ipv6web_analysis::{AsCategory, SiteClass};
use ipv6web_core::{run_study, Scenario};
use std::hint::black_box;

fn tiny(seed: u64) -> Scenario {
    let mut s = Scenario::quick(seed);
    s.population.n_sites = 700;
    s.tail_sites = 100;
    s.campaign.total_weeks = 14;
    s.timeline.total_weeks = 14;
    s.timeline.iana_week = 5;
    s.timeline.ipv6_day_week = 11;
    s.fig1_from_week = 2;
    s.route_change = Some((7, 0.03, 0.01));
    s.analysis.min_paired_samples = 5;
    s
}

fn dp_share(study: &ipv6web_core::StudyResult) -> f64 {
    let (mut sp, mut dp) = (0usize, 0usize);
    for a in &study.analyses {
        sp += a.count_of(SiteClass::Sp);
        dp += a.count_of(SiteClass::Dp);
    }
    if sp + dp == 0 {
        0.0
    } else {
        dp as f64 / (sp + dp) as f64
    }
}

fn bad_sp_groups(study: &ipv6web_core::StudyResult) -> usize {
    study
        .analyses
        .iter()
        .flat_map(|a| a.sp_groups.values())
        .filter(|g| g.category == AsCategory::Bad)
        .count()
}

fn ablation_peering_parity(c: &mut Criterion) {
    // print the sweep once: lambda interpolates the 2011 deployment toward
    // full parity (adoption + replication + tunnel retirement together)
    for lambda in [0.0, 0.5, 1.0] {
        let mut s = tiny(11);
        s.topology.dual = s.topology.dual.toward_parity(lambda);
        let study = run_study(&s).expect("valid scenario");
        println!(
            "ablation toward_parity lambda={lambda}: DP share {:.1}%, H2 {}",
            100.0 * dp_share(&study),
            if study.report.h2.holds { "holds" } else { "n/a (no DP left)" }
        );
    }
    let mut g = c.benchmark_group("ablation_peering_parity");
    g.sample_size(10);
    g.bench_function("study_low_parity", |b| {
        let mut s = tiny(11);
        s.topology.dual = s.topology.dual.with_peering_parity(0.1);
        b.iter(|| black_box(run_study(&s)))
    });
    g.finish();
}

fn ablation_forwarding_penalty(c: &mut Criterion) {
    for (label, prob, range) in [("h1-holds", 0.04, (0.55, 0.9)), ("h1-fails", 0.8, (0.03, 0.15))] {
        let mut s = tiny(13);
        s.topology.dual = s.topology.dual.with_forwarding_penalty(prob, range);
        let study = run_study(&s).expect("valid scenario");
        println!(
            "ablation forwarding_penalty={label}: bad SP groups {}, H1 {}",
            bad_sp_groups(&study),
            if study.report.h1.holds { "holds" } else { "REJECTED" }
        );
    }
    let mut g = c.benchmark_group("ablation_forwarding_penalty");
    g.sample_size(10);
    g.bench_function("study_h1_fails", |b| {
        let mut s = tiny(13);
        s.topology.dual = s.topology.dual.with_forwarding_penalty(0.8, (0.03, 0.15));
        b.iter(|| black_box(run_study(&s)))
    });
    g.finish();
}

fn ablation_disturbances(c: &mut Criterion) {
    let mut s = tiny(17);
    s.disturbances = ipv6web_monitor::DisturbanceConfig::none();
    let study = run_study(&s).expect("valid scenario");
    let transitions: usize = study
        .analyses
        .iter()
        .flat_map(|a| &a.removed)
        .filter(|r| {
            !matches!(r.cause, ipv6web_analysis::sanitize::RemovalCause::InsufficientSamples)
        })
        .count();
    println!("ablation disturbances=off: non-insufficient removals {transitions}");
    let mut g = c.benchmark_group("ablation_disturbances");
    g.sample_size(10);
    g.bench_function("study_clean_world", |b| b.iter(|| black_box(run_study(&s))));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = ablation_peering_parity, ablation_forwarding_penalty, ablation_disturbances
}
criterion_main!(benches);
