//! Self-tests of the benchmark's own checks and ledger arithmetic.

use std::path::PathBuf;
use studybench::check::{check_digest, check_expected, digest, fresh_checkpoint_dir, report_bytes};
use studybench::layers::LAYER_METRICS;
use studybench::run::END_TO_END;
use studybench::trace::{fold, self_times, unattributed_frac, Span};
use studybench::workload::Workload;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("studybench-selftest").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    dir
}

fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span { id, parent, name: name.to_string(), start_ns, end_ns, thread: 0 }
}

#[test]
fn perturbed_report_fails_the_digest_check() {
    let mut scenario = ipv6web_core::Scenario::quick(3);
    scenario.population.n_sites = 300;
    scenario.tail_sites = 40;
    let study = ipv6web_core::run_study(&scenario).expect("small study runs");
    let report = study.report;
    let expected = digest(report_bytes(&report).as_bytes());
    assert_eq!(check_digest(&expected, &report), Ok(()));

    let mut flipped = report.clone();
    flipped.h1.holds = !flipped.h1.holds;
    assert!(check_digest(&expected, &flipped).is_err(), "a flipped verdict must change the digest");

    let mut reworded = report.clone();
    reworded.h2.summary.push(' ');
    assert!(check_digest(&expected, &reworded).is_err(), "one extra byte must change the digest");
}

#[test]
fn digest_mismatch_across_runs_is_reported() {
    let path = tmp("expect").join("w-seed1.json");
    assert_eq!(check_expected(&path, "fnv1a64:01", None), Ok(()));
    assert_eq!(check_expected(&path, "fnv1a64:01", None), Ok(()));
    let err = check_expected(&path, "fnv1a64:02", None).unwrap_err();
    assert!(err.contains("differs"), "{err}");

    let counts = [("monitor.probes".to_string(), 10u64)].into_iter().collect();
    assert_eq!(check_expected(&path, "fnv1a64:01", Some(&counts)), Ok(()));
    let changed = [("monitor.probes".to_string(), 11u64)].into_iter().collect();
    let err = check_expected(&path, "fnv1a64:01", Some(&changed)).unwrap_err();
    assert!(err.contains("monitor.probes"), "{err}");
}

#[test]
fn spans_of_one_kind_fold_into_one_row() {
    let mut spans = vec![span(0, None, "stage.campaigns", 0, 1_000)];
    let durations = [120u64, 40, 300, 75, 5];
    for (i, d) in durations.iter().enumerate() {
        let start = 10 * i as u64;
        spans.push(span(i as u32 + 1, Some(0), "monitor.campaign", start, start + d));
    }
    let rows = fold(&spans);
    assert_eq!(rows.len(), 2, "one row per kind, not per vantage");
    let campaign = rows.iter().find(|r| r.name == "monitor.campaign").unwrap();
    assert_eq!(campaign.count, 5);
    assert_eq!(campaign.sum_ns, durations.iter().sum::<u64>());
    assert_eq!(campaign.max_ns, 300);
    assert_eq!(campaign.self_ns, campaign.sum_ns, "leaf spans are all self time");
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // study [0,100] has two overlapping children on different threads,
    // A [10,40] and B [30,60]; A has a child C [15,20]
    let spans = vec![
        span(0, None, "study", 0, 100),
        span(1, Some(0), "monitor.campaign", 10, 40),
        span(2, Some(0), "monitor.campaign", 30, 60),
        span(3, Some(1), "analysis.vantage", 15, 20),
    ];
    assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    assert!((unattributed_frac(&spans) - 0.5).abs() < 1e-12);

    // a child reaching outside its parent only covers the overlap
    let spans = vec![span(0, None, "setup", 100, 200), span(1, Some(0), "web.zone", 150, 260)];
    assert_eq!(self_times(&spans), vec![50, 110]);
}

#[test]
fn non_empty_chaos_checkpoint_directory_is_refused() {
    let dir = tmp("ckpt-nonempty");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("penn.json"), b"{}").unwrap();
    let err = fresh_checkpoint_dir(&dir).unwrap_err();
    assert!(err.contains("non-empty"), "{err}");
    // the traced chaos run refuses it before building anything
    let err = studybench::study::traced(Workload::Chaos, 1, &dir).unwrap_err();
    assert!(err.contains("non-empty"), "{err}");

    let fresh = tmp("ckpt-fresh");
    assert_eq!(fresh_checkpoint_dir(&fresh), Ok(()));
    assert!(fresh.is_dir());
    assert_eq!(fresh_checkpoint_dir(&fresh), Ok(()), "an empty directory is fresh");
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let field = |m: &serde_json::Value, key: &str| match m.get_field(key) {
        Some(serde_json::Value::Str(s)) => s.clone(),
        other => panic!("metric field {key} is {other:?}"),
    };
    let listed = |key: &str, keys: &[&str]| -> Vec<Vec<String>> {
        doc.get_field(key)
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|m| keys.iter().map(|k| field(m, k)).collect())
            .collect()
    };
    let e2e: Vec<Vec<String>> =
        END_TO_END.iter().map(|(n, u)| vec![n.to_string(), u.to_string()]).collect();
    assert_eq!(listed("end_to_end", &["name", "unit"]), e2e);
    let layers: Vec<Vec<String>> = LAYER_METRICS
        .iter()
        .map(|(n, u, higher)| {
            let better = if *higher { "higher" } else { "lower" };
            vec![n.to_string(), u.to_string(), better.to_string()]
        })
        .collect();
    assert_eq!(listed("per_layer", &["name", "unit", "better"]), layers);
    let workloads: Vec<Vec<String>> =
        Workload::ALL.iter().map(|w| vec![w.name().to_string()]).collect();
    assert_eq!(listed("workloads", &["name"]), workloads);
}
