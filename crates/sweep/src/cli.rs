//! Command-line front end, shared by the standalone `ipv6web-sweep`
//! binary and the `repro sweep` subcommand (which passes
//! `worker_prefix = ["sweep"]` so worker re-invocations route back
//! through the multiplexer).

use crate::orchestrator::{run_sweep, run_worker, SweepConfig};
use crate::spec::{ChaosSpec, FaultAxis, SupervisionSpec, SweepSpec, TimelineTweak};
use ipv6web_core::Scenario;
use serde_json::Value;
use std::path::PathBuf;

fn usage() -> i32 {
    eprintln!(
        "usage: ipv6web-sweep [run] <sweep.json> --store DIR [--procs N] [--metrics FILE]\n\
         \x20      ipv6web-sweep emit-spec [--out FILE]\n\
         \x20      ipv6web-sweep worker --spec FILE --index N --store DIR\n\
         \n\
         Expands the sweep spec into a deterministic study matrix, shards it\n\
         across N worker processes (default 1), and merges\n\
         per-study records into DIR/results.json + DIR/summary.txt. A killed\n\
         sweep re-run with the same spec and store resumes: only studies\n\
         without a record are re-run, and the merged output is byte-identical."
    );
    2
}

/// The spec `emit-spec` writes: a CI-sized 64-study sweep (8 seeds × 2
/// parity levels × 2 timelines × 2 fault plans) over a shrunk scenario,
/// with tight supervision and one scripted failure of each kind. Chaos
/// is part of the spec, so a clean reference run and a kill-riddled run
/// quarantine the same studies for the same reasons — byte-identically.
pub fn smoke_spec() -> SweepSpec {
    let mut scenario = Scenario::quick(42);
    let mut timeline = scenario.timeline.clone();
    timeline.total_weeks = 8;
    timeline.iana_week = 3;
    timeline.ipv6_day_week = 6;
    scenario.population.n_sites = 300;
    scenario.tail_sites = 50;
    scenario.campaign.ipv6_day_rounds = 2;
    scenario.analysis.min_paired_samples = 2;
    scenario.fig1_from_week = 2;
    let scenario = scenario.with_timeline(timeline);

    let mut short = TimelineTweak::baseline();
    short.name = "short".to_string();
    short.total_weeks = Some(7);
    short.ipv6_day_week = Some(5);

    SweepSpec {
        scenario: Some(scenario),
        seeds: Some((1..=8).collect()),
        peering_parity: Some(vec![0.3, 0.9]),
        timelines: Some(vec![TimelineTweak::baseline(), short]),
        faults: Some(vec![
            FaultAxis { name: "none".to_string(), plan: None },
            FaultAxis { name: "demo".to_string(), plan: None },
        ]),
        supervision: Some(SupervisionSpec {
            timeout_secs: Some(10),
            heartbeat_interval_ms: Some(100),
            heartbeat_stall_secs: Some(5),
            max_attempts: Some(2),
            backoff_base_ms: Some(50),
            backoff_cap_ms: Some(500),
        }),
        chaos: Some(ChaosSpec {
            hang: Some(vec![17]),
            hang_silent: Some(vec![29]),
            crash_once: Some(vec![5]),
        }),
        ..SweepSpec::default()
    }
}

fn load_spec(path: &str) -> Result<SweepSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse spec {path}: {e}"))
}

fn write_metrics(path: &str) -> Result<(), String> {
    ipv6web_obs::record_peak_rss();
    ipv6web_obs::flush_thread();
    let snap = ipv6web_obs::snapshot();
    let to_obj = |m: &std::collections::BTreeMap<String, u64>| {
        Value::Obj(m.iter().map(|(k, v)| (k.clone(), Value::U64(*v))).collect())
    };
    let doc = Value::Obj(vec![
        ("schema".to_string(), Value::Str("ipv6web-sweep-metrics/v1".to_string())),
        ("counters".to_string(), to_obj(&snap.counters)),
        ("gauges".to_string(), to_obj(&snap.gauges)),
    ]);
    let mut json = serde_json::to_string_pretty(&doc).expect("metrics serialize");
    json.push('\n');
    std::fs::write(path, json).map_err(|e| format!("cannot write metrics {path}: {e}"))
}

fn worker_main(args: &[String]) -> i32 {
    let mut spec_path = None;
    let mut index = None;
    let mut store = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec_path = it.next().cloned(),
            "--index" => index = it.next().and_then(|v| v.parse::<usize>().ok()),
            "--store" => store = it.next().cloned(),
            _ => return usage(),
        }
    }
    let (Some(spec_path), Some(index), Some(store)) = (spec_path, index, store) else {
        return usage();
    };
    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ipv6web-sweep worker: {e}");
            return 2;
        }
    };
    match run_worker(&spec, index, &PathBuf::from(store)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("ipv6web-sweep worker: {e}");
            1
        }
    }
}

fn emit_spec_main(args: &[String]) -> i32 {
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            _ => return usage(),
        }
    }
    let mut json = serde_json::to_string_pretty(&smoke_spec()).expect("spec serializes");
    json.push('\n');
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("ipv6web-sweep: cannot write {path}: {e}");
                return 2;
            }
            eprintln!("wrote smoke sweep spec to {path}");
        }
        None => print!("{json}"),
    }
    0
}

fn run_main(args: &[String], worker_prefix: &[&str]) -> i32 {
    let mut spec_path: Option<String> = None;
    let mut store: Option<String> = None;
    let mut procs = 1;
    let mut metrics: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => store = it.next().cloned(),
            "--procs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                procs = n.max(1);
            }
            "--metrics" => metrics = it.next().cloned(),
            flag if flag.starts_with("--") => return usage(),
            positional if spec_path.is_none() => spec_path = Some(positional.to_string()),
            _ => return usage(),
        }
    }
    let (Some(spec_path), Some(store)) = (spec_path, store) else { return usage() };
    if metrics.is_some() {
        ipv6web_obs::reset();
        ipv6web_obs::enable();
    }
    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ipv6web-sweep: {e}");
            return 2;
        }
    };
    let worker_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ipv6web-sweep: cannot locate own executable: {e}");
            return 2;
        }
    };
    let cfg = SweepConfig {
        spec_path: PathBuf::from(&spec_path),
        store_dir: PathBuf::from(&store),
        procs,
        worker_exe,
        worker_prefix: worker_prefix.iter().map(|s| s.to_string()).collect(),
    };
    match run_sweep(&spec, &cfg) {
        Ok(summary) => {
            // Quarantines are graceful degradation, not failure: the sweep
            // completed with explicit accounting. Exit 0 either way.
            println!(
                "sweep complete: {} studies ({} done, {} quarantined) — results in {}",
                summary.total,
                summary.total - summary.quarantined_on_disk,
                summary.quarantined_on_disk,
                cfg.store_dir.display()
            );
            if let Some(path) = metrics {
                if let Err(e) = write_metrics(&path) {
                    eprintln!("ipv6web-sweep: {e}");
                    return 2;
                }
                eprintln!("wrote sweep metrics to {path}");
            }
            0
        }
        Err(e) => {
            eprintln!("ipv6web-sweep: {e}");
            2
        }
    }
}

/// Entry point shared by the standalone binary (`worker_prefix = []`)
/// and `repro sweep` (`worker_prefix = ["sweep"]`).
pub fn cli_main(args: &[String], worker_prefix: &[&str]) -> i32 {
    match args.first().map(String::as_str) {
        Some("worker") => worker_main(&args[1..]),
        Some("emit-spec") => emit_spec_main(&args[1..]),
        Some("run") => run_main(&args[1..], worker_prefix),
        Some(_) => run_main(args, worker_prefix),
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_spec_expands_to_64_valid_studies() {
        let spec = smoke_spec();
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 64, "8 seeds × 2 parity × 2 timelines × 2 faults");
        for case in &cases {
            assert_eq!(case.scenario.validate(), Ok(()));
        }
        // the chaos indices actually exist in the matrix
        let chaos = spec.chaos();
        assert!(cases.iter().any(|c| chaos.hangs(c.index)));
        assert!(cases.iter().any(|c| chaos.hangs_silent(c.index)));
        assert!(cases.iter().any(|c| chaos.crashes_once(c.index)));
        // tight supervision: hang studies cost seconds, not CI minutes
        let sup = spec.supervision();
        assert!(sup.timeout.as_secs() <= 30);
        assert_eq!(sup.max_attempts, 2);
    }

    #[test]
    fn smoke_spec_roundtrips_through_emitted_json() {
        let mut json = serde_json::to_string_pretty(&smoke_spec()).expect("spec serializes");
        json.push('\n');
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.expand().unwrap(), smoke_spec().expand().unwrap());
    }

    #[test]
    fn bad_invocations_exit_with_usage() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(cli_main(&args(&[]), &[]), 2, "no args");
        assert_eq!(cli_main(&args(&["run"]), &[]), 2, "no spec/store");
        assert_eq!(cli_main(&args(&["worker", "--bogus"]), &[]), 2);
        assert_eq!(cli_main(&args(&["spec.json", "--unknown-flag"]), &[]), 2);
    }
}
