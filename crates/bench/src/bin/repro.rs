//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro all                      # everything, quick scale
//! repro tab8 fig1                # specific artifacts
//! repro all --scale paper        # full-scale run (minutes)
//! repro all --scale faults       # quick scale under the demo fault plan
//! repro all --scale nat64        # quick scale with NAT64/DNS64/464XLAT vantages
//! repro all --scale panel        # 200 generated vantage points, disagreement section
//! repro all --seed 7 --json out.json
//! repro all --fault-plan plan.json --checkpoint-dir ckpt/
//! repro all --metrics BENCH.json --baseline BENCH_quick_baseline.json
//! ```

use ipv6web_bench::{check_regression, render_diff, BenchReport, DEFAULT_TOLERANCE};
use ipv6web_core::{run_study, Scenario, SCALES};
use ipv6web_faults::FaultPlan;
use std::path::Path;

const ARTIFACTS: &[&str] = &[
    "fig1", "fig3a", "fig3b", "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "tab8",
    "tab9", "tab10", "tab11", "tab12", "tab13", "verdicts", "compare",
];

fn usage() -> ! {
    let scales: Vec<&str> = SCALES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <artifact...|all> [--scale {}]\n\
         \x20            [--seed N] [--json FILE]\n\
         \x20            [--csv DIR] [--fault-plan FILE] [--checkpoint-dir DIR]\n\
         \x20            [--metrics FILE] [--baseline FILE]\n\
         artifacts: {}",
        scales.join("|"),
        ARTIFACTS.join(" ")
    );
    std::process::exit(2)
}

/// Prints `repro: {msg}` and exits 2, the usage-error code.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2)
}

/// Why the output file `path` (given with `flag`) cannot be written: it is
/// a directory, or its parent directory is missing or not a directory.
fn check_output_file(flag: &str, path: &Path) -> Result<(), String> {
    if path.is_dir() {
        return Err(format!("{flag} {}: is a directory", path.display()));
    }
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() && !p.is_dir() => Err(format!(
            "{flag} {}: parent {} {}",
            path.display(),
            p.display(),
            if p.exists() { "is not a directory" } else { "does not exist" }
        )),
        _ => Ok(()),
    }
}

/// Why the CSV directory `dir` cannot be created: it, or its nearest
/// existing ancestor, is not a directory.
fn check_csv_dir(dir: &Path) -> Result<(), String> {
    match dir.ancestors().find(|a| !a.as_os_str().is_empty() && a.exists()) {
        Some(a) if !a.is_dir() => {
            Err(format!("--csv {}: {} is not a directory", dir.display(), a.display()))
        }
        _ => Ok(()),
    }
}

/// Writes `bytes` to `path`, exiting 2 with a message naming it on failure.
fn write_or_exit(path: &Path, bytes: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, bytes) {
        fail(format_args!("cannot write {}: {e}", path.display()));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut wanted: Vec<String> = Vec::new();
    let mut scale = String::from("quick");
    let mut seed = 42u64;
    let mut json_out: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut fault_plan_path: Option<String> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it.next().unwrap_or_else(|| usage());
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--json" => {
                json_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--metrics" => {
                metrics_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--baseline" => {
                baseline_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--fault-plan" => {
                fault_plan_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            "all" => wanted.extend(ARTIFACTS.iter().map(|s| s.to_string())),
            other if ARTIFACTS.contains(&other) => wanted.push(other.to_string()),
            _ => usage(),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    wanted.dedup();

    if metrics_out.is_some() {
        ipv6web_obs::reset();
        ipv6web_obs::enable();
    }
    let mut scenario = Scenario::scale(&scale, seed).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        usage()
    });
    if let Some(path) = &fault_plan_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format_args!("cannot read fault plan {path}: {e}")));
        scenario.faults = serde_json::from_str::<FaultPlan>(&text)
            .unwrap_or_else(|e| fail(format_args!("cannot parse fault plan {path}: {e}")));
    }
    if checkpoint_dir.is_some() {
        scenario.checkpoint_dir = checkpoint_dir;
    }
    // A typo'd --checkpoint-dir or output path used to surface only at
    // the first write, after minutes of study work. Validate before doing
    // anything expensive and fail with the usual exit code 2.
    if let Some(dir) = &scenario.checkpoint_dir {
        ipv6web_monitor::validate_checkpoint_dir(Path::new(dir)).unwrap_or_else(|e| fail(e));
    }
    for (flag, path) in [("--json", &json_out), ("--metrics", &metrics_out)] {
        if let Some(path) = path {
            check_output_file(flag, Path::new(path)).unwrap_or_else(|e| fail(e));
        }
    }
    if let Some(dir) = &csv_dir {
        check_csv_dir(Path::new(dir)).unwrap_or_else(|e| fail(e));
    }
    eprintln!("running study (scale {scale}, seed {seed})...");
    let t0 = std::time::Instant::now();
    let study = run_study(&scenario).unwrap_or_else(|e| fail(e));
    let wall_s = t0.elapsed().as_secs_f64();
    eprintln!("study complete in {wall_s:.1}s\n");
    eprint!("{}", study.timings.render());
    eprintln!();
    let r = &study.report;

    for artifact in &wanted {
        let text = match artifact.as_str() {
            "fig1" => r.render_fig1(),
            "fig3a" => r.render_fig3a(),
            "fig3b" => r.render_fig3b(),
            "tab1" => r.render_table1(),
            "tab2" => r.table2.to_string(),
            "tab3" => r.table3.to_string(),
            "tab4" => r.table4.to_string(),
            "tab5" => r.table5.to_string(),
            "tab6" => r.table6.to_string(),
            "tab7" => r.table7.to_string(),
            "tab8" => r.table8.to_string(),
            "tab9" => r.table9.to_string(),
            "tab10" => r.table10.to_string(),
            "tab11" => r.table11.to_string(),
            "tab12" => r.table12.to_string(),
            "tab13" => r.table13.to_string(),
            "verdicts" => {
                let mut t = format!("{}\n{}\n{}", r.better_v6, r.h1.summary, r.h2.summary);
                // scenarios without a translation plane keep the exact
                // historical bytes; nat64 runs get the per-stack tables
                if r.xlat.is_some() {
                    t.push('\n');
                    t.push_str(&r.render_xlat());
                }
                if r.panel.is_some() {
                    t.push('\n');
                    t.push_str(&r.render_panel());
                }
                t
            }
            "compare" => ipv6web_bench::render_comparison(r),
            _ => unreachable!("filtered above"),
        };
        println!("{text}");
    }

    if let Some(dir) = csv_dir {
        use ipv6web_analysis::export;
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            fail(format_args!("cannot create {}: {e}", dir.display()));
        }
        let files = [
            ("fig1.csv", export::fig1_csv(&r.fig1)),
            ("fig3a.csv", export::fig3a_csv(&r.fig3a)),
            ("table7.csv", export::hop_table_csv(&r.table7)),
            ("table8.csv", export::table8_csv(&r.table8)),
            ("table9.csv", export::hop_table_csv(&r.table9)),
            ("table10.csv", export::table8_csv(&r.table10)),
            ("table11.csv", export::table11_csv(&r.table11)),
            ("table12.csv", export::table11_csv(&r.table12)),
            ("kept_sites.csv", export::kept_sites_csv(&study.analyses)),
        ];
        for (name, content) in files {
            write_or_exit(&dir.join(name), content);
        }
        eprintln!("wrote CSVs to {}", dir.display());
    }

    if let Some(path) = json_out {
        // The report itself stays bit-comparable across runs. Without
        // --metrics, timings ride along under a separate top-level key (the
        // historical behavior); with --metrics they move to BENCH.json and
        // the report file is written pure, so CI can byte-compare it across
        // thread counts and runs.
        let mut value = serde_json::to_value(r).expect("report serializes");
        if metrics_out.is_none() {
            if let serde_json::Value::Obj(fields) = &mut value {
                let timings = serde_json::to_value(&study.timings).expect("timings serialize");
                fields.push(("timings".to_string(), timings));
            }
        }
        let json = serde_json::to_string_pretty(&value).expect("report serializes");
        write_or_exit(Path::new(&path), json);
        eprintln!("wrote JSON report to {path}");
    }

    if let Some(path) = metrics_out {
        ipv6web_obs::record_peak_rss();
        ipv6web_obs::flush_thread();
        let snap = ipv6web_obs::snapshot();
        let bench = BenchReport::assemble(
            &scale,
            seed,
            ipv6web_par::thread_count() as u64,
            wall_s,
            &study.timings,
            &snap,
        );
        write_or_exit(Path::new(&path), bench.to_json());
        eprintln!("wrote bench metrics to {path}");

        if let Some(base_path) = baseline_path {
            let base_json = std::fs::read_to_string(&base_path)
                .unwrap_or_else(|e| fail(format_args!("cannot read baseline {base_path}: {e}")));
            let base = BenchReport::from_json(&base_json)
                .unwrap_or_else(|e| fail(format_args!("cannot parse baseline {base_path}: {e}")));
            match check_regression(&bench, &base, DEFAULT_TOLERANCE) {
                Ok(verdict) => eprintln!("bench gate: {verdict}"),
                Err(verdict) => {
                    eprintln!("bench gate: FAIL — {verdict}");
                    eprint!("{}", render_diff(&bench, &base));
                    std::process::exit(1);
                }
            }
        }
    }
}
