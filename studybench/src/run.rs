//! The benchmark driver: runs studies of one workload, each in a fresh
//! process, checks them, and prints the metrics.
//!
//! `--trace 0` runs untraced studies back to back for `--seconds` (at
//! least one) and reports the end-to-end metrics as medians. `--trace 1`
//! runs one untraced study and one traced study and reports the
//! per-layer ledger. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use crate::check::check_expected;
use crate::layers::{layer_metrics, LayerMetric, EXACT_COUNTERS};
use crate::study::{StudyOutcome, TracedOutcome};
use crate::trace::fold;
use crate::workload::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Where runs keep checkpoints, reports, expectations and traces,
/// relative to the directory the benchmark runs in.
pub const STATE_DIR: &str = ".studybench";

/// World builds after a run's first study, beyond the study's own, for
/// `setup_s`.
const EXTRA_SETUPS: usize = 2;

/// No study process may run longer than this.
const STUDY_TIMEOUT: Duration = Duration::from_secs(150);

/// Start no further study once a run has used this much time.
const RUN_BUDGET: Duration = Duration::from_secs(110);

/// At most this many studies per run.
const MAX_STUDIES: usize = 40;

/// The benchmark's command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload; `None` (`--workload all`) runs every workload,
    /// untraced and then traced.
    pub workload: Option<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// How long the untraced loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name|all> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if value == "all" => workload = Some(None),
                "--workload" => {
                    workload = Some(Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    ))
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("bad seconds `{value}`"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(42),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs the benchmark; returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let state = PathBuf::from(STATE_DIR);
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("studybench: cannot create {}: {e}", state.display());
        return 2;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("studybench: cannot locate own executable: {e}");
            return 2;
        }
    };
    let runs: Vec<(Workload, bool)> = match args.workload {
        Some(w) => vec![(w, args.trace)],
        None => Workload::ALL.iter().flat_map(|&w| [(w, false), (w, true)]).collect(),
    };
    for (workload, trace) in runs {
        let ctx = Ctx {
            exe: exe.clone(),
            state: state.clone(),
            workload,
            seed: args.seed,
            seconds: args.seconds,
        };
        let result = if trace { traced_run(&ctx) } else { untraced_run(&ctx) };
        println!("{}", serde_json::to_string(&result).expect("result serializes"));
    }
    0
}

struct Ctx {
    exe: PathBuf,
    state: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
}

impl Ctx {
    fn w(&self) -> Workload {
        self.workload
    }

    fn tag(&self) -> String {
        format!("{}-seed{}", self.w().name(), self.seed)
    }

    /// Runs `child <mode> ...` in a fresh process and reads its outcome.
    fn child<T: serde::Deserialize>(&self, mode: &str, extra: &[String]) -> Result<T, String> {
        let out = self.state.join(format!("outcome-{}-{mode}.json", std::process::id()));
        let _ = std::fs::remove_file(&out);
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .arg(mode)
            .args(["--workload", self.w().name(), "--seed", &self.seed.to_string()])
            .arg("--out")
            .arg(&out)
            .args(extra)
            .env("IPV6WEB_THREADS", self.w().threads().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        let mut proc = cmd.spawn().map_err(|e| format!("cannot start study process: {e}"))?;
        let t0 = Instant::now();
        let status = loop {
            match proc.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if t0.elapsed() > STUDY_TIMEOUT => {
                    let _ = proc.kill();
                    let _ = proc.wait();
                    return Err(format!("study process timed out after {STUDY_TIMEOUT:?}"));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        let text = std::fs::read_to_string(&out);
        let _ = std::fs::remove_file(&out);
        if !status.success() {
            return Err(format!("study process failed ({status})"));
        }
        let text = text.map_err(|e| format!("study process left no outcome: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("unreadable study outcome: {e}"))
    }

    /// Where runs of this `(workload, seed)` by this build record what
    /// they must reproduce. Keyed by the executable's size and mtime too,
    /// so a rebuilt program (one that may change report bytes on purpose)
    /// starts a fresh record instead of failing against the old one.
    fn expect_path(&self) -> PathBuf {
        let build = std::fs::metadata(&self.exe)
            .ok()
            .and_then(|m| Some((m.len(), m.modified().ok()?)))
            .and_then(|(len, t)| Some((len, t.duration_since(std::time::UNIX_EPOCH).ok()?)))
            .map_or_else(|| "unknown".to_string(), |(len, t)| format!("{len}-{}", t.as_nanos()));
        self.state.join("expect").join(format!("{}-{build}.json", self.tag()))
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The end-to-end metrics of the result line, in output order: `(name,
/// unit)`. The table also prints `shape_checks_held`, which depends on the
/// seed more than any bound allows, and `failed_frac`, which the result
/// line carries as `failed` of `attempted`.
pub const END_TO_END: [(&str, &str); 4] =
    [("study_s", "s"), ("setup_s", "s"), ("probes_per_s", "1/s"), ("peak_rss_mb", "MiB")];

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> Value {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::F64(*value)),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted as u64)),
        ("failed".into(), Value::U64(failed as u64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

fn untraced_run(ctx: &Ctx) -> Value {
    let w = ctx.w();
    let t0 = Instant::now();
    let report_out = ctx.state.join(format!("report-{}.json", ctx.tag()));
    let mut ok: Vec<StudyOutcome> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut last = Duration::ZERO;
    // whole studies that fit in the window, at least one; only the first
    // adds extra world builds, so every run has at least three set-ups
    while attempted < MAX_STUDIES {
        let started = t0.elapsed();
        if attempted > 0
            && ((started + last).as_secs_f64() > ctx.seconds || started + last > RUN_BUDGET)
        {
            break;
        }
        let mut extra = Vec::new();
        if attempted == 0 {
            extra.extend(["--extra-setups".to_string(), EXTRA_SETUPS.to_string()]);
            extra.extend(["--report-out".to_string(), report_out.display().to_string()]);
        }
        let outcome = ctx.child::<StudyOutcome>("untraced", &extra);
        attempted += 1;
        last = t0.elapsed() - started;
        match outcome.and_then(|o| check_study(ctx, &ok, o)) {
            Ok(o) => ok.push(o),
            Err(e) => {
                eprintln!("studybench: study {attempted} failed: {e}");
                failures.push(e);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    let study: Vec<f64> = ok.iter().map(|o| o.study_s).collect();
    let setup: Vec<f64> = ok.iter().flat_map(|o| o.setup_s.iter().copied()).collect();
    let rate: Vec<f64> =
        ok.iter().map(|o| o.probes as f64 / (o.study_s - o.setup_s[0]).max(1e-9)).collect();
    let rss: Vec<f64> = ok.iter().map(|o| o.peak_rss_kb as f64 / 1024.0).collect();
    let held = ok.first().map_or(0.0, |o| o.shape_checks_held as f64);
    let values = [median(&study), median(&setup), median(&rate), median(&rss)];

    println!(
        "studybench: workload {} seed {}: {} studies in {wall:.1} s at IPV6WEB_THREADS={}, \
         one client, one study at a time",
        w.name(),
        ctx.seed,
        attempted,
        w.threads()
    );
    if let Some(o) = ok.first() {
        println!(
            "report digest {}  ({} probes, report bytes in {})",
            o.digest,
            o.probes,
            report_out.display()
        );
    }
    let samples: [Vec<f64>; 4] = [study, setup, rate, rss];
    println!("{:<20} {:>14} {:>14} {:>14} {:>4}  unit", "metric", "median", "min", "max", "n");
    for (((name, unit), value), s) in END_TO_END.iter().zip(values).zip(&samples) {
        let min = s.iter().copied().fold(f64::INFINITY, f64::min);
        let max = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!("{name:<20} {value:>14.6} {min:>14.6} {max:>14.6} {:>4}  {unit}", s.len());
    }
    let n = attempted;
    let checks = format!("count (of {})", ok.first().map_or(0, |o| o.shape_checks_total));
    println!("{:<20} {held:>14} {:>14} {:>14} {:>4}  {checks}", "shape_checks_held", "", "", 1);
    let failed_frac = failures.len() as f64 / n.max(1) as f64;
    println!("{:<20} {failed_frac:>14.6} {:>14} {:>14} {n:>4}  ratio", "failed_frac", "", "");
    let metrics: Vec<(&str, f64, &str)> =
        END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, v, *u)).collect();
    result_json(failures.is_empty() && !ok.is_empty(), attempted, failures.len(), &metrics)
}

/// The correctness check on one untraced study: the same report digest
/// as the other studies of this run and as earlier runs of this
/// `(workload, seed)`, and a study that probed.
fn check_study(ctx: &Ctx, ok: &[StudyOutcome], o: StudyOutcome) -> Result<StudyOutcome, String> {
    if let Some(first) = ok.first() {
        if first.digest != o.digest {
            return Err(format!(
                "report digest {} differs from {} in this run",
                o.digest, first.digest
            ));
        }
    }
    if o.probes == 0 || o.setup_s.is_empty() {
        return Err("study made no probes".into());
    }
    check_expected(&ctx.expect_path(), &o.digest, None)?;
    Ok(o)
}

fn traced_run(ctx: &Ctx) -> Value {
    let w = ctx.w();
    let mut failures: Vec<String> = Vec::new();
    let untraced = ctx.child::<StudyOutcome>("untraced", &[]);
    let untraced = match untraced.and_then(|o| check_study(ctx, &[], o)) {
        Ok(o) => Some(o),
        Err(e) => {
            failures.push(format!("untraced study: {e}"));
            None
        }
    };

    // a directory no earlier run has used, for the checkpoint replay
    let ckpt = ctx.state.join(format!("ckpt-{}-{}", std::process::id(), ctx.tag()));
    let extra = ["--ckpt".to_string(), ckpt.display().to_string()];
    let traced = ctx.child::<TracedOutcome>("traced", &extra);
    let _ = std::fs::remove_dir_all(&ckpt);
    let traced = match traced.and_then(|t| check_traced(ctx, untraced.as_ref(), t)) {
        Ok(t) => Some(t),
        Err(e) => {
            failures.push(format!("traced study: {e}"));
            None
        }
    };
    for f in &failures {
        eprintln!("studybench: {f}");
    }

    let untraced_s = untraced.as_ref().map_or(0.0, |o| o.study_s);
    let layers = traced.as_ref().map(|t| layer_metrics(t, untraced_s));
    println!(
        "studybench: workload {} seed {}: traced run at IPV6WEB_THREADS={}",
        w.name(),
        ctx.seed,
        w.threads()
    );
    if let Some(t) = &traced {
        println!("report digest {}  ({} probes)", t.digest, t.probes_planned);
        print_ledger(t, untraced_s);
        if let Some(layers) = &layers {
            print_layers(layers);
        }
        write_trace(ctx, t);
    }
    let metrics: Vec<(&str, f64, &str)> = match &layers {
        Some(layers) => layers.iter().map(|m| (m.name, m.value, m.unit)).collect(),
        None => crate::layers::LAYER_METRICS.iter().map(|(n, u, _)| (*n, 0.0, *u)).collect(),
    };
    result_json(failures.is_empty(), 2, failures.len(), &metrics)
}

/// The correctness check on the traced study: the untraced study's report
/// digest, the probe count the probe walk predicts, exact counts equal
/// to earlier traced runs, and a replay that reproduces the probes'
/// download counts.
fn check_traced(
    ctx: &Ctx,
    untraced: Option<&StudyOutcome>,
    t: TracedOutcome,
) -> Result<TracedOutcome, String> {
    if let Some(u) = untraced {
        if u.digest != t.digest {
            return Err(format!("report digest {} differs from untraced {}", t.digest, u.digest));
        }
    }
    let probes = t.counters.get("monitor.probes").copied().unwrap_or(0);
    if probes != t.probes_planned {
        return Err(format!(
            "study made {probes} probes, the probe walk predicts {}",
            t.probes_planned
        ));
    }
    if t.replay.download_mismatches > 0 {
        return Err(format!(
            "{} replayed probes took a different number of downloads",
            t.replay.download_mismatches
        ));
    }
    let counts: BTreeMap<String, u64> = EXACT_COUNTERS
        .iter()
        .map(|name| (name.to_string(), t.counters.get(*name).copied().unwrap_or(0)))
        .collect();
    check_expected(&ctx.expect_path(), &t.digest, Some(&counts))?;
    Ok(t)
}

fn print_ledger(t: &TracedOutcome, untraced_s: f64) {
    let rows = fold(&t.spans);
    println!(
        "traced study {:.3} s (untraced {:.3} s), setup {:.3} s; spans folded by kind:",
        t.study_s, untraced_s, t.setup_s
    );
    println!("{:<30} {:>6} {:>12} {:>12} {:>12}", "span", "count", "sum_s", "max_s", "self_s");
    for r in &rows {
        println!(
            "{:<30} {:>6} {:>12.6} {:>12.6} {:>12.6}",
            r.name,
            r.count,
            r.sum_ns as f64 * 1e-9,
            r.max_ns as f64 * 1e-9,
            r.self_ns as f64 * 1e-9
        );
    }
    if let Some(c) = &t.checkpoints {
        println!("checkpoint replay: {} writes, {:.3} s, {} bytes", c.writes, c.seconds, c.bytes);
    }
    println!(
        "probe replay: {} sampled probes, timer pair {:.0} ns",
        t.replay.sampled, t.replay.timer_ns
    );
}

fn print_layers(layers: &[LayerMetric]) {
    println!("{:<32} {:>16}  unit", "per-layer metric", "value");
    for m in layers {
        match m.not_applicable {
            Some(why) => println!("{:<32} {:>16}  {}  (n/a: {why})", m.name, m.value, m.unit),
            None => println!("{:<32} {:>16.6}  {}", m.name, m.value, m.unit),
        }
    }
}

/// Writes the traced run's spans and folded ledger when the run ends.
fn write_trace(ctx: &Ctx, t: &TracedOutcome) {
    let path = ctx.state.join(format!("trace-{}.json", ctx.tag()));
    let doc = Value::Obj(vec![
        ("spans".into(), serde_json::to_value(&t.spans).expect("spans serialize")),
        ("ledger".into(), serde_json::to_value(&fold(&t.spans)).expect("rows serialize")),
        ("replay".into(), serde_json::to_value(&t.replay).expect("replay serializes")),
    ]);
    match std::fs::write(&path, serde_json::to_string_pretty(&doc).expect("trace serializes")) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("studybench: cannot write {}: {e}", path.display()),
    }
}

/// Entry point of a study process: `child untraced --workload W --seed N
/// --out FILE [--extra-setups K] [--report-out FILE]` or `child traced
/// --workload W --seed N --out FILE --ckpt DIR`.
pub fn child_main(args: &[String]) -> i32 {
    match child(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("studybench child: {e}");
            1
        }
    }
}

fn child(args: &[String]) -> Result<(), String> {
    let (mode, rest) = args.split_first().ok_or("child needs a mode")?;
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied();
    let workload = get("--workload").and_then(Workload::parse).ok_or("bad --workload")?;
    let seed: u64 = get("--seed").and_then(|s| s.parse().ok()).ok_or("bad --seed")?;
    let out = get("--out").map(PathBuf::from).ok_or("--out is required")?;
    let json = match mode.as_str() {
        "untraced" => {
            let extra: usize = get("--extra-setups")
                .map_or(Ok(0), |s| s.parse())
                .map_err(|_| "bad --extra-setups")?;
            let report_out = get("--report-out").map(Path::new);
            let o = crate::study::untraced(workload, seed, extra, report_out)?;
            serde_json::to_string(&o)
        }
        "traced" => {
            let ckpt = get("--ckpt").map(PathBuf::from).ok_or("--ckpt is required")?;
            let t = crate::study::traced(workload, seed, &ckpt)?;
            serde_json::to_string(&t)
        }
        other => return Err(format!("unknown child mode `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("{}: {e}", out.display()))
}
