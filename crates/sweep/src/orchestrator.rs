//! The supervised multi-process sweep loop.
//!
//! The orchestrator shards the expanded study matrix across up to
//! `procs` worker OS processes (each a re-invocation of our own binary
//! in `worker` mode), and supervises them: per-study wall-clock
//! timeouts (SIGKILL on expiry), heartbeat stall detection, retry with
//! capped exponential backoff, and quarantine-as-poison after
//! `max_attempts` failures — the sweep always completes, with explicit
//! accounting, instead of aborting on one bad study.
//!
//! Crash-resume falls out of the store's one-record-per-finished-case
//! discipline: a restarted orchestrator scans the store, skips every
//! case that already has a record, and re-runs only the rest. Retry
//! counts are deliberately in-memory only — a restart gets fresh
//! attempts, and nothing volatile ever reaches the records, so a
//! killed-and-resumed sweep merges to byte-identical output.

use crate::record::StudyRecord;
use crate::spec::{StudyCase, Supervision, SweepSpec};
use crate::store::ResultStore;
use ipv6web_core::run_study;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the orchestrator re-invokes itself for one study.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The spec file workers re-read (and re-expand) to find their case.
    pub spec_path: PathBuf,
    /// The shared result-store directory.
    pub store_dir: PathBuf,
    /// Worker process slots (the process tier of `IPV6WEB_THREADS`).
    pub procs: usize,
    /// Executable to spawn for workers — normally `current_exe()`.
    pub worker_exe: PathBuf,
    /// Arguments in front of `worker …` — `["sweep"]` when the worker
    /// entry point is the multiplexed `repro` binary.
    pub worker_prefix: Vec<String>,
}

/// Accounting for one orchestrator run. All of this is volatile
/// (restart-dependent) and therefore lives here, in obs counters, and on
/// stderr — never in the result store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepSummary {
    /// Studies in the expanded matrix.
    pub total: usize,
    /// Records found on disk at startup and skipped (crash-resume).
    pub skipped: usize,
    /// Studies completed by this run.
    pub completed: usize,
    /// Studies this run quarantined as poison records.
    pub quarantined: usize,
    /// Quarantine records in the merged store (this run's plus any a
    /// previous, resumed run wrote).
    pub quarantined_on_disk: usize,
    /// Worker re-runs after a failure.
    pub retries: usize,
    /// Workers killed by the wall-clock timeout.
    pub timeouts: usize,
    /// Workers killed by heartbeat stall detection.
    pub stalls: usize,
}

/// Why a worker attempt failed. The mapping to a quarantine `reason`
/// string must be deterministic per failure mode: quarantine records are
/// covered by the byte-identity contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Killed: study exceeded the wall-clock timeout.
    Timeout,
    /// Killed: heartbeat file stopped moving.
    Stall,
    /// Worker exited with this code but left no record.
    Exit(i32),
    /// Worker died on a signal (crash, OOM kill, external SIGKILL).
    Signal,
}

impl FailureKind {
    /// The deterministic quarantine reason for this failure mode.
    pub fn reason(self, sup: &Supervision) -> String {
        match self {
            FailureKind::Timeout => format!("timed out after {}s", sup.timeout.as_secs()),
            FailureKind::Stall => {
                format!("heartbeat stalled for {}s", sup.heartbeat_stall.as_secs())
            }
            FailureKind::Exit(0) => "worker exited without writing a record".to_string(),
            FailureKind::Exit(code) => format!("worker exited with code {code}"),
            FailureKind::Signal => "worker died on a signal".to_string(),
        }
    }
}

/// Backoff before re-running a study that has failed `attempts` times
/// (1-based): `base × 2^(attempts−1)`, capped.
pub fn backoff_delay(attempts: u32, sup: &Supervision) -> Duration {
    let factor = 1u32.checked_shl(attempts.saturating_sub(1)).unwrap_or(u32::MAX);
    sup.backoff_base.checked_mul(factor).map_or(sup.backoff_cap, |d| d.min(sup.backoff_cap))
}

enum CaseState {
    Waiting { attempts: u32, eligible_at: Instant },
    Running { attempts: u32 },
    Finished,
}

struct Pending {
    case: StudyCase,
    state: CaseState,
}

struct Slot {
    child: Child,
    pending_idx: usize,
    key: String,
    started: Instant,
    last_beat: Option<u64>,
    beat_seen: Instant,
    kill: Option<FailureKind>,
}

const POLL: Duration = Duration::from_millis(25);

fn spawn_worker(cfg: &SweepConfig, index: usize, threads: usize) -> io::Result<Child> {
    let mut cmd = Command::new(&cfg.worker_exe);
    cmd.args(&cfg.worker_prefix)
        .arg("worker")
        .arg("--spec")
        .arg(&cfg.spec_path)
        .arg("--index")
        .arg(index.to_string())
        .arg("--store")
        .arg(&cfg.store_dir)
        .env(ipv6web_par::THREADS_ENV, threads.to_string())
        .stdout(Stdio::null())
        .stdin(Stdio::null());
    cmd.spawn()
}

/// Runs (or resumes) the sweep described by `spec` under `cfg`.
///
/// Returns once every study has a record — done or quarantined — and the
/// merged `results.json` / `summary.txt` have been rebuilt. Worker
/// failures never propagate as errors; only orchestrator-side I/O
/// problems (spawn failure, an unwritable store) do.
pub fn run_sweep(spec: &SweepSpec, cfg: &SweepConfig) -> io::Result<SweepSummary> {
    let cases = spec.expand().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let sup = spec.supervision();
    let store = ResultStore::open(&cfg.store_dir)?;
    let scan = store.scan()?;
    let have: std::collections::BTreeSet<&str> =
        scan.records.iter().map(|r| r.key.as_str()).collect();
    let keys: std::collections::BTreeSet<String> = cases.iter().map(StudyCase::key).collect();

    let mut summary = SweepSummary { total: cases.len(), ..SweepSummary::default() };
    ipv6web_obs::add("sweep.studies", cases.len() as u64);
    let now = Instant::now();
    let mut pending: Vec<Pending> = cases
        .into_iter()
        .map(|case| {
            let state = if have.contains(case.key().as_str()) {
                summary.skipped += 1;
                CaseState::Finished
            } else {
                CaseState::Waiting { attempts: 0, eligible_at: now }
            };
            Pending { case, state }
        })
        .collect();
    ipv6web_obs::add("sweep.skipped_resume", summary.skipped as u64);
    if summary.skipped > 0 {
        eprintln!(
            "sweep: resuming — {} of {} studies already have records",
            summary.skipped, summary.total
        );
    }

    let procs = cfg.procs.max(1);
    let mut slots: Vec<Option<Slot>> = (0..procs).map(|_| None).collect();

    loop {
        // --- supervise + reap ------------------------------------------------
        for slot in slots.iter_mut() {
            let Some(active) = slot.as_mut() else { continue };
            match active.child.try_wait()? {
                Some(status) => {
                    let active = slot.take().expect("slot occupied");
                    let finished = store.record_path(&active.key).exists();
                    let idx = active.pending_idx;
                    if finished {
                        let _ = std::fs::remove_file(store.heartbeat_path(&active.key));
                        pending[idx].state = CaseState::Finished;
                        summary.completed += 1;
                        ipv6web_obs::inc("sweep.completed");
                        continue;
                    }
                    let kind = active.kill.unwrap_or_else(|| match status.code() {
                        Some(code) => FailureKind::Exit(code),
                        None => FailureKind::Signal,
                    });
                    let attempts = match pending[idx].state {
                        CaseState::Running { attempts } => attempts,
                        _ => 0,
                    } + 1;
                    if attempts >= sup.max_attempts {
                        let rec = StudyRecord::quarantined(&pending[idx].case, &kind.reason(&sup));
                        store.save(&rec)?;
                        pending[idx].state = CaseState::Finished;
                        summary.quarantined += 1;
                        ipv6web_obs::inc("sweep.quarantined");
                        eprintln!(
                            "sweep: study {} quarantined after {attempts} attempts: {}",
                            active.key,
                            kind.reason(&sup)
                        );
                    } else {
                        let delay = backoff_delay(attempts, &sup);
                        pending[idx].state =
                            CaseState::Waiting { attempts, eligible_at: Instant::now() + delay };
                        summary.retries += 1;
                        ipv6web_obs::inc("sweep.retries");
                        eprintln!(
                            "sweep: study {} attempt {attempts} failed ({}); retrying in {:?}",
                            active.key,
                            kind.reason(&sup),
                            delay
                        );
                    }
                }
                None => {
                    // Still running: enforce the wall clock, then the
                    // heartbeat. Kill is SIGKILL (`Child::kill` on Unix);
                    // the reap above classifies it next poll via `kill`.
                    if active.kill.is_some() {
                        continue; // already killed, waiting for the reap
                    }
                    if active.started.elapsed() >= sup.timeout {
                        active.kill = Some(FailureKind::Timeout);
                        summary.timeouts += 1;
                        ipv6web_obs::inc("sweep.timeouts");
                        active.child.kill()?;
                        continue;
                    }
                    let beat = store.read_beat(&active.key);
                    if beat != active.last_beat {
                        active.last_beat = beat;
                        active.beat_seen = Instant::now();
                    } else if active.beat_seen.elapsed() >= sup.heartbeat_stall {
                        active.kill = Some(FailureKind::Stall);
                        summary.stalls += 1;
                        ipv6web_obs::inc("sweep.heartbeat_stalls");
                        active.child.kill()?;
                    }
                }
            }
        }

        // --- fill free slots -------------------------------------------------
        for (slot_idx, slot) in slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let now = Instant::now();
            let Some(idx) = pending.iter().position(
                |p| matches!(p.state, CaseState::Waiting { eligible_at, .. } if eligible_at <= now),
            ) else {
                continue;
            };
            let threads = ipv6web_par::process_share(procs, slot_idx);
            let child = spawn_worker(cfg, pending[idx].case.index, threads)?;
            let key = pending[idx].case.key();
            let attempts = match pending[idx].state {
                CaseState::Waiting { attempts, .. } => attempts,
                _ => 0,
            };
            pending[idx].state = CaseState::Running { attempts };
            *slot = Some(Slot {
                child,
                pending_idx: idx,
                key,
                started: now,
                last_beat: None,
                beat_seen: now,
                kill: None,
            });
        }

        let busy = slots.iter().any(Option::is_some);
        let waiting = pending.iter().any(|p| matches!(p.state, CaseState::Waiting { .. }));
        if !busy && !waiting {
            break;
        }
        std::thread::sleep(POLL);
    }

    // Merge: this spec's records on disk, sorted by index — identical
    // bytes no matter how many orchestrator runs (or processes) it took.
    // Records under a key no current case has (another spec's, or one
    // whose scenario has since changed its config hash) stay on disk but
    // never reach the merged outputs.
    let (current, foreign): (Vec<StudyRecord>, Vec<StudyRecord>) =
        store.scan()?.records.into_iter().partition(|r| keys.contains(&r.key));
    if !foreign.is_empty() {
        eprintln!(
            "sweep: skipped {} records on disk that match no case of this spec",
            foreign.len()
        );
    }
    summary.quarantined_on_disk =
        current.iter().filter(|r| r.status == crate::record::StudyStatus::Quarantined).count();
    store.write_merged(&current)?;
    eprintln!(
        "sweep: {} studies — {} completed now, {} resumed, {} quarantined \
         ({} retries, {} timeouts, {} stalls)",
        summary.total,
        summary.completed,
        summary.skipped,
        summary.quarantined,
        summary.retries,
        summary.timeouts,
        summary.stalls
    );
    Ok(summary)
}

/// Runs one study inside a worker process: picks `index` out of the
/// spec's expansion, applies any scripted chaos, heartbeats while the
/// study runs, and writes the case's record (atomic) on success.
pub fn run_worker(spec: &SweepSpec, index: usize, store_dir: &Path) -> Result<(), String> {
    let cases = spec.expand()?;
    let case = cases
        .into_iter()
        .find(|c| c.index == index)
        .ok_or_else(|| format!("case index {index} out of range"))?;
    let chaos = spec.chaos();
    let sup = spec.supervision();
    let store = ResultStore::open(store_dir).map_err(|e| e.to_string())?;
    let key = case.key();

    if chaos.crashes_once(index) {
        let marker = store.crash_marker_path(&key);
        if !marker.exists() {
            // First attempt: leave the marker, then die exactly as a
            // crashing worker would — no record, no cleanup.
            std::fs::write(&marker, b"crash_once\n").map_err(|e| e.to_string())?;
            eprintln!("sweep worker {key}: chaos crash_once — aborting");
            std::process::abort();
        }
    }

    if chaos.hangs_silent(index) {
        // Hang without heartbeats: stall detection must reap us. The
        // self-abort far past the supervision timeout only matters when
        // we were orphaned by an orchestrator SIGKILL — it caps how long
        // a leaked chaos worker can linger, and writes no record.
        std::thread::sleep(sup.timeout.saturating_mul(20));
        std::process::abort();
    }

    // Heartbeat thread: bump a counter file every interval until stopped.
    let stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let stop = Arc::clone(&stop);
        let store = store.clone();
        let key = key.clone();
        let interval = sup.heartbeat_interval;
        std::thread::spawn(move || {
            let mut count = 0u64;
            while !stop.load(Ordering::Relaxed) {
                count += 1;
                let _ = store.beat(&key, count);
                std::thread::sleep(interval);
            }
        })
    };

    if chaos.hangs(index) {
        // Hang *with* heartbeats: only the wall-clock timeout reaps us
        // (same orphan cap as above for a supervisor that never comes).
        std::thread::sleep(sup.timeout.saturating_mul(20));
        std::process::abort();
    }

    let result = run_study(&case.scenario);
    stop.store(true, Ordering::Relaxed);
    let _ = hb.join();
    match result {
        Ok(study) => {
            let rec = StudyRecord::done(&case, &study.report);
            store.save(&rec).map_err(|e| e.to_string())
        }
        Err(e) => Err(format!("study {key} failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SupervisionSpec;

    fn sup(base_ms: u64, cap_ms: u64) -> Supervision {
        SupervisionSpec {
            backoff_base_ms: Some(base_ms),
            backoff_cap_ms: Some(cap_ms),
            timeout_secs: Some(10),
            heartbeat_stall_secs: Some(30),
            ..SupervisionSpec::default()
        }
        .resolve()
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let s = sup(100, 800);
        assert_eq!(backoff_delay(1, &s), Duration::from_millis(100));
        assert_eq!(backoff_delay(2, &s), Duration::from_millis(200));
        assert_eq!(backoff_delay(3, &s), Duration::from_millis(400));
        assert_eq!(backoff_delay(4, &s), Duration::from_millis(800));
        assert_eq!(backoff_delay(5, &s), Duration::from_millis(800), "capped");
        assert_eq!(backoff_delay(64, &s), Duration::from_millis(800), "shift overflow capped");
    }

    #[test]
    fn merge_skips_records_of_other_specs() {
        let dir =
            std::env::temp_dir().join(format!("ipv6web-sweep-orch-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SweepSpec {
            scale: Some("quick".to_string()),
            seeds: Some(vec![1, 2]),
            ..SweepSpec::default()
        };
        let cases = spec.expand().unwrap();
        let store = ResultStore::open(&dir).unwrap();
        // every current case already finished, so the run only merges
        for case in &cases {
            store.save(&StudyRecord::quarantined(case, "timed out after 10s")).unwrap();
        }
        // a done record at index 0 written under another configuration
        let mut stale = cases[0].clone();
        stale.scenario.identity_threshold = 0.07;
        let foreign = StudyRecord {
            status: crate::record::StudyStatus::Done,
            reason: None,
            metrics: Some(crate::record::StudyMetrics {
                h1_holds: true,
                h2_holds: true,
                h1_min_share: 1.0,
                h2_min_share: 1.0,
                h2_loss_rate: 0.0,
                sites_kept: 1,
                dest_ases_v6: 1,
            }),
            ..StudyRecord::quarantined(&stale, "")
        };
        assert_ne!(foreign.key, cases[0].key());
        store.save(&foreign).unwrap();

        let cfg = SweepConfig {
            spec_path: dir.join("sweep.json"),
            store_dir: dir.clone(),
            procs: 1,
            worker_exe: dir.join("no-worker-is-spawned"),
            worker_prefix: Vec::new(),
        };
        let summary = run_sweep(&spec, &cfg).unwrap();
        assert_eq!((summary.total, summary.skipped, summary.completed), (2, 2, 0));
        assert_eq!(summary.quarantined_on_disk, 2);
        let results = std::fs::read_to_string(store.results_path()).unwrap();
        assert!(results.contains("\"studies\": 2"), "{results}");
        assert!(!results.contains(&foreign.key), "{results}");
        assert!(store.record_path(&foreign.key).exists(), "foreign records stay on disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_reasons_are_deterministic_per_mode() {
        let s = sup(100, 800);
        assert_eq!(FailureKind::Timeout.reason(&s), "timed out after 10s");
        assert_eq!(FailureKind::Stall.reason(&s), "heartbeat stalled for 30s");
        assert_eq!(FailureKind::Exit(3).reason(&s), "worker exited with code 3");
        assert_eq!(FailureKind::Exit(0).reason(&s), "worker exited without writing a record");
        assert_eq!(FailureKind::Signal.reason(&s), "worker died on a signal");
        // identical supervision → identical strings, run after run: the
        // byte-identity contract extends to quarantine records
        assert_eq!(FailureKind::Timeout.reason(&s), FailureKind::Timeout.reason(&s));
    }
}
