//! The daemon core: job queue, worker pool, and the study runner.
//!
//! [`Daemon::open`] replays the job store (deleting torn temp files,
//! quarantining corrupt records, re-queuing every job that was queued or
//! in flight when the previous process died), then [`Daemon::start`]
//! spawns the worker pool. Workers pull jobs off one shared queue; each
//! worker `w` of `W` runs its studies inside
//! `with_allowance(worker_share(thread_count(), W, w))`, so concurrent
//! jobs split the global `IPV6WEB_THREADS` budget exactly like the
//! study's own two-level fan-out — the pool never oversubscribes.
//!
//! While a study runs, an obs span sink on the worker thread streams each
//! completed top-level phase into the job record (persisted atomically),
//! so `GET /jobs/:id` shows live per-phase progress. Reports written by a
//! job are byte-identical to `repro --json` output for the same scenario.

use crate::job::{JobRecord, JobSpec, JobState};
use crate::store::JobStore;
use crate::worlds::WorldCache;
use ipv6web_core::{run_study_on_world, SpanRecord};
use ipv6web_par::{thread_count, with_allowance, worker_share};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// What boot-time store recovery found and did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BootReport {
    /// Jobs found mid-flight (running, or done without a report) and
    /// re-queued to resume from their checkpoints.
    pub resumed: usize,
    /// Jobs that were still queued and went straight back on the queue.
    pub requeued: usize,
    /// Corrupt records quarantined as `*.corrupt`.
    pub quarantined: usize,
    /// Torn `*.tmp` files deleted.
    pub removed_tmp: usize,
}

struct DaemonState {
    jobs: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
    next_seq: u64,
    shutdown: bool,
}

/// The long-running study service behind the HTTP API.
pub struct Daemon {
    store: JobStore,
    worlds: WorldCache,
    workers: usize,
    state: Mutex<DaemonState>,
    work: Condvar,
}

impl Daemon {
    /// Opens the store at `dir`, replays it, and builds the daemon with a
    /// pool of `workers` job slots (clamped to ≥ 1).
    pub fn open(dir: &Path, workers: usize) -> io::Result<(Arc<Daemon>, BootReport)> {
        let store = JobStore::open(dir)?;
        let scan = store.scan()?;
        let mut boot = BootReport {
            quarantined: scan.quarantined.len(),
            removed_tmp: scan.removed_tmp,
            ..BootReport::default()
        };
        let next_seq = JobStore::next_seq(&scan.records);
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        for mut rec in scan.records {
            match rec.state {
                JobState::Queued => {
                    boot.requeued += 1;
                    queue.push_back(rec.id.clone());
                }
                JobState::Running => {
                    // killed mid-flight: resume from its checkpoints
                    rec.state = JobState::Queued;
                    rec.resumes += 1;
                    rec.phases.clear();
                    store.save(&rec)?;
                    boot.resumed += 1;
                    queue.push_back(rec.id.clone());
                }
                JobState::Done => {
                    if store.load_report(&rec.id)?.is_none() {
                        // marked done but the report never landed: re-run
                        rec.state = JobState::Queued;
                        rec.resumes += 1;
                        rec.phases.clear();
                        store.save(&rec)?;
                        boot.resumed += 1;
                        queue.push_back(rec.id.clone());
                    }
                }
                JobState::Failed => {}
            }
            jobs.insert(rec.id.clone(), rec);
        }
        let daemon = Daemon {
            store,
            worlds: WorldCache::new(),
            workers: workers.max(1),
            state: Mutex::new(DaemonState { jobs, queue, next_seq, shutdown: false }),
            work: Condvar::new(),
        };
        Ok((Arc::new(daemon), boot))
    }

    /// Spawns the worker pool. Join the handles after [`Daemon::shutdown`]
    /// to wait for in-flight jobs to finish.
    pub fn start(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.workers)
            .map(|w| {
                let daemon = self.clone();
                std::thread::Builder::new()
                    .name(format!("ipv6webd-worker-{w}"))
                    .spawn(move || daemon.worker_loop(w))
                    .expect("spawn worker")
            })
            .collect()
    }

    /// The job store this daemon persists through.
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// Accepts a job: resolves the spec, persists a queued record, and
    /// wakes a worker. Returns the accepted record.
    pub fn submit(&self, spec: &JobSpec) -> Result<JobRecord, String> {
        let scenario = spec.resolve()?;
        let mut state = self.state.lock().expect("daemon state lock");
        if state.shutdown {
            return Err("daemon is shutting down".into());
        }
        let rec = JobRecord::new(state.next_seq, scenario);
        state.next_seq += 1;
        self.store.save(&rec).map_err(|e| format!("persist job: {e}"))?;
        state.jobs.insert(rec.id.clone(), rec.clone());
        state.queue.push_back(rec.id.clone());
        ipv6web_obs::inc("daemon.jobs.submitted");
        drop(state);
        self.work.notify_one();
        Ok(rec)
    }

    /// Snapshot of one job record.
    pub fn job(&self, id: &str) -> Option<JobRecord> {
        self.state.lock().expect("daemon state lock").jobs.get(id).cloned()
    }

    /// Snapshot of every job record, in submission order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        let state = self.state.lock().expect("daemon state lock");
        let mut all: Vec<JobRecord> = state.jobs.values().cloned().collect();
        all.sort_by_key(|r| r.seq);
        all
    }

    /// A finished job's report bytes (exactly what was written to disk).
    pub fn report_bytes(&self, id: &str) -> io::Result<Option<Vec<u8>>> {
        self.store.load_report(id)
    }

    /// Stops accepting work and wakes every idle worker so it can exit.
    /// Jobs already executing run to completion (checkpointing as they
    /// go); jobs still queued stay queued on disk for the next boot.
    pub fn shutdown(&self) {
        self.state.lock().expect("daemon state lock").shutdown = true;
        self.work.notify_all();
    }

    /// `true` once [`Daemon::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().expect("daemon state lock").shutdown
    }

    /// Graceful drain for `POST /shutdown`: stops accepting work, wakes
    /// idle workers, re-persists every running job (its `Running` state
    /// on disk *is* the resume marker the next boot replays into a
    /// re-queue), and returns the draining job ids. The process may exit
    /// immediately afterwards — in-flight studies checkpoint as they go,
    /// so a restarted daemon resumes them and produces identical bytes.
    pub fn drain(&self) -> Vec<String> {
        let mut state = self.state.lock().expect("daemon state lock");
        state.shutdown = true;
        let mut draining = Vec::new();
        for rec in state.jobs.values() {
            if rec.state == JobState::Running {
                // flush the record now: drain must not depend on any
                // later update landing before the process exits
                if let Err(e) = self.store.save(rec) {
                    eprintln!("ipv6webd: drain persist {}: {e}", rec.id);
                }
                draining.push(rec.id.clone());
            }
        }
        drop(state);
        self.work.notify_all();
        ipv6web_obs::flush_thread();
        draining
    }

    /// Mutates a record under the state lock and persists the result.
    fn update(&self, id: &str, f: impl FnOnce(&mut JobRecord)) {
        let mut state = self.state.lock().expect("daemon state lock");
        let Some(rec) = state.jobs.get_mut(id) else { return };
        f(rec);
        let snapshot = rec.clone();
        // persist inside the lock: updates to one record never reorder
        if let Err(e) = self.store.save(&snapshot) {
            eprintln!("ipv6webd: persist {id}: {e}");
        }
    }

    fn worker_loop(self: Arc<Self>, w: usize) {
        loop {
            let id = {
                let mut state = self.state.lock().expect("daemon state lock");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(id) = state.queue.pop_front() {
                        break id;
                    }
                    state = self.work.wait(state).expect("daemon state lock");
                }
            };
            // each worker gets its share of the global budget, so W
            // concurrent studies never oversubscribe IPV6WEB_THREADS
            let share = worker_share(thread_count(), self.workers, w);
            with_allowance(share, || self.run_job(&id));
            ipv6web_obs::flush_thread();
        }
    }

    /// Executes one job end to end on the calling worker thread.
    fn run_job(self: &Arc<Self>, id: &str) {
        self.update(id, |r| {
            r.state = JobState::Running;
            r.error = None;
        });
        let Some(record) = self.job(id) else { return };
        let world = match self.worlds.get(&record.scenario) {
            Ok(world) => world,
            Err(e) => return self.fail(id, e.to_string()),
        };
        let ckpt = self.store.checkpoint_dir(id);

        // Stream each completed top-level phase into the record. Both the
        // span's own drop and its re-attachment at a fan-out join stream
        // the same record, so membership-dedupe keeps each phase once.
        let sink_daemon = self.clone();
        let sink_id = id.to_string();
        let prev = ipv6web_obs::set_span_sink(Some(Arc::new(move |span: &SpanRecord| {
            if span.depth == 0 {
                sink_daemon.update(&sink_id, |r| {
                    if !r.phases.contains(span) {
                        r.phases.push(span.clone());
                    }
                });
            }
        })));
        let result = run_study_on_world(&world, Default::default(), Some(&ckpt));
        ipv6web_obs::set_span_sink(prev);

        match result {
            Ok(study) => {
                // the exact bytes `repro --json` would write (with
                // --metrics, i.e. the pure report, no timings key)
                let json = serde_json::to_string_pretty(&study.report).expect("report serializes");
                let phases: Vec<SpanRecord> =
                    study.timings.phases.iter().filter(|p| p.depth == 0).cloned().collect();
                match self.store.save_report(id, json.as_bytes()) {
                    Ok(()) => {
                        ipv6web_obs::inc("daemon.jobs.done");
                        self.update(id, |r| {
                            r.state = JobState::Done;
                            r.phases = phases;
                        });
                    }
                    Err(e) => self.fail(id, format!("write report: {e}")),
                }
            }
            Err(e) => self.fail(id, e.to_string()),
        }
    }

    /// Marks a job failed with `error`, counted on `daemon.jobs.failed`.
    fn fail(&self, id: &str, error: String) {
        ipv6web_obs::inc("daemon.jobs.failed");
        self.update(id, |r| {
            r.state = JobState::Failed;
            r.error = Some(error);
        });
    }
}
