//! `ipv6webd` end to end: jobs over real sockets, crash recovery, resume,
//! and the daemon-vs-`repro` report identity the service is held to.

use ipv6web::daemon::{api, Daemon, JobRecord, JobSpec, JobState, JobStore};
use ipv6web::monitor::run_campaign_resumable;
use ipv6web::{run_study, Scenario, World};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemons spawn worker pools and the obs registry is process-global, so
/// these tests run one at a time.
static LOCK: Mutex<()> = Mutex::new(());

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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipv6webd-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What `repro --json` (with `--metrics`, i.e. the pure report) writes for
/// this scenario — the byte-identity reference for daemon reports.
fn reference_report_bytes(scenario: &Scenario) -> Vec<u8> {
    let study = run_study(scenario).expect("valid scenario");
    serde_json::to_string_pretty(&study.report).expect("report serializes").into_bytes()
}

/// Waits up to `timeout` until the job reaches a terminal state.
fn wait_terminal(daemon: &Arc<Daemon>, id: &str, timeout: Duration) -> JobRecord {
    let deadline = Instant::now() + timeout;
    loop {
        let rec = daemon.job(id).expect("job exists");
        match rec.state {
            JobState::Done | JobState::Failed => return rec,
            _ if Instant::now() > deadline => panic!("job {id} stuck in {:?}", rec.state),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Waits (with a deadline) until the job is done.
fn wait_done(daemon: &Arc<Daemon>, id: &str) -> JobRecord {
    let rec = wait_terminal(daemon, id, Duration::from_secs(300));
    assert_eq!(rec.state, JobState::Done, "job {id} failed: {:?}", rec.error);
    rec
}

/// Minimal HTTP/1.1 client for the daemon API: one request, one
/// connection, returns `(status, body)`.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let sep = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header terminator") + 4;
    let head = std::str::from_utf8(&raw[..sep]).expect("utf8 head");
    let status: u16 = head.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status code");
    (status, raw[sep..].to_vec())
}

#[test]
fn http_job_report_is_byte_identical_to_repro() {
    let _g = LOCK.lock().unwrap();
    let scenario = tiny(23);
    let reference = reference_report_bytes(&scenario);

    let store_dir = fresh_dir("e2e");
    let (daemon, boot) = Daemon::open(&store_dir, 2).unwrap();
    assert_eq!(boot, ipv6web::daemon::BootReport::default());
    let workers = daemon.start();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve_daemon = daemon.clone();
    let server = std::thread::spawn(move || api::serve(&serve_daemon, listener).expect("serve"));

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_slice()), (200, &b"{\"ok\":true}"[..]));

    // submit the scenario inline, exactly as a client would
    let spec = JobSpec { scenario: Some(scenario), ..JobSpec::default() };
    let (status, body) = http(addr, "POST", "/jobs", &serde_json::to_string(&spec).unwrap());
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let accepted: JobRecord = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();

    // the report is refused while the job is in flight
    let (status, _) = http(addr, "GET", &format!("/jobs/{}/report", accepted.id), "");
    assert!(status == 409 || status == 200, "unexpected status {status}");

    let done = wait_done(&daemon, &accepted.id);
    assert!(!done.phases.is_empty(), "finished job must carry its phase breakdown");
    assert!(done.phases.iter().any(|p| p.name.starts_with("campaign: ")));

    // the served record shows the same terminal state
    let (status, body) = http(addr, "GET", &format!("/jobs/{}", accepted.id), "");
    assert_eq!(status, 200);
    assert!(std::str::from_utf8(&body).unwrap().contains("\"state\": \"done\""));

    // and the fetched report matches `repro` byte for byte
    let (status, report) = http(addr, "GET", &format!("/jobs/{}/report", accepted.id), "");
    assert_eq!(status, 200);
    assert_eq!(report, reference, "daemon report must be byte-identical to repro output");

    let (status, listing) = http(addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(std::str::from_utf8(&listing).unwrap().contains(&accepted.id));
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(std::str::from_utf8(&metrics).unwrap().contains("counters"));

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join().unwrap();
    for h in workers {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn boot_resumes_killed_job_to_identical_report() {
    let _g = LOCK.lock().unwrap();
    let scenario = tiny(31);
    let reference = reference_report_bytes(&scenario);

    // Stage what a SIGKILL mid-job leaves behind: a record persisted as
    // `running`, and ragged per-vantage checkpoints in the job's
    // checkpoint directory.
    let store_dir = fresh_dir("resume");
    let store = JobStore::open(&store_dir).unwrap();
    let mut rec = JobRecord::new(1, scenario.clone());
    rec.state = JobState::Running;
    store.save(&rec).unwrap();

    let ckpt = store.checkpoint_dir(&rec.id);
    std::fs::create_dir_all(&ckpt).unwrap();
    let world = World::build(&scenario);
    let truncations = [5u32, 8, 0, 11, 3, 7];
    assert_eq!(world.vantages.len(), truncations.len());
    for (i, &cut) in truncations.iter().enumerate() {
        if cut == 0 {
            continue;
        }
        let faults = world.probe_faults(i);
        let ctx = world.probe_ctx(i, faults.as_ref());
        let mut cfg = scenario.campaign;
        cfg.total_weeks = cut.min(scenario.campaign.total_weeks);
        run_campaign_resumable(
            &ctx,
            &world.vantages[i],
            &world.list,
            &world.tail_ids,
            |id| world.sites[id as usize].first_seen_week,
            &cfg,
            None,
            Some(&ckpt),
        )
        .expect("partial campaign runs");
    }
    // and torn checkpoint temp files, under both the pid-suffixed name and
    // the older un-suffixed one
    std::fs::write(ckpt.join("penn.json.4242.tmp"), b"{\"vantage\": \"Pe").unwrap();
    std::fs::write(ckpt.join("penn.json.tmp"), b"{").unwrap();

    // boot: the daemon must find the in-flight job and re-queue it
    let (daemon, boot) = Daemon::open(&store_dir, 1).unwrap();
    assert_eq!(boot.resumed, 1, "killed job must be picked back up");
    assert_eq!(boot.requeued, 0);
    let resumed = daemon.job(&rec.id).expect("job survives the reboot");
    assert_eq!(resumed.state, JobState::Queued);
    assert_eq!(resumed.resumes, 1);

    let workers = daemon.start();
    let done = wait_done(&daemon, &rec.id);
    assert_eq!(done.resumes, 1);
    let report = daemon.report_bytes(&rec.id).unwrap().expect("report written");
    assert_eq!(report, reference, "resumed report must be byte-identical to a clean run");
    let leftovers: Vec<String> = std::fs::read_dir(&ckpt)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "torn temp files must not survive a resume: {leftovers:?}");

    daemon.shutdown();
    for h in workers {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&store_dir).ok();
}

/// Copies a store directory as a SIGKILL-style snapshot: `*.tmp` files
/// (mid-write) are skipped, files vanishing mid-copy (an atomic rename
/// winning the race) are ignored — exactly the disk a dead process leaves.
fn snapshot_dir(src: &PathBuf, dst: &PathBuf) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".tmp") {
            continue;
        }
        let from = entry.path();
        let to = dst.join(&name);
        if from.is_dir() {
            snapshot_dir(&from, &to);
        } else if let Err(e) = std::fs::copy(&from, &to) {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "copy {from:?}: {e}");
        }
    }
}

#[test]
fn drained_daemon_restarts_resumed_and_byte_identical() {
    let _g = LOCK.lock().unwrap();
    let scenario = tiny(37);
    let reference = reference_report_bytes(&scenario);

    // live daemon, one worker, one in-flight job
    let store_dir = fresh_dir("drain");
    let (daemon, _) = Daemon::open(&store_dir, 1).unwrap();
    let workers = daemon.start();
    let spec = JobSpec { scenario: Some(scenario), ..JobSpec::default() };
    let rec = daemon.submit(&spec).unwrap();

    // wait until the study is genuinely mid-flight: running, with at
    // least one per-vantage checkpoint on disk for resume to build on
    let ckpt = daemon.store().checkpoint_dir(&rec.id);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let running = daemon.job(&rec.id).unwrap().state == JobState::Running;
        let checkpointed =
            ckpt.exists() && std::fs::read_dir(&ckpt).map(|d| d.count() > 0).unwrap_or(false);
        if running && checkpointed {
            break;
        }
        assert!(Instant::now() < deadline, "job never got mid-flight");
        std::thread::sleep(Duration::from_millis(20));
    }

    // graceful drain: the running job is flushed still-Running (the
    // resume marker) and reported as draining
    let draining = daemon.drain();
    assert_eq!(draining, vec![rec.id.clone()]);
    assert!(daemon.is_shutdown());
    let on_disk: JobRecord = serde_json::from_str(
        &std::fs::read_to_string(store_dir.join(format!("{}.json", rec.id))).unwrap(),
    )
    .unwrap();
    assert_eq!(on_disk.state, JobState::Running, "drain must leave the resume marker");

    // snapshot the store as the exiting process would leave it, and
    // restart a daemon on the snapshot — the drained job must resume
    let restart_dir = fresh_dir("drain-restart");
    snapshot_dir(&store_dir, &restart_dir);
    let (restarted, boot) = Daemon::open(&restart_dir, 1).unwrap();
    assert!(boot.resumed >= 1, "drained job must be picked back up: {boot:?}");
    let resumed = restarted.job(&rec.id).unwrap();
    assert_eq!(resumed.state, JobState::Queued);
    assert!(resumed.resumes >= 1);
    let restarted_workers = restarted.start();
    let done = wait_done(&restarted, &rec.id);
    assert!(done.resumes >= 1);
    let report = restarted.report_bytes(&rec.id).unwrap().expect("report written");
    assert_eq!(report, reference, "drained-and-restarted report must be byte-identical");

    restarted.shutdown();
    for h in restarted_workers {
        h.join().unwrap();
    }
    // the original worker is still finishing its study (drain does not
    // wait); join before deleting its store out from under it
    for h in workers {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&restart_dir).ok();
}

#[test]
fn half_sent_request_gets_408_and_frees_the_accept_thread() {
    let _g = LOCK.lock().unwrap();
    let store_dir = fresh_dir("slowloris");
    let (daemon, _) = Daemon::open(&store_dir, 1).unwrap();
    // no workers: this is purely about the API surface
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve_daemon = daemon.clone();
    let read_deadline = Duration::from_millis(300);
    let server = std::thread::spawn(move || {
        api::serve_with_deadline(&serve_daemon, listener, read_deadline).expect("serve")
    });

    // a slowloris peer: half a request, then silence with the socket open
    let t0 = Instant::now();
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.write_all(b"POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Le").unwrap();
    let mut raw = Vec::new();
    slow.read_to_end(&mut raw).expect("read response");
    let head = String::from_utf8_lossy(&raw);
    assert!(head.starts_with("HTTP/1.1 408 "), "expected 408, got: {head}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline must cut the connection promptly, took {:?}",
        t0.elapsed()
    );

    // the accept thread is free again: an honest client is served
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_slice()), (200, &b"{\"ok\":true}"[..]));

    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join().unwrap();
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn boot_recovers_store_from_partial_writes() {
    let _g = LOCK.lock().unwrap();
    let store_dir = fresh_dir("crash");
    let store = JobStore::open(&store_dir).unwrap();

    // a healthy finished job (report present) must be left alone
    let mut finished = JobRecord::new(1, tiny(41));
    finished.state = JobState::Done;
    store.save(&finished).unwrap();
    store.save_report(&finished.id, b"{\"report\": true}").unwrap();

    // a crash mid-save leaves a torn temp file — not a job
    std::fs::write(store_dir.join("job-000002-aaaa.json.tmp"), b"{\"id\": \"job-00").unwrap();
    // a record truncated on disk is corrupt — quarantined, never half-read
    std::fs::write(store_dir.join("job-000003-bbbb.json"), b"{\"id\": \"job-000003-bbbb\"")
        .unwrap();
    // a job marked done whose report never landed must re-run; it is
    // stored in the older record format that still carried a
    // `sequential` schedule flag, which must scan as a record
    let hash = tiny(43).config_hash();
    let lost_id = format!("job-000004-{hash:016x}");
    let lost = format!(
        "{{\"id\": \"{lost_id}\", \"seq\": 4, \"config_hash\": \"{hash:016x}\", \
         \"state\": \"done\", \"sequential\": true, \"resumes\": 0, \"error\": null, \
         \"phases\": [], \"scenario\": {}}}",
        serde_json::to_string(&tiny(43)).unwrap()
    );
    std::fs::write(store.record_path(&lost_id), lost).unwrap();

    let (daemon, boot) = Daemon::open(&store_dir, 1).unwrap();
    assert_eq!(boot.removed_tmp, 1);
    assert_eq!(boot.quarantined, 1);
    assert_eq!(boot.resumed, 1, "done-without-report re-runs");

    // the torn and corrupt jobs are cleanly absent
    assert!(daemon.job("job-000002-aaaa").is_none());
    assert!(daemon.job("job-000003-bbbb").is_none());
    assert!(store_dir.join("job-000003-bbbb.json.corrupt").exists());
    assert!(!store_dir.join("job-000002-aaaa.json.tmp").exists());
    // the healthy job kept its state and report
    assert_eq!(daemon.job(&finished.id).unwrap().state, JobState::Done);
    assert_eq!(daemon.report_bytes(&finished.id).unwrap().unwrap(), b"{\"report\": true}");
    // the lost-report job is queued again, sequence numbering continues
    let requeued = daemon.job(&lost_id).unwrap();
    assert_eq!(requeued.state, JobState::Queued);
    assert_eq!(requeued.resumes, 1);
    let next = daemon.submit(&JobSpec::default()).unwrap();
    assert_eq!(next.seq, 5, "sequence numbers must not collide after recovery");
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn concurrent_same_seed_jobs_share_one_world() {
    let _g = LOCK.lock().unwrap();
    let scenario = tiny(53);

    // Reference: how much route-table work one clean study costs.
    ipv6web::obs::enable();
    ipv6web::obs::flush_thread();
    let s0 = ipv6web::obs::snapshot();
    let clean = run_study(&scenario).expect("valid scenario");
    ipv6web::obs::flush_thread();
    let s1 = ipv6web::obs::snapshot();
    let solo_tables = s1.counter("bgp.tables_built") - s0.counter("bgp.tables_built");
    assert!(solo_tables > 0, "a study must build route tables");
    let reference =
        serde_json::to_string_pretty(&clean.report).expect("report serializes").into_bytes();

    // Two workers, two submissions of the same scenario, racing.
    let store_dir = fresh_dir("shared");
    let (daemon, _) = Daemon::open(&store_dir, 2).unwrap();
    let workers = daemon.start();
    let spec = JobSpec { scenario: Some(scenario), ..JobSpec::default() };
    let a = daemon.submit(&spec).unwrap();
    let b = daemon.submit(&spec).unwrap();
    assert_ne!(a.id, b.id, "same config, distinct jobs");
    assert_eq!(a.config_hash, b.config_hash);
    wait_done(&daemon, &a.id);
    wait_done(&daemon, &b.id);
    daemon.shutdown();
    for h in workers {
        h.join().unwrap(); // workers flush their obs shards on exit
    }
    let s2 = ipv6web::obs::snapshot();

    // one build, one reuse — and no duplicated route-table work: the
    // second job rode the first job's world and its route tables
    assert_eq!(s2.counter("daemon.world.built") - s1.counter("daemon.world.built"), 1);
    assert_eq!(s2.counter("daemon.world.reused") - s1.counter("daemon.world.reused"), 1);
    let daemon_tables = s2.counter("bgp.tables_built") - s1.counter("bgp.tables_built");
    assert_eq!(daemon_tables, solo_tables, "two same-seed jobs must not build route tables twice");

    // …and sharing never compromises output: both reports match repro
    let ra = daemon.report_bytes(&a.id).unwrap().unwrap();
    let rb = daemon.report_bytes(&b.id).unwrap().unwrap();
    assert_eq!(ra, reference);
    assert_eq!(rb, reference);
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn unbuildable_world_fails_its_job_and_spares_the_next() {
    let _g = LOCK.lock().unwrap();
    // no dual-stack access AS at all: nowhere to place the six vantages
    let mut unbuildable = Scenario::quick(3);
    unbuildable.topology.dual.access_adoption = 0.0;
    let scenario = tiny(59);
    let reference = reference_report_bytes(&scenario);

    let store_dir = fresh_dir("unbuildable");
    let (daemon, _) = Daemon::open(&store_dir, 1).unwrap();
    let workers = daemon.start();
    let bad =
        daemon.submit(&JobSpec { scenario: Some(unbuildable), ..JobSpec::default() }).unwrap();
    let failed = wait_terminal(&daemon, &bad.id, Duration::from_secs(60));
    assert_eq!(failed.state, JobState::Failed, "an unbuildable world produced a report");
    let error = failed.error.unwrap_or_default();
    assert!(error.contains("dual-stack access ASes"), "{error}");

    // the same worker and world cache still serve the next job
    let good = daemon.submit(&JobSpec { scenario: Some(scenario), ..JobSpec::default() }).unwrap();
    wait_done(&daemon, &good.id);
    assert_eq!(daemon.report_bytes(&good.id).unwrap().unwrap(), reference);
    daemon.shutdown();
    for h in workers {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&store_dir).ok();
}
