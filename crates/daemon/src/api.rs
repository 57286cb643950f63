//! The HTTP+JSON surface of `ipv6webd`.
//!
//! Routes (one request per connection, `Connection: close`):
//!
//! | Method | Path                | Response |
//! |--------|---------------------|----------|
//! | GET    | `/healthz`          | `{"ok":true}` |
//! | GET    | `/metrics`          | merged obs [`Snapshot`] as JSON |
//! | GET    | `/jobs`             | every job record, submission order |
//! | POST   | `/jobs`             | 202 + the accepted record (body: [`JobSpec`]) |
//! | GET    | `/jobs/:id`         | one record (live phase progress while running) |
//! | GET    | `/jobs/:id/report`  | the finished report, byte-identical to `repro --json` |
//! | POST   | `/shutdown`         | stop accepting jobs, then exit the accept loop |
//!
//! The wire layer is `ipv6web-web`'s HTTP substrate — the same parser the
//! simulated monitor speaks, now on a real socket.
//!
//! [`Snapshot`]: ipv6web_obs::Snapshot

use crate::daemon::Daemon;
use crate::job::JobSpec;
use ipv6web_web::{build_http_response, read_http_request_deadline, HttpRequest};
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget for reading one request off the socket. Control-plane
/// requests are a few KB; ten seconds is generous for any honest client
/// and cuts off a slowloris peer (half-sent or drip-fed requests) that
/// would otherwise pin the accept thread forever.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(10);

/// One routed response: status + JSON body (already serialized).
struct Reply {
    status: u16,
    body: Vec<u8>,
}

impl Reply {
    fn json(status: u16, json: String) -> Reply {
        Reply { status, body: json.into_bytes() }
    }

    fn error(status: u16, msg: &str) -> Reply {
        let obj = serde_json::Value::Obj(vec![(
            "error".to_string(),
            serde_json::Value::Str(msg.to_string()),
        )]);
        Reply::json(status, serde_json::to_string(&obj).expect("error serializes"))
    }

    fn ok() -> Reply {
        Reply::json(200, "{\"ok\":true}".to_string())
    }
}

/// Routes one parsed request. Returns the reply plus whether the daemon
/// should stop serving after it (the `/shutdown` path).
fn route(daemon: &Arc<Daemon>, req: &HttpRequest) -> (Reply, bool) {
    let path = req.target.split('?').next().unwrap_or("");
    let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    let reply = match (req.method.as_str(), parts.as_slice()) {
        ("GET", ["healthz"]) => Reply::ok(),
        ("GET", ["metrics"]) => {
            ipv6web_obs::flush_thread();
            let snap = ipv6web_obs::snapshot();
            Reply::json(200, serde_json::to_string_pretty(&snap).expect("snapshot serializes"))
        }
        ("GET", ["jobs"]) => {
            let jobs = daemon.jobs();
            Reply::json(200, serde_json::to_string_pretty(&jobs).expect("records serialize"))
        }
        ("POST", ["jobs"]) => {
            let spec: Result<JobSpec, _> = match std::str::from_utf8(&req.body) {
                Ok("") => Ok(JobSpec::default()),
                Ok(text) => serde_json::from_str(text).map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            };
            match spec.and_then(|s| daemon.submit(&s)) {
                Ok(rec) => {
                    Reply::json(202, serde_json::to_string_pretty(&rec).expect("record serializes"))
                }
                Err(msg) => Reply::error(400, &msg),
            }
        }
        ("GET", ["jobs", id]) => match daemon.job(id) {
            Some(rec) => {
                Reply::json(200, serde_json::to_string_pretty(&rec).expect("record serializes"))
            }
            None => Reply::error(404, "no such job"),
        },
        ("GET", ["jobs", id, "report"]) => match daemon.job(id) {
            None => Reply::error(404, "no such job"),
            Some(rec) => match daemon.report_bytes(id) {
                Ok(Some(bytes)) => Reply { status: 200, body: bytes },
                Ok(None) => {
                    Reply::error(409, &format!("job is {}, report not ready", rec.state.name()))
                }
                Err(e) => Reply::error(500, &format!("read report: {e}")),
            },
        },
        ("POST", ["shutdown"]) => {
            // Graceful drain: running jobs stay `Running` on disk (the
            // resume marker the next boot replays), queued jobs stay
            // queued, and the process exits without waiting for studies
            // to finish — their checkpoints make the wait unnecessary.
            let draining = daemon.drain();
            if !draining.is_empty() {
                eprintln!(
                    "ipv6webd: drain: {} running job(s) marked for resume: {}",
                    draining.len(),
                    draining.join(", ")
                );
            }
            return (Reply::ok(), true);
        }
        (_, ["healthz" | "metrics" | "jobs" | "shutdown", ..]) => {
            Reply::error(405, "method not allowed")
        }
        _ => Reply::error(404, "no such route"),
    };
    (reply, false)
}

/// Handles one connection: parse (under `read_deadline`), route, respond.
///
/// The socket's per-read timeout catches a fully stalled peer (blocked
/// `read` returns `WouldBlock`/`TimedOut`); the deadline threaded through
/// [`read_http_request_deadline`] catches the drip-feeding one whose every
/// individual read succeeds. Both answer 408 and close.
fn handle(daemon: &Arc<Daemon>, stream: TcpStream, read_deadline: Duration) -> io::Result<bool> {
    stream.set_read_timeout(Some(read_deadline))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let deadline = Some(Instant::now() + read_deadline);
    let (reply, stop) = match read_http_request_deadline(&mut reader, deadline) {
        Ok(Some(req)) => route(daemon, &req),
        Ok(None) => return Ok(false), // peer closed without a request
        Err(e) if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => {
            ipv6web_obs::inc("api.read_timeouts");
            (Reply::error(408, "request read timed out"), false)
        }
        Err(e) => (Reply::error(400, &format!("bad request: {e}")), false),
    };
    stream.write_all(&build_http_response(reply.status, "application/json", &reply.body))?;
    stream.flush()?;
    Ok(stop)
}

/// [`serve`] with an explicit per-request read deadline.
pub fn serve_with_deadline(
    daemon: &Arc<Daemon>,
    listener: TcpListener,
    read_deadline: Duration,
) -> io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        match handle(daemon, stream, read_deadline) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => eprintln!("ipv6webd: connection error: {e}"),
        }
    }
    Ok(())
}

/// Serves the API on `listener` until `POST /shutdown` (or a fatal accept
/// error). Each connection is handled on the accept thread — requests are
/// tiny control-plane exchanges; the studies themselves run on the worker
/// pool, never here. Requests must arrive within
/// [`DEFAULT_READ_DEADLINE`].
pub fn serve(daemon: &Arc<Daemon>, listener: TcpListener) -> io::Result<()> {
    serve_with_deadline(daemon, listener, DEFAULT_READ_DEADLINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;

    fn test_daemon(tag: &str) -> Arc<Daemon> {
        let dir = std::env::temp_dir().join(format!("ipv6webd-api-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (daemon, _) = Daemon::open(&dir, 1).unwrap();
        daemon
    }

    fn get(daemon: &Arc<Daemon>, method: &str, target: &str, body: &str) -> (u16, String) {
        let req = HttpRequest {
            method: method.to_string(),
            target: target.to_string(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        };
        let (reply, _) = route(daemon, &req);
        (reply.status, String::from_utf8(reply.body).unwrap())
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let daemon = test_daemon("health");
        assert_eq!(get(&daemon, "GET", "/healthz", ""), (200, "{\"ok\":true}".to_string()));
        let (status, body) = get(&daemon, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("counters"), "not a snapshot: {body}");
    }

    #[test]
    fn submit_then_fetch_record() {
        let daemon = test_daemon("submit");
        // no workers started: the job stays queued, which is all the
        // routing layer needs to prove
        let (status, body) = get(&daemon, "POST", "/jobs", "{\"scale\": \"quick\", \"seed\": 9}");
        assert_eq!(status, 202, "{body}");
        let rec: crate::job::JobRecord = serde_json::from_str(&body).unwrap();
        assert_eq!(rec.state, JobState::Queued);
        assert_eq!(rec.scenario.seed, 9);

        let (status, body) = get(&daemon, "GET", &format!("/jobs/{}", rec.id), "");
        assert_eq!(status, 200);
        assert!(body.contains(&rec.id));

        let (status, _) = get(&daemon, "GET", "/jobs", "");
        assert_eq!(status, 200);

        // report not ready yet
        let (status, body) = get(&daemon, "GET", &format!("/jobs/{}/report", rec.id), "");
        assert_eq!(status, 409, "{body}");
    }

    #[test]
    fn bad_submissions_are_400() {
        let daemon = test_daemon("bad");
        let (status, body) = get(&daemon, "POST", "/jobs", "{\"scale\": \"galactic\"}");
        assert_eq!(status, 400);
        assert!(body.contains("galactic"), "{body}");
        let (status, _) = get(&daemon, "POST", "/jobs", "not json at all");
        assert_eq!(status, 400);
        let mut huge = ipv6web_core::Scenario::quick(1);
        huge.tail_sites = 5_000_000_000;
        let body = format!("{{\"scenario\": {}}}", serde_json::to_string(&huge).unwrap());
        let (status, body) = get(&daemon, "POST", "/jobs", &body);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("tail_sites"), "{body}");
    }

    #[test]
    fn unknown_routes_and_methods() {
        let daemon = test_daemon("routes");
        assert_eq!(get(&daemon, "GET", "/nope", "").0, 404);
        assert_eq!(get(&daemon, "GET", "/jobs/job-000042-abc", "").0, 404);
        assert_eq!(get(&daemon, "DELETE", "/jobs", "").0, 405);
        assert_eq!(get(&daemon, "GET", "/shutdown", "").0, 405);
        assert!(!daemon.is_shutdown());
    }

    #[test]
    fn shutdown_route_stops_serving() {
        let daemon = test_daemon("shutdown");
        let req = HttpRequest {
            method: "POST".to_string(),
            target: "/shutdown".to_string(),
            headers: vec![],
            body: vec![],
        };
        let (reply, stop) = route(&daemon, &req);
        assert_eq!(reply.status, 200);
        assert!(stop);
        assert!(daemon.is_shutdown());
        // submissions after shutdown are refused
        let (status, _) = get(&daemon, "POST", "/jobs", "");
        assert_eq!(status, 400);
    }
}
