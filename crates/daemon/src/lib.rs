//! `ipv6webd` — the study service.
//!
//! The paper's measurement campaign ran for about a year as a long-lived
//! monitoring deployment; this crate gives the reproduction the same
//! operational shape. `ipv6webd` is a daemon that accepts campaign/sweep
//! jobs over HTTP+JSON, runs them on a worker pool under the global
//! `IPV6WEB_THREADS` budget, and persists every job through a crash-safe
//! store so a killed process resumes each in-flight study from its last
//! completed round on the next boot.
//!
//! The moving parts:
//!
//! * [`job`] — [`JobSpec`] (what clients submit) and [`JobRecord`] (what
//!   the daemon persists and serves);
//! * [`store`] — the atomic temp+rename job store: records, per-job
//!   checkpoint directories, finished reports, and the boot-time recovery
//!   sweep;
//! * [`worlds`] — one shared `Arc<World>` (with its memoized route
//!   tables) per distinct scenario, across concurrent jobs;
//! * [`daemon`] — the queue, the worker pool, and the runner that streams
//!   per-phase progress from obs spans into each record;
//! * [`api`] — the HTTP routes, on `ipv6web-web`'s wire substrate.
//!
//! Reports produced by a job are **byte-identical** to `repro --json`
//! output for the same scenario — the daemon is an execution shell around
//! the same deterministic pipeline, and CI holds it to that.

pub mod api;
pub mod daemon;
pub mod job;
pub mod store;
pub mod worlds;

pub use api::serve;
pub use daemon::{BootReport, Daemon};
pub use job::{JobRecord, JobSpec, JobState};
pub use store::JobStore;
pub use worlds::WorldCache;
