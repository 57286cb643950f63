//! `ipv6web-sweep` — supervised multi-process parameter sweeps.
//!
//! A sweep turns the single-study pipeline into a study *matrix*: a
//! serde-able [`SweepSpec`] crosses seeds, peering-parity levels,
//! adoption-timeline variants, and fault plans over one base scenario,
//! expands deterministically ([`SweepSpec::expand`]), and runs each cell
//! in its own worker OS process — the process tier above
//! `IPV6WEB_THREADS` (`--procs`, each process running on its
//! [`ipv6web_par::process_share`] of the threads). The orchestrator
//! ([`run_sweep`]) supervises the fleet: wall-clock timeouts, heartbeat
//! stall detection, capped-exponential-backoff retries, and
//! quarantine-as-poison after repeated failure, so one pathological
//! study degrades the sweep's coverage instead of aborting it.
//!
//! Progress is durable at study granularity ([`ResultStore`]): one
//! atomically-written record per finished case, scanned on startup for
//! crash-resume. The contract, enforced end-to-end by the acceptance
//! tests: a sweep that loses workers *and* its orchestrator to SIGKILL,
//! restarted, merges to `results.json` / `summary.txt` byte-identical
//! to a clean, uninterrupted single-process run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cli;
pub mod orchestrator;
pub mod record;
pub mod spec;
pub mod store;

pub use orchestrator::{backoff_delay, run_sweep, run_worker, SweepConfig, SweepSummary};
pub use record::{StudyMetrics, StudyRecord, StudyStatus, SWEEP_SCHEMA};
pub use spec::{ChaosSpec, StudyCase, Supervision, SupervisionSpec, SweepSpec, XlatAxis};
pub use store::ResultStore;
