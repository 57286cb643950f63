//! `studybench` — the study benchmark.
//!
//! Runs one workload's studies through the library calls a daemon job
//! makes (`World::try_build` + `run_study_on_world`), each in a fresh
//! process, and reports end-to-end metrics (time to report, set-up time,
//! probe throughput, peak memory, shape checks held) or, traced, a
//! per-layer ledger: spans around every public call of the study, folded
//! by kind, plus a replay of sampled probes that times the calls inside a
//! probe. Every study is checked: it must succeed, and its report digest
//! must match every other run of the same workload and seed.
//!
//! ```sh
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload panel --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs every workload untraced and then traced, one
//! result line each. Runs keep their state (reports, traces, the digests
//! and exact counts earlier runs recorded) under `.studybench/` in the
//! directory they run in.

pub mod check;
pub mod layers;
pub mod probes;
pub mod replay;
pub mod run;
pub mod study;
pub mod trace;
pub mod workload;
