//! Shared helpers for the benchmark harness and the `repro` binary.

use ipv6web_core::{run_study, Scenario, StudyResult};
use std::sync::OnceLock;

pub mod metrics;
pub mod reference;
pub use metrics::{
    check_regression, render_diff, BenchReport, DerivedMetrics, DEFAULT_TOLERANCE, PEAK_RSS_GAUGE,
};
pub use reference::{render_comparison, shape_checks, ShapeCheck};

/// Runs (or reuses) the quick study for the current process — benches call
/// this so each bench target measures *its* stage, not the shared campaign.
pub fn shared_quick_study() -> &'static StudyResult {
    static STUDY: OnceLock<StudyResult> = OnceLock::new();
    STUDY.get_or_init(|| run_study(&Scenario::quick(42)).expect("quick scenario is valid"))
}
