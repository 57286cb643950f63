//! Study orchestration: build a world, run the campaign, produce the paper.
//!
//! This crate ties every substrate together in the order the paper's
//! methodology implies:
//!
//! 1. [`Scenario`] fixes every knob (topology, population, timeline,
//!    campaign, thresholds) plus a single seed — one scenario, one world,
//!    bit-identical results.
//! 2. [`World::build`] generates the AS graph, the site population, the
//!    DNS zone, the six vantage points of Table 1, and each vantage
//!    point's BGP tables.
//! 3. [`run_study`] executes the weekly campaign from every vantage point,
//!    the World IPv6 Day side experiment, and the full analysis pipeline.
//! 4. [`Report`] holds every table and figure of the paper and renders the
//!    whole set as text (or JSON via serde).
//!
//! ```no_run
//! use ipv6web_core::{run_study, Scenario};
//!
//! let study = run_study(&Scenario::quick(42)).expect("valid scenario");
//! println!("{}", study.report.render());
//! assert!(study.report.h1.holds && study.report.h2.holds);
//! ```

pub mod report;
pub mod scenario;
pub mod study;
pub mod world;

pub use ipv6web_obs::{SpanRecord, Timings};
pub use report::Report;
pub use scenario::{Scenario, SCALES};
pub use study::{run_study, run_study_on_world, ExecutionMode, StudyError, StudyResult};
pub use world::{World, WorldError};
