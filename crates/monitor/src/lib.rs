//! The paper's monitoring tool (Section 3, Fig 2), reimplemented.
//!
//! Per vantage point and per weekly round, every monitored site goes
//! through the pipeline:
//!
//! 1. **DNS phase** — A and AAAA lookups through a stub resolver that
//!    keeps no cache (the wire codec runs wherever it can change an
//!    answer). Sites with only an A record update the reachability tables
//!    and stop here.
//! 2. **Accessibility phase** — one main-page download over each family;
//!    byte counts compared with the 6% identity rule. Different content →
//!    recorded and stopped.
//! 3. **Performance phase** — repeated downloads per family, each after
//!    cache resets (with no resolver cache, every download starts clean),
//!    until the 95% confidence interval of the download time is within 10%
//!    of the mean (or a cap is hit). The accepted mean speed becomes that
//!    round's sample. Only this phase draws from the probe's RNG stream,
//!    so only probes that reach it derive one.
//!
//! Each round runs on one thread (the paper's tool used up to 25 because
//! its probes waited on real networks; see [`round`]); site order is
//! randomized per round to avoid time-of-day bias; every stochastic draw
//! derives from `(seed, vantage, week, site)`, so a study's fan-out over
//! vantage points is deterministic regardless of scheduling.
//!
//! [`disturbance`] injects the real-world messiness of Section 5.1:
//! step changes (equipment upgrades, path changes) and steady drifts, which
//! the analysis crate's sanitization then has to catch.
//!
//! [`store`] is the crash-safe write protocol and recovery scan shared by
//! the campaign checkpoints, the daemon's job store and the sweep's result
//! store.

pub mod db;
pub mod disturbance;
pub mod population;
pub mod probe;
pub mod round;
pub mod store;
pub mod vantage;

pub use db::{MonitorDb, PerfSample, SiteRecord};
pub use disturbance::{Disturbance, DisturbanceConfig, DisturbanceKind, Disturbances};
pub use population::{PopulationError, VantagePopulation};
pub use probe::{probe_site, ProbeContext, ProbeFaults, ProbeOutcome, ProbeXlat};
pub use round::{
    check_population_stamp, checkpoint_path, population_hash, run_campaign, run_campaign_resumable,
    run_ipv6_day_rounds, validate_checkpoint_dir, CampaignConfig, CampaignError, ConfigError,
};
pub use vantage::{VantageCountError, VantageKind, VantagePoint};
