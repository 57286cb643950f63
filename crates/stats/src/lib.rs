//! Statistics substrate for the `ipv6web` measurement study.
//!
//! The paper's monitoring tool and analysis pipeline lean on a small set of
//! statistical primitives:
//!
//! * **Repeat-until-confident sampling** — page downloads repeat until the
//!   95% confidence interval of the mean download time is within 10% of the
//!   mean ([`ci::RelativeCiRule`]).
//! * **Transition detection** — sites whose performance shifted sharply
//!   during the campaign are excluded; the paper uses a length-11 median
//!   filter triggering on ≥30% sustained change ([`median_filter`]).
//! * **Trend detection** — sites with a steady upward/downward drift are
//!   excluded via linear regression ([`regress`]).
//! * **Zero-mode detection** — an AS whose per-site IPv6−IPv4 performance
//!   difference distribution has a mode at zero indicates the *network* is
//!   not responsible for AS-level differences ([`hist`]).
//!
//! Everything here is deterministic and allocation-light; the monitor calls
//! these on hot paths.

pub mod ci;
pub mod hist;
pub mod median_filter;
pub mod quantile;
pub mod regress;
pub mod rng;
pub mod welford;

pub use ci::{mean_ci, ConfidenceInterval, RelativeCiRule, StudentT};
pub use hist::{zero_mode, Histogram, ZeroMode};
pub use median_filter::{detect_transition, detect_transition_paper, MedianFilter, Transition};
pub use quantile::{quantile, summary, summary_sorted, Summary};
pub use regress::{linear_regression, trend, trend_paper, Regression, Trend};
pub use rng::{coin, derive_rng, fnv1a64, lognormal, RngLabel, StudyRng};
pub use welford::Welford;
