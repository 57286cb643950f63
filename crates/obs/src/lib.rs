//! `ipv6web-obs` — the study's observability layer.
//!
//! A lightweight, **deterministic** metrics registry threaded through
//! every substrate of the reproduction: topology generation, BGP route
//! computation, DNS resolution, probing, and the analysis pipeline. It
//! provides four primitives:
//!
//! * **Counters** ([`inc`], [`add`]) — monotone event counts;
//! * **Gauges** ([`gauge_max`]) — high-water marks (peak worker count);
//! * **Histograms** ([`observe`]) — log₂-bucketed distributions of
//!   integer observations, with an associative merge;
//! * **Span timers** ([`span`], [`record_span`]) — scoped wall-clock
//!   phase timings, collected per thread ([`Timings`] replaces the old
//!   `ipv6web-core::StudyTimings`).
//!
//! # Determinism
//!
//! Counters, gauges, and histograms collect into per-thread shards that
//! merge under associative, commutative operators at fork/join points
//! ([`flush_thread`], called by `ipv6web-par`'s workers, plus a `Drop`
//! safety net at thread exit). Because the study's work decomposition is
//! itself deterministic, the merged values are bit-identical whatever
//! `IPV6WEB_THREADS` says. Wall-clock span timings
//! are the one intentionally non-deterministic output and are kept apart
//! from the bit-comparable `Report` for exactly that reason.
//!
//! # Cost
//!
//! Collection is disabled by default; every recording call is then a
//! single relaxed atomic load. `repro --metrics` (and anything else that
//! wants numbers) calls [`enable`] first and [`snapshot`] at the end.

mod hist;
mod process;
mod registry;
mod snapshot;
mod span;

pub use hist::{bucket_hi, bucket_lo, bucket_of, BucketCount, Histogram, HistogramSnapshot};
pub use process::{peak_rss_kb, record_peak_rss};
pub use registry::{
    add, disable, enable, enabled, flush_thread, gauge_max, inc, observe, reset, snapshot,
};
pub use snapshot::Snapshot;
pub use span::{
    attach_spans, record_span, set_span_sink, span, span_mark, take_spans_since, Span, SpanRecord,
    SpanSink, Timings,
};
