//! Flow-level data plane for the simulated Internet.
//!
//! The monitor downloads pages; what it observes is a download *time*. This
//! crate turns a BGP route (sequence of inter-AS edges) into the
//! performance-relevant path metrics — RTT, bottleneck bandwidth, loss,
//! per-AS IPv6 forwarding factors, tunnel effects — and models the TCP
//! transfer on top:
//!
//! * [`dataplane::DataPlane::metrics`] folds a route's links and ASes into
//!   [`dataplane::PathMetrics`];
//! * [`tcp`] computes the page download time with connection setup, slow
//!   start, and a PFTK-style steady-state cap (the standard
//!   Padhye–Firoiu–Towsley–Kurose throughput formula);
//! * [`traceroute`](mod@traceroute) runs a packet-faithful traceroute over
//!   the same path (hop-limit countdown, ICMP Time Exceeded built with
//!   `ipv6web-packet`), reproducing the paper's observation that over 50% of
//!   traceroutes fail to complete — the reason it used BGP tables instead
//!   (Section 3).
//!
//! Hypothesis H1 lives here: with every AS's `forwarding_factor` at 1.0 the
//! IPv6 and IPv4 data planes are indistinguishable, and any measured
//! difference must come from routing (H2) or servers.

pub mod dataplane;
pub mod happy_eyeballs;
pub mod mtu;
pub mod ping;
pub mod tcp;
pub mod traceroute;

pub use dataplane::{translated_metrics, DataPlane, PathMetrics};
pub use happy_eyeballs::{race, race_with_stack, HappyEyeballsConfig, RaceOutcome};
pub use mtu::{
    discover_pmtud, path_mtu, translate_ptb_mtu, translated_path_mtu, Pmtud, PmtudConfig,
};
pub use ping::{ping, PingConfig, PingOutcome};
pub use tcp::{download_time, DownloadOutcome, TcpConfig};
pub use traceroute::{traceroute, Traceroute, TracerouteConfig, TracerouteHop};
