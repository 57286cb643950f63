//! # ipv6web
//!
//! A full reproduction, in Rust, of **"Assessing IPv6 Through Web Access —
//! A Measurement Study and Its Findings"** (Nikkhah, Guérin, Lee, Woundy;
//! ACM CoNEXT 2011).
//!
//! The paper monitored Alexa's top-1M web sites from six vantage points
//! for about a year, compared IPv4 vs IPv6 download performance for
//! dual-stack sites, joined the measurements with BGP `AS_PATH` data, and
//! validated two hypotheses:
//!
//! * **H1** — the IPv6 *data plane* performs on par with IPv4: when the
//!   IPv6 and IPv4 AS paths coincide, so does performance.
//! * **H2** — *routing differences* (missing IPv6 peering) are the main
//!   cause of poorer IPv6 performance: performance diverges where the
//!   paths do.
//!
//! Because the 2011 Internet cannot be re-measured, this crate family
//! rebuilds the entire measurement apparatus over a simulated
//! dual-stack Internet — AS-level topology with policy routing, a
//! flow-level data plane with a TCP download model and 6in4 tunnels, DNS,
//! web sites with CDN placement and server-side IPv6 penalties, the
//! paper's multi-threaded monitoring tool, and its full analysis
//! methodology. Every table and figure of the paper regenerates from
//! `cargo run -p ipv6web-bench --bin repro`.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ipv6web::{run_study, Scenario};
//!
//! let study = run_study(&Scenario::quick(42)).expect("valid scenario");
//! println!("{}", study.report.render());
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`obs`] | `ipv6web-obs` | metrics registry: counters, histograms, span timers |
//! | [`stats`] | `ipv6web-stats` | confidence intervals, median filter, regression |
//! | [`packet`] | `ipv6web-packet` | IPv4/IPv6/ICMP/UDP/TCP wire formats, 6in4/6to4 |
//! | [`topology`] | `ipv6web-topology` | dual-stack AS graph generator |
//! | [`bgp`] | `ipv6web-bgp` | Gao–Rexford routing, `AS_PATH` tables |
//! | [`netsim`] | `ipv6web-netsim` | path metrics, TCP download model, traceroute |
//! | [`dns`] | `ipv6web-dns` | zones, resolver, wire codec |
//! | [`xlat`] | `ipv6web-xlat` | NAT64/DNS64/464XLAT transition plane, client stacks |
//! | [`web`] | `ipv6web-web` | sites, servers, CDNs, population generator |
//! | [`alexa`] | `ipv6web-alexa` | ranked lists, churn, adoption timeline |
//! | [`faults`] | `ipv6web-faults` | deterministic fault-injection plans and injector |
//! | [`monitor`] | `ipv6web-monitor` | the paper's monitoring tool (Fig 2) |
//! | [`analysis`] | `ipv6web-analysis` | sanitization, SP/DP, H1/H2, tables, figures |
//! | [`core`] | `ipv6web-core` | scenarios, study driver, the [`Report`] |
//! | [`daemon`] | `ipv6web-daemon` | `ipv6webd`: HTTP job service with a crash-safe store |

pub use ipv6web_alexa as alexa;
pub use ipv6web_analysis as analysis;
pub use ipv6web_bgp as bgp;
pub use ipv6web_core as core;
pub use ipv6web_daemon as daemon;
pub use ipv6web_dns as dns;
pub use ipv6web_faults as faults;
pub use ipv6web_monitor as monitor;
pub use ipv6web_netsim as netsim;
pub use ipv6web_obs as obs;
pub use ipv6web_packet as packet;
pub use ipv6web_stats as stats;
pub use ipv6web_topology as topology;
pub use ipv6web_web as web;
pub use ipv6web_xlat as xlat;

pub use ipv6web_core::{
    run_study, run_study_on_world, Report, Scenario, StudyError, StudyResult, World, WorldError,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        // spot-check one item per crate so a broken re-export fails here
        let _ = crate::obs::Histogram::new();
        let _ = crate::stats::RelativeCiRule::paper();
        let _ = crate::packet::ipv4::IPPROTO_IPV6;
        let _ = crate::topology::TopologyConfig::test_small();
        let _ = crate::netsim::TcpConfig::paper();
        let _ = crate::dns::RecordType::Aaaa;
        let _ = crate::alexa::AdoptionTimeline::paper();
        let _ = crate::faults::FaultPlan::default();
        let _ = crate::monitor::CampaignConfig::test_small();
        let _ = crate::analysis::AnalysisConfig::paper();
        let _ = crate::daemon::JobSpec::default();
        let _ = crate::Scenario::quick(1);
    }
}
