//! The benchmark's workloads: which study each one runs, on how many
//! threads, and why it was chosen.
//!
//! The load is a closed loop with one client: one study at a time, in a
//! fresh process, each scenario built from the workload seed with the
//! tier's own scenario fields and the default execution mode.

use ipv6web_core::Scenario;
use ipv6web_faults::FaultPlan;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Scenario::panel(seed)` at `IPV6WEB_THREADS=2`.
    ///
    /// Why: the probe work after DNS dominates here (path metrics, HTTP,
    /// the download/CI loop), along with the vantage fan-out over both
    /// cores and the 200-vantage analysis, while the site working set is
    /// tiny.
    ///
    /// Seed-42 shape: 200 vantages, 2k ASes, 1k sites, 600 route tables;
    /// 2,489,877 probes, 28% of them measure both families, giving
    /// 4,400,448 downloads; 7 of 13 shape checks hold.
    Panel,
    /// `Scenario::internet_smoke(seed)` at `IPV6WEB_THREADS=1`.
    ///
    /// Why: DNS, the fixed cost per probe, and round bookkeeping dominate
    /// here, over a working set far larger than the CPU caches. A
    /// path-metric change should show nothing.
    ///
    /// Seed-42 shape: 5k ASes, 55k sites, streamed route tables;
    /// 3,625,899 probes, 97% of them stop after their two DNS lookups as
    /// v4-only; setup is ~2.7 s of a ~35 s study; 12 of 13 shape checks
    /// hold.
    InternetSmoke,
    /// `Scenario::nat64(seed)` with `faults = FaultPlan::demo(26)` at
    /// `IPV6WEB_THREADS=1`.
    ///
    /// Why: it drives the same layers down their other paths — the DNS
    /// wire codec on its fault and DNS64 paths, and route epochs chained
    /// through `RouteStore::rebuild_sequence`. A shortcut for the default
    /// path that slows these paths shows here. Its traced run also replays
    /// the per-round checkpoint writes a daemon job makes (every round
    /// rewrites each vantage's whole database) into a fresh, empty
    /// directory, so a change to the record stores shows in the ledger.
    /// The timed studies run without a checkpoint directory: each would
    /// write ~118 MiB, and the disk's write throughput, not the program,
    /// would set their spread.
    ///
    /// Seed-42 shape: 6 vantages (2 v6-only, 2 464XLAT), 3 NAT64
    /// gateways; 184,184 probes, 62,213 DNS64-synthesized AAAA records,
    /// 5,715 retried probes, 24,806 translated paths; 77 per-round
    /// checkpoint writes totalling ~118 MiB; 11 of 13 shape checks hold.
    Chaos,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Panel, Workload::InternetSmoke, Workload::Chaos];

    /// Parses a workload name as `--workload` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Panel => "panel",
            Workload::InternetSmoke => "internet-smoke",
            Workload::Chaos => "chaos",
        }
    }

    /// The `IPV6WEB_THREADS` budget a study of this workload runs under.
    pub fn threads(self) -> usize {
        match self {
            Workload::Panel => 2,
            Workload::InternetSmoke | Workload::Chaos => 1,
        }
    }

    /// Whether the traced run replays the per-round checkpoint writes.
    pub fn replays_checkpoints(self) -> bool {
        self == Workload::Chaos
    }

    /// The scenario a study of this workload runs, built from `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::Panel => Scenario::panel(seed),
            Workload::InternetSmoke => Scenario::internet_smoke(seed),
            Workload::Chaos => {
                let mut s = Scenario::nat64(seed);
                s.faults = FaultPlan::demo(s.timeline.total_weeks);
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("quick"), None);
    }

    #[test]
    fn chaos_runs_the_demo_plan_on_the_nat64_tier() {
        let s = Workload::Chaos.scenario(42);
        assert_eq!(s.timeline.total_weeks, 26);
        assert!(!s.faults.is_empty());
        assert!(s.xlat.is_active());
        assert_eq!(s.faults, FaultPlan::demo(26));
    }

    #[test]
    fn tiers_keep_their_own_scenarios() {
        assert_eq!(Workload::Panel.scenario(7), Scenario::panel(7));
        assert_eq!(Workload::InternetSmoke.scenario(7), Scenario::internet_smoke(7));
    }
}
