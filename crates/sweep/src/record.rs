//! Per-study result records — the unit of crash-safe sweep progress.
//!
//! One record is written (atomic temp+rename) when a study completes or
//! is quarantined, and *only* then: an interrupted study leaves nothing
//! behind, so "record exists" is exactly "this case is finished". Records
//! carry **no volatile fields** — no timestamps, durations, attempt
//! counts, or host names — because the crash-resume contract is that a
//! kill-riddled sweep merges to output byte-identical to a clean run, and
//! anything that varies run-to-run would break that. Volatile accounting
//! (retries, timeouts) lives in obs counters and the orchestrator's
//! stderr log instead.

use crate::spec::StudyCase;
use ipv6web_core::Report;
use serde::{Deserialize, Serialize};

/// Schema tag written into the merged results document.
pub const SWEEP_SCHEMA: &str = "ipv6web-sweep/v1";

/// Terminal state of one study. Serialized lowercase, like `JobState`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum StudyStatus {
    /// The study ran to completion; metrics are present.
    Done,
    /// The study failed `max_attempts` times and was recorded as poison;
    /// the sweep completed without it.
    Quarantined,
}

/// The headline metrics extracted from a finished study's [`Report`] —
/// the columns the aggregate layer queries. Everything here is a pure
/// function of the report, which is itself a pure function of the
/// scenario, so metrics are deterministic per case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyMetrics {
    /// H1 verdict: the IPv6 data plane performs on par with IPv4, judged
    /// on SP destination ASes, where both families take the same AS path.
    pub h1_holds: bool,
    /// H2 verdict: differences in routing (DP destination ASes, whose v4
    /// and v6 AS paths differ) are a major cause of poorer IPv6
    /// performance.
    pub h2_holds: bool,
    /// Lowest per-vantage H1 share: SP destination ASes without a
    /// network-attributable IPv6 deficit.
    pub h1_min_share: f64,
    /// Lowest per-vantage H2 share: DP destination ASes whose IPv6
    /// performance is similar to IPv4's.
    pub h2_min_share: f64,
    /// Mean over vantages of `1 − H2 share`: the fraction of DP
    /// destination ASes whose IPv6 performance is *not* similar to IPv4's
    /// — the "H2 loss rate" the parity tables aggregate.
    pub h2_loss_rate: f64,
    /// Sites kept after sanitization, summed over vantages (Table 2).
    pub sites_kept: u64,
    /// IPv6 destination ASes, union across vantages (Table 2 "All").
    pub dest_ases_v6: u64,
}

fn min_share(shares: &[(String, f64)]) -> f64 {
    shares.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min).min(1.0)
}

fn mean_loss(shares: &[(String, f64)]) -> f64 {
    if shares.is_empty() {
        return 0.0;
    }
    shares.iter().map(|(_, s)| 1.0 - *s).sum::<f64>() / shares.len() as f64
}

impl StudyMetrics {
    /// Extracts the metric columns from a report.
    pub fn from_report(r: &Report) -> StudyMetrics {
        StudyMetrics {
            h1_holds: r.h1.holds,
            h2_holds: r.h2.holds,
            h1_min_share: min_share(&r.h1.per_vantage_share),
            h2_min_share: min_share(&r.h2.per_vantage_share),
            h2_loss_rate: mean_loss(&r.h2.per_vantage_share),
            sites_kept: r.table2.sites_kept.iter().map(|&n| n as u64).sum(),
            dest_ases_v6: r.table2.all[1] as u64,
        }
    }
}

/// One study's persisted result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyRecord {
    /// `{index:05}-{config_hash:016x}` — see `StudyCase::key`.
    pub key: String,
    /// Position in the spec's expansion order.
    pub index: u64,
    /// Hex config hash of the case's scenario.
    pub config_hash: String,
    /// Seed-axis value.
    pub seed: u64,
    /// Parity-axis value.
    pub peering_parity: f64,
    /// Timeline-axis label.
    pub timeline: String,
    /// Fault-axis label.
    pub faults: String,
    /// Xlat-axis label.
    pub xlat: String,
    /// Terminal state.
    pub status: StudyStatus,
    /// Deterministic failure classification when quarantined (e.g.
    /// `timed out after 10s`); `None` when done.
    pub reason: Option<String>,
    /// Metric columns when done; `None` when quarantined.
    pub metrics: Option<StudyMetrics>,
}

impl StudyRecord {
    fn base(case: &StudyCase) -> StudyRecord {
        StudyRecord {
            key: case.key(),
            index: case.index as u64,
            config_hash: format!("{:016x}", case.scenario.config_hash()),
            seed: case.seed,
            peering_parity: case.peering_parity,
            timeline: case.timeline.clone(),
            faults: case.faults.clone(),
            xlat: case.xlat.clone(),
            status: StudyStatus::Done,
            reason: None,
            metrics: None,
        }
    }

    /// A completed study's record.
    pub fn done(case: &StudyCase, report: &Report) -> StudyRecord {
        StudyRecord { metrics: Some(StudyMetrics::from_report(report)), ..Self::base(case) }
    }

    /// A poison record for a study that failed out of its attempts.
    /// `reason` must be deterministic for the failure mode (the
    /// byte-identity contract covers quarantine records too).
    pub fn quarantined(case: &StudyCase, reason: &str) -> StudyRecord {
        StudyRecord {
            status: StudyStatus::Quarantined,
            reason: Some(reason.to_string()),
            ..Self::base(case)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn case() -> StudyCase {
        SweepSpec { scale: Some("quick".to_string()), ..SweepSpec::default() }
            .expand()
            .unwrap()
            .remove(0)
    }

    #[test]
    fn status_roundtrips_lowercase() {
        // serde writes exactly the lowercase name for every variant and
        // reads it back
        for (st, name) in [(StudyStatus::Done, "done"), (StudyStatus::Quarantined, "quarantined")] {
            let json = serde_json::to_string(&st).unwrap();
            assert_eq!(json, format!("\"{name}\""));
            assert_eq!(serde_json::from_str::<StudyStatus>(&json).unwrap(), st);
        }
        assert!(serde_json::from_str::<StudyStatus>("\"maybe\"").is_err());
    }

    #[test]
    fn quarantine_record_roundtrips() {
        let rec = StudyRecord::quarantined(&case(), "timed out after 10s");
        assert_eq!(rec.status, StudyStatus::Quarantined);
        assert!(rec.metrics.is_none());
        let json = serde_json::to_string_pretty(&rec).unwrap();
        let back: StudyRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.key, case().key());
    }

    #[test]
    fn metrics_shares_handle_empty_and_known_values() {
        assert_eq!(min_share(&[]), 1.0);
        assert_eq!(mean_loss(&[]), 0.0);
        let shares = vec![("A".to_string(), 0.9), ("B".to_string(), 0.7)];
        assert_eq!(min_share(&shares), 0.7);
        let loss = mean_loss(&shares);
        assert!((loss - 0.2).abs() < 1e-12, "got {loss}");
    }
}
