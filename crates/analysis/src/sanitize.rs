//! Data sanitization (Section 5.1, Tables 3 and 5).

pub use crate::types::RemovalCause;
use ipv6web_monitor::SiteRecord;
use ipv6web_stats::{detect_transition_paper, mean_ci, trend_paper, StudentT, Trend, Welford};

/// Result of sanitizing one site's sample series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SanitizeOutcome {
    /// Usable: carry the per-family means forward.
    Kept {
        /// Mean IPv4 speed over paired weeks, kB/s.
        v4_mean: f64,
        /// Mean IPv6 speed over paired weeks, kB/s.
        v6_mean: f64,
    },
    /// Removed for `cause`; `good_v6_perf` summarizes whatever samples
    /// existed (for the Table 5 bias check), when at least one pair exists.
    Removed {
        /// The Table 3 column.
        cause: RemovalCause,
        /// IPv6-relative performance over the available samples.
        good_v6_perf: Option<bool>,
    },
}

/// Extracts the paired per-week speed series of a record: weeks present in
/// both families, ascending, as `(v4_speeds, v6_speeds)`.
fn paired_series(rec: &SiteRecord) -> (Vec<f64>, Vec<f64>) {
    let weeks = rec.paired_weeks();
    let pick = |samples: &[ipv6web_monitor::PerfSample], week: u32| {
        samples.iter().find(|s| s.week == week).map(|s| s.speed_kbps)
    };
    let mut v4 = Vec::with_capacity(weeks.len());
    let mut v6 = Vec::with_capacity(weeks.len());
    for w in weeks {
        if let (Some(a), Some(b)) = (pick(&rec.samples_v4, w), pick(&rec.samples_v6, w)) {
            v4.push(a);
            v6.push(b);
        }
    }
    (v4, v6)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Applies the paper's sanitization to one site record:
///
/// 1. fewer than `min_paired_samples` paired weeks → insufficient samples;
/// 2. a sharp transition in either family's series (median filter, 30%,
///    6 consecutive) → ↑/↓ by direction;
/// 3. a steady drift in either family (regression) → ↗/↘;
/// 4. the overall 95% CI of either family wider than `tolerance` of its
///    mean → insufficient (the confidence target was never met);
/// 5. otherwise kept, with the per-family means.
pub fn sanitize_site(
    rec: &SiteRecord,
    min_paired_samples: usize,
    tolerance: f64,
) -> SanitizeOutcome {
    sanitize_impl(rec, min_paired_samples, tolerance).0
}

/// [`sanitize_site`] plus fault attribution: the second element is true
/// when the site was removed for a sharp transition (↑/↓) whose onset week
/// falls inside one of `fault_windows` (`(from, to)`, both ends inclusive
/// — a disruption shifts the level both when it starts and when it
/// recovers). This connects the Table 3 transition buckets back to
/// injected disruptions, the way the paper footnotes route changes behind
/// part of its transition removals.
pub fn sanitize_site_windows(
    rec: &SiteRecord,
    min_paired_samples: usize,
    tolerance: f64,
    fault_windows: &[(u32, u32)],
) -> (SanitizeOutcome, bool) {
    let (out, onset_idx) = sanitize_impl(rec, min_paired_samples, tolerance);
    let attributed = match (&out, onset_idx) {
        (SanitizeOutcome::Removed { .. }, Some(idx)) => {
            let weeks = rec.paired_weeks();
            weeks
                .get(idx)
                .is_some_and(|&w| fault_windows.iter().any(|&(from, to)| from <= w && w <= to))
        }
        _ => false,
    };
    if attributed {
        ipv6web_obs::inc("analysis.fault_window_transitions");
    }
    (out, attributed)
}

/// The shared implementation; the second element is the paired-series
/// index of the detected transition onset, when removal was a transition.
fn sanitize_impl(
    rec: &SiteRecord,
    min_paired_samples: usize,
    tolerance: f64,
) -> (SanitizeOutcome, Option<usize>) {
    let (v4, v6) = paired_series(rec);
    let good_perf =
        if v4.is_empty() { None } else { Some(mean(&v6) >= mean(&v4) * (1.0 - tolerance)) };
    if v4.len() < min_paired_samples {
        return (
            SanitizeOutcome::Removed {
                cause: RemovalCause::InsufficientSamples,
                good_v6_perf: good_perf,
            },
            None,
        );
    }
    // transitions (either family)
    for series in [&v4, &v6] {
        if let Some(t) = detect_transition_paper(series) {
            return (
                SanitizeOutcome::Removed {
                    cause: if t.upward {
                        RemovalCause::TransitionUp
                    } else {
                        RemovalCause::TransitionDown
                    },
                    good_v6_perf: good_perf,
                },
                Some(t.index),
            );
        }
    }
    // trends (either family)
    for series in [&v4, &v6] {
        match trend_paper(series) {
            Trend::Upward => {
                return (
                    SanitizeOutcome::Removed {
                        cause: RemovalCause::TrendUp,
                        good_v6_perf: good_perf,
                    },
                    None,
                )
            }
            Trend::Downward => {
                return (
                    SanitizeOutcome::Removed {
                        cause: RemovalCause::TrendDown,
                        good_v6_perf: good_perf,
                    },
                    None,
                )
            }
            Trend::Stationary => {}
        }
    }
    // overall confidence
    for series in [&v4, &v6] {
        let acc: Welford = series.iter().copied().collect();
        let ci = mean_ci(&acc, StudentT::P95);
        if ci.relative_half_width() > tolerance {
            return (
                SanitizeOutcome::Removed {
                    cause: RemovalCause::InsufficientSamples,
                    good_v6_perf: good_perf,
                },
                None,
            );
        }
    }
    (SanitizeOutcome::Kept { v4_mean: mean(&v4), v6_mean: mean(&v6) }, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6web_monitor::PerfSample;

    fn rec_from(v4: &[f64], v6: &[f64]) -> SiteRecord {
        let samples = |xs: &[f64]| -> Vec<PerfSample> {
            xs.iter()
                .enumerate()
                .map(|(w, &s)| PerfSample { week: w as u32, speed_kbps: s, downloads: 4 })
                .collect()
        };
        SiteRecord { samples_v4: samples(v4), samples_v6: samples(v6), ..SiteRecord::default() }
    }

    #[test]
    fn stationary_series_kept_with_means() {
        let v4: Vec<f64> = (0..20).map(|i| 50.0 + (i % 3) as f64).collect();
        let v6: Vec<f64> = (0..20).map(|i| 48.0 + (i % 3) as f64).collect();
        match sanitize_site(&rec_from(&v4, &v6), 8, 0.10) {
            SanitizeOutcome::Kept { v4_mean, v6_mean } => {
                assert!((v4_mean - 51.0).abs() < 0.2);
                assert!((v6_mean - 49.0).abs() < 0.2);
            }
            other => panic!("expected Kept, got {other:?}"),
        }
    }

    #[test]
    fn too_few_samples_removed() {
        let out = sanitize_site(&rec_from(&[50.0; 5], &[50.0; 5]), 8, 0.10);
        assert_eq!(
            out,
            SanitizeOutcome::Removed {
                cause: RemovalCause::InsufficientSamples,
                good_v6_perf: Some(true)
            }
        );
    }

    #[test]
    fn empty_record_removed_without_perf_verdict() {
        let out = sanitize_site(&SiteRecord::default(), 8, 0.10);
        assert_eq!(
            out,
            SanitizeOutcome::Removed {
                cause: RemovalCause::InsufficientSamples,
                good_v6_perf: None
            }
        );
    }

    #[test]
    fn step_up_detected() {
        let mut v4 = vec![50.0; 12];
        v4.extend(vec![90.0; 12]);
        let v6 = v4.clone();
        match sanitize_site(&rec_from(&v4, &v6), 8, 0.10) {
            SanitizeOutcome::Removed { cause: RemovalCause::TransitionUp, .. } => {}
            other => panic!("expected TransitionUp, got {other:?}"),
        }
    }

    #[test]
    fn step_down_in_v6_only_still_caught() {
        let v4 = vec![50.0; 24];
        let mut v6 = vec![50.0; 12];
        v6.extend(vec![25.0; 12]);
        match sanitize_site(&rec_from(&v4, &v6), 8, 0.10) {
            SanitizeOutcome::Removed { cause: RemovalCause::TransitionDown, .. } => {}
            other => panic!("expected TransitionDown, got {other:?}"),
        }
    }

    #[test]
    fn steady_trend_detected() {
        let v4: Vec<f64> = (0..30).map(|i| 50.0 + 1.5 * i as f64).collect();
        let v6 = v4.clone();
        match sanitize_site(&rec_from(&v4, &v6), 8, 0.10) {
            SanitizeOutcome::Removed { cause: RemovalCause::TrendUp, .. } => {}
            other => panic!("expected TrendUp, got {other:?}"),
        }
    }

    #[test]
    fn downward_trend_detected() {
        let v4: Vec<f64> = (0..30).map(|i| 120.0 - 1.5 * i as f64).collect();
        let v6 = v4.clone();
        match sanitize_site(&rec_from(&v4, &v6), 8, 0.10) {
            SanitizeOutcome::Removed { cause: RemovalCause::TrendDown, .. } => {}
            other => panic!("expected TrendDown, got {other:?}"),
        }
    }

    #[test]
    fn wild_series_fails_overall_confidence() {
        // alternating ±25% around the mean: swings stay under the 30%
        // transition threshold (so the median filter cannot fire even at
        // its shrunken edge windows), there is no trend, but the 95% CI
        // never reaches 10% of the mean
        let v4: Vec<f64> = (0..12).map(|i| if i % 2 == 0 { 80.0 } else { 120.0 }).collect();
        let v6 = v4.clone();
        match sanitize_site(&rec_from(&v4, &v6), 8, 0.10) {
            SanitizeOutcome::Removed { cause: RemovalCause::InsufficientSamples, .. } => {}
            other => panic!("expected confidence failure, got {other:?}"),
        }
    }

    #[test]
    fn good_perf_flag_reflects_v6_standing() {
        // v6 clearly worse in the available (insufficient) samples
        let out = sanitize_site(&rec_from(&[100.0; 4], &[40.0; 4]), 8, 0.10);
        assert_eq!(
            out,
            SanitizeOutcome::Removed {
                cause: RemovalCause::InsufficientSamples,
                good_v6_perf: Some(false)
            }
        );
    }

    #[test]
    fn fault_window_transition_attributed() {
        let mut v4 = vec![50.0; 12];
        v4.extend(vec![90.0; 12]);
        let v6 = v4.clone();
        let rec = rec_from(&v4, &v6);
        let (out, hit) = sanitize_site_windows(&rec, 8, 0.10, &[(8, 16)]);
        assert!(
            matches!(out, SanitizeOutcome::Removed { cause: RemovalCause::TransitionUp, .. }),
            "got {out:?}"
        );
        assert!(hit, "onset inside the window must attribute");
        let (_, miss) = sanitize_site_windows(&rec, 8, 0.10, &[(20, 23)]);
        assert!(!miss, "window elsewhere must not attribute");
        let (_, none) = sanitize_site_windows(&rec, 8, 0.10, &[]);
        assert!(!none, "no windows, no attribution");
    }

    #[test]
    fn trend_removals_never_attributed() {
        let v4: Vec<f64> = (0..30).map(|i| 50.0 + 1.5 * i as f64).collect();
        let (out, hit) = sanitize_site_windows(&rec_from(&v4, &v4.clone()), 8, 0.10, &[(0, 30)]);
        assert!(
            matches!(out, SanitizeOutcome::Removed { cause: RemovalCause::TrendUp, .. }),
            "got {out:?}"
        );
        assert!(!hit, "trends have no onset; only transitions attribute");
    }

    #[test]
    fn unpaired_weeks_ignored() {
        // v4 has extra weeks that v6 lacks; only the pairs count
        let mut rec = rec_from(&[50.0; 10], &[50.0; 10]);
        rec.samples_v4.push(PerfSample { week: 99, speed_kbps: 9999.0, downloads: 4 });
        match sanitize_site(&rec, 8, 0.10) {
            SanitizeOutcome::Kept { v4_mean, .. } => {
                assert!((v4_mean - 50.0).abs() < 1e-9, "outlier unpaired week excluded");
            }
            other => panic!("expected Kept, got {other:?}"),
        }
    }
}
