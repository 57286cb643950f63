//! One struct per paper table, with builders from [`VantageAnalysis`] and
//! plain-text renderers. Table numbers follow the paper.

use crate::hypotheses::{cross_checks, good_coverage_buckets, COVERAGE_BUCKETS};
use crate::types::{AsCategory, RemovalCause, SiteClass, VantageAnalysis};
use ipv6web_topology::AsId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Renders a fixed-width grid: one header row, then data rows.
fn render_grid(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Table 2: monitoring profiles per vantage point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Vantage names, column order.
    pub vantages: Vec<String>,
    /// Dual-stack sites that entered measurement.
    pub sites_total: Vec<usize>,
    /// Sites kept after sanitization.
    pub sites_kept: Vec<usize>,
    /// IPv4 destination ASes per vantage.
    pub dest_v4: Vec<usize>,
    /// IPv6 destination ASes per vantage.
    pub dest_v6: Vec<usize>,
    /// ASes crossed by IPv4 paths per vantage.
    pub crossed_v4: Vec<usize>,
    /// ASes crossed by IPv6 paths per vantage.
    pub crossed_v6: Vec<usize>,
    /// Union across vantages: dest v4 / dest v6 / crossed v4 / crossed v6.
    pub all: [usize; 4],
}

impl Table2 {
    /// Builds from per-vantage analyses.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        let union = |f: &dyn Fn(&VantageAnalysis) -> &BTreeSet<AsId>| -> usize {
            analyses.iter().flat_map(|a| f(a).iter().copied()).collect::<BTreeSet<_>>().len()
        };
        Table2 {
            vantages: analyses.iter().map(|a| a.vantage.clone()).collect(),
            sites_total: analyses.iter().map(|a| a.sites_total).collect(),
            sites_kept: analyses.iter().map(|a| a.kept.len()).collect(),
            dest_v4: analyses.iter().map(|a| a.dest_ases_v4.len()).collect(),
            dest_v6: analyses.iter().map(|a| a.dest_ases_v6.len()).collect(),
            crossed_v4: analyses.iter().map(|a| a.crossed_v4.len()).collect(),
            crossed_v6: analyses.iter().map(|a| a.crossed_v6.len()).collect(),
            all: [
                union(&|a| &a.dest_ases_v4),
                union(&|a| &a.dest_ases_v6),
                union(&|a| &a.crossed_v4),
                union(&|a| &a.crossed_v6),
            ],
        }
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["Numbers of".to_string()];
        headers.extend(self.vantages.iter().cloned());
        headers.push("All".into());
        let row = |label: &str, xs: &[usize], all: Option<usize>| -> Vec<String> {
            let mut r = vec![label.to_string()];
            r.extend(xs.iter().map(|x| x.to_string()));
            r.push(all.map_or("NA".into(), |x| x.to_string()));
            r
        };
        let rows = vec![
            row("Sites (total)", &self.sites_total, None),
            row("Sites kept", &self.sites_kept, None),
            row("Dest. ASes (IPv4)", &self.dest_v4, Some(self.all[0])),
            row("Dest. ASes (IPv6)", &self.dest_v6, Some(self.all[1])),
            row("ASes crossed (IPv4)", &self.crossed_v4, Some(self.all[2])),
            row("ASes crossed (IPv6)", &self.crossed_v6, Some(self.all[3])),
        ];
        write!(
            f,
            "{}",
            render_grid("Table 2: Monitoring profiles per vantage-point.", &headers, &rows)
        )
    }
}

/// Table 3: causes of confidence-target failures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3 {
    /// Vantage names.
    pub vantages: Vec<String>,
    /// Counts per vantage: [insufficient, ↑, ↓, ↗, ↘].
    pub counts: Vec<[usize; 5]>,
}

impl Table3 {
    /// Builds from per-vantage analyses.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        let counts = analyses
            .iter()
            .map(|a| {
                let mut c = [0usize; 5];
                for r in &a.removed {
                    let i = match r.cause {
                        RemovalCause::InsufficientSamples => 0,
                        RemovalCause::TransitionUp => 1,
                        RemovalCause::TransitionDown => 2,
                        RemovalCause::TrendUp => 3,
                        RemovalCause::TrendDown => 4,
                    };
                    c[i] += 1;
                }
                c
            })
            .collect();
        Table3 { vantages: analyses.iter().map(|a| a.vantage.clone()).collect(), counts }
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> =
            ["", "Insufficient Samples", "Up", "Down", "TrendUp", "TrendDown"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let rows: Vec<Vec<String>> = self
            .vantages
            .iter()
            .zip(&self.counts)
            .map(|(v, c)| {
                let mut r = vec![v.clone()];
                r.extend(c.iter().map(|x| x.to_string()));
                r
            })
            .collect();
        write!(
            f,
            "{}",
            render_grid("Table 3: Causes of confidence target failures.", &headers, &rows)
        )
    }
}

/// Table 4: site classification (#DL / #SP / #DP).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4 {
    /// Vantage names.
    pub vantages: Vec<String>,
    /// Counts per vantage: [DL, SP, DP].
    pub counts: Vec<[usize; 3]>,
}

impl Table4 {
    /// Builds from per-vantage analyses.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        Table4 {
            vantages: analyses.iter().map(|a| a.vantage.clone()).collect(),
            counts: analyses
                .iter()
                .map(|a| {
                    [
                        a.count_of(SiteClass::Dl),
                        a.count_of(SiteClass::Sp),
                        a.count_of(SiteClass::Dp),
                    ]
                })
                .collect(),
        }
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["".to_string()];
        headers.extend(self.vantages.iter().cloned());
        let label = ["# DL sites", "# SP sites", "# DP sites"];
        let rows: Vec<Vec<String>> = (0..3)
            .map(|i| {
                let mut r = vec![label[i].to_string()];
                r.extend(self.counts.iter().map(|c| c[i].to_string()));
                r
            })
            .collect();
        write!(f, "{}", render_grid("Table 4: Sites classification.", &headers, &rows))
    }
}

/// Table 5: classification of removed sites (good/bad IPv6 performance ×
/// SP/DP/DL), over removals with enough samples to judge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5 {
    /// Vantage names.
    pub vantages: Vec<String>,
    /// Per vantage: [SP good, SP bad, DP good, DP bad, DL good, DL bad].
    pub counts: Vec<[usize; 6]>,
}

impl Table5 {
    /// Builds from per-vantage analyses. Only removals that are *not*
    /// insufficient-samples (the paper's "sites for which sufficient
    /// samples were available") and that carry a perf verdict count.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        let counts = analyses
            .iter()
            .map(|a| {
                let mut c = [0usize; 6];
                for r in &a.removed {
                    if r.cause == RemovalCause::InsufficientSamples {
                        continue;
                    }
                    let (Some(class), Some(good)) = (r.class, r.good_v6_perf) else {
                        continue;
                    };
                    let base = match class {
                        SiteClass::Sp => 0,
                        SiteClass::Dp => 2,
                        SiteClass::Dl => 4,
                    };
                    c[base + usize::from(!good)] += 1;
                }
                c
            })
            .collect();
        Table5 { vantages: analyses.iter().map(|a| a.vantage.clone()).collect(), counts }
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["".to_string()];
        headers.extend(self.vantages.iter().cloned());
        let labels = [
            "SP good perf.",
            "SP bad perf.",
            "DP good perf.",
            "DP bad perf.",
            "DL good perf.",
            "DL bad perf.",
        ];
        let rows: Vec<Vec<String>> = (0..6)
            .map(|i| {
                let mut r = vec![labels[i].to_string()];
                r.extend(self.counts.iter().map(|c| c[i].to_string()));
                r
            })
            .collect();
        write!(f, "{}", render_grid("Table 5: Classification of removed sites.", &headers, &rows))
    }
}

/// Table 6: IPv6 vs IPv4 for DL sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table6 {
    /// Vantage names.
    pub vantages: Vec<String>,
    /// DL site count per vantage.
    pub n_sites: Vec<usize>,
    /// Percent of DL sites where IPv4 ≥ IPv6.
    pub pct_v4_ge_v6: Vec<f64>,
    /// Mean of per-site IPv4 speeds, kB/s.
    pub v4_perf: Vec<f64>,
    /// Mean of per-site IPv6 speeds, kB/s.
    pub v6_perf: Vec<f64>,
}

impl Table6 {
    /// Builds from per-vantage analyses.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        let mut t = Table6 {
            vantages: Vec::new(),
            n_sites: Vec::new(),
            pct_v4_ge_v6: Vec::new(),
            v4_perf: Vec::new(),
            v6_perf: Vec::new(),
        };
        for a in analyses {
            let dl: Vec<_> = a.kept_of(SiteClass::Dl).collect();
            let n = dl.len();
            t.vantages.push(a.vantage.clone());
            t.n_sites.push(n);
            if n == 0 {
                t.pct_v4_ge_v6.push(0.0);
                t.v4_perf.push(0.0);
                t.v6_perf.push(0.0);
                continue;
            }
            let ge = dl.iter().filter(|s| s.v4_mean >= s.v6_mean).count();
            t.pct_v4_ge_v6.push(100.0 * ge as f64 / n as f64);
            t.v4_perf.push(dl.iter().map(|s| s.v4_mean).sum::<f64>() / n as f64);
            t.v6_perf.push(dl.iter().map(|s| s.v6_mean).sum::<f64>() / n as f64);
        }
        t
    }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["".to_string()];
        headers.extend(self.vantages.iter().cloned());
        let mut rows = Vec::new();
        let mut push = |label: &str, cells: Vec<String>| {
            let mut r = vec![label.to_string()];
            r.extend(cells);
            rows.push(r);
        };
        push("# sites", self.n_sites.iter().map(|x| x.to_string()).collect());
        push("IPv4>=IPv6", self.pct_v4_ge_v6.iter().map(|x| format!("{x:.0}%")).collect());
        push("IPv4 perf.", self.v4_perf.iter().map(|x| format!("{x:.1}")).collect());
        push("IPv6 perf.", self.v6_perf.iter().map(|x| format!("{x:.1}")).collect());
        write!(
            f,
            "{}",
            render_grid(
                "Table 6: IPv6 vs. IPv4 performance (kbytes/sec) for sites in DL.",
                &headers,
                &rows
            )
        )
    }
}

/// Hop-count bucket labels for Tables 7 and 9.
pub const HOP_BUCKETS: [&str; 5] = ["1 Hop", "2 Hops", "3 Hops", "4 Hops", ">= 5 Hops"];

fn hop_bucket(hops: usize) -> usize {
    match hops {
        0 | 1 => 0,
        2 => 1,
        3 => 2,
        4 => 3,
        _ => 4,
    }
}

/// Per-vantage hop-count breakdown: `(mean speed, #sites)` per bucket per
/// family. Shared by Tables 7 (DL+DP) and 9 (SP).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopTable {
    /// Table title.
    pub title: String,
    /// Vantage names.
    pub vantages: Vec<String>,
    /// Per vantage: IPv4 buckets `(mean, n)`.
    pub v4: Vec<[(f64, usize); 5]>,
    /// Per vantage: IPv6 buckets `(mean, n)`.
    pub v6: Vec<[(f64, usize); 5]>,
}

impl HopTable {
    fn build(title: &str, analyses: &[VantageAnalysis], classes: &[SiteClass]) -> Self {
        let mut t =
            HopTable { title: title.into(), vantages: Vec::new(), v4: Vec::new(), v6: Vec::new() };
        for a in analyses {
            let mut sum4 = [(0.0f64, 0usize); 5];
            let mut sum6 = [(0.0f64, 0usize); 5];
            for s in a.kept.iter().filter(|s| classes.contains(&s.class)) {
                let b4 = hop_bucket(s.v4_hops);
                sum4[b4].0 += s.v4_mean;
                sum4[b4].1 += 1;
                let b6 = hop_bucket(s.v6_hops);
                sum6[b6].0 += s.v6_mean;
                sum6[b6].1 += 1;
            }
            let avg = |sums: [(f64, usize); 5]| {
                sums.map(|(sum, n)| (if n == 0 { 0.0 } else { sum / n as f64 }, n))
            };
            t.vantages.push(a.vantage.clone());
            t.v4.push(avg(sum4));
            t.v6.push(avg(sum6));
        }
        t
    }

    /// Table 7: DL+DP sites, performance by hop count (per family — the
    /// families disagree on hop counts because of tunnels).
    pub fn table7(analyses: &[VantageAnalysis]) -> Self {
        Self::build(
            "Table 7: DL+DP sites - Performance (kbytes/sec) by hop count.",
            analyses,
            &[SiteClass::Dl, SiteClass::Dp],
        )
    }

    /// Table 9: SP destination ASes, performance by hop count.
    pub fn table9(analyses: &[VantageAnalysis]) -> Self {
        Self::build(
            "Table 9: Destination ASes in SP: Performance (in kbytes/sec) by hop-count.",
            analyses,
            &[SiteClass::Sp],
        )
    }
}

impl fmt::Display for HopTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["".to_string(), "".to_string()];
        for b in HOP_BUCKETS {
            headers.push(b.to_string());
            headers.push("# sites".into());
        }
        let mut rows = Vec::new();
        for (i, v) in self.vantages.iter().enumerate() {
            for (fam, data) in [("IPv4", &self.v4[i]), ("IPv6", &self.v6[i])] {
                let mut r = vec![if fam == "IPv4" { v.clone() } else { String::new() }, fam.into()];
                for (mean, n) in data.iter() {
                    r.push(if *n == 0 { "-".into() } else { format!("{mean:.1}") });
                    r.push(n.to_string());
                }
                rows.push(r);
            }
        }
        write!(f, "{}", render_grid(&self.title, &headers, &rows))
    }
}

/// Table 8 (and 10): SP destination-AS verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table8 {
    /// Table title.
    pub title: String,
    /// Vantage names.
    pub vantages: Vec<String>,
    /// Percent comparable (IPv6≈IPv4 or better).
    pub pct_comparable: Vec<f64>,
    /// Percent zero-mode.
    pub pct_zero_mode: Vec<f64>,
    /// Percent small-N.
    pub pct_small: Vec<f64>,
    /// Percent genuinely bad (paper's data had none in SP).
    pub pct_bad: Vec<f64>,
    /// SP destination AS count.
    pub n_ases: Vec<usize>,
    /// Cross-checks across vantages: positive / negative.
    pub xcheck: (usize, usize),
    /// Whether the zero-mode row is rendered (Table 10 omits it).
    pub show_zero_mode: bool,
}

impl Table8 {
    /// Builds Table 8 from the weekly-campaign analyses.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        Self::build_titled("Table 8: IPv6 vs. IPv4 for SP destination ASes.", analyses, true)
    }

    /// Builds Table 10 from World IPv6 Day analyses (no zero-mode row:
    /// participants fixed their servers).
    pub fn build_ipv6_day(analyses: &[VantageAnalysis]) -> Self {
        Self::build_titled("Table 10: World IPv6 Day - IPv6 vs. IPv4 for SP ASes.", analyses, false)
    }

    fn build_titled(title: &str, analyses: &[VantageAnalysis], show_zero_mode: bool) -> Self {
        let mut t = Table8 {
            title: title.into(),
            vantages: Vec::new(),
            pct_comparable: Vec::new(),
            pct_zero_mode: Vec::new(),
            pct_small: Vec::new(),
            pct_bad: Vec::new(),
            n_ases: Vec::new(),
            xcheck: cross_checks(analyses),
            show_zero_mode,
        };
        for a in analyses {
            let n = a.sp_groups.len();
            let share = |cat: AsCategory| -> f64 {
                if n == 0 {
                    return 0.0;
                }
                100.0 * a.sp_groups.values().filter(|g| g.category == cat).count() as f64 / n as f64
            };
            t.vantages.push(a.vantage.clone());
            t.pct_comparable.push(share(AsCategory::Comparable));
            t.pct_zero_mode.push(share(AsCategory::ZeroMode));
            t.pct_small.push(share(AsCategory::SmallN));
            t.pct_bad.push(share(AsCategory::Bad));
            t.n_ases.push(n);
        }
        t
    }
}

impl fmt::Display for Table8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["".to_string()];
        headers.extend(self.vantages.iter().cloned());
        let mut rows = Vec::new();
        let mut push = |label: &str, cells: Vec<String>| {
            let mut r = vec![label.to_string()];
            r.extend(cells);
            rows.push(r);
        };
        push("IPv6~=IPv4", self.pct_comparable.iter().map(|x| pct(*x)).collect());
        if self.show_zero_mode {
            push("Zero mode", self.pct_zero_mode.iter().map(|x| pct(*x)).collect());
            push("Small number of sites", self.pct_small.iter().map(|x| pct(*x)).collect());
            if self.pct_bad.iter().any(|x| *x > 0.0) {
                push("Network-attributable", self.pct_bad.iter().map(|x| pct(*x)).collect());
            }
        } else {
            let other: Vec<String> = self
                .pct_zero_mode
                .iter()
                .zip(&self.pct_small)
                .zip(&self.pct_bad)
                .map(|((a, b), c)| pct(a + b + c))
                .collect();
            push("Other", other);
        }
        push("# ASes", self.n_ases.iter().map(|x| x.to_string()).collect());
        push("x-check (+)", vec![self.xcheck.0.to_string()]);
        if self.show_zero_mode {
            push("x-check (-)", vec![self.xcheck.1.to_string()]);
        }
        write!(f, "{}", render_grid(&self.title, &headers, &rows))
    }
}

/// Table 11 (and 12): DP destination-AS verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table11 {
    /// Table title.
    pub title: String,
    /// Vantage names.
    pub vantages: Vec<String>,
    /// Percent comparable.
    pub pct_comparable: Vec<f64>,
    /// Percent zero-mode.
    pub pct_zero_mode: Vec<f64>,
    /// DP destination AS count.
    pub n_ases: Vec<usize>,
    /// Whether the zero-mode row is rendered (Table 12 omits it).
    pub show_zero_mode: bool,
}

impl Table11 {
    /// Builds Table 11 from the weekly-campaign analyses.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        Self::build_titled("Table 11: IPv6 vs. IPv4 for DP destination ASes.", analyses, true)
    }

    /// Builds Table 12 from World IPv6 Day analyses.
    pub fn build_ipv6_day(analyses: &[VantageAnalysis]) -> Self {
        Self::build_titled("Table 12: World IPv6 Day - IPv6 vs. IPv4 for DP ASes.", analyses, false)
    }

    fn build_titled(title: &str, analyses: &[VantageAnalysis], show_zero_mode: bool) -> Self {
        let mut t = Table11 {
            title: title.into(),
            vantages: Vec::new(),
            pct_comparable: Vec::new(),
            pct_zero_mode: Vec::new(),
            n_ases: Vec::new(),
            show_zero_mode,
        };
        for a in analyses {
            let n = a.dp_groups.len();
            let share = |cat: AsCategory| -> f64 {
                if n == 0 {
                    return 0.0;
                }
                100.0 * a.dp_groups.values().filter(|g| g.category == cat).count() as f64 / n as f64
            };
            t.vantages.push(a.vantage.clone());
            t.pct_comparable.push(share(AsCategory::Comparable));
            t.pct_zero_mode.push(share(AsCategory::ZeroMode));
            t.n_ases.push(n);
        }
        t
    }
}

impl fmt::Display for Table11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["".to_string()];
        headers.extend(self.vantages.iter().cloned());
        let mut rows = Vec::new();
        let mut push = |label: &str, cells: Vec<String>| {
            let mut r = vec![label.to_string()];
            r.extend(cells);
            rows.push(r);
        };
        push("IPv6~=IPv4", self.pct_comparable.iter().map(|x| pct(*x)).collect());
        if self.show_zero_mode {
            push("Zero mode", self.pct_zero_mode.iter().map(|x| pct(*x)).collect());
        }
        push("# ASes", self.n_ases.iter().map(|x| x.to_string()).collect());
        write!(f, "{}", render_grid(&self.title, &headers, &rows))
    }
}

/// Table 13: good-AS coverage of DP IPv6 paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table13 {
    /// Vantage names.
    pub vantages: Vec<String>,
    /// Per vantage: shares per coverage bucket (row-major bucket order).
    pub buckets: Vec<[f64; 5]>,
    /// Size of the good-AS set the coverage was computed against.
    pub n_good_ases: usize,
}

impl Table13 {
    /// Builds from per-vantage analyses; the good-AS set is pooled across
    /// all of them, as in Section 4.
    pub fn build(analyses: &[VantageAnalysis]) -> Self {
        let good = crate::hypotheses::good_as_set(analyses);
        Table13 {
            vantages: analyses.iter().map(|a| a.vantage.clone()).collect(),
            buckets: analyses.iter().map(|a| good_coverage_buckets(a, &good)).collect(),
            n_good_ases: good.len(),
        }
    }
}

impl fmt::Display for Table13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["% good ASes in path".to_string()];
        headers.extend(self.vantages.iter().cloned());
        let rows: Vec<Vec<String>> = (0..5)
            .map(|b| {
                let mut r = vec![COVERAGE_BUCKETS[b].to_string()];
                r.extend(self.buckets.iter().map(|v| pct(v[b])));
                r
            })
            .collect();
        write!(f, "{}", render_grid("Table 13: \"Good\" AS coverage in DP Paths.", &headers, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AsGroup, RemovedSite, SitePerf};
    use ipv6web_web::SiteId;

    fn perf(id: u32, class: SiteClass, v4: f64, v6: f64, hops: usize) -> SitePerf {
        SitePerf {
            site: SiteId(id),
            class,
            v4_mean: v4,
            v6_mean: v6,
            v4_hops: hops,
            v6_hops: hops,
            dest_v4: AsId(1),
            dest_v6: AsId(if class == SiteClass::Dl { 2 } else { 1 }),
        }
    }

    fn analysis(name: &str) -> VantageAnalysis {
        let kept = vec![
            perf(0, SiteClass::Sp, 100.0, 98.0, 2),
            perf(1, SiteClass::Sp, 50.0, 52.0, 3),
            perf(2, SiteClass::Dp, 80.0, 40.0, 4),
            perf(3, SiteClass::Dl, 60.0, 45.0, 2),
            perf(4, SiteClass::Dl, 70.0, 80.0, 1),
        ];
        let removed = vec![
            RemovedSite {
                site: SiteId(9),
                cause: RemovalCause::TransitionUp,
                class: Some(SiteClass::Sp),
                good_v6_perf: Some(true),
                fault_attributed: false,
            },
            RemovedSite {
                site: SiteId(10),
                cause: RemovalCause::InsufficientSamples,
                class: Some(SiteClass::Dp),
                good_v6_perf: Some(false),
                fault_attributed: false,
            },
            RemovedSite {
                site: SiteId(11),
                cause: RemovalCause::TrendDown,
                class: Some(SiteClass::Dp),
                good_v6_perf: Some(false),
                fault_attributed: false,
            },
        ];
        let mut sp_groups = std::collections::BTreeMap::new();
        sp_groups.insert(
            AsId(1),
            AsGroup {
                dest: AsId(1),
                site_idx: vec![0, 1],
                v4_mean: 75.0,
                v6_mean: 75.0,
                category: AsCategory::Comparable,
                sites_at_zero: 2,
            },
        );
        let mut dp_groups = std::collections::BTreeMap::new();
        dp_groups.insert(
            AsId(1),
            AsGroup {
                dest: AsId(1),
                site_idx: vec![2],
                v4_mean: 80.0,
                v6_mean: 40.0,
                category: AsCategory::SmallN,
                sites_at_zero: 0,
            },
        );
        let mut dp_v6_paths = std::collections::BTreeMap::new();
        dp_v6_paths.insert(AsId(1), vec![AsId(0), AsId(5), AsId(1)]);
        let mut good_v6_paths = std::collections::BTreeMap::new();
        good_v6_paths.insert(AsId(1), vec![AsId(0), AsId(5), AsId(1)]);
        VantageAnalysis {
            vantage: name.into(),
            sites_total: 8,
            kept,
            removed,
            dest_ases_v4: [AsId(1), AsId(2)].into_iter().collect(),
            dest_ases_v6: [AsId(1)].into_iter().collect(),
            crossed_v4: [AsId(1), AsId(2), AsId(5)].into_iter().collect(),
            crossed_v6: [AsId(1), AsId(5)].into_iter().collect(),
            sp_groups,
            dp_groups,
            dp_v6_paths,
            good_v6_paths,
        }
    }

    #[test]
    fn table2_counts_and_union() {
        let t = Table2::build(&[analysis("A"), analysis("B")]);
        assert_eq!(t.sites_total, vec![8, 8]);
        assert_eq!(t.sites_kept, vec![5, 5]);
        assert_eq!(t.dest_v4, vec![2, 2]);
        assert_eq!(t.all[0], 2, "identical sets union to themselves");
        let text = t.to_string();
        assert!(text.contains("Sites kept"));
        assert!(text.contains("All"));
    }

    #[test]
    fn table3_classifies_causes() {
        let t = Table3::build(&[analysis("A")]);
        assert_eq!(t.counts[0], [1, 1, 0, 0, 1]);
        assert!(t.to_string().contains("Insufficient"));
    }

    #[test]
    fn table4_counts_classes() {
        let t = Table4::build(&[analysis("A")]);
        assert_eq!(t.counts[0], [2, 2, 1]);
        let text = t.to_string();
        assert!(text.contains("# DL sites") && text.contains("# SP sites"));
    }

    #[test]
    fn table5_skips_insufficient() {
        let t = Table5::build(&[analysis("A")]);
        // only the TransitionUp SP-good and TrendDown DP-bad survive
        assert_eq!(t.counts[0], [1, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn table6_dl_stats() {
        let t = Table6::build(&[analysis("A")]);
        assert_eq!(t.n_sites, vec![2]);
        assert_eq!(t.pct_v4_ge_v6, vec![50.0]);
        assert!((t.v4_perf[0] - 65.0).abs() < 1e-9);
        assert!((t.v6_perf[0] - 62.5).abs() < 1e-9);
    }

    #[test]
    fn table7_and_9_bucket_by_hops() {
        let a = analysis("A");
        let t7 = HopTable::table7(std::slice::from_ref(&a));
        // DL+DP sites: hops 4 (DP), 2 and 1 (DL)
        assert_eq!(t7.v4[0][0].1, 1, "one site at 1 hop");
        assert_eq!(t7.v4[0][1].1, 1, "one site at 2 hops");
        assert_eq!(t7.v4[0][3].1, 1, "one site at 4 hops");
        let t9 = HopTable::table9(&[a]);
        assert_eq!(t9.v4[0][1].1, 1, "SP site at 2 hops");
        assert_eq!(t9.v4[0][2].1, 1, "SP site at 3 hops");
        assert_eq!(t9.v4[0][0].1, 0);
        assert!(t9.to_string().contains(">= 5 Hops"));
    }

    #[test]
    fn table8_shares_sum_to_100() {
        let t = Table8::build(&[analysis("A")]);
        let total = t.pct_comparable[0] + t.pct_zero_mode[0] + t.pct_small[0] + t.pct_bad[0];
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(t.n_ases, vec![1]);
        assert!(t.to_string().contains("x-check"));
    }

    #[test]
    fn table10_merges_non_comparable_into_other() {
        let t = Table8::build_ipv6_day(&[analysis("A")]);
        let text = t.to_string();
        assert!(text.contains("Other"));
        assert!(!text.contains("Zero mode"));
    }

    #[test]
    fn table11_dp_shares() {
        let t = Table11::build(&[analysis("A")]);
        assert_eq!(t.pct_comparable, vec![0.0]);
        assert_eq!(t.n_ases, vec![1]);
        assert!(t.to_string().contains("Zero mode"));
        let t12 = Table11::build_ipv6_day(&[analysis("A")]);
        assert!(!t12.to_string().contains("Zero mode"));
    }

    #[test]
    fn table13_buckets() {
        let t = Table13::build(&[analysis("A")]);
        // the single DP path [0,5,1]: crossed = {5,1}; good set = {0,5,1}
        // => 100% good
        assert_eq!(t.buckets[0][0], 100.0);
        assert!(t.to_string().contains("100%"));
        assert_eq!(t.n_good_ases, 3);
    }

    #[test]
    fn renders_are_nonempty_and_aligned() {
        let a = analysis("VP-with-long-name");
        for text in [
            Table2::build(std::slice::from_ref(&a)).to_string(),
            Table3::build(std::slice::from_ref(&a)).to_string(),
            Table4::build(std::slice::from_ref(&a)).to_string(),
            Table5::build(std::slice::from_ref(&a)).to_string(),
            Table6::build(std::slice::from_ref(&a)).to_string(),
            HopTable::table7(std::slice::from_ref(&a)).to_string(),
            Table8::build(std::slice::from_ref(&a)).to_string(),
            HopTable::table9(std::slice::from_ref(&a)).to_string(),
            Table11::build(std::slice::from_ref(&a)).to_string(),
            Table13::build(&[a]).to_string(),
        ] {
            assert!(text.lines().count() >= 4, "table too short:\n{text}");
            assert!(text.contains("Table "), "missing title:\n{text}");
        }
    }
}
