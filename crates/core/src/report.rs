//! The paper as a value: every table and figure, plus renderers.

use crate::world::World;
use ipv6web_analysis::figures::{fig1_series, fig3a_series, fig3b_series, Fig1Point};
use ipv6web_analysis::tables::{
    HopTable, Table11, Table13, Table2, Table3, Table4, Table5, Table6, Table8,
};
use ipv6web_analysis::{
    better_v6_profile, h1_verdict, h2_verdict, BetterV6Profile, HypothesisVerdict, RemovalCause,
    VantageAnalysis,
};
use ipv6web_monitor::{MonitorDb, VantagePoint};
use ipv6web_web::SiteId;
use ipv6web_xlat::ClientStack;
use serde::{Deserialize, Serialize};

/// Every artifact of the paper's evaluation section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Table 1 metadata (vantage points).
    pub vantages: Vec<VantagePoint>,
    /// Start-date labels matching Table 1's second column.
    pub vantage_start_labels: Vec<String>,
    /// Table 2: monitoring profiles.
    pub table2: Table2,
    /// Table 3: confidence-failure causes.
    pub table3: Table3,
    /// Table 4: site classification.
    pub table4: Table4,
    /// Table 5: removed-site bias check.
    pub table5: Table5,
    /// Table 6: DL sites.
    pub table6: Table6,
    /// Table 7: DL+DP by hop count.
    pub table7: HopTable,
    /// Table 8: SP destination ASes (H1).
    pub table8: Table8,
    /// Table 9: SP by hop count.
    pub table9: HopTable,
    /// Table 10: World IPv6 Day, SP.
    pub table10: Table8,
    /// Table 11: DP destination ASes (H2).
    pub table11: Table11,
    /// Table 12: World IPv6 Day, DP.
    pub table12: Table11,
    /// Table 13: good-AS coverage of DP paths.
    pub table13: Table13,
    /// Fig 1: IPv6 reachability timeline.
    pub fig1: Vec<Fig1Point>,
    /// Fig 3a: reachability by rank bucket.
    pub fig3a: Vec<(String, f64)>,
    /// Fig 3b: (% IPv6 faster, ranked list) vs (…, full population).
    pub fig3b: (f64, f64),
    /// H1 verdict.
    pub h1: HypothesisVerdict,
    /// H2 verdict.
    pub h2: HypothesisVerdict,
    /// Section 5.5's trait investigation (the paper's negative finding).
    pub better_v6: BetterV6Profile,
    /// Per vantage point: `(name, transition removals, of which the site's
    /// IPv6 route actually changed at the epoch)` — the paper's footnoted
    /// attribution ("64 out of 283 for Penn ... the result of a path
    /// change"). Empty when the scenario schedules no route change.
    pub transition_path_changes: Vec<(String, usize, usize)>,
    /// Translated-path comparison, present only when the scenario placed
    /// NAT64 gateways. An absent section is left out of the JSON, so
    /// reports from classic (zero-gateway) scenarios stay byte-identical
    /// to those written before the transition tier existed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub xlat: Option<XlatReport>,
    /// Cross-vantage disagreement, present only when the scenario generated
    /// a vantage population (spec-less runs stay byte-identical).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub panel: Option<ipv6web_analysis::PanelReport>,
}

/// One vantage point's translated-path summary: for a v6-only host the
/// "v4 slot" samples in its database traveled v6-to-the-gateway then
/// v4-onward through the stateful translator (plus the on-host CLAT for
/// 464XLAT clients), so comparing them against the native-v6 samples — and
/// against the dual-stack vantages' rows — is the transition-technology
/// counterpart of the paper's v4-vs-v6 question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XlatVantageRow {
    /// Vantage point name.
    pub vantage: String,
    /// Client stack ("dual-stack", "v6-only", "v6-only-clat").
    pub stack: String,
    /// Sites ever monitored.
    pub monitored: usize,
    /// Sites observed dual-stack (native AAAA; translator-only sites are
    /// classified v4-only and never reach here).
    pub dual_sites: usize,
    /// Same-week (v4 slot, v6) sample pairs.
    pub paired_samples: usize,
    /// Mean speed over all v4-slot samples (native v4, or the translated
    /// path on a v6-only host).
    pub mean_v4_slot_kbps: f64,
    /// Mean speed over all native-v6 samples.
    pub mean_v6_kbps: f64,
    /// Share of same-week pairs where the v6 download was faster.
    pub v6_faster_share: f64,
    /// Rounds lost to injected faults (NAT64 outages included).
    pub faulted_rounds: u64,
}

/// The report's transition-technology section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XlatReport {
    /// NAT64 gateways the world placed.
    pub gateways: usize,
    /// One row per vantage point, in Table 1 order.
    pub per_vantage: Vec<XlatVantageRow>,
    /// H1 re-run per client stack over that stack's `AS_PATH` vantages.
    pub h1_by_stack: Vec<(String, HypothesisVerdict)>,
    /// H2 re-run per client stack over that stack's `AS_PATH` vantages.
    pub h2_by_stack: Vec<(String, HypothesisVerdict)>,
}

/// Builds the transition-technology section; `None` without gateways.
fn xlat_report(
    world: &World,
    dbs: &[MonitorDb],
    analyses: &[VantageAnalysis],
) -> Option<XlatReport> {
    let x = world.xlat.as_ref()?;
    let per_vantage = world
        .vantages
        .iter()
        .zip(dbs)
        .map(|(v, db)| {
            let mut dual_sites = 0usize;
            let mut paired = 0usize;
            let mut v6_faster = 0usize;
            let (mut sum4, mut n4, mut sum6, mut n6) = (0.0f64, 0usize, 0.0f64, 0usize);
            let mut faulted_rounds = 0u64;
            for (_, rec) in db.iter() {
                if rec.dual_since.is_some() {
                    dual_sites += 1;
                }
                faulted_rounds += u64::from(rec.faulted_rounds);
                sum4 += rec.samples_v4.iter().map(|s| s.speed_kbps).sum::<f64>();
                n4 += rec.samples_v4.len();
                sum6 += rec.samples_v6.iter().map(|s| s.speed_kbps).sum::<f64>();
                n6 += rec.samples_v6.len();
                // same-week pairs, first sample of each family per week
                for s4 in &rec.samples_v4 {
                    let Some(s6) = rec.samples_v6.iter().find(|s| s.week == s4.week) else {
                        continue;
                    };
                    paired += 1;
                    if s6.speed_kbps > s4.speed_kbps {
                        v6_faster += 1;
                    }
                }
            }
            let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
            XlatVantageRow {
                vantage: v.name.clone(),
                stack: v.stack.name().to_string(),
                monitored: db.len(),
                dual_sites,
                paired_samples: paired,
                mean_v4_slot_kbps: mean(sum4, n4),
                mean_v6_kbps: mean(sum6, n6),
                v6_faster_share: mean(v6_faster as f64, paired),
                faulted_rounds,
            }
        })
        .collect();
    let by_stack = |verdict: fn(&[VantageAnalysis]) -> HypothesisVerdict| {
        let mut out = Vec::new();
        for stack in [ClientStack::DualStack, ClientStack::V6Only, ClientStack::V6OnlyClat] {
            let group: Vec<VantageAnalysis> = analyses
                .iter()
                .filter(|a| world.vantages.iter().any(|v| v.name == a.vantage && v.stack == stack))
                .cloned()
                .collect();
            if !group.is_empty() {
                out.push((stack.name().to_string(), verdict(&group)));
            }
        }
        out
    };
    Some(XlatReport {
        gateways: x.wiring.gateways.len(),
        per_vantage,
        h1_by_stack: by_stack(h1_verdict),
        h2_by_stack: by_stack(h2_verdict),
    })
}

/// Clones the subset of `db` covering ranked-list sites only (Fig 1 tracks
/// the top-1M list, not Penn's DNS-cache tail).
fn list_only_db(db: &MonitorDb, n_list: usize) -> MonitorDb {
    let mut out = MonitorDb::new(db.vantage.clone());
    for (site, rec) in db.iter() {
        if site.index() < n_list {
            *out.record_mut(site, rec.added_week) = rec.clone();
        }
    }
    out
}

impl Report {
    /// Assembles the report from campaign databases and analyses.
    ///
    /// `dbs` is in `world.vantages` order; `analyses` covers the `AS_PATH`
    /// vantage points; `day_analyses` the World IPv6 Day subset.
    pub fn build(
        world: &World,
        dbs: &[MonitorDb],
        analyses: &[VantageAnalysis],
        day_analyses: &[VantageAnalysis],
    ) -> Report {
        let n_list = world.scenario.population.n_sites;
        // Fig 1 and 3a use the longest-running vantage (Penn).
        let penn_idx = world.vantages.iter().position(|v| v.name == "Penn").unwrap_or(0);
        let penn_list_db = list_only_db(&dbs[penn_idx], n_list);
        let fig1 =
            fig1_series(&penn_list_db, &world.scenario.timeline, world.scenario.fig1_from_week);
        let last_week = world.scenario.campaign.total_weeks - 1;
        let sites = &world.sites;
        let fig3a = fig3a_series(
            &penn_list_db,
            |s: SiteId| (s.index() < n_list).then(|| sites[s.index()].rank),
            last_week,
        );
        // Fig 3b compares the ranked list against list+tail, from the
        // vantage with external inputs (Penn).
        let penn_analysis = analyses.iter().find(|a| a.vantage == "Penn").unwrap_or(&analyses[0]);
        let fig3b = fig3b_series(&penn_analysis.kept, |s| s.index() < n_list);

        // transition removals attributable to real route changes
        let mut transition_path_changes = Vec::new();
        if let Some((_, late_tables)) = world.scenario_epoch() {
            for a in analyses {
                let vantage_idx = world
                    .vantages
                    .iter()
                    .position(|v| v.name == a.vantage)
                    .expect("analysis names a vantage");
                let early = &world.tables[vantage_idx].1;
                let late = &late_tables[vantage_idx];
                let mut transitions = 0usize;
                let mut changed = 0usize;
                for r in &a.removed {
                    if !matches!(r.cause, RemovalCause::TransitionUp | RemovalCause::TransitionDown)
                    {
                        continue;
                    }
                    transitions += 1;
                    let Some(dest) = world.sites[r.site.index()].v6.as_ref().map(|v| v.dest_as)
                    else {
                        continue;
                    };
                    let path_changed = match (early.as_path(dest), late.as_path(dest)) {
                        (Some(p1), Some(p2)) => !p1.same_route(p2),
                        (a, b) => a.is_some() != b.is_some(),
                    };
                    if path_changed {
                        changed += 1;
                    }
                }
                transition_path_changes.push((a.vantage.clone(), transitions, changed));
            }
        }

        Report {
            vantages: world.vantages.clone(),
            vantage_start_labels: world
                .vantages
                .iter()
                .map(|v| world.scenario.timeline.date_label(v.start_week))
                .collect(),
            table2: Table2::build(analyses),
            table3: Table3::build(analyses),
            table4: Table4::build(analyses),
            table5: Table5::build(analyses),
            table6: Table6::build(analyses),
            table7: HopTable::table7(analyses),
            table8: Table8::build(analyses),
            table9: HopTable::table9(analyses),
            table10: Table8::build_ipv6_day(day_analyses),
            table11: Table11::build(analyses),
            table12: Table11::build_ipv6_day(day_analyses),
            table13: Table13::build(analyses),
            fig1,
            fig3a,
            fig3b,
            h1: h1_verdict(analyses),
            h2: h2_verdict(analyses),
            better_v6: better_v6_profile(&world.topo, analyses),
            transition_path_changes,
            xlat: xlat_report(world, dbs, analyses),
            panel: world
                .scenario
                .vantage_population
                .as_ref()
                .map(|_| ipv6web_analysis::panel_report(analyses, world.vantages.len())),
        }
    }

    /// Renders the cross-vantage disagreement section; empty without a
    /// generated vantage population.
    pub fn render_panel(&self) -> String {
        let Some(p) = &self.panel else { return String::new() };
        let mut out = format!(
            "Cross-vantage disagreement: {} vantage points, {} with AS_PATH feeds.\n",
            p.vantages, p.analyzed
        );
        out.push_str(&format!(
            "{:<4} {:<8} {:>6}/{:<11} {:>18} {:>6}\n",
            "", "pooled", "holds", "evidential", "solo agreement", "flips"
        ));
        for s in [&p.h1, &p.h2] {
            out.push_str(&format!(
                "{:<4} {:<8} {:>6}/{:<11} {:>10.3} ±{:>5.3} {:>6}\n",
                s.hypothesis,
                if s.pooled_holds { "HOLDS" } else { "REJECTED" },
                s.holds,
                s.evidential,
                s.agreement.mean,
                s.agreement.half_width,
                if s.flips { "yes" } else { "no" },
            ));
        }
        for s in [&p.h1, &p.h2] {
            if s.dissenters.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "{} dissenters ({} of {} solo verdicts contradict the pooled one):",
                s.hypothesis,
                s.dissenters.len(),
                s.evidential
            ));
            for name in s.dissenters.iter().take(12) {
                out.push_str(&format!(" {name}"));
            }
            if s.dissenters.len() > 12 {
                out.push_str(&format!(" … ({} more)", s.dissenters.len() - 12));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the transition-technology section; empty without gateways.
    pub fn render_xlat(&self) -> String {
        let Some(x) = &self.xlat else { return String::new() };
        let mut out = format!(
            "Transition technologies: {} NAT64 gateway(s), DNS64 + 464XLAT clients.\n",
            x.gateways
        );
        out.push_str(&format!(
            "{:<16} {:<13} {:>6} {:>6} {:>7} {:>12} {:>9} {:>10}\n",
            "Vantage Point",
            "Stack",
            "Sites",
            "Dual",
            "Paired",
            "v4-slot kbps",
            "v6 kbps",
            "v6 faster"
        ));
        out.push_str(&"-".repeat(86));
        out.push('\n');
        for r in &x.per_vantage {
            out.push_str(&format!(
                "{:<16} {:<13} {:>6} {:>6} {:>7} {:>12.1} {:>9.1} {:>9.1}%\n",
                r.vantage,
                r.stack,
                r.monitored,
                r.dual_sites,
                r.paired_samples,
                r.mean_v4_slot_kbps,
                r.mean_v6_kbps,
                100.0 * r.v6_faster_share,
            ));
        }
        for (title, verdicts) in [("H1", &x.h1_by_stack), ("H2", &x.h2_by_stack)] {
            out.push_str(&format!("{title} by client stack:\n"));
            for (stack, v) in verdicts {
                out.push_str(&format!("  {stack}: {}\n", v.summary));
            }
        }
        out
    }

    /// Renders Table 1.
    pub fn render_table1(&self) -> String {
        let mut out = String::from("Table 1: Monitoring vantage-points.\n");
        out.push_str(&format!(
            "{:<16} {:<10} {:<8} {:<4} {:<7}\n",
            "Vantage Point", "Date", "AS PATH", "W-L", "Type"
        ));
        out.push_str(&"-".repeat(50));
        out.push('\n');
        for (v, label) in self.vantages.iter().zip(&self.vantage_start_labels) {
            out.push_str(&format!(
                "{:<16} {:<10} {:<8} {:<4} {:<7}\n",
                v.name,
                label,
                if v.has_as_path { "Y" } else { "N" },
                if v.white_listed { "Y" } else { "N" },
                v.kind.to_string(),
            ));
        }
        out
    }

    /// Renders Fig 1 as a text sparkline table.
    pub fn render_fig1(&self) -> String {
        let mut out = String::from("Figure 1: IPv6 Reachability (Top 1M Websites).\n");
        let max = self.fig1.iter().map(|p| p.reachable_pct).fold(0.0, f64::max);
        for p in &self.fig1 {
            let bar_len = if max > 0.0 { (40.0 * p.reachable_pct / max) as usize } else { 0 };
            out.push_str(&format!(
                "{} {:>6.2}% {}\n",
                p.label,
                p.reachable_pct,
                "#".repeat(bar_len)
            ));
        }
        out
    }

    /// Renders Fig 3a.
    pub fn render_fig3a(&self) -> String {
        let mut out = String::from("Figure 3a: IPv6 reachability by rank.\n");
        for (label, pct) in &self.fig3a {
            out.push_str(&format!("{label:<10} {pct:>6.2}%\n"));
        }
        out
    }

    /// Renders Fig 3b.
    pub fn render_fig3b(&self) -> String {
        format!(
            "Figure 3b: How often is IPv6 download faster.\nTop list  {:>6.2}%\nAll sites {:>6.2}%\n",
            self.fig3b.0, self.fig3b.1
        )
    }

    /// Renders the full report: all figures, all tables, both verdicts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== Assessing IPv6 Through Web Access — reproduction report ===\n\n");
        out.push_str(&self.render_fig1());
        out.push('\n');
        out.push_str(&self.render_fig3a());
        out.push('\n');
        out.push_str(&self.render_fig3b());
        out.push('\n');
        out.push_str(&self.render_table1());
        out.push('\n');
        for table in [
            self.table2.to_string(),
            self.table3.to_string(),
            self.table4.to_string(),
            self.table5.to_string(),
            self.table6.to_string(),
            self.table7.to_string(),
            self.table8.to_string(),
            self.table9.to_string(),
            self.table10.to_string(),
            self.table11.to_string(),
            self.table12.to_string(),
            self.table13.to_string(),
        ] {
            out.push_str(&table);
            out.push('\n');
        }
        if !self.transition_path_changes.is_empty() {
            out.push_str("Transition removals attributable to IPv6 route changes:\n");
            for (v, transitions, changed) in &self.transition_path_changes {
                out.push_str(&format!("  {v}: {changed} of {transitions}\n"));
            }
            out.push('\n');
        }
        if self.xlat.is_some() {
            out.push_str(&self.render_xlat());
            out.push('\n');
        }
        if self.panel.is_some() {
            out.push_str(&self.render_panel());
            out.push('\n');
        }
        out.push_str(&self.better_v6.to_string());
        out.push('\n');
        out.push_str(&format!("{}\n{}\n", self.h1.summary, self.h2.summary));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Report::build is exercised end-to-end in study.rs tests and the
    // integration suite; here we cover the standalone helpers.

    #[test]
    fn list_only_db_filters() {
        let mut db = MonitorDb::new("Penn");
        db.record_mut(SiteId(1), 0).has_a = true;
        db.record_mut(SiteId(99), 0).has_a = true;
        let filtered = list_only_db(&db, 50);
        assert!(filtered.record(SiteId(1)).is_some());
        assert!(filtered.record(SiteId(99)).is_none());
        assert_eq!(filtered.vantage, "Penn");
    }
}
