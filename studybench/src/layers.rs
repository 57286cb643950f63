//! The per-layer metrics of the traced run, computed from its spans, obs
//! counters and probe replay. Each metric is named by crate; a metric
//! that does not apply to a workload reads 0 and carries the reason.

use crate::replay::ClassLatency;
use crate::study::TracedOutcome;
use crate::trace::{fold, row, unattributed_frac};

/// One per-layer metric of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value (0 when not applicable).
    pub value: f64,
    /// Why the metric does not apply to this workload, if it does not.
    pub not_applicable: Option<&'static str>,
}

/// Every per-layer metric, in output order: `(name, unit, higher is
/// better)`. `BENCHMARK.json` lists the same names.
pub const LAYER_METRICS: [(&str, &str, bool); 48] = [
    ("topology.generate_s", "s", false),
    ("web.population_s", "s", false),
    ("web.zone_s", "s", false),
    ("monitor.vantage_population_s", "s", false),
    ("bgp.tables_s", "s", false),
    ("bgp.routes_computed", "count", false),
    ("bgp.epoch_s", "s", false),
    ("bgp.epoch_reuse_rate", "ratio", true),
    ("xlat.wiring_s", "s", false),
    ("xlat.translated_paths", "count", false),
    ("monitor.campaign_s.count", "count", false),
    ("monitor.campaign_s.sum", "s", false),
    ("monitor.campaign_s.max", "s", false),
    ("monitor.day_rounds_s", "s", false),
    ("monitor.probe_ns.v4_only.p50", "ns", false),
    ("monitor.probe_ns.v4_only.p99", "ns", false),
    ("monitor.probe_ns.measured.p50", "ns", false),
    ("monitor.probe_ns.measured.p99", "ns", false),
    ("monitor.probe_ns.other.p50", "ns", false),
    ("monitor.probe_ns.other.p99", "ns", false),
    ("monitor.probes", "count", false),
    ("monitor.probes.v4_only", "count", false),
    ("monitor.probes.measured", "count", false),
    ("monitor.probes.other", "count", false),
    ("monitor.round_overhead_frac", "ratio", false),
    ("monitor.checkpoint_s", "s", false),
    ("monitor.checkpoint_mb", "MiB", false),
    ("stats.rng_derive_ns", "ns", false),
    ("dns.resolve_ns", "ns", false),
    ("dns.queries", "count", false),
    ("dns.cache_hit_rate", "ratio", true),
    ("bgp.route_lookup_ns", "ns", false),
    ("netsim.path_metrics_ns", "ns", false),
    ("web.http_ns", "ns", false),
    ("netsim.download_ns", "ns", false),
    ("stats.ci_decide_ns", "ns", false),
    ("monitor.downloads_per_sample", "ratio", false),
    ("monitor.downloads", "count", false),
    ("faults.retried", "count", false),
    ("faults.injected_total", "count", false),
    ("dns64.synthesized", "count", false),
    ("analysis.vantage_s", "s", false),
    ("core.report_s", "s", false),
    ("core.shape_checks_held", "count", true),
    ("par.efficiency", "ratio", true),
    ("obs.probe_overhead_frac", "ratio", false),
    ("obs.trace_overhead_frac", "ratio", false),
    ("bench.unattributed_frac", "ratio", false),
];

/// The obs counters that must repeat exactly on every traced run of one
/// `(workload, seed)`.
pub const EXACT_COUNTERS: [&str; 13] = [
    "monitor.probes",
    "monitor.outcome.v4_only",
    "monitor.outcome.measured",
    "monitor.downloads",
    "dns.queries",
    "dns.cache_hits",
    "bgp.routes_computed",
    "bgp.epoch.reused",
    "bgp.epoch.recomputed",
    "xlat.translated_paths",
    "faults.probe.retried",
    "faults.injected_total",
    "dns64.synthesized",
];

/// Computes every per-layer metric of a traced run. `untraced_study_s` is
/// the untraced study of the same run, for the tracing overhead.
pub fn layer_metrics(t: &TracedOutcome, untraced_study_s: f64) -> Vec<LayerMetric> {
    let rows = fold(&t.spans);
    let sum_s = |name: &str| row(&rows, name).map_or(0.0, |r| r.sum_ns as f64 * 1e-9);
    let has = |name: &str| row(&rows, name).is_some();
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let class = |name: &str| -> ClassLatency {
        t.replay.classes.iter().find(|k| k.class == name).cloned().unwrap_or_default()
    };

    let probes = c("monitor.probes");
    let v4_only = c("monitor.outcome.v4_only");
    let measured = c("monitor.outcome.measured");
    let other = probes.saturating_sub(v4_only + measured);
    let reused = c("bgp.epoch.reused");
    let recomputed = c("bgp.epoch.recomputed");

    // busy time inside probe_site, estimated from the replay's per-class
    // means scaled to obs counters on (as in the traced study), over the
    // busy time of the rounds that ran those probes
    let probe_busy_s = [("v4_only", v4_only), ("measured", measured), ("other", other)]
        .iter()
        .map(|(name, n)| class(name).mean_ns * *n as f64 * 1e-9)
        .sum::<f64>()
        * t.replay.obs_factor;
    let round_busy_s = sum_s("monitor.campaign") + sum_s("monitor.day_rounds");
    let campaign_wall_s = sum_s("stage.campaigns");
    let campaign = row(&rows, "monitor.campaign");

    let no_xlat = (!has("xlat.wiring")).then_some("no NAT64 gateways in this workload");
    let no_ckpt = t.checkpoints.is_none().then_some("replayed on chaos only");
    let no_class =
        |name: &str| (class(name).count == 0).then_some("no sampled probe ended in this class");
    let ckpt = t.checkpoints.clone().unwrap_or_default();

    let mut out = Vec::with_capacity(LAYER_METRICS.len());
    for (name, unit, _) in LAYER_METRICS {
        let (value, na): (f64, Option<&'static str>) = match name {
            "topology.generate_s" => (sum_s("topology.generate"), None),
            "web.population_s" => (sum_s("web.population"), None),
            "web.zone_s" => (sum_s("web.zone"), None),
            "monitor.vantage_population_s" => (
                sum_s("monitor.vantage_population"),
                (!has("monitor.vantage_population"))
                    .then_some("the Table 1 vantages are placed, not generated"),
            ),
            "bgp.tables_s" => (sum_s("bgp.tables"), None),
            "bgp.routes_computed" => (c("bgp.routes_computed") as f64, None),
            "bgp.epoch_s" => {
                (sum_s("bgp.epoch"), (!has("bgp.epoch")).then_some("no route-change epoch"))
            }
            "bgp.epoch_reuse_rate" => (
                ratio(reused, reused + recomputed),
                (reused + recomputed == 0)
                    .then_some("streamed route tables keep no store to reuse"),
            ),
            "xlat.wiring_s" => (sum_s("xlat.wiring"), no_xlat),
            "xlat.translated_paths" => (c("xlat.translated_paths") as f64, no_xlat),
            "monitor.campaign_s.count" => (campaign.map_or(0.0, |r| r.count as f64), None),
            "monitor.campaign_s.sum" => (sum_s("monitor.campaign"), None),
            "monitor.campaign_s.max" => (campaign.map_or(0.0, |r| r.max_ns as f64 * 1e-9), None),
            "monitor.day_rounds_s" => (sum_s("monitor.day_rounds"), None),
            "monitor.probe_ns.v4_only.p50" => (class("v4_only").p50_ns, no_class("v4_only")),
            "monitor.probe_ns.v4_only.p99" => (class("v4_only").p99_ns, no_class("v4_only")),
            "monitor.probe_ns.measured.p50" => (class("measured").p50_ns, no_class("measured")),
            "monitor.probe_ns.measured.p99" => (class("measured").p99_ns, no_class("measured")),
            "monitor.probe_ns.other.p50" => (class("other").p50_ns, no_class("other")),
            "monitor.probe_ns.other.p99" => (class("other").p99_ns, no_class("other")),
            "monitor.probes" => (probes as f64, None),
            "monitor.probes.v4_only" => (v4_only as f64, None),
            "monitor.probes.measured" => (measured as f64, None),
            "monitor.probes.other" => (other as f64, None),
            // an estimate: below 0 when the replayed probes ran slower
            // than the campaign's own
            "monitor.round_overhead_frac" => {
                (if round_busy_s > 0.0 { 1.0 - probe_busy_s / round_busy_s } else { 0.0 }, None)
            }
            "monitor.checkpoint_s" => (ckpt.seconds, no_ckpt),
            "monitor.checkpoint_mb" => (ckpt.bytes as f64 / (1024.0 * 1024.0), no_ckpt),
            "stats.rng_derive_ns" => (t.replay.rng_derive_ns, None),
            "dns.resolve_ns" => (t.replay.resolve_ns, None),
            "dns.queries" => (c("dns.queries") as f64, None),
            "dns.cache_hit_rate" => (ratio(c("dns.cache_hits"), c("dns.queries")), None),
            "bgp.route_lookup_ns" => (t.replay.route_lookup_ns, None),
            "netsim.path_metrics_ns" => (t.replay.path_metrics_ns, None),
            "web.http_ns" => (t.replay.http_ns, None),
            "netsim.download_ns" => (t.replay.download_ns, None),
            "stats.ci_decide_ns" => (t.replay.ci_decide_ns, None),
            "monitor.downloads_per_sample" => {
                (ratio(c("monitor.downloads"), t.accepted_samples), None)
            }
            "monitor.downloads" => (c("monitor.downloads") as f64, None),
            "faults.retried" => (
                c("faults.probe.retried") as f64,
                (c("faults.injected_total") == 0).then_some("no fault plan"),
            ),
            "faults.injected_total" => (
                c("faults.injected_total") as f64,
                (c("faults.injected_total") == 0).then_some("no fault plan"),
            ),
            "dns64.synthesized" => (
                c("dns64.synthesized") as f64,
                no_xlat.map(|_| "no DNS64 resolvers in this workload"),
            ),
            "analysis.vantage_s" => (sum_s("analysis.vantage"), None),
            "core.report_s" => (sum_s("core.report"), None),
            "core.shape_checks_held" => (t.shape_checks_held as f64, None),
            "par.efficiency" => {
                let threads = t.threads.max(1) as f64;
                let eff = if campaign_wall_s > 0.0 {
                    sum_s("monitor.campaign") / (campaign_wall_s * threads)
                } else {
                    0.0
                };
                (eff, None)
            }
            "obs.probe_overhead_frac" => (t.replay.obs_factor - 1.0, None),
            "obs.trace_overhead_frac" => (
                if untraced_study_s > 0.0 { t.study_s / untraced_study_s - 1.0 } else { 0.0 },
                None,
            ),
            "bench.unattributed_frac" => (unattributed_frac(&t.spans), None),
            other => unreachable!("unlisted per-layer metric {other}"),
        };
        out.push(LayerMetric { name, unit, value, not_applicable: na });
    }
    out
}
