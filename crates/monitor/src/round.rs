//! Campaign execution: weekly rounds, each on one thread.
//!
//! Mirrors the tool's structure from Fig 2: each round refreshes the
//! ranked list (new sites join the monitored set permanently), randomizes
//! the site order, and probes the sites in that order. The paper's tool
//! spread a round over up to 25 threads because its probes waited on real
//! networks. Here a probe is a CPU-bound function of
//! `(seed, vantage, week, site)`, so a round runs one loop on the calling
//! thread with its own resolver, loading the lines of the sites coming up
//! before their probes start; a study's threads go to its vantage points
//! instead.
//!
//! A probe that panics is a bug: the panic reaches the caller and the
//! round keeps nothing. Injected faults are outcomes, not panics; an
//! injected vantage outage skips whole rounds (recorded in
//! [`MonitorDb::outage_weeks`]), and with a checkpoint directory the
//! database is snapshotted after every round so
//! [`run_campaign_resumable`] can pick up where a crashed or
//! powered-down vantage point left off.

use crate::db::MonitorDb;
use crate::probe::{probe_site, ProbeContext, ProbeOutcome};
use crate::vantage::VantagePoint;
use ipv6web_alexa::{MonitoredSet, TopList};
use ipv6web_dns::Resolver;
use ipv6web_par::prefetch;
use ipv6web_stats::{fnv1a64, RngLabel};
use ipv6web_web::SiteId;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Campaign execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Campaign length, weeks (one round per week, as the paper's
    /// "approximately bi-weekly to weekly" cadence).
    pub total_weeks: u32,
    /// Number of World IPv6 Day rounds (paper: every 30 min for a day).
    pub ipv6_day_rounds: u32,
}

impl CampaignConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        CampaignConfig { total_weeks: 52, ipv6_day_rounds: 48 }
    }

    /// A fast configuration for tests.
    pub fn test_small() -> Self {
        CampaignConfig { total_weeks: 20, ipv6_day_rounds: 4 }
    }
}

/// A checkpoint directory the tool refuses to write into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The checkpoint directory's parent does not exist — almost always a
    /// typo'd path. Creating the whole chain silently (what
    /// `create_dir_all` would do) hides the typo until gigabytes of
    /// checkpoints land in the wrong place, so it is rejected up front.
    CheckpointDirMissingParent {
        /// The requested checkpoint directory.
        path: PathBuf,
        /// The parent that would have to exist.
        parent: PathBuf,
    },
    /// The checkpoint path (or its parent) exists but is not a directory,
    /// so every atomic temp+rename checkpoint write would fail mid-run.
    CheckpointDirNotADirectory {
        /// The offending path.
        path: PathBuf,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CheckpointDirMissingParent { path, parent } => write!(
                f,
                "checkpoint directory {} cannot be created: parent {} does not exist",
                path.display(),
                parent.display()
            ),
            ConfigError::CheckpointDirNotADirectory { path } => {
                write!(f, "checkpoint path {} is not a directory", path.display())
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates a checkpoint (or job-store) directory **before** any
/// long-running work starts: the path must either already be a directory,
/// or be creatable as a single new directory under an existing parent.
///
/// `repro --checkpoint-dir` used to accept any string and only fail
/// minutes later, when the first atomic temp+rename checkpoint write hit
/// the bad path; callers now get a typed [`ConfigError`] immediately.
pub fn validate_checkpoint_dir(dir: &Path) -> Result<(), ConfigError> {
    if dir.exists() {
        if dir.is_dir() {
            return Ok(());
        }
        return Err(ConfigError::CheckpointDirNotADirectory { path: dir.to_path_buf() });
    }
    // Not existing yet is fine — but only one level deep: the parent must
    // already be there. A relative single-component path ("ckpt") has the
    // current directory as its implicit, existing parent.
    let parent = match dir.parent() {
        None => return Ok(()),
        Some(p) if p.as_os_str().is_empty() => return Ok(()),
        Some(p) => p,
    };
    if !parent.exists() {
        return Err(ConfigError::CheckpointDirMissingParent {
            path: dir.to_path_buf(),
            parent: parent.to_path_buf(),
        });
    }
    if !parent.is_dir() {
        return Err(ConfigError::CheckpointDirNotADirectory { path: parent.to_path_buf() });
    }
    Ok(())
}

/// Why a campaign could not run (or stopped).
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint directory failed [`validate_checkpoint_dir`].
    Config(ConfigError),
    /// A per-round checkpoint could not be written.
    Checkpoint {
        /// The snapshot path that failed.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The checkpoint directory was stamped by a study with a different
    /// vantage population; resuming would silently misattribute rounds.
    PopulationMismatch {
        /// The stamp file.
        path: PathBuf,
        /// Vantage count recorded in the stamp.
        stamped_count: usize,
        /// Population hash recorded in the stamp.
        stamped_hash: u64,
        /// Vantage count of the current study.
        count: usize,
        /// Population hash of the current study.
        hash: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Config(e) => write!(f, "{e}"),
            CampaignError::Checkpoint { path, source } => {
                write!(f, "checkpoint {} failed: {source}", path.display())
            }
            CampaignError::PopulationMismatch {
                path,
                stamped_count,
                stamped_hash,
                count,
                hash,
            } => {
                write!(
                    f,
                    "checkpoint dir was written for a different vantage population \
                     ({} records {stamped_count} vantages, hash {stamped_hash:016x}; \
                     this study has {count} vantages, hash {hash:016x}) — resume with \
                     the matching scenario or use a fresh --checkpoint-dir",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Config(e) => Some(e),
            CampaignError::Checkpoint { source, .. } => Some(source),
            CampaignError::PopulationMismatch { .. } => None,
        }
    }
}

/// Applies one probe outcome to the database.
fn apply_outcome(
    db: &mut MonitorDb,
    site: SiteId,
    added_week: u32,
    week: u32,
    outcome: ProbeOutcome,
) {
    use ProbeOutcome::*;
    let rec = db.record_mut(site, added_week);
    // what the round's DNS answers said about the site's records
    match outcome {
        // nothing can be concluded about the site's records this round
        DnsFailure => {}
        NxDomain => rec.has_a = false,
        V4Only => {
            rec.has_a = true;
            rec.has_aaaa = false;
        }
        Unroutable(_)
        | DifferentContent
        | Measured { .. }
        | Unconfident(_)
        | Malformed
        | TimedOut(_) => {
            rec.has_a = true;
            rec.has_aaaa = true;
            rec.dual_since.get_or_insert(week);
        }
    }
    // what the exchange and the performance round added
    match outcome {
        NxDomain | V4Only | Unroutable(_) => {}
        DifferentContent => rec.content_identical = Some(false),
        Measured { v4, v6 } => {
            rec.content_identical = Some(true);
            rec.samples_v4.push(v4);
            rec.samples_v6.push(v6);
        }
        Unconfident(_) => rec.unconfident_rounds += 1,
        // the exchange tore after DNS said dual-stack: the performance
        // round is discarded (the sanitizer's job), reachability stands
        Malformed => rec.malformed_rounds += 1,
        DnsFailure | TimedOut(_) => rec.faulted_rounds += 1,
    }
}

/// A v6-only monitor runs behind a DNS64 recursive; everything else keeps
/// the plain resolver (and its byte-identical answer stream).
fn resolver_for(ctx: &ProbeContext<'_>) -> Resolver {
    if ctx.stack.translates_v4() {
        Resolver::dns64()
    } else {
        Resolver::new()
    }
}

/// The round's probe order: a shuffle "to avoid time-of-day biases" of the
/// positions `0..n` of the round's sites, drawn from the
/// `{vantage}:order:{week}` stream. Fisher–Yates swaps depend only on the
/// length and the stream, so `sites[order[k]]` is the `k`-th site of the
/// same shuffle applied to the sites themselves.
fn round_order(seed: u64, vantage: &str, week: u32, n: usize) -> Vec<u32> {
    let n = u32::try_from(n).expect("u32 site ids bound the round size");
    let mut order: Vec<u32> = (0..n).collect();
    let mut rng = RngLabel::new().push_str(vantage).push_str(":order:").push_u32(week).rng(seed);
    order.shuffle(&mut rng);
    order
}

/// How many positions of the round's order ahead of the running probe a
/// round loads a `Site`, and the zone entry and outcome slot it leads to.
/// One probe outlasts a memory miss: on `internet-smoke` the traced median
/// is ~0.3 µs for a v4-only probe and ~3 µs for a measured one. Distances
/// of 16 and 8 measured no better, though before resolver misses skipped
/// the wire codec.
const SITE_AHEAD: usize = 2;
const ENTRY_AHEAD: usize = 1;

/// Probes `sites[order[0]], sites[order[1]], …` in turn on the calling
/// thread with one resolver, and returns each outcome at its site's
/// position in `sites`, so callers never observe the probe order. Every
/// slot is `Some`: `order` is a permutation of `0..sites.len()`, and a
/// panicking probe panics the caller.
fn run_round(
    ctx: &ProbeContext<'_>,
    sites: &[SiteId],
    order: &[u32],
    week: u32,
    salt: u32,
    ipv6_day_mode: bool,
) -> Vec<Option<ProbeOutcome>> {
    ipv6web_obs::inc("monitor.rounds");
    // Each round keeps its own resolver, like each of the paper's
    // monitoring threads resolving independently. It holds no cache, so
    // no probe's answers depend on the probes before it.
    let mut resolver = resolver_for(ctx);
    let mut out = vec![None; sites.len()];
    for (i, &k) in order.iter().enumerate() {
        // The shuffled order reaches each site's lines cold once a round
        // outgrows the cache: start loading the `Site` two positions ahead,
        // and the next position's zone entry and outcome slot (its `Site`
        // arrived a probe ago), while this probe runs.
        if let Some(&next) = order.get(i + SITE_AHEAD) {
            if let Some(site) = ctx.sites.get(sites[next as usize].index()) {
                prefetch(site);
            }
        }
        if let Some(&next) = order.get(i + ENTRY_AHEAD) {
            let next = next as usize;
            if let Some(site) = ctx.sites.get(sites[next].index()) {
                ctx.zone.prefetch(site.name);
            }
            if let Some(slot) = out.get(next) {
                prefetch(slot);
            }
        }
        let k = k as usize;
        out[k] = Some(probe_site(ctx, &mut resolver, sites[k], week, salt, ipv6_day_mode));
    }
    out
}

/// The checkpoint file a vantage point's campaign writes under `dir`:
/// the vantage name lowercased with non-alphanumerics mapped to `_`,
/// plus `.json`.
pub fn checkpoint_path(dir: &Path, vantage: &str) -> std::path::PathBuf {
    let slug: String = vantage
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    dir.join(format!("{slug}.json"))
}

/// Writes the per-round checkpoint, if a checkpoint directory was given.
fn checkpoint(db: &MonitorDb, dir: Option<&Path>) -> Result<(), CampaignError> {
    let Some(dir) = dir else { return Ok(()) };
    let path = checkpoint_path(dir, &db.vantage);
    db.save_json(&path).map_err(|source| CampaignError::Checkpoint { path, source })
}

/// FNV-1a hash over the serialized vantage list — the identity a checkpoint
/// directory is stamped with. Captures count, names, AS placement, start
/// weeks, and client stacks, so any population change flips it.
pub fn population_hash(vantages: &[VantagePoint]) -> u64 {
    let json = serde_json::to_string(&vantages.to_vec()).expect("vantages serialize");
    fnv1a64(json.as_bytes())
}

/// On-disk population stamp (`population.stamp.json` inside the
/// checkpoint directory).
#[derive(Serialize, Deserialize)]
struct PopulationStamp {
    count: usize,
    hash: u64,
}

/// Validates (or creates) the checkpoint directory's population stamp.
///
/// Vantage checkpoints are keyed by name slug only, so resuming a
/// directory written under one vantage population with a study that has
/// another would silently misattribute rounds. The first study to
/// checkpoint into `dir` writes `population.stamp.json`; every later study
/// must match it or gets a typed
/// [`CampaignError::PopulationMismatch`]. Directories written before the
/// stamp existed are accepted and stamped in place (legacy checkpoints
/// were always the Table 1 six).
pub fn check_population_stamp(dir: &Path, vantages: &[VantagePoint]) -> Result<(), CampaignError> {
    let path = dir.join("population.stamp.json");
    let count = vantages.len();
    let hash = population_hash(vantages);
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let stamp: PopulationStamp =
                serde_json::from_str(&text).map_err(|e| CampaignError::Checkpoint {
                    path: path.clone(),
                    source: std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("corrupt population stamp: {e}"),
                    ),
                })?;
            if stamp.count != count || stamp.hash != hash {
                return Err(CampaignError::PopulationMismatch {
                    path,
                    stamped_count: stamp.count,
                    stamped_hash: stamp.hash,
                    count,
                    hash,
                });
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let stamp =
                serde_json::to_string(&PopulationStamp { count, hash }).expect("stamp serializes");
            crate::store::write_atomic(&path, stamp.as_bytes())
                .map_err(|source| CampaignError::Checkpoint { path, source })
        }
        Err(source) => Err(CampaignError::Checkpoint { path, source }),
    }
}

/// Runs a full weekly campaign for one vantage point.
///
/// `list` supplies the ranked-list snapshots; `extra_ids` are the vantage
/// point's external inputs (Penn's DNS-cache tail), ingested when the
/// vantage point has `external_inputs` and the site has churned in.
/// `extra_first_seen(id)` gives each extra site's first availability week.
pub fn run_campaign(
    ctx: &ProbeContext<'_>,
    vantage: &VantagePoint,
    list: &TopList,
    extra_ids: &[u32],
    extra_first_seen: impl Fn(u32) -> u32,
    cfg: &CampaignConfig,
) -> Result<MonitorDb, CampaignError> {
    run_campaign_resumable(ctx, vantage, list, extra_ids, extra_first_seen, cfg, None, None)
}

/// [`run_campaign`] with crash recovery: `resume` continues a previous
/// partial run (its [`MonitorDb::completed_weeks`] rounds are skipped
/// without re-probing), and `checkpoint_dir` snapshots the database after
/// every round so the next invocation can resume from it.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_resumable(
    ctx: &ProbeContext<'_>,
    vantage: &VantagePoint,
    list: &TopList,
    extra_ids: &[u32],
    extra_first_seen: impl Fn(u32) -> u32,
    cfg: &CampaignConfig,
    resume: Option<MonitorDb>,
    checkpoint_dir: Option<&Path>,
) -> Result<MonitorDb, CampaignError> {
    let mut db = resume.unwrap_or_else(|| MonitorDb::new(vantage.name.clone()));
    let resume_from = db.completed_weeks.max(vantage.start_week);
    let mut monitored = MonitoredSet::new();
    for week in vantage.start_week..cfg.total_weeks {
        // an injected outage takes the whole vantage point down for the
        // round: nothing is probed, nothing enters the monitored set — the
        // site ingest below is skipped exactly as a dead monitor would
        // skip it, and churned-in sites join on recovery
        if let Some(pf) = ctx.faults {
            if pf.injector.vantage_out(&vantage.name, week) {
                if week >= resume_from {
                    ipv6web_faults::record_injection("faults.injected.vantage_outage");
                    db.outage_weeks.push(week);
                    db.completed_weeks = week + 1;
                    checkpoint(&db, checkpoint_dir)?;
                }
                continue;
            }
        }
        monitored.ingest(week, list.snapshot(week));
        if vantage.external_inputs {
            monitored
                .ingest(week, extra_ids.iter().copied().filter(|&id| extra_first_seen(id) <= week));
        }
        if week < resume_from {
            continue; // already probed by the run being resumed
        }
        // probed in a fresh random order, applied in ascending site order
        let members: Vec<SiteId> = monitored.members().map(SiteId).collect();
        let order = round_order(ctx.seed, &vantage.name, week, members.len());
        let results = run_round(ctx, &members, &order, week, 0, false);
        for (&site, outcome) in members.iter().zip(results) {
            let outcome = outcome.expect("run_round probes every site");
            let added = monitored.added_week(site.0).unwrap_or(week);
            apply_outcome(&mut db, site, added, week, outcome);
        }
        db.completed_weeks = week + 1;
        checkpoint(&db, checkpoint_dir)?;
    }
    Ok(db)
}

/// Runs the World IPv6 Day side experiment: `cfg.ipv6_day_rounds` rounds
/// against the participant subset, with server-side IPv6 penalties lifted.
/// Returns a separate database whose samples all carry the event week.
///
/// It cannot fail: it writes no checkpoints, and every campaign setting
/// is valid. It keeps its `Result` because the study benchmark
/// (`studybench/src/study.rs`) maps its error.
pub fn run_ipv6_day_rounds(
    ctx: &ProbeContext<'_>,
    vantage: &VantagePoint,
    participants: &[SiteId],
    event_week: u32,
    cfg: &CampaignConfig,
) -> Result<MonitorDb, CampaignError> {
    let mut db = MonitorDb::new(format!("{} (IPv6 Day)", vantage.name));
    // participants are probed in the order given
    let n = u32::try_from(participants.len()).expect("u32 site ids bound the participants");
    let order: Vec<u32> = (0..n).collect();
    for round in 0..cfg.ipv6_day_rounds {
        let results = run_round(ctx, participants, &order, event_week, round + 1, true);
        for (&site, outcome) in participants.iter().zip(results) {
            let outcome = outcome.expect("run_round probes every site");
            apply_outcome(&mut db, site, event_week, event_week, outcome);
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disturbance::{DisturbanceConfig, Disturbances};

    #[test]
    fn checkpoint_dir_validation() {
        let base = std::env::temp_dir().join("ipv6web-ckptdir-validate");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();

        // existing directory: fine
        assert_eq!(validate_checkpoint_dir(&base), Ok(()));
        // one missing level under an existing parent: fine
        assert_eq!(validate_checkpoint_dir(&base.join("fresh")), Ok(()));
        // bare relative component (implicit cwd parent): fine
        assert_eq!(validate_checkpoint_dir(Path::new("just-a-name")), Ok(()));

        // missing parent: typed, readable error naming both paths
        let deep = base.join("no-such-parent").join("ckpt");
        match validate_checkpoint_dir(&deep) {
            Err(ConfigError::CheckpointDirMissingParent { path, parent }) => {
                assert_eq!(path, deep);
                assert_eq!(parent, base.join("no-such-parent"));
                let msg = ConfigError::CheckpointDirMissingParent { path, parent }.to_string();
                assert!(msg.contains("does not exist"), "unreadable message: {msg}");
            }
            other => panic!("expected CheckpointDirMissingParent, got {other:?}"),
        }

        // path exists but is a file
        let file = base.join("a-file");
        std::fs::write(&file, b"x").unwrap();
        assert_eq!(
            validate_checkpoint_dir(&file),
            Err(ConfigError::CheckpointDirNotADirectory { path: file.clone() })
        );
        // parent exists but is a file
        assert_eq!(
            validate_checkpoint_dir(&file.join("ckpt")),
            Err(ConfigError::CheckpointDirNotADirectory { path: file.clone() })
        );
        std::fs::remove_dir_all(&base).ok();
    }
    use crate::probe::ProbeFaults;
    use ipv6web_bgp::BgpTable;
    use ipv6web_faults::{FaultInjector, FaultPlan, RetryPolicy, VantageOutage};
    use ipv6web_netsim::TcpConfig;
    use ipv6web_stats::RelativeCiRule;
    use ipv6web_topology::{generate as gen_topo, AsId, Family, Tier, TopologyConfig};
    use ipv6web_web::{build_zone, population, PopulationConfig, Site};

    struct World {
        topo: ipv6web_topology::Topology,
        sites: Vec<Site>,
        zone: ipv6web_dns::ZoneDb,
        table_v4: BgpTable,
        table_v6: BgpTable,
        disturbances: Disturbances,
        list: TopList,
        vantage: VantagePoint,
    }

    fn world(n_sites: usize) -> World {
        let topo = gen_topo(&TopologyConfig::test_small(), 77);
        let mut pop_cfg = PopulationConfig::test_small();
        pop_cfg.n_sites = n_sites;
        let (sites, names) = population::generate(&pop_cfg, &topo, 20, &[], 77);
        let zone = build_zone(&topo, &sites, names);
        let vantage_as =
            topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
        let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
        dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
        dests.sort();
        dests.dedup();
        let table_v4 = BgpTable::build(&topo, vantage_as, Family::V4, &dests);
        let table_v6 = BgpTable::build(&topo, vantage_as, Family::V6, &dests);
        let disturbances = Disturbances::generate(&DisturbanceConfig::paper(), sites.len(), 20, 77);
        let list = TopList::from_parts(sites.iter().map(|s| (s.id.0, s.rank, s.first_seen_week)));
        let vantage = VantagePoint {
            name: "TestVP".into(),
            location: "Lab".into(),
            as_id: vantage_as,
            start_week: 0,
            has_as_path: true,
            white_listed: false,
            kind: crate::vantage::VantageKind::Academic,
            external_inputs: false,
            stack: ipv6web_xlat::ClientStack::DualStack,
        };
        World { topo, sites, zone, table_v4, table_v6, disturbances, list, vantage }
    }

    fn ctx<'a>(w: &'a World) -> ProbeContext<'a> {
        ProbeContext {
            topo: &w.topo,
            sites: &w.sites,
            zone: &w.zone,
            table_v4: &w.table_v4,
            table_v6: &w.table_v6,
            disturbances: &w.disturbances,
            tcp: TcpConfig::paper(),
            ci_rule: RelativeCiRule::paper(),
            identity_threshold: 0.06,
            round_noise_sigma: 0.08,
            seed: 42,
            vantage_name: "TestVP",
            white_listed: false,
            v6_epoch: None,
            faults: None,
            stack: ipv6web_xlat::ClientStack::DualStack,
            xlat: None,
        }
    }

    #[test]
    fn campaign_produces_samples_for_dual_sites() {
        let w = world(400);
        let c = ctx(&w);
        let cfg = CampaignConfig::test_small();
        let db = run_campaign(&c, &w.vantage, &w.list, &[], |_| 0, &cfg).unwrap();
        assert!(db.len() > 300, "most sites monitored, got {}", db.len());
        let dual: Vec<SiteId> = db.dual_stack_sites().collect();
        assert!(!dual.is_empty(), "some dual-stack sites observed");
        let with_samples =
            dual.iter().filter(|s| !db.record(**s).unwrap().samples_v4.is_empty()).count();
        assert!(with_samples > 0, "performance samples collected");
        // v4-only sites must have no samples
        for (site, rec) in db.iter() {
            if rec.dual_since.is_none() {
                assert!(rec.samples_v4.is_empty(), "{site}: v4-only site sampled");
            }
        }
        assert_eq!(db.completed_weeks, cfg.total_weeks);
    }

    /// Shuffling positions and reading the sites through them gives the
    /// very order that shuffling the site list itself gives.
    #[test]
    fn round_order_maps_to_the_shuffled_site_list() {
        for seed in [0, 42, 7_777_777_777] {
            for vantage in ["Penn", "TestVP", "VP-017"] {
                for n in 0..=2000u32 {
                    let week = n % 53;
                    // ascending ids with gaps, like a monitored set's members
                    let members: Vec<SiteId> = (0..n).map(|i| SiteId(3 * i + 1)).collect();
                    let mut shuffled = members.clone();
                    let label = format!("{vantage}:order:{week}");
                    shuffled.shuffle(&mut ipv6web_stats::derive_rng(seed, &label));
                    let order = round_order(seed, vantage, week, members.len());
                    let mapped: Vec<SiteId> = order.iter().map(|&k| members[k as usize]).collect();
                    assert_eq!(mapped, shuffled, "seed {seed}, {label}, n = {n}");
                }
            }
        }
    }

    /// A round returns what probing `sites[order[k]]` in turn with one
    /// resolver returns, weekly rounds and IPv6-day rounds alike, rounds
    /// too short to look ahead in included.
    #[test]
    fn round_matches_plain_probe_loop() {
        let w = world(600);
        let base = ctx(&w);
        let plan = FaultPlan::demo(20);
        let injector = FaultInjector::new(plan.clone(), base.seed);
        let pf = ProbeFaults { injector: &injector, retry: plan.retry, v6_epochs: vec![] };
        let week = 7;
        for c in [base, ProbeContext { faults: Some(&pf), ..base }] {
            for n in [0, 1, 2, 3, 5, 211] {
                let sites: Vec<SiteId> = w.sites.iter().step_by(2).take(n).map(|s| s.id).collect();
                assert_eq!(sites.len(), n);
                let order = round_order(c.seed, "TestVP", week, n);
                if n > 3 {
                    assert!(order.windows(2).any(|p| p[0] > p[1]), "order is shuffled");
                }
                for (salt, day) in [(0, false), (3, true)] {
                    let mut resolver = resolver_for(&c);
                    let mut want = vec![None; n];
                    for &k in &order {
                        let k = k as usize;
                        want[k] = Some(probe_site(&c, &mut resolver, sites[k], week, salt, day));
                    }
                    let got = run_round(&c, &sites, &order, week, salt, day);
                    assert_eq!(got.len(), n);
                    for (pos, (g, w)) in got.iter().zip(&want).enumerate() {
                        let faults = c.faults.is_some();
                        assert_eq!(g, w, "n = {n}, salt {salt}, position {pos}, faults {faults}");
                    }
                }
            }
        }
    }

    #[test]
    fn late_start_vantage_sees_fewer_weeks() {
        let w = world(150);
        let c = ctx(&w);
        let mut late = w.vantage.clone();
        late.start_week = 15;
        let cfg = CampaignConfig::test_small();
        let db = run_campaign(&c, &late, &w.list, &[], |_| 0, &cfg).unwrap();
        for (_, rec) in db.iter() {
            assert!(rec.added_week >= 15);
            for s in rec.samples_v4.iter().chain(&rec.samples_v6) {
                assert!(s.week >= 15);
            }
        }
    }

    #[test]
    fn external_inputs_only_for_flagged_vantage() {
        let w = world(100);
        let c = ctx(&w);
        let mut cfg = CampaignConfig::test_small();
        cfg.total_weeks = 3;
        let extra = [5000u32, 5001];
        // not flagged: extras ignored (and they're beyond the site vec, so
        // probing them would panic — their absence proves they're skipped)
        let db = run_campaign(&c, &w.vantage, &w.list, &extra, |_| 0, &cfg).unwrap();
        assert!(db.record(SiteId(5000)).is_none());
    }

    #[test]
    fn churned_sites_join_late() {
        let w = world(300);
        let c = ctx(&w);
        let cfg = CampaignConfig::test_small();
        let db = run_campaign(&c, &w.vantage, &w.list, &[], |_| 0, &cfg).unwrap();
        let late_site = w
            .sites
            .iter()
            .find(|s| (5..cfg.total_weeks - 1).contains(&s.first_seen_week))
            .expect("some churned site");
        let rec = db.record(late_site.id).expect("monitored eventually");
        assert_eq!(rec.added_week, late_site.first_seen_week);
    }

    #[test]
    fn reachability_grows_over_campaign() {
        let w = world(500);
        let c = ctx(&w);
        let cfg = CampaignConfig::test_small();
        let db = run_campaign(&c, &w.vantage, &w.list, &[], |_| 0, &cfg).unwrap();
        let early = db.reachability_at(1);
        let late = db.reachability_at(cfg.total_weeks - 1);
        // churn adds v4-only sites to the denominator, so small dips are
        // legitimate; collapse is not (this population publishes all AAAA
        // records from week 0)
        assert!(late >= early * 0.8, "reachability must not collapse: {early} -> {late}");
        assert!(late > 0.0);
    }

    #[test]
    fn ipv6_day_rounds_accumulate_samples() {
        let w = world(300);
        let c = ctx(&w);
        let cfg = CampaignConfig::test_small();
        let participants: Vec<SiteId> = w
            .sites
            .iter()
            .filter(|s| s.v6.as_ref().is_some_and(|v| v.ipv6_day_participant && v.from_week <= 10))
            .map(|s| s.id)
            .collect();
        assert!(!participants.is_empty(), "some participants in population");
        let db = run_ipv6_day_rounds(&c, &w.vantage, &participants, 10, &cfg).unwrap();
        let sampled = participants
            .iter()
            .filter(|s| db.record(**s).is_some_and(|r| r.samples_v4.len() >= 2))
            .count();
        assert!(sampled > 0, "multiple rounds must stack samples");
        // all samples carry the event week
        for (_, rec) in db.iter() {
            for s in rec.samples_v4.iter().chain(&rec.samples_v6) {
                assert_eq!(s.week, 10);
            }
        }
    }

    #[test]
    fn resumed_campaign_matches_uninterrupted_run() {
        let w = world(120);
        let c = ctx(&w);
        let mut cfg = CampaignConfig::test_small();
        cfg.total_weeks = 6;
        let full = run_campaign(&c, &w.vantage, &w.list, &[], |_| 0, &cfg).unwrap();

        // simulate a crash after week 2 by running a truncated campaign...
        let mut head_cfg = cfg;
        head_cfg.total_weeks = 3;
        let partial = run_campaign(&c, &w.vantage, &w.list, &[], |_| 0, &head_cfg).unwrap();
        assert_eq!(partial.completed_weeks, 3);
        // ...then resuming it to the full horizon
        let resumed =
            run_campaign_resumable(&c, &w.vantage, &w.list, &[], |_| 0, &cfg, Some(partial), None)
                .unwrap();
        assert_eq!(resumed, full, "resume must not re-probe or skip any round");
    }

    #[test]
    fn checkpoints_written_every_round_and_loadable() {
        let w = world(60);
        let c = ctx(&w);
        let mut cfg = CampaignConfig::test_small();
        cfg.total_weeks = 3;
        let dir = std::env::temp_dir().join("ipv6web-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let db =
            run_campaign_resumable(&c, &w.vantage, &w.list, &[], |_| 0, &cfg, None, Some(&dir))
                .unwrap();
        let snap = MonitorDb::load_json(dir.join("testvp.json")).unwrap();
        assert_eq!(snap, db, "final checkpoint equals the returned database");
        std::fs::remove_file(dir.join("testvp.json")).ok();
    }

    #[test]
    fn population_stamp_detects_mismatch() {
        use crate::vantage::VantagePoint;
        let dir = std::env::temp_dir().join("ipv6web-popstamp-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let ids: Vec<ipv6web_topology::AsId> = (0..6).map(ipv6web_topology::AsId).collect();
        let six = VantagePoint::paper_table1(&ids);
        // legacy dir without a stamp: accepted, stamped in place
        check_population_stamp(&dir, &six).unwrap();
        assert!(dir.join("population.stamp.json").exists());
        // the same population resumes fine
        check_population_stamp(&dir, &six).unwrap();
        // a dir written with 6 must reject a resume with 200
        let mut big = Vec::new();
        for i in 0..200u32 {
            let mut v = six[0].clone();
            v.name = format!("VP-{i:03}");
            v.as_id = ipv6web_topology::AsId(1000 + i);
            big.push(v);
        }
        match check_population_stamp(&dir, &big) {
            Err(CampaignError::PopulationMismatch { stamped_count, count, .. }) => {
                assert_eq!(stamped_count, 6);
                assert_eq!(count, 200);
            }
            other => panic!("expected PopulationMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_outage_skips_rounds_and_recovers() {
        let w = world(100);
        let base = ctx(&w);
        let mut cfg = CampaignConfig::test_small();
        cfg.total_weeks = 8;
        let mut plan = FaultPlan::default();
        plan.vantage_outages.push(VantageOutage {
            vantage: "TestVP".into(),
            from_week: 2,
            weeks: 2,
        });
        let injector = FaultInjector::new(plan, base.seed);
        let pf =
            ProbeFaults { injector: &injector, retry: RetryPolicy::paper(), v6_epochs: vec![] };
        let c = ProbeContext { faults: Some(&pf), ..base };
        let db = run_campaign(&c, &w.vantage, &w.list, &[], |_| 0, &cfg).unwrap();
        assert_eq!(db.outage_weeks, vec![2, 3]);
        assert_eq!(db.completed_weeks, cfg.total_weeks);
        for (_, rec) in db.iter() {
            for s in rec.samples_v4.iter().chain(&rec.samples_v6) {
                assert!(s.week != 2 && s.week != 3, "no samples during the outage");
            }
        }
        // rounds resumed after the outage window
        assert!(db.iter().any(|(_, r)| r.samples_v4.iter().any(|s| s.week > 3)));
    }
}
