//! The study's probe population, walked without probing: how many probes
//! a study of a world makes, and a deterministic sample of its weekly
//! rounds for the per-layer replay.
//!
//! The walk mirrors the round loop of `run_campaign_resumable` (outage
//! weeks skip the ingest and the round; the ranked list and, for vantages
//! with external inputs, the churned-in tail join the monitored set) and
//! the World IPv6 Day rounds of the study driver. The traced run checks
//! the count against the `monitor.probes` counter.

use ipv6web_alexa::MonitoredSet;
use ipv6web_core::World;
use ipv6web_stats::derive_rng;
use rand::seq::SliceRandom;

/// One weekly campaign probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeKey {
    /// Index into `world.vantages`.
    pub vantage: usize,
    /// Campaign week.
    pub week: u32,
    /// Site id.
    pub site: u32,
}

/// The probe population of one study.
#[derive(Debug, Clone, Default)]
pub struct ProbePlan {
    /// Probes made by the weekly campaigns.
    pub campaign: u64,
    /// Probes made by the World IPv6 Day rounds.
    pub day: u64,
    /// The sampled campaign probes: whole rounds ordered by vantage, then
    /// week, each in its campaign order.
    pub sample: Vec<ProbeKey>,
}

impl ProbePlan {
    /// Every probe the study makes.
    pub fn total(&self) -> u64 {
        self.campaign + self.day
    }
}

/// Visits each vantage's weekly rounds with the monitored set as the
/// round sees it.
fn walk_rounds(world: &World, mut visit: impl FnMut(usize, u32, &MonitoredSet)) {
    let total_weeks = world.scenario.campaign.total_weeks;
    for (vi, v) in world.vantages.iter().enumerate() {
        let mut monitored = MonitoredSet::new();
        for week in v.start_week..total_weeks {
            if world.injector.as_ref().is_some_and(|inj| inj.vantage_out(&v.name, week)) {
                continue;
            }
            monitored.ingest(week, world.list.snapshot(week));
            if v.external_inputs {
                let sites = &world.sites;
                monitored.ingest(
                    week,
                    world
                        .tail_ids
                        .iter()
                        .copied()
                        .filter(|&id| sites[id as usize].first_seen_week <= week),
                );
            }
            visit(vi, week, &monitored);
        }
    }
}

/// Counts the study's probes; the sample is left empty.
pub fn count(world: &World) -> ProbePlan {
    let mut campaign = 0u64;
    walk_rounds(world, |_, _, m| campaign += m.len() as u64);
    let day_vantages =
        world.vantages.iter().filter(|v| v.has_as_path && v.name != "Comcast").count() as u64;
    let day = day_vantages
        * u64::from(world.scenario.campaign.ipv6_day_rounds)
        * world.ipv6_day_participants().len() as u64;
    ProbePlan { campaign, day, sample: Vec::new() }
}

/// [`count`] plus a sample of whole weekly rounds holding at least
/// `target` probes (or every round, if the study has fewer). Rounds are
/// taken in the order of a hash of `(seed, vantage, week)`, so the sample
/// depends only on the world and the target; each round's probes come in
/// the order the campaign shuffles them into.
pub fn sample(world: &World, target: usize) -> ProbePlan {
    let mut plan = count(world);
    let seed = world.scenario.seed;
    let mut rounds: Vec<(u64, usize, u32, usize)> = Vec::new();
    walk_rounds(world, |vantage, week, m| {
        rounds.push((mix(seed, vantage as u64, u64::from(week)), vantage, week, m.len()))
    });
    rounds.sort_unstable();
    let mut chosen: Vec<(usize, u32)> = Vec::new();
    let mut taken = 0;
    for &(_, vantage, week, n) in &rounds {
        if taken >= target {
            break;
        }
        chosen.push((vantage, week));
        taken += n;
    }
    chosen.sort_unstable();
    let mut sample = Vec::with_capacity(taken);
    walk_rounds(world, |vantage, week, m| {
        if chosen.binary_search(&(vantage, week)).is_ok() {
            let mut order: Vec<u32> = m.members().collect();
            let name = &world.vantages[vantage].name;
            order.shuffle(&mut derive_rng(seed, &format!("{name}:order:{week}")));
            sample.extend(order.into_iter().map(|site| ProbeKey { vantage, week, site }));
        }
    });
    plan.sample = sample;
    plan
}

/// SplitMix64 finalizer over a round's key.
fn mix(seed: u64, vantage: u64, week: u64) -> u64 {
    let mut z = seed ^ vantage.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (week << 40);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
