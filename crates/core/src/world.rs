//! World construction: topology, population, DNS, vantage points, tables.

use crate::scenario::Scenario;
use ipv6web_alexa::TopList;
use ipv6web_bgp::{BgpTable, Flips, RouteChain};
use ipv6web_faults::FaultInjector;
use ipv6web_monitor::{
    Disturbances, PopulationError, ProbeContext, ProbeFaults, ProbeXlat, VantageCountError,
    VantagePoint,
};
use ipv6web_stats::derive_rng;
use ipv6web_topology::{
    generate as generate_topology, AsId, EdgeId, Family, Region, Tier, Topology,
};
use ipv6web_web::{build_zone, population, Site};
use rand::seq::SliceRandom;

/// A fully built simulated world, ready for monitoring.
pub struct World {
    /// The scenario it was built from.
    pub scenario: Scenario,
    /// The dual-stack AS topology.
    pub topo: Topology,
    /// All sites: ranked-list sites first (`0..n_sites`), then the
    /// DNS-cache tail.
    pub sites: Vec<Site>,
    /// Authoritative DNS for every site.
    pub zone: ipv6web_dns::ZoneDb,
    /// The ranked list (list sites only; the tail enters through Penn's
    /// external inputs).
    pub list: TopList,
    /// Site ids of the tail.
    pub tail_ids: Vec<u32>,
    /// The six vantage points of Table 1.
    pub vantages: Vec<VantagePoint>,
    /// Per-vantage `(IPv4, IPv6)` BGP tables, in `vantages` order.
    pub tables: Vec<(BgpTable, BgpTable)>,
    /// Cumulative v6 routing epochs `(week, per-vantage tables)` sorted by
    /// week, tables in `vantages` order: the scenario's scheduled route
    /// change and, under fault injection, every BGP session flap, the
    /// scenario event first on ties. Probes walk the whole chain when
    /// faults are active; without faults it holds the scenario event alone.
    v6_epochs: Vec<(u32, Vec<BgpTable>)>,
    /// Where the scenario's route change sits in `v6_epochs`; read it
    /// through [`World::scenario_epoch`].
    scenario_epoch: Option<usize>,
    /// The post-epoch topology (for diagnostics and path-change
    /// attribution), when scheduled.
    pub topo_late: Option<Topology>,
    /// Injected performance disturbances.
    pub disturbances: Disturbances,
    /// The fault injector, when the scenario's plan is non-empty.
    pub injector: Option<FaultInjector>,
    /// The NAT64 translation plane, when the scenario places gateways.
    pub xlat: Option<XlatWorld>,
}

/// The built NAT64/DNS64 plane: where the translators sit, what each one
/// costs, their onward v4 tables, and every vantage point's gateway
/// preference order.
pub struct XlatWorld {
    /// Gateway placement, per-gateway cost model, and per-gateway IPv4
    /// route tables toward every site.
    pub wiring: ipv6web_xlat::XlatWiring,
    /// Per-vantage gateway indices, nearest (shortest week-0 IPv6
    /// `AS_PATH`) first — the order a v6-only host fails over in.
    pub pref: Vec<Vec<usize>>,
}

/// Typed error from [`World::try_build`]: everything that can go wrong
/// between a validated scenario and a built world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// The scenario failed [`Scenario::validate`].
    InvalidScenario(String),
    /// The topology has fewer eligible (dual-stack access) ASes than the
    /// vantage population needs — `found` of the `needed` monitors could
    /// be placed.
    InsufficientVantageAses {
        /// How many vantage ASes the scenario asks for.
        needed: usize,
        /// How many eligible ASes the topology has.
        found: usize,
    },
    /// Table 1 wiring received the wrong number of access ASes.
    VantageTable(VantageCountError),
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            WorldError::InsufficientVantageAses { needed, found } => write!(
                f,
                "not enough dual-stack access ASes for {needed} vantage points \
                 (topology has {found}); grow the topology or shrink the population"
            ),
            WorldError::VantageTable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorldError::VantageTable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VantageCountError> for WorldError {
    fn from(e: VantageCountError) -> Self {
        WorldError::VantageTable(e)
    }
}

impl From<PopulationError> for WorldError {
    fn from(e: PopulationError) -> Self {
        match e {
            PopulationError::InsufficientAses { needed, found } => {
                WorldError::InsufficientVantageAses { needed, found }
            }
        }
    }
}

/// Picks six dual-stack access ASes for the vantage points, preferring the
/// paper's regional spread (Table 1: two North America, three Europe, one
/// Asia) and falling back to any dual-stack access AS when a region runs
/// dry.
fn pick_vantage_ases(topo: &Topology) -> Result<[AsId; 6], WorldError> {
    let wanted = [
        Region::NorthAmerica, // Comcast
        Region::Europe,       // Go6 (Slovenia)
        Region::Europe,       // Loughborough
        Region::NorthAmerica, // Penn
        Region::Asia,         // Tsinghua
        Region::Europe,       // UPC Broadband
    ];
    // Section 4 of the paper: the monitors "had high quality native IPv6
    // (and IPv4) connectivity" — so vantage points live in dual-stack
    // access ASes whose v6 uplink is native (not a 6in4 tunnel).
    let native_v6 = |id: AsId| {
        topo.neighbors(id, ipv6web_topology::Family::V6).iter().any(|&(_, rel, eid)| {
            rel == ipv6web_topology::Relationship::CustomerOf && topo.edge(eid).tunnel.is_none()
        })
    };
    let eligible =
        topo.nodes().iter().filter(|n| n.tier == Tier::Access && n.is_dual_stack()).count();
    if eligible < wanted.len() {
        return Err(WorldError::InsufficientVantageAses { needed: wanted.len(), found: eligible });
    }
    let mut picked: Vec<AsId> = Vec::with_capacity(6);
    for want in wanted {
        let candidate = |region_bound: bool| {
            topo.nodes().iter().find(|n| {
                n.tier == Tier::Access
                    && n.is_dual_stack()
                    && (!region_bound || n.region == want)
                    && native_v6(n.id)
                    && !picked.contains(&n.id)
            })
        };
        let found = candidate(true)
            .or_else(|| candidate(false))
            .or_else(|| {
                // last resort: any dual-stack access AS, tunneled or not
                topo.nodes().iter().find(|n| {
                    n.tier == Tier::Access && n.is_dual_stack() && !picked.contains(&n.id)
                })
            })
            .ok_or(WorldError::InsufficientVantageAses { needed: 6, found: eligible })?;
        picked.push(found.id);
    }
    Ok(picked.try_into().expect("exactly six"))
}

impl World {
    /// Builds a world from a scenario.
    ///
    /// Each build phase runs under an [`ipv6web_obs::span`]; collect them
    /// with [`ipv6web_obs::take_spans_since`] (as [`crate::run_study`]
    /// does) for the wall-clock breakdown.
    ///
    /// # Panics
    /// Panics when the scenario fails validation or the topology cannot
    /// host the vantage population; production callers should use
    /// [`World::try_build`].
    pub fn build(scenario: &Scenario) -> World {
        World::try_build(scenario).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`World::build`]: returns a typed [`WorldError`] instead
    /// of panicking — in particular
    /// [`WorldError::InsufficientVantageAses`] when the topology is too
    /// small for the (fixed six or generated) vantage population.
    pub fn try_build(scenario: &Scenario) -> Result<World, WorldError> {
        scenario.validate().map_err(WorldError::InvalidScenario)?;
        let topo = {
            let _s = ipv6web_obs::span("world: topology");
            generate_topology(&scenario.topology, scenario.seed)
        };

        let mut pop_cfg = scenario.population.clone();
        pop_cfg.n_sites = scenario.total_sites();
        let timeline = &scenario.timeline;
        let (sites, names) = {
            let _s = ipv6web_obs::span("world: population");
            population::generate(
                &pop_cfg,
                &topo,
                timeline.total_weeks,
                &timeline.curve(),
                scenario.seed,
            )
        };
        let zone = {
            let _s = ipv6web_obs::span("world: dns zone");
            build_zone(&topo, &sites, names)
        };

        let n_list = scenario.population.n_sites;
        let list = TopList::from_parts(
            sites[..n_list].iter().map(|s| (s.id.0, s.rank, s.first_seen_week)),
        );
        let tail_ids: Vec<u32> = (n_list as u32..scenario.total_sites() as u32).collect();

        let vantages: Vec<VantagePoint> = match &scenario.vantage_population {
            // generated population: sampled straight from the topology,
            // stacks from the spec's mix (validation rejects named
            // xlat.stacks alongside a population)
            Some(pop) => {
                let _s = ipv6web_obs::span("world: vantage population");
                pop.generate(&topo, scenario.seed, scenario.campaign.total_weeks)?
            }
            // the paper's Table 1 six. Start weeks in Table 1 are
            // calibrated to a 52-week campaign; rescale for shorter
            // scenarios.
            None => {
                let vantage_ases = pick_vantage_ases(&topo)?;
                VantagePoint::try_paper_table1(&vantage_ases)?
                    .into_iter()
                    .map(|mut v| {
                        v.start_week = v.start_week * scenario.campaign.total_weeks / 52;
                        v.stack = scenario.xlat.stack_of(&v.name);
                        v
                    })
                    .collect()
            }
        };

        let xlat_gateways = if scenario.xlat.gateways > 0 {
            ipv6web_xlat::place_gateways(&topo, scenario.seed, scenario.xlat.gateways)
        } else {
            Vec::new()
        };

        let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
        dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
        // the v6 tables must also reach the translators (the v6 leg of a
        // translated path); with zero gateways this adds nothing and the
        // destination set — hence every table — is exactly the classic one
        dests.extend(xlat_gateways.iter().copied());
        dests.sort();
        dests.dedup();
        let vantage_ids: Vec<AsId> = vantages.iter().map(|v| v.as_id).collect();

        // One v4 pass serves the vantage points and, as extra vantages, the
        // NAT64 gateways, whose onward v4 tables the translation plane reads.
        let (t4, gw_tables) = {
            let _s = ipv6web_obs::span("world: route tables (v4)");
            let v4_vantages: Vec<AsId> =
                vantage_ids.iter().chain(&xlat_gateways).copied().collect();
            let mut t4 =
                RouteChain::start(&topo, Family::V4, &dests, &v4_vantages, &[]).into_tables();
            let gw_tables = t4.split_off(vantage_ids.len());
            (t4, gw_tables)
        };

        // The scenario's scheduled route-change edge sample. The RNG
        // stream and candidate filters are the same whether or not fault
        // injection is active, so the scenario epoch is identical in both
        // modes.
        let scenario_event = scenario.route_change.map(|(week, gain_frac, loss_frac)| {
            let mut rng = derive_rng(scenario.seed, "route-change");
            let mut gain_candidates: Vec<EdgeId> = topo
                .edges()
                .iter()
                .filter(|e| {
                    e.v4 && !e.v6
                        && topo.node(e.a).is_dual_stack()
                        && topo.node(e.b).is_dual_stack()
                })
                .map(|e| e.id)
                .collect();
            let mut loss_candidates: Vec<EdgeId> = topo
                .edges()
                .iter()
                .filter(|e| e.v6 && e.v4 && e.tunnel.is_none())
                .map(|e| e.id)
                .collect();
            gain_candidates.shuffle(&mut rng);
            loss_candidates.shuffle(&mut rng);
            let n_gain = (gain_candidates.len() as f64 * gain_frac).round() as usize;
            let n_loss = (loss_candidates.len() as f64 * loss_frac).round() as usize;
            gain_candidates.truncate(n_gain);
            loss_candidates.truncate(n_loss);
            (week, gain_candidates, loss_candidates)
        });

        // Mid-campaign IPv6 route changes: the scenario's event plus, under
        // fault injection, the BGP session flaps — one cumulative chain of
        // routing epochs, ordered by week with the scenario event first on
        // ties. IPv4 stays put: the paper's transitions were an
        // IPv6-deployment phenomenon.
        let injector = (!scenario.faults.is_empty())
            .then(|| FaultInjector::new(scenario.faults.clone(), scenario.seed));
        let mut events: Vec<(u32, bool, Flips)> = injector
            .iter()
            .flat_map(|inj| inj.bgp_events(&topo))
            .map(|(week, gains, losses)| (week, false, (gains, losses)))
            .collect();
        if let Some((week, gains, losses)) = scenario_event {
            events.push((week, true, (gains, losses)));
        }
        events.sort_by_key(|&(week, is_scenario, _)| (week, !is_scenario));
        let (keys, flips): (Vec<(u32, bool)>, Vec<Flips>) =
            events.into_iter().map(|(week, is_scenario, f)| ((week, is_scenario), f)).unzip();

        let v6 = {
            let _s = ipv6web_obs::span("world: route tables (v6)");
            RouteChain::start(&topo, Family::V6, &dests, &vantage_ids, &flips)
        };
        // The epoch topologies are built after the base pass, so they never
        // sit in memory beside its in-flight computations.
        let epochs: Vec<(Topology, Vec<BgpTable>)> = if flips.is_empty() {
            Vec::new()
        } else {
            let _s = ipv6web_obs::span(if injector.is_some() {
                "world: route tables (v6 epochs, faulted)"
            } else {
                "world: route tables (v6 epoch)"
            });
            let mut topos: Vec<Topology> = Vec::with_capacity(flips.len());
            for (gains, losses) in &flips {
                let late = topos.last().unwrap_or(&topo).with_v6_flips(gains, losses);
                topos.push(late);
            }
            let tables = v6.epoch_tables(&topos);
            topos.into_iter().zip(tables).collect()
        };
        let tables: Vec<(BgpTable, BgpTable)> = t4.into_iter().zip(v6.into_tables()).collect();

        // Every epoch joins the one chain; the scenario's also gives
        // `topo_late`.
        let mut scenario_epoch = None;
        let mut topo_late = None;
        let mut v6_epochs = Vec::with_capacity(epochs.len());
        for (i, ((week, is_scenario), (late, tables))) in keys.into_iter().zip(epochs).enumerate() {
            if is_scenario {
                scenario_epoch = Some(i);
                topo_late = Some(late);
            }
            v6_epochs.push((week, tables));
        }

        // The translation plane: per-gateway cost draws, each gateway's
        // onward v4 table, and every vantage point's failover order
        // (nearest gateway by week-0 IPv6 AS_PATH length first).
        let xlat = if xlat_gateways.is_empty() {
            None
        } else {
            let _s = ipv6web_obs::span("world: xlat wiring");
            let costs =
                ipv6web_xlat::gateway_costs(&scenario.xlat, scenario.seed, xlat_gateways.len());
            let pref: Vec<Vec<usize>> = tables
                .iter()
                .map(|(_, t6)| {
                    let mut order: Vec<usize> = (0..xlat_gateways.len()).collect();
                    order.sort_by_key(|&i| {
                        (t6.route(xlat_gateways[i]).map_or(usize::MAX, |r| r.as_path.hops()), i)
                    });
                    order
                })
                .collect();
            Some(XlatWorld {
                wiring: ipv6web_xlat::XlatWiring {
                    gateways: xlat_gateways,
                    costs,
                    tables: gw_tables,
                },
                pref,
            })
        };

        let disturbances = Disturbances::generate(
            &scenario.disturbances,
            sites.len(),
            scenario.campaign.total_weeks,
            scenario.seed,
        );

        Ok(World {
            scenario: scenario.clone(),
            topo,
            sites,
            zone,
            list,
            tail_ids,
            vantages,
            tables,
            v6_epochs,
            scenario_epoch,
            topo_late,
            disturbances,
            injector,
            xlat,
        })
    }

    /// The scenario's mid-campaign route change, when it schedules one:
    /// its week and the post-epoch IPv6 tables in `vantages` order.
    pub fn scenario_epoch(&self) -> Option<(u32, &[BgpTable])> {
        self.scenario_epoch.map(|i| {
            let (week, tables) = &self.v6_epochs[i];
            (*week, tables.as_slice())
        })
    }

    /// Sites participating in World IPv6 Day that are dual-stack and
    /// present by the event week.
    pub fn ipv6_day_participants(&self) -> Vec<ipv6web_web::SiteId> {
        let day = self.scenario.timeline.ipv6_day_week;
        self.sites
            .iter()
            .filter(|s| {
                s.first_seen_week <= day
                    && s.v6.as_ref().is_some_and(|v| v.ipv6_day_participant && v.from_week <= day)
            })
            .map(|s| s.id)
            .collect()
    }

    /// The probe context for vantage point `vantage_idx`: everything one
    /// campaign's probes read, borrowed from this world. `faults` is the
    /// matching [`World::probe_faults`] wiring (or `None` for the
    /// fault-free pipeline). Public so tests can drive
    /// [`ipv6web_monitor::run_campaign_resumable`] for a single vantage
    /// point — e.g. to stage partial checkpoints before a resumed study.
    pub fn probe_ctx<'a>(
        &'a self,
        vantage_idx: usize,
        faults: Option<&'a ProbeFaults<'a>>,
    ) -> ProbeContext<'a> {
        let s = &self.scenario;
        ProbeContext {
            topo: &self.topo,
            sites: &self.sites,
            zone: &self.zone,
            table_v4: &self.tables[vantage_idx].0,
            table_v6: &self.tables[vantage_idx].1,
            disturbances: &self.disturbances,
            tcp: s.tcp,
            ci_rule: s.ci_rule,
            identity_threshold: s.identity_threshold,
            round_noise_sigma: s.round_noise_sigma,
            seed: s.seed,
            vantage_name: &self.vantages[vantage_idx].name,
            white_listed: self.vantages[vantage_idx].white_listed,
            v6_epoch: self.scenario_epoch().map(|(week, tables)| (week, &tables[vantage_idx])),
            faults,
            stack: self.vantages[vantage_idx].stack,
            xlat: self.xlat.as_ref().map(|x| ProbeXlat {
                wiring: &x.wiring,
                pref: &x.pref[vantage_idx],
                clat_ms: s.xlat.clat_ms,
            }),
        }
    }

    /// The per-vantage fault wiring: the injector plus this vantage
    /// point's slice of the cumulative v6 epoch chain. `None` when the
    /// plan is empty, so the fault-free pipeline stays bit-identical.
    pub fn probe_faults(&self, vantage_idx: usize) -> Option<ProbeFaults<'_>> {
        self.injector.as_ref().map(|injector| ProbeFaults {
            injector,
            retry: self.scenario.faults.retry,
            v6_epochs: self
                .v6_epochs
                .iter()
                .map(|(week, tables)| (*week, &tables[vantage_idx]))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| World::build(&Scenario::quick(11)))
    }

    #[test]
    fn world_has_expected_shape() {
        let w = world();
        assert_eq!(w.sites.len(), w.scenario.total_sites());
        assert_eq!(w.list.len(), w.scenario.population.n_sites);
        assert_eq!(w.tail_ids.len(), w.scenario.tail_sites);
        assert_eq!(w.vantages.len(), 6);
        assert_eq!(w.tables.len(), 6);
        assert_eq!(w.zone.len(), w.sites.len());
    }

    #[test]
    fn vantage_ases_distinct_dual_access() {
        let w = world();
        let mut seen = std::collections::BTreeSet::new();
        for v in &w.vantages {
            assert!(seen.insert(v.as_id), "vantage ASes must be distinct");
            let node = w.topo.node(v.as_id);
            assert_eq!(node.tier, Tier::Access);
            assert!(node.is_dual_stack(), "vantage needs native v6");
        }
    }

    #[test]
    fn start_weeks_rescaled_into_campaign() {
        let w = world();
        for v in &w.vantages {
            assert!(v.start_week < w.scenario.campaign.total_weeks);
        }
        // Penn still starts at 0
        assert_eq!(w.vantages[3].start_week, 0);
    }

    #[test]
    fn tables_indexed_like_vantages() {
        let w = world();
        for (v, (t4, t6)) in w.vantages.iter().zip(&w.tables) {
            assert_eq!(t4.vantage_as, v.as_id);
            assert_eq!(t6.vantage_as, v.as_id);
            assert!(t4.len() >= t6.len(), "v6 table cannot exceed v4");
            assert!(!t4.is_empty());
        }
    }

    #[test]
    fn participants_subset_of_dual_sites() {
        let w = world();
        let parts = w.ipv6_day_participants();
        assert!(!parts.is_empty(), "some participants expected");
        let day = w.scenario.timeline.ipv6_day_week;
        for p in parts {
            let s = &w.sites[p.index()];
            assert!(s.is_dual_stack(day));
            assert!(s.v6.as_ref().unwrap().ipv6_day_participant);
        }
    }

    #[test]
    fn deterministic_build() {
        let a = World::build(&Scenario::quick(5));
        let b = World::build(&Scenario::quick(5));
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.vantages, b.vantages);
    }

    #[test]
    fn persisted_identities_are_pinned() {
        // Daemon job ids and the world cache key on `config_hash`, sweep
        // record keys embed it, and checkpoint directories are stamped
        // with `population_hash`. A change to either orphans every stored
        // job id, sweep key and checkpoint stamp, so it must be deliberate.
        let cases = [
            (Scenario::quick(42), 0x2190_72ab_5801_d28a, 0xabb7_cf68_dd9d_3556, false),
            (Scenario::nat64(42), 0x39c7_d685_6c1a_b772, 0x01e6_3247_708f_7b5a, true),
        ];
        for (scenario, config_hash, population_hash, emits_stack) in cases {
            assert_eq!(scenario.config_hash(), config_hash);
            let w = World::build(&scenario);
            assert_eq!(ipv6web_monitor::population_hash(&w.vantages), population_hash);
            let json = serde_json::to_string(&w.vantages).unwrap();
            assert_eq!(json.contains("\"stack\""), emits_stack, "{json}");
        }
    }

    #[test]
    fn a_shortened_campaign_churns_within_its_own_weeks() {
        // the population's calendar is the timeline's: with eight weeks,
        // every list and tail site is first seen in weeks 0..8
        let mut t = Scenario::quick(42).timeline;
        t.total_weeks = 8;
        t.iana_week = 3;
        t.ipv6_day_week = 6;
        let w = World::build(&Scenario::quick(42).with_timeline(t));
        assert!(w.sites.iter().any(|s| s.first_seen_week > 0), "some sites churn in");
        for s in &w.sites {
            assert!(s.first_seen_week < 8, "{} first seen at week {}", s.id, s.first_seen_week);
        }
    }

    #[test]
    fn too_small_topology_is_a_typed_error() {
        // classic six: no dual-stack access ASes at all
        let mut s = Scenario::quick(3);
        s.topology.dual.access_adoption = 0.0;
        match World::try_build(&s) {
            Err(WorldError::InsufficientVantageAses { needed: 6, found }) => {
                assert_eq!(found, 0)
            }
            other => panic!("expected InsufficientVantageAses, got {:?}", other.err()),
        }
        // generated population bigger than the whole access tier
        let mut s = Scenario::quick(3);
        s.vantage_population =
            Some(ipv6web_monitor::VantagePopulation { count: 500, ..Default::default() });
        match World::try_build(&s) {
            Err(WorldError::InsufficientVantageAses { needed: 500, found }) => {
                assert!(found < 500, "quick topology cannot host 500 monitors")
            }
            other => panic!("expected InsufficientVantageAses, got {:?}", other.err()),
        }
    }

    #[test]
    fn fewer_transit_ases_than_cdn_providers_build() {
        // A CDN buys transit from 5–10 providers, capped at the transit
        // tier's size: three transit ASes validate, so they must build.
        let mut s = Scenario::quick(3);
        s.topology.n_transit = 3;
        let w = World::try_build(&s).expect("a valid scenario builds");
        assert_eq!(w.topo.num_ases(), s.topology.total());
        assert_eq!(w.tables.len(), 6);
    }

    #[test]
    fn population_world_builds_generated_vantages() {
        let mut s = Scenario::quick(11);
        s.topology = ipv6web_topology::TopologyConfig::scaled(700);
        s.topology.dual.access_adoption = 0.6;
        s.population.n_sites = 400;
        s.tail_sites = 100;
        s.vantage_population =
            Some(ipv6web_monitor::VantagePopulation { count: 50, ..Default::default() });
        let w = World::build(&s);
        assert_eq!(w.vantages.len(), 50);
        assert_eq!(w.tables.len(), 50, "one table pair per vantage");
        let mut seen = std::collections::BTreeSet::new();
        for (v, (t4, t6)) in w.vantages.iter().zip(&w.tables) {
            assert!(seen.insert(v.as_id), "vantage ASes must be distinct");
            assert_eq!(t4.vantage_as, v.as_id);
            assert_eq!(t6.vantage_as, v.as_id);
            assert!(v.start_week < s.campaign.total_weeks);
        }
        // the anchor plays the Penn role
        assert_eq!(w.vantages[0].start_week, 0);
        assert!(w.vantages[0].external_inputs);
    }

    #[test]
    fn quick_world_has_no_xlat_plane() {
        let w = world();
        assert!(w.xlat.is_none());
        assert!(w.vantages.iter().all(|v| v.stack == ipv6web_xlat::ClientStack::DualStack));
    }

    #[test]
    fn nat64_world_wires_gateways_and_stacks() {
        let w = World::build(&Scenario::nat64(11));
        let x = w.xlat.as_ref().expect("nat64 scenario builds a translation plane");
        assert_eq!(x.wiring.gateways.len(), 3);
        assert_eq!(x.wiring.costs.len(), 3);
        assert_eq!(x.wiring.tables.len(), 3);
        assert_eq!(x.pref.len(), 6, "one preference order per vantage");
        for (vi, pref) in x.pref.iter().enumerate() {
            let mut sorted = pref.clone();
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2], "vantage {vi} must rank every gateway once");
            // every vantage's v6 table reaches its first-choice gateway
            let t6 = &w.tables[vi].1;
            assert!(t6.route(x.wiring.gateways[pref[0]]).is_some());
        }
        // gateways sit in the provider core and are dual-stack
        for &g in &x.wiring.gateways {
            let node = w.topo.node(g);
            assert!(matches!(node.tier, Tier::Tier1 | Tier::Transit), "{:?}", node.tier);
            assert!(node.is_dual_stack());
        }
        // the stack axis landed on the right vantage points
        let stacks: Vec<_> = w.vantages.iter().map(|v| (v.name.as_str(), v.stack)).collect();
        use ipv6web_xlat::ClientStack::*;
        assert_eq!(
            stacks,
            vec![
                ("Comcast", DualStack),
                ("Go6-Slovenia", V6Only),
                ("Loughborough U.", V6Only),
                ("Penn", DualStack),
                ("Tsinghua U.", V6OnlyClat),
                ("UPC Broadband", V6OnlyClat),
            ]
        );
    }
}
