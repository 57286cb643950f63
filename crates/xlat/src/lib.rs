//! NAT64/DNS64/464XLAT transition-technology substrate.
//!
//! The paper's world is dual-stack circa 2011: clients hold both an IPv4
//! and an IPv6 address and race them. The modern access story is v6-only
//! eyeballs reaching v4-only content through translators. This crate
//! provides the pieces the rest of the pipeline composes:
//!
//! * [`ClientStack`] — the per-vantage axis: classic dual-stack, v6-only
//!   (NAT64/DNS64), or v6-only with a CLAT (464XLAT).
//! * RFC 6052 well-known-prefix helpers ([`synthesize`], [`extract`],
//!   [`is_synthesized`]) — the address algebra DNS64 and the gateway's
//!   v6→v4 rewrite share.
//! * [`place_gateways`] — seeded NAT64 gateway placement in provider
//!   (Tier-1/Transit) ASes, same `derive_rng` discipline as faults.
//! * [`GatewayCost`] / [`gateway_costs`] — the per-gateway stateful
//!   translation cost model (session setup, per-exchange rewrite latency,
//!   capacity cap, translation loss), seeded per gateway.
//! * [`XlatWiring`] — the built artifact the world hands to probes: the
//!   gateway list, each gateway's cost draw, and each gateway's IPv4
//!   routing table toward the site population.
//!
//! Everything here is a pure function of `(seed, config)`; a scenario with
//! zero gateways builds no wiring and leaves every downstream byte
//! untouched.

use ipv6web_bgp::BgpTable;
use ipv6web_stats::derive_rng;
use ipv6web_topology::{AsId, Tier, Topology};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// What address families a vantage point's host stack actually holds.
///
/// Serialized as a kebab-case string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ClientStack {
    /// Classic dual-stack host: native IPv4 and IPv6, happy-eyeballs races.
    #[default]
    DualStack,
    /// IPv6-only host behind NAT64/DNS64: v4-only destinations are reached
    /// through a translator, never natively.
    V6Only,
    /// IPv6-only host with a CLAT (464XLAT): like [`ClientStack::V6Only`]
    /// plus a host-side v4→v6 translation stage for literal-v4 traffic.
    V6OnlyClat,
}

impl ClientStack {
    /// Wire/scenario name.
    pub fn name(self) -> &'static str {
        match self {
            ClientStack::DualStack => "dual-stack",
            ClientStack::V6Only => "v6-only",
            ClientStack::V6OnlyClat => "v6-only-clat",
        }
    }

    /// Whether this stack's resolver runs in DNS64 mode and its "IPv4"
    /// exchanges ride a NAT64 translator.
    pub fn translates_v4(self) -> bool {
        !matches!(self, ClientStack::DualStack)
    }

    /// Whether a host-side CLAT adds its own per-exchange translation cost.
    pub fn has_clat(self) -> bool {
        matches!(self, ClientStack::V6OnlyClat)
    }
}

impl fmt::Display for ClientStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---- RFC 6052 well-known prefix -------------------------------------------

/// The DNS64/NAT64 well-known prefix `64:ff9b::/96` (RFC 6052 §2.1).
pub const WELL_KNOWN_PREFIX: [u16; 2] = [0x0064, 0xff9b];

/// Embeds an IPv4 address in the well-known prefix: `64:ff9b::a.b.c.d`.
pub fn synthesize(v4: Ipv4Addr) -> Ipv6Addr {
    let o = v4.octets();
    Ipv6Addr::new(
        WELL_KNOWN_PREFIX[0],
        WELL_KNOWN_PREFIX[1],
        0,
        0,
        0,
        0,
        u16::from_be_bytes([o[0], o[1]]),
        u16::from_be_bytes([o[2], o[3]]),
    )
}

/// Recovers the IPv4 address from a well-known-prefix synthesis, or `None`
/// for a native IPv6 address — the gateway's v6→v4 header rewrite.
pub fn extract(v6: Ipv6Addr) -> Option<Ipv4Addr> {
    if !is_synthesized(v6) {
        return None;
    }
    let s = v6.segments();
    let [a, b] = s[6].to_be_bytes();
    let [c, d] = s[7].to_be_bytes();
    Some(Ipv4Addr::new(a, b, c, d))
}

/// Whether an address sits inside `64:ff9b::/96` (suffix bits are the
/// embedded IPv4 address, so only segments 0–5 are the prefix test).
pub fn is_synthesized(v6: Ipv6Addr) -> bool {
    let s = v6.segments();
    s[0] == WELL_KNOWN_PREFIX[0]
        && s[1] == WELL_KNOWN_PREFIX[1]
        && s[2] == 0
        && s[3] == 0
        && s[4] == 0
        && s[5] == 0
}

// ---- configuration ---------------------------------------------------------

/// Scenario-level translation-plane configuration.
///
/// The default is the pre-xlat world: zero gateways, every vantage
/// dual-stack — a scenario file without this block behaves exactly as it
/// did before the field existed (every missing field takes its default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct XlatConfig {
    /// NAT64 gateways to place in provider ASes. Zero disables the whole
    /// translation plane.
    pub gateways: usize,
    /// Median translator session-setup latency added to a translated
    /// exchange's first round trip, ms (stateful NAT64 binding creation).
    pub setup_ms: f64,
    /// Median per-exchange header-rewrite latency at the gateway, ms
    /// (applied to both directions of a round trip).
    pub per_exchange_ms: f64,
    /// Median per-gateway translation capacity, kB/s: an extra bottleneck
    /// on every translated path through that gateway.
    pub capacity_kbps: f64,
    /// Median extra packet loss introduced by stateful translation.
    pub extra_loss: f64,
    /// Host-side CLAT per-exchange latency for 464XLAT clients, ms.
    pub clat_ms: f64,
    /// Per-vantage client-stack assignment, by vantage name. Vantages not
    /// listed stay dual-stack.
    pub stacks: Vec<(String, ClientStack)>,
}

impl Default for XlatConfig {
    fn default() -> Self {
        XlatConfig {
            gateways: 0,
            setup_ms: 14.0,
            per_exchange_ms: 1.2,
            capacity_kbps: 45_000.0,
            extra_loss: 2e-4,
            clat_ms: 0.4,
            stacks: Vec::new(),
        }
    }
}

impl XlatConfig {
    /// Whether the translation plane is active at all.
    pub fn is_active(&self) -> bool {
        self.gateways > 0
    }

    /// The client stack assigned to `vantage` (dual-stack when unlisted).
    pub fn stack_of(&self, vantage: &str) -> ClientStack {
        self.stacks
            .iter()
            .find(|(name, _)| name == vantage)
            .map(|(_, s)| *s)
            .unwrap_or(ClientStack::DualStack)
    }

    /// Sanity checks, mirroring `FaultPlan::validate`'s error style.
    pub fn validate(&self) -> Result<(), String> {
        for (what, v) in [
            ("setup_ms", self.setup_ms),
            ("per_exchange_ms", self.per_exchange_ms),
            ("clat_ms", self.clat_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("xlat: {what} must be finite and non-negative, got {v}"));
            }
        }
        if !self.capacity_kbps.is_finite() || self.capacity_kbps <= 0.0 {
            return Err(format!(
                "xlat: capacity_kbps must be finite and positive, got {}",
                self.capacity_kbps
            ));
        }
        if !self.extra_loss.is_finite() || !(0.0..=1.0).contains(&self.extra_loss) {
            return Err(format!("xlat: extra_loss must be in [0, 1], got {}", self.extra_loss));
        }
        if self.gateways == 0 {
            if let Some((name, stack)) =
                self.stacks.iter().find(|(_, s)| s.translates_v4()).cloned()
            {
                return Err(format!(
                    "xlat: vantage `{name}` is {stack} but no NAT64 gateway is configured"
                ));
            }
        }
        Ok(())
    }
}

// ---- gateway placement and cost model --------------------------------------

/// Seeded NAT64 gateway placement: dual-stack provider ASes (Tier-1 and
/// Transit — a translator needs native reach on both sides), shuffled on
/// the `xlat:place` stream and truncated to `n`, then sorted so gateway
/// index order is stable and readable. Requesting more gateways than
/// eligible ASes places one per eligible AS.
pub fn place_gateways(topo: &Topology, seed: u64, n: usize) -> Vec<AsId> {
    let mut candidates: Vec<AsId> = topo
        .nodes()
        .iter()
        .filter(|a| matches!(a.tier, Tier::Tier1 | Tier::Transit) && a.is_dual_stack())
        .map(|a| a.id)
        .collect();
    candidates.shuffle(&mut derive_rng(seed, "xlat:place"));
    candidates.truncate(n);
    candidates.sort();
    ipv6web_obs::add("xlat.gateways_placed", candidates.len() as u64);
    candidates
}

/// One gateway's drawn stateful-translation costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayCost {
    /// Session-setup latency for a translated exchange, ms.
    pub setup_ms: f64,
    /// Header-rewrite latency per direction, ms.
    pub per_exchange_ms: f64,
    /// Translation capacity cap, kB/s.
    pub capacity_kbps: f64,
    /// Extra loss across the translator.
    pub extra_loss: f64,
}

/// Draws each gateway's cost profile around the configured medians, one
/// independent `xlat:gw:{index}` stream per gateway — adding a gateway
/// never perturbs another's draw.
pub fn gateway_costs(cfg: &XlatConfig, seed: u64, n_gateways: usize) -> Vec<GatewayCost> {
    (0..n_gateways)
        .map(|i| {
            let mut rng = derive_rng(seed, &format!("xlat:gw:{i}"));
            let jitter = |rng: &mut ipv6web_stats::StudyRng| 0.75 + 0.5 * rng.gen::<f64>();
            GatewayCost {
                setup_ms: cfg.setup_ms * jitter(&mut rng),
                per_exchange_ms: cfg.per_exchange_ms * jitter(&mut rng),
                capacity_kbps: cfg.capacity_kbps * jitter(&mut rng),
                extra_loss: (cfg.extra_loss * (0.5 + rng.gen::<f64>())).clamp(0.0, 1.0),
            }
        })
        .collect()
}

/// The built translation plane a world hands to its probes: parallel
/// per-gateway vectors (AS, cost draw, IPv4 routing table toward the site
/// population).
#[derive(Debug)]
pub struct XlatWiring {
    /// Gateway ASes in index order (the order every preference list and
    /// fault label uses).
    pub gateways: Vec<AsId>,
    /// Per-gateway cost draws, parallel to `gateways`.
    pub costs: Vec<GatewayCost>,
    /// Per-gateway IPv4 tables toward the site population, parallel to
    /// `gateways` — the v4 leg of every translated path.
    pub tables: Vec<BgpTable>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6web_topology::{generate, TopologyConfig};
    use proptest::prelude::*;

    #[test]
    fn wkp_embed_extract_roundtrip() {
        for v4 in [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(16, 4, 0, 1),
            Ipv4Addr::new(255, 255, 255, 255),
        ] {
            let v6 = synthesize(v4);
            assert!(is_synthesized(v6), "{v6} must sit in 64:ff9b::/96");
            assert_eq!(extract(v6), Some(v4));
        }
    }

    #[test]
    fn native_addresses_are_not_synthesized() {
        let native = Ipv6Addr::new(0x2400, 7, 0, 0, 0, 0, 0, 1);
        assert!(!is_synthesized(native));
        assert_eq!(extract(native), None);
        // a near-miss: right first segments, nonzero middle
        let near = Ipv6Addr::new(0x0064, 0xff9b, 0, 0, 1, 0, 0, 1);
        assert!(!is_synthesized(near));
    }

    proptest! {
        #[test]
        fn wkp_roundtrips_every_v4_form(bits in any::<u32>()) {
            let v4 = Ipv4Addr::from(bits);
            prop_assert_eq!(extract(synthesize(v4)), Some(v4));
        }
    }

    #[test]
    fn client_stack_serde_and_default() {
        // serde writes exactly `name()` for every variant and reads it back
        for (s, name) in [
            (ClientStack::DualStack, "dual-stack"),
            (ClientStack::V6Only, "v6-only"),
            (ClientStack::V6OnlyClat, "v6-only-clat"),
        ] {
            assert_eq!(s.name(), name);
            let json = serde_json::to_string(&s).unwrap();
            assert_eq!(json, format!("\"{name}\""));
            assert_eq!(serde_json::from_str::<ClientStack>(&json).unwrap(), s);
        }
        assert_eq!(ClientStack::default(), ClientStack::DualStack);
        assert!(serde_json::from_str::<ClientStack>("\"carrier-pigeon\"").is_err());
    }

    #[test]
    fn config_defaults_from_empty_json() {
        let cfg: XlatConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(cfg, XlatConfig::default());
        assert!(!cfg.is_active());
        assert_eq!(cfg.validate(), Ok(()));
        // roundtrip with a non-default block
        let active = XlatConfig {
            gateways: 3,
            stacks: vec![("Go6-Slovenia".to_string(), ClientStack::V6Only)],
            ..XlatConfig::default()
        };
        let json = serde_json::to_string(&active).unwrap();
        let back: XlatConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, active);
        assert_eq!(back.stack_of("Go6-Slovenia"), ClientStack::V6Only);
        assert_eq!(back.stack_of("Comcast"), ClientStack::DualStack);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let cfg = XlatConfig { extra_loss: 1.5, ..XlatConfig::default() };
        assert!(cfg.validate().is_err());
        let mut stackless = XlatConfig {
            stacks: vec![("Go6-Slovenia".to_string(), ClientStack::V6Only)],
            ..XlatConfig::default()
        };
        let err = stackless.validate().unwrap_err();
        assert!(err.contains("no NAT64 gateway"), "{err}");
        stackless.gateways = 1;
        assert_eq!(stackless.validate(), Ok(()));
    }

    #[test]
    fn placement_is_seeded_and_provider_only() {
        let topo = generate(&TopologyConfig::test_small(), 77);
        let a = place_gateways(&topo, 42, 3);
        let b = place_gateways(&topo, 42, 3);
        assert_eq!(a, b, "same seed, same placement");
        assert_eq!(a.len(), 3);
        for gw in &a {
            let node = topo.node(*gw);
            assert!(matches!(node.tier, Tier::Tier1 | Tier::Transit), "{gw} not a provider");
            assert!(node.is_dual_stack(), "{gw} must be dual-stack");
        }
        let other = place_gateways(&topo, 43, 3);
        assert_ne!(a, other, "different seed should move gateways");
        // over-asking caps at the eligible set
        let all = place_gateways(&topo, 42, 10_000);
        assert!(all.len() < topo.nodes().len());
        assert!(!all.is_empty());
    }

    #[test]
    fn costs_are_seeded_and_bounded() {
        let cfg = XlatConfig::default();
        let a = gateway_costs(&cfg, 7, 4);
        let b = gateway_costs(&cfg, 7, 4);
        assert_eq!(a, b);
        // extending the fleet never redraws existing gateways
        let more = gateway_costs(&cfg, 7, 6);
        assert_eq!(&more[..4], &a[..]);
        for c in &a {
            assert!(c.setup_ms >= cfg.setup_ms * 0.75 && c.setup_ms <= cfg.setup_ms * 1.25);
            assert!(c.capacity_kbps > 0.0);
            assert!((0.0..=1.0).contains(&c.extra_loss));
        }
    }
}
