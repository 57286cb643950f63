//! Vantage points (Table 1).

use ipv6web_topology::AsId;
use ipv6web_xlat::ClientStack;
use serde::{Deserialize, Serialize};

/// Academic or commercial network (Table 1's "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VantageKind {
    /// University network.
    Academic,
    /// Commercial ISP.
    Commercial,
}

impl std::fmt::Display for VantageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VantageKind::Academic => write!(f, "Acad."),
            VantageKind::Commercial => write!(f, "Comml."),
        }
    }
}

/// One monitoring vantage point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VantagePoint {
    /// Short name ("Penn", "Comcast", …).
    pub name: String,
    /// Human-readable location ("Philadelphia, PA").
    pub location: String,
    /// The access AS hosting the monitor.
    pub as_id: AsId,
    /// Campaign week monitoring starts at this vantage point.
    pub start_week: u32,
    /// Whether BGP `AS_PATH` data is available (Table 1 column 3) — only
    /// such vantage points enter the path-correlated analysis.
    pub has_as_path: bool,
    /// Whether the vantage point was white-listed by Google (Table 1).
    pub white_listed: bool,
    /// Network type.
    pub kind: VantageKind,
    /// Whether this vantage point imports extra sites beyond the ranked
    /// list (Penn's DNS-cache tail, Fig 3b).
    pub external_inputs: bool,
    /// What address families the monitor's host actually holds. The
    /// paper's vantages are all dual-stack; the nat64 tier marks some as
    /// v6-only (with or without a CLAT). Written only when it is not
    /// dual-stack, and read as dual-stack when absent, so snapshots of
    /// classic studies stay byte-identical to those written before the
    /// client-stack axis existed.
    #[serde(default, skip_serializing_if = "is_dual_stack")]
    pub stack: ClientStack,
}

fn is_dual_stack(stack: &ClientStack) -> bool {
    *stack == ClientStack::DualStack
}

/// Error from [`VantagePoint::try_paper_table1`]: Table 1 wires exactly six
/// access ASes, one per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VantageCountError {
    /// How many AS ids Table 1 needs.
    pub expected: usize,
    /// How many were supplied.
    pub found: usize,
}

impl std::fmt::Display for VantageCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Table 1 has six vantage points ({} expected) but {} access ASes were supplied",
            self.expected, self.found
        )
    }
}

impl std::error::Error for VantageCountError {}

impl VantagePoint {
    /// The paper's six vantage points (Table 1), with start weeks mapped
    /// onto the simulated campaign calendar (week 0 = 2010-08-12; start
    /// dates before that clamp to 0). `as_ids` supplies the access ASes in
    /// the generated topology, in the table's row order:
    /// Comcast, Go6, Loughborough, Penn, Tsinghua, UPCB.
    ///
    /// # Panics
    /// Panics unless exactly six AS ids are supplied; production callers
    /// should use [`VantagePoint::try_paper_table1`].
    pub fn paper_table1(as_ids: &[AsId]) -> Vec<VantagePoint> {
        Self::try_paper_table1(as_ids).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`VantagePoint::paper_table1`]: returns a typed error
    /// instead of panicking when the slice is not exactly six ASes long.
    pub fn try_paper_table1(as_ids: &[AsId]) -> Result<Vec<VantagePoint>, VantageCountError> {
        if as_ids.len() != 6 {
            return Err(VantageCountError { expected: 6, found: as_ids.len() });
        }
        let mk = |name: &str,
                  location: &str,
                  as_id: AsId,
                  start_week: u32,
                  has_as_path: bool,
                  white_listed: bool,
                  kind: VantageKind,
                  external_inputs: bool| VantagePoint {
            name: name.into(),
            location: location.into(),
            as_id,
            start_week,
            has_as_path,
            white_listed,
            kind,
            external_inputs,
            stack: ClientStack::DualStack,
        };
        Ok(vec![
            // 2/4/11 → week 25
            mk("Comcast", "Denver, CO", as_ids[0], 25, true, false, VantageKind::Commercial, false),
            // 5/19/11 → week 40
            mk(
                "Go6-Slovenia",
                "Slovenia",
                as_ids[1],
                40,
                false,
                false,
                VantageKind::Commercial,
                false,
            ),
            // 4/29/11 → week 37
            mk(
                "Loughborough U.",
                "Great Britain",
                as_ids[2],
                37,
                true,
                false,
                VantageKind::Academic,
                false,
            ),
            // 7/22/09 → before campaign start, clamp to 0
            mk("Penn", "Philadelphia, PA", as_ids[3], 0, true, false, VantageKind::Academic, true),
            // 3/22/11 → week 31
            mk("Tsinghua U.", "China", as_ids[4], 31, false, false, VantageKind::Academic, false),
            // 2/28/11 → week 28
            mk(
                "UPC Broadband",
                "Netherlands",
                as_ids[5],
                28,
                true,
                true,
                VantageKind::Commercial,
                false,
            ),
        ])
    }

    /// The subset with `AS_PATH` data, i.e. the four columns of Tables 2-9.
    pub fn with_as_path(vps: &[VantagePoint]) -> Vec<&VantagePoint> {
        vps.iter().filter(|v| v.has_as_path).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> Vec<AsId> {
        (0..6).map(AsId).collect()
    }

    #[test]
    fn table1_has_six_rows() {
        let vps = VantagePoint::paper_table1(&ids());
        assert_eq!(vps.len(), 6);
        assert_eq!(vps[3].name, "Penn");
        assert_eq!(vps[3].start_week, 0, "Penn started before the window");
        assert!(vps[3].external_inputs, "Penn imports the DNS-cache tail");
    }

    #[test]
    fn as_path_subset_matches_table() {
        let vps = VantagePoint::paper_table1(&ids());
        let with = VantagePoint::with_as_path(&vps);
        let names: Vec<&str> = with.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["Comcast", "Loughborough U.", "Penn", "UPC Broadband"]);
    }

    #[test]
    fn only_upcb_is_white_listed() {
        let vps = VantagePoint::paper_table1(&ids());
        let wl: Vec<&str> =
            vps.iter().filter(|v| v.white_listed).map(|v| v.name.as_str()).collect();
        assert_eq!(wl, ["UPC Broadband"]);
    }

    #[test]
    fn kinds_match_table() {
        let vps = VantagePoint::paper_table1(&ids());
        assert_eq!(vps[0].kind, VantageKind::Commercial);
        assert_eq!(vps[2].kind, VantageKind::Academic);
        assert_eq!(VantageKind::Academic.to_string(), "Acad.");
        assert_eq!(VantageKind::Commercial.to_string(), "Comml.");
    }

    #[test]
    #[should_panic(expected = "six")]
    fn wrong_as_count_panics() {
        VantagePoint::paper_table1(&[AsId(1)]);
    }

    #[test]
    fn wrong_as_count_is_a_typed_error() {
        let err = VantagePoint::try_paper_table1(&[AsId(1)]).unwrap_err();
        assert_eq!(err, VantageCountError { expected: 6, found: 1 });
        assert!(err.to_string().contains("six vantage points"));
        assert_eq!(VantagePoint::try_paper_table1(&ids()).unwrap().len(), 6);
    }

    #[test]
    fn stack_serialized_only_when_not_dual() {
        let mut vp = VantagePoint::paper_table1(&ids()).swap_remove(0);
        assert_eq!(vp.stack, ClientStack::DualStack);
        let json = serde_json::to_string(&vp).unwrap();
        assert!(!json.contains("stack"), "dual-stack must serialize as before: {json}");
        let back: VantagePoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vp, "missing field deserializes to dual-stack");
        vp.stack = ClientStack::V6OnlyClat;
        let json = serde_json::to_string(&vp).unwrap();
        assert!(json.contains("v6-only-clat"), "{json}");
        let back: VantagePoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stack, ClientStack::V6OnlyClat);
    }
}
