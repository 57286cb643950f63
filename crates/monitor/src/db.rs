//! Per-vantage results database.
//!
//! The paper's tool stores round results "in several tables in a mysql
//! database"; each vantage point keeps a local database and a common
//! repository aggregates them. [`MonitorDb`] is the in-memory equivalent,
//! serializable with serde for snapshotting.

use ipv6web_web::SiteId;
use serde::{DeError, Deserialize, Serialize, Value};

/// One accepted performance measurement (a round's mean download speed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Campaign week of the round.
    pub week: u32,
    /// Mean download speed accepted by the confidence rule, kB/s.
    pub speed_kbps: f64,
    /// Downloads it took to satisfy the confidence rule.
    pub downloads: u32,
}

/// Everything a vantage point knows about one site.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SiteRecord {
    /// Week the site joined this vantage point's monitored set.
    pub added_week: u32,
    /// Latest A-record observation.
    pub has_a: bool,
    /// Latest AAAA-record observation.
    pub has_aaaa: bool,
    /// First week both records were seen (IPv6 reachability timestamp).
    pub dual_since: Option<u32>,
    /// Latest page-identity verdict (None = never dual-downloaded).
    pub content_identical: Option<bool>,
    /// Accepted per-round IPv4 speed samples.
    pub samples_v4: Vec<PerfSample>,
    /// Accepted per-round IPv6 speed samples.
    pub samples_v6: Vec<PerfSample>,
    /// Rounds where the performance phase gave up (no confidence).
    pub unconfident_rounds: u32,
    /// Rounds discarded because a response failed to parse.
    pub malformed_rounds: u32,
    /// Rounds lost to injected faults (DNS failure or exchange timeout).
    pub faulted_rounds: u32,
}

impl SiteRecord {
    /// Paired samples (same week present in both families), the unit the
    /// cross-family analysis runs on.
    ///
    /// Samples are appended in round (week) order, so this is a two-pointer
    /// merge walk over the two sorted vectors — no per-call set allocation,
    /// which matters because the sanitizer runs it once per site per
    /// analysis pass. A v4 week that appears several times (the IPv6 Day
    /// databases stack all rounds on one week) is emitted once per v4
    /// sample, exactly like the set-membership implementation it replaces.
    pub fn paired_weeks(&self) -> Vec<u32> {
        debug_assert!(
            self.samples_v4.windows(2).all(|w| w[0].week <= w[1].week),
            "v4 samples out of week order"
        );
        debug_assert!(
            self.samples_v6.windows(2).all(|w| w[0].week <= w[1].week),
            "v6 samples out of week order"
        );
        let mut out = Vec::new();
        let mut j = 0;
        for s in &self.samples_v4 {
            while j < self.samples_v6.len() && self.samples_v6[j].week < s.week {
                j += 1;
            }
            if j < self.samples_v6.len() && self.samples_v6[j].week == s.week {
                out.push(s.week);
            }
        }
        out
    }
}

/// A vantage point's results database.
///
/// Records live in an insertion-ordered arena indexed by a dense
/// `site index → slot` table instead of a per-site tree: at the
/// internet tier a vantage point touches ~10⁶ sites, and the arena
/// keeps that to two flat allocations (plus each record's sample
/// vectors) with O(1) lookup. [`MonitorDb::iter`] presents the
/// canonical site-id order regardless of insertion order, and
/// equality/serialization go through that view, so campaigns that
/// touch sites in different orders (resume, merge) still compare and
/// snapshot identically.
#[derive(Debug, Clone, Default)]
pub struct MonitorDb {
    /// Vantage point name this database belongs to.
    pub vantage: String,
    /// `site.index() → slot + 1` (0 = never touched). Grows to the
    /// highest touched site index, which is bounded by the population.
    slots: Vec<u32>,
    /// Arena of records in first-touch order, parallel per slot.
    records: Vec<SiteRecord>,
    /// Weeks this vantage point was down entirely (injected outage); no
    /// round ran, nothing was recorded.
    pub outage_weeks: Vec<u32>,
    /// Rounds completed so far: weeks `< completed_weeks` are done (probed
    /// or skipped as an outage). The campaign resume point.
    pub completed_weeks: u32,
}

impl MonitorDb {
    /// Fresh database for a vantage point.
    pub fn new(vantage: impl Into<String>) -> Self {
        MonitorDb {
            vantage: vantage.into(),
            slots: Vec::new(),
            records: Vec::new(),
            outage_weeks: Vec::new(),
            completed_weeks: 0,
        }
    }

    /// Record for `site`, creating it (with `added_week`) on first touch.
    pub fn record_mut(&mut self, site: SiteId, added_week: u32) -> &mut SiteRecord {
        let i = site.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, 0);
        }
        if self.slots[i] == 0 {
            self.records.push(SiteRecord { added_week, ..SiteRecord::default() });
            self.slots[i] =
                u32::try_from(self.records.len()).expect("u32 site space bounds slot count");
        }
        &mut self.records[(self.slots[i] - 1) as usize]
    }

    /// Read-only record lookup.
    pub fn record(&self, site: SiteId) -> Option<&SiteRecord> {
        match self.slots.get(site.index()) {
            Some(&slot) if slot != 0 => Some(&self.records[(slot - 1) as usize]),
            _ => None,
        }
    }

    /// All `(site, record)` pairs in site order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, &SiteRecord)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != 0)
            .map(|(i, &slot)| (SiteId(i as u32), &self.records[(slot - 1) as usize]))
    }

    /// Number of sites ever touched.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no site was touched.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sites observed dual-stack (both records seen at some round).
    pub fn dual_stack_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.iter().filter(|(_, r)| r.dual_since.is_some()).map(|(s, _)| s)
    }

    /// Fraction of monitored sites that were IPv6-reachable as of `week`
    /// (the Fig 1 series): sites whose `dual_since ≤ week`, over sites
    /// monitored by `week`.
    pub fn reachability_at(&self, week: u32) -> f64 {
        let monitored = self.records.iter().filter(|r| r.added_week <= week).count();
        if monitored == 0 {
            return 0.0;
        }
        let dual = self
            .records
            .iter()
            .filter(|r| r.added_week <= week && r.dual_since.is_some_and(|w| w <= week))
            .count();
        dual as f64 / monitored as f64
    }

    /// Writes the database as pretty JSON (the central repository's
    /// archival format).
    ///
    /// The write is atomic ([`crate::store::write_atomic`]), so a crash
    /// mid-write (or mid-campaign checkpoint) never leaves a torn snapshot
    /// behind. Errors carry the target path.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let with_path =
            |e: std::io::Error| std::io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
            .map_err(with_path)?;
        crate::store::write_atomic(path, json.as_bytes()).map_err(with_path)
    }

    /// Loads a database written by [`MonitorDb::save_json`].
    pub fn load_json(path: impl AsRef<std::path::Path>) -> std::io::Result<MonitorDb> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Merges another vantage's worth of records under site-id keys into a
    /// combined repository view (used by the central aggregation at
    /// "Penn"). Existing records are kept; the merge is additive per site
    /// and per sample list.
    pub fn merge_samples_from(&mut self, other: &MonitorDb) {
        for (site, rec) in other.iter() {
            let mine = self.record_mut(site, rec.added_week);
            mine.has_a |= rec.has_a;
            mine.has_aaaa |= rec.has_aaaa;
            mine.dual_since = match (mine.dual_since, rec.dual_since) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if mine.content_identical.is_none() {
                mine.content_identical = rec.content_identical;
            }
            mine.samples_v4.extend_from_slice(&rec.samples_v4);
            mine.samples_v6.extend_from_slice(&rec.samples_v6);
            // restore the week-sortedness invariant `paired_weeks` walks on
            // (stable: same-week samples keep their per-database order)
            mine.samples_v4.sort_by_key(|s| s.week);
            mine.samples_v6.sort_by_key(|s| s.week);
            mine.unconfident_rounds += rec.unconfident_rounds;
            mine.malformed_rounds += rec.malformed_rounds;
            mine.faulted_rounds += rec.faulted_rounds;
        }
    }
}

/// Equality over the canonical (site-ordered) view: two databases with
/// the same records are equal even when first-touch order differed
/// (a resumed campaign replays weeks, a merge interleaves vantages).
impl PartialEq for MonitorDb {
    fn eq(&self, other: &Self) -> bool {
        self.vantage == other.vantage
            && self.len() == other.len()
            && self.iter().eq(other.iter())
            && self.outage_weeks == other.outage_weeks
            && self.completed_weeks == other.completed_weeks
    }
}

/// Snapshots serialize records as `[site_id, record]` pairs in site
/// order — the arena's slot table is an in-memory acceleration
/// structure, not part of the archival format.
///
/// `"round_errors": []` is archival: earlier builds require the key when
/// they load a checkpoint, so writing it keeps checkpoints byte-identical
/// and resumable in both directions. Loading ignores it.
impl Serialize for MonitorDb {
    fn to_value(&self) -> Value {
        let records: Vec<Value> = self
            .iter()
            .map(|(site, rec)| Value::Arr(vec![site.to_value(), rec.to_value()]))
            .collect();
        Value::Obj(vec![
            ("vantage".to_string(), self.vantage.to_value()),
            ("records".to_string(), Value::Arr(records)),
            ("round_errors".to_string(), Value::Arr(Vec::new())),
            ("outage_weeks".to_string(), self.outage_weeks.to_value()),
            ("completed_weeks".to_string(), self.completed_weeks.to_value()),
        ])
    }
}

impl Deserialize for MonitorDb {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.get_field(name).ok_or_else(|| DeError::new(format!("MonitorDb missing `{name}`")))
        };
        let mut db = MonitorDb::new(String::from_value(field("vantage")?)?);
        let pairs: Vec<(SiteId, SiteRecord)> = Deserialize::from_value(field("records")?)?;
        for (site, rec) in pairs {
            let added = rec.added_week;
            *db.record_mut(site, added) = rec;
        }
        db.outage_weeks = Deserialize::from_value(field("outage_weeks")?)?;
        db.completed_weeks = Deserialize::from_value(field("completed_weeks")?)?;
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(week: u32, speed: f64) -> PerfSample {
        PerfSample { week, speed_kbps: speed, downloads: 4 }
    }

    #[test]
    fn record_created_on_first_touch() {
        let mut db = MonitorDb::new("Penn");
        assert!(db.is_empty());
        db.record_mut(SiteId(5), 3).has_a = true;
        assert_eq!(db.len(), 1);
        assert_eq!(db.record(SiteId(5)).unwrap().added_week, 3);
        // second touch does not reset added_week
        db.record_mut(SiteId(5), 9);
        assert_eq!(db.record(SiteId(5)).unwrap().added_week, 3);
    }

    #[test]
    fn paired_weeks_intersects_families() {
        let r = SiteRecord {
            samples_v4: vec![sample(1, 10.0), sample(2, 11.0), sample(4, 12.0)],
            samples_v6: vec![sample(2, 9.0), sample(3, 9.0), sample(4, 9.0)],
            ..SiteRecord::default()
        };
        assert_eq!(r.paired_weeks(), vec![2, 4]);
    }

    #[test]
    fn paired_weeks_preserves_v4_multiplicity() {
        // IPv6 Day databases stack every round's samples on one week; the
        // pairing must emit the week once per v4 sample, like the old
        // set-membership implementation did.
        let r = SiteRecord {
            samples_v4: vec![sample(10, 10.0), sample(10, 11.0), sample(10, 12.0)],
            samples_v6: vec![sample(10, 9.0), sample(10, 9.5)],
            ..SiteRecord::default()
        };
        assert_eq!(r.paired_weeks(), vec![10, 10, 10]);
    }

    #[test]
    fn paired_weeks_empty_families() {
        let mut r = SiteRecord::default();
        assert!(r.paired_weeks().is_empty());
        r.samples_v4 = vec![sample(1, 1.0)];
        assert!(r.paired_weeks().is_empty(), "no v6 samples, nothing pairs");
        r.samples_v4.clear();
        r.samples_v6 = vec![sample(1, 1.0)];
        assert!(r.paired_weeks().is_empty(), "no v4 samples, nothing pairs");
    }

    #[test]
    fn merge_restores_week_order_for_pairing() {
        // central has later weeks than the incoming db; after the merge
        // the sample vectors must be week-sorted again so paired_weeks'
        // two-pointer walk sees its invariant
        let mut central = MonitorDb::new("repo");
        let r = central.record_mut(SiteId(1), 0);
        r.samples_v4.push(sample(5, 10.0));
        r.samples_v6.push(sample(5, 9.0));
        let mut other = MonitorDb::new("other");
        let o = other.record_mut(SiteId(1), 0);
        o.samples_v4.push(sample(2, 8.0));
        o.samples_v6.push(sample(2, 7.0));
        central.merge_samples_from(&other);
        let m = central.record(SiteId(1)).unwrap();
        let weeks: Vec<u32> = m.samples_v4.iter().map(|s| s.week).collect();
        assert_eq!(weeks, vec![2, 5]);
        assert_eq!(m.paired_weeks(), vec![2, 5]);
    }

    #[test]
    fn reachability_series() {
        let mut db = MonitorDb::new("x");
        // 4 sites monitored from week 0; one goes dual at week 2, another at week 5
        for i in 0..4 {
            db.record_mut(SiteId(i), 0);
        }
        db.record_mut(SiteId(0), 0).dual_since = Some(2);
        db.record_mut(SiteId(1), 0).dual_since = Some(5);
        assert_eq!(db.reachability_at(0), 0.0);
        assert_eq!(db.reachability_at(2), 0.25);
        assert_eq!(db.reachability_at(5), 0.5);
        // site added later enters the denominator only from its week
        db.record_mut(SiteId(9), 6);
        assert_eq!(db.reachability_at(5), 0.5);
        assert_eq!(db.reachability_at(6), 0.4);
    }

    #[test]
    fn reachability_empty_db_zero() {
        assert_eq!(MonitorDb::new("x").reachability_at(10), 0.0);
    }

    #[test]
    fn dual_stack_sites_listing() {
        let mut db = MonitorDb::new("x");
        db.record_mut(SiteId(1), 0).dual_since = Some(1);
        db.record_mut(SiteId(2), 0);
        let dual: Vec<SiteId> = db.dual_stack_sites().collect();
        assert_eq!(dual, vec![SiteId(1)]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MonitorDb::new("repo");
        a.record_mut(SiteId(1), 0).samples_v4.push(sample(1, 5.0));
        let mut b = MonitorDb::new("other");
        let r = b.record_mut(SiteId(1), 2);
        r.samples_v4.push(sample(2, 6.0));
        r.dual_since = Some(3);
        r.has_aaaa = true;
        b.record_mut(SiteId(7), 1).has_a = true;

        a.merge_samples_from(&b);
        let m = a.record(SiteId(1)).unwrap();
        assert_eq!(m.samples_v4.len(), 2);
        assert_eq!(m.dual_since, Some(3));
        assert!(m.has_aaaa);
        assert!(a.record(SiteId(7)).unwrap().has_a);
    }

    #[test]
    fn file_snapshot_roundtrip() {
        let mut db = MonitorDb::new("Penn");
        db.record_mut(SiteId(1), 0).samples_v4.push(sample(3, 55.0));
        db.record_mut(SiteId(2), 1).dual_since = Some(4);
        let dir = std::env::temp_dir().join("ipv6web-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("penn.json");
        db.save_json(&path).unwrap();
        let back = MonitorDb::load_json(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("ipv6web-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(MonitorDb::load_json(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn equality_ignores_first_touch_order() {
        let mut a = MonitorDb::new("x");
        a.record_mut(SiteId(9), 1).has_a = true;
        a.record_mut(SiteId(2), 0).has_aaaa = true;
        let mut b = MonitorDb::new("x");
        b.record_mut(SiteId(2), 0).has_aaaa = true;
        b.record_mut(SiteId(9), 1).has_a = true;
        assert_eq!(a, b, "arena insertion order must not leak into equality");
        let ids: Vec<u32> = a.iter().map(|(s, _)| s.0).collect();
        assert_eq!(ids, vec![2, 9], "iteration is in site order");
    }

    #[test]
    fn serde_roundtrip() {
        let mut db = MonitorDb::new("Penn");
        db.record_mut(SiteId(3), 1).samples_v6.push(sample(4, 33.0));
        let json = serde_json::to_string(&db).unwrap();
        let back: MonitorDb = serde_json::from_str(&json).unwrap();
        assert_eq!(db, back);
    }

    /// Checkpoint bytes, recorded from a build that still kept
    /// `round_errors` as a field. Builds on either side of that change
    /// resume each other's checkpoints only while these bytes hold.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let mut db = MonitorDb::new("Penn");
        let r = db.record_mut(SiteId(7), 2);
        r.has_a = true;
        r.has_aaaa = true;
        r.dual_since = Some(3);
        r.content_identical = Some(true);
        r.samples_v4.push(sample(3, 812.5));
        r.samples_v6.push(PerfSample { week: 3, speed_kbps: 640.25, downloads: 6 });
        r.unconfident_rounds = 1;
        let r = db.record_mut(SiteId(2), 4);
        r.has_a = true;
        r.faulted_rounds = 2;
        r.malformed_rounds = 1;
        db.outage_weeks = vec![5];
        db.completed_weeks = 6;
        let json = serde_json::to_string_pretty(&db).unwrap();
        assert_eq!(json, PINNED_CHECKPOINT);
        assert_eq!(serde_json::from_str::<MonitorDb>(PINNED_CHECKPOINT).unwrap(), db);
    }

    const PINNED_CHECKPOINT: &str = r#"{
  "vantage": "Penn",
  "records": [
    [
      2,
      {
        "added_week": 4,
        "has_a": true,
        "has_aaaa": false,
        "dual_since": null,
        "content_identical": null,
        "samples_v4": [],
        "samples_v6": [],
        "unconfident_rounds": 0,
        "malformed_rounds": 1,
        "faulted_rounds": 2
      }
    ],
    [
      7,
      {
        "added_week": 2,
        "has_a": true,
        "has_aaaa": true,
        "dual_since": 3,
        "content_identical": true,
        "samples_v4": [
          {
            "week": 3,
            "speed_kbps": 812.5,
            "downloads": 4
          }
        ],
        "samples_v6": [
          {
            "week": 3,
            "speed_kbps": 640.25,
            "downloads": 6
          }
        ],
        "unconfident_rounds": 1,
        "malformed_rounds": 0,
        "faulted_rounds": 0
      }
    ]
  ],
  "round_errors": [],
  "outage_weeks": [
    5
  ],
  "completed_weeks": 6
}"#;
}
