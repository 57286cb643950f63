//! Authoritative zone database.
//!
//! A site's IPv6 accessibility is, at DNS level, the presence of a AAAA
//! record. The database is *time-aware*: each entry records the campaign
//! week from which its AAAA record exists, so reachability timelines
//! (Fig 1) fall out of plain DNS queries at different times.
//!
//! Names are interned: the database owns a [`NameTable`] and stores entries
//! in a dense vector indexed by [`NameId`], so a million-site zone is one
//! byte arena plus one entry array instead of a map of heap strings.

use crate::names::{NameId, NameTable};
use crate::records::{Answer, Record, RecordData, RecordType};
use serde::{DeError, Deserialize, Serialize, Value};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Authoritative data for one name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneEntry {
    /// IPv4 address (every monitored site has one).
    pub v4: Ipv4Addr,
    /// IPv6 address, if the site ever becomes IPv6-accessible.
    pub v6: Option<Ipv6Addr>,
    /// Week index from which the AAAA record is published.
    pub v6_from_week: u32,
    /// Record TTL in seconds.
    pub ttl: u32,
}

impl ZoneEntry {
    /// The authority's answer to `qtype` as of campaign `week`: the A
    /// record always, the AAAA record from its publication week on, and
    /// NODATA otherwise.
    pub(crate) fn answer(&self, qtype: RecordType, week: u32) -> Answer {
        match qtype {
            RecordType::A => Answer::record(RecordData::V4(self.v4), self.ttl),
            RecordType::Aaaa => match self.v6 {
                Some(v6) if week >= self.v6_from_week => {
                    Answer::record(RecordData::V6(v6), self.ttl)
                }
                _ => Answer::NODATA,
            },
        }
    }
}

/// The simulated global DNS: interned name → entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZoneDb {
    names: NameTable,
    /// Indexed by [`NameId`]; `None` for interned names without records.
    entries: Vec<Option<ZoneEntry>>,
    occupied: usize,
}

impl ZoneDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// A database that adopts an existing name table (e.g. the site
    /// population's), so [`NameId`]s minted elsewhere stay valid here.
    pub fn with_names(names: NameTable) -> Self {
        let entries = vec![None; names.len()];
        ZoneDb { names, entries, occupied: 0 }
    }

    /// Registers (or replaces) a name, interning it if new.
    pub fn insert(&mut self, name: impl AsRef<str>, entry: ZoneEntry) -> NameId {
        let id = self.names.intern(name.as_ref());
        if id.index() >= self.entries.len() {
            self.entries.resize(id.index() + 1, None);
        }
        self.insert_id(id, entry);
        id
    }

    /// Registers (or replaces) the entry of an already-interned name.
    ///
    /// # Panics
    /// Panics if `id` was not minted by this database's name table.
    pub fn insert_id(&mut self, id: NameId, entry: ZoneEntry) {
        assert!(id.index() < self.names.len(), "unknown NameId {}", id.0);
        let slot = &mut self.entries[id.index()];
        if slot.is_none() {
            self.occupied += 1;
        }
        *slot = Some(entry);
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when no names are registered.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The name table backing this zone.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The string form of an interned name.
    ///
    /// # Panics
    /// Panics if `id` was not minted by this database's name table.
    pub fn name_of(&self, id: NameId) -> &str {
        self.names.get(id)
    }

    /// The id of `name`, if interned.
    pub fn id_of(&self, name: &str) -> Option<NameId> {
        self.names.id_of(name)
    }

    /// Raw entry lookup by name.
    pub fn entry(&self, name: &str) -> Option<&ZoneEntry> {
        self.entry_by_id(self.names.id_of(name)?)
    }

    /// Raw entry lookup by interned id.
    pub fn entry_by_id(&self, id: NameId) -> Option<&ZoneEntry> {
        self.entries.get(id.index())?.as_ref()
    }

    /// Authoritative answer for `(name, qtype)` as of campaign `week`, as
    /// owned records.
    /// Returns an empty vec for NODATA (name exists, no such record) and
    /// `None` for NXDOMAIN.
    pub fn query(&self, name: &str, qtype: RecordType, week: u32) -> Option<Vec<Record>> {
        let answer = self.entry(name)?.answer(qtype, week);
        Some(
            answer
                .iter()
                .map(|r| Record { name: name.to_string(), data: r.data, ttl: r.ttl })
                .collect(),
        )
    }

    /// Whether `name` has both A and AAAA as of `week` — the study's
    /// dual-stack criterion.
    pub fn is_dual_stack(&self, name: &str, week: u32) -> bool {
        matches!(self.query(name, RecordType::Aaaa, week), Some(v) if !v.is_empty())
    }
}

impl Serialize for ZoneDb {
    fn to_value(&self) -> Value {
        // `(name, entry)` pairs in interning order — deterministic, and the
        // table is rebuilt (not persisted) on the way back in.
        Value::Arr(
            self.names
                .iter()
                .filter_map(|(id, name)| {
                    self.entry_by_id(id).map(|e| Value::Arr(vec![name.to_value(), e.to_value()]))
                })
                .collect(),
        )
    }
}

impl Deserialize for ZoneDb {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs: Vec<(String, ZoneEntry)> = Deserialize::from_value(v)?;
        let mut db = ZoneDb::new();
        for (name, entry) in pairs {
            db.insert(name, entry);
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.insert(
            "dual.example",
            ZoneEntry {
                v4: Ipv4Addr::new(192, 0, 2, 1),
                v6: Some("2001:db8::1".parse().unwrap()),
                v6_from_week: 10,
                ttl: 300,
            },
        );
        db.insert(
            "v4only.example",
            ZoneEntry { v4: Ipv4Addr::new(192, 0, 2, 2), v6: None, v6_from_week: 0, ttl: 300 },
        );
        db
    }

    #[test]
    fn a_record_always_answered() {
        let db = db();
        let ans = db.query("dual.example", RecordType::A, 0).unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].data, RecordData::V4(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn aaaa_appears_at_publication_week() {
        let db = db();
        assert!(db.query("dual.example", RecordType::Aaaa, 9).unwrap().is_empty());
        assert_eq!(db.query("dual.example", RecordType::Aaaa, 10).unwrap().len(), 1);
        assert_eq!(db.query("dual.example", RecordType::Aaaa, 50).unwrap().len(), 1);
    }

    #[test]
    fn v4_only_site_nodata_for_aaaa() {
        let db = db();
        let ans = db.query("v4only.example", RecordType::Aaaa, 99).unwrap();
        assert!(ans.is_empty(), "NODATA, not NXDOMAIN");
    }

    #[test]
    fn unknown_name_nxdomain() {
        assert_eq!(db().query("nope.example", RecordType::A, 0), None);
    }

    #[test]
    fn dual_stack_check_tracks_week() {
        let db = db();
        assert!(!db.is_dual_stack("dual.example", 9));
        assert!(db.is_dual_stack("dual.example", 10));
        assert!(!db.is_dual_stack("v4only.example", 10));
        assert!(!db.is_dual_stack("nope.example", 10));
    }

    #[test]
    fn insert_replaces() {
        let mut db = db();
        assert_eq!(db.len(), 2);
        db.insert(
            "dual.example",
            ZoneEntry { v4: Ipv4Addr::new(198, 51, 100, 7), v6: None, v6_from_week: 0, ttl: 60 },
        );
        assert_eq!(db.len(), 2);
        assert!(!db.is_dual_stack("dual.example", 99));
    }

    #[test]
    fn interned_ids_resolve_entries() {
        let db = db();
        let id = db.id_of("dual.example").expect("interned");
        assert_eq!(db.name_of(id), "dual.example");
        assert_eq!(db.entry_by_id(id), db.entry("dual.example"));
    }

    #[test]
    fn adopted_name_table_keeps_ids_valid() {
        let mut names = NameTable::new();
        let a = names.intern("a.example");
        let b = names.intern("b.example");
        let mut db = ZoneDb::with_names(names);
        assert!(db.is_empty());
        db.insert_id(
            a,
            ZoneEntry { v4: Ipv4Addr::new(192, 0, 2, 9), v6: None, v6_from_week: 0, ttl: 60 },
        );
        assert_eq!(db.len(), 1);
        assert!(db.entry("a.example").is_some());
        assert!(db.entry_by_id(b).is_none(), "interned but record-less name is NXDOMAIN");
        assert_eq!(db.query("b.example", RecordType::A, 0), None);
    }

    #[test]
    fn serde_roundtrip() {
        let db = db();
        let json = serde_json::to_string(&db).unwrap();
        let back: ZoneDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back, db);
    }
}
