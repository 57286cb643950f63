//! Ranked list snapshots and the accumulate-only monitored set.

use serde::{Deserialize, Serialize};

/// A ranked site list with churn: every site has a rank and the week it
/// first enters the list. Site identities are `u32` indices into whatever
//  population the caller keeps (the `ipv6web-web` crate's `SiteId`s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopList {
    entries: Vec<ListEntry>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct ListEntry {
    id: u32,
    rank: u32,
    first_seen_week: u32,
}

impl TopList {
    /// Builds a list from `(id, rank, first_seen_week)` triples.
    ///
    /// # Panics
    /// Panics on duplicate ids.
    pub fn from_parts(parts: impl IntoIterator<Item = (u32, u32, u32)>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<ListEntry> = parts
            .into_iter()
            .map(|(id, rank, first_seen_week)| {
                assert!(seen.insert(id), "duplicate site id {id}");
                ListEntry { id, rank, first_seen_week }
            })
            .collect();
        TopList { entries }
    }

    /// Total sites ever in the list.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids present in the list snapshot of `week`, best rank first.
    pub fn snapshot(&self, week: u32) -> Vec<u32> {
        let mut present: Vec<&ListEntry> =
            self.entries.iter().filter(|e| e.first_seen_week <= week).collect();
        present.sort_by_key(|e| (e.rank, e.id));
        present.into_iter().map(|e| e.id).collect()
    }

    /// Ids in the top-`k` of the `week` snapshot (Fig 3a's rank buckets).
    pub fn top_k(&self, week: u32, k: usize) -> Vec<u32> {
        let mut s = self.snapshot(week);
        s.truncate(k);
        s
    }

    /// Rank of a site, if it is in the list at all.
    pub fn rank_of(&self, id: u32) -> Option<u32> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.rank)
    }
}

/// `added_week` entry of an id that is not monitored.
const NOT_MONITORED: u32 = u32::MAX;

/// The accumulate-only monitored set: "new sites … are added to the
/// monitoring list and tracked from this point onward" (Section 3).
///
/// Backed by a dense table indexed by site id, like `MonitorDb`'s slot
/// table: site ids are dense indices bounded by the population, so the
/// table grows to the highest id ingested and a lookup is one index.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MonitoredSet {
    /// `id → week added`, [`NOT_MONITORED`] for ids never ingested.
    added_week: Vec<u32>,
    /// Number of monitored ids.
    len: usize,
}

impl MonitoredSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a round's list snapshot (plus any external inputs): ids not
    /// seen before are added with `week` as their addition week. Returns
    /// how many were new.
    ///
    /// # Panics
    /// Panics if `week` is `u32::MAX`, the table's "not monitored" mark.
    pub fn ingest(&mut self, week: u32, ids: impl IntoIterator<Item = u32>) -> usize {
        assert_ne!(week, NOT_MONITORED, "week u32::MAX marks unmonitored ids");
        let mut added = 0;
        for id in ids {
            let i = id as usize;
            if i >= self.added_week.len() {
                self.added_week.resize(i + 1, NOT_MONITORED);
            }
            if self.added_week[i] == NOT_MONITORED {
                self.added_week[i] = week;
                added += 1;
            }
        }
        self.len += added;
        ipv6web_obs::add("alexa.sites_ingested", added as u64);
        added
    }

    /// All monitored ids (ascending).
    pub fn members(&self) -> impl Iterator<Item = u32> + '_ {
        self.added_week
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != NOT_MONITORED)
            .map(|(i, _)| i as u32)
    }

    /// Week a site was added, if monitored.
    pub fn added_week(&self, id: u32) -> Option<u32> {
        self.added_week.get(id as usize).copied().filter(|&w| w != NOT_MONITORED)
    }

    /// Number of monitored sites.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is monitored yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn list() -> TopList {
        TopList::from_parts([
            (0, 1, 0), // top site, present from start
            (1, 2, 0),
            (2, 3, 5), // churns in at week 5
            (3, 4, 0),
            (4, 5, 20), // churns in at week 20
        ])
    }

    #[test]
    fn snapshot_respects_first_seen() {
        let l = list();
        assert_eq!(l.snapshot(0), vec![0, 1, 3]);
        assert_eq!(l.snapshot(5), vec![0, 1, 2, 3]);
        assert_eq!(l.snapshot(30), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn snapshot_ordered_by_rank() {
        let l = TopList::from_parts([(9, 3, 0), (7, 1, 0), (8, 2, 0)]);
        assert_eq!(l.snapshot(0), vec![7, 8, 9]);
    }

    #[test]
    fn top_k_truncates() {
        let l = list();
        assert_eq!(l.top_k(30, 2), vec![0, 1]);
        assert_eq!(l.top_k(30, 100).len(), 5);
    }

    #[test]
    fn rank_lookup() {
        let l = list();
        assert_eq!(l.rank_of(3), Some(4));
        assert_eq!(l.rank_of(99), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_panic() {
        TopList::from_parts([(1, 1, 0), (1, 2, 0)]);
    }

    #[test]
    fn monitored_set_accumulates() {
        let l = list();
        let mut m = MonitoredSet::new();
        assert_eq!(m.ingest(0, l.snapshot(0)), 3);
        assert_eq!(m.len(), 3);
        // week 5: one new site
        assert_eq!(m.ingest(5, l.snapshot(5)), 1);
        // re-ingesting adds nothing
        assert_eq!(m.ingest(6, l.snapshot(5)), 0);
        // sites never leave
        assert_eq!(m.ingest(7, vec![0]), 0);
        assert_eq!(m.len(), 4);
        assert_eq!(m.added_week(2), Some(5));
        assert_eq!(m.added_week(0), Some(0));
        assert_eq!(m.added_week(4), None);
    }

    #[test]
    fn external_inputs_join_the_set() {
        // Penn's DNS-cache tail: ids beyond the ranked list
        let mut m = MonitoredSet::new();
        m.ingest(0, list().snapshot(0));
        let before = m.len();
        m.ingest(3, vec![1000, 1001]);
        assert_eq!(m.len(), before + 2);
        assert_eq!(m.added_week(1000), Some(3));
    }

    #[test]
    fn members_sorted() {
        let mut m = MonitoredSet::new();
        m.ingest(0, vec![5, 1, 9]);
        assert_eq!(m.members().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The dense table behaves like the `BTreeMap<id, week>` it replaced.
        #[test]
        fn monitored_set_matches_tree_model(
            batches in prop::collection::vec(
                (0u32..3, prop::collection::vec(0u32..5000, 0..300)),
                0..12,
            ),
        ) {
            let mut set = MonitoredSet::new();
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            let mut week = 0;
            for (step, ids) in batches {
                week += step;
                let mut added = 0;
                for &id in &ids {
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(id) {
                        e.insert(week);
                        added += 1;
                    }
                }
                prop_assert_eq!(set.ingest(week, ids), added);
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
            }
            prop_assert_eq!(set.members().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
            for id in 0..5010 {
                prop_assert_eq!(set.added_week(id), model.get(&id).copied());
            }
            prop_assert_eq!(set.added_week(u32::MAX), None);
        }
    }
}
