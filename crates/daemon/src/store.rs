//! The crash-safe on-disk job store.
//!
//! One directory holds everything the daemon must survive a `SIGKILL`
//! with, keyed by job id:
//!
//! * `{id}.json` — the [`JobRecord`], rewritten on every state change;
//! * `{id}.ckpt/` — the study's per-vantage round checkpoints, which is
//!   what lets a rebooted daemon resume a killed job from its last
//!   completed round;
//! * `{id}.report.json` — the finished report, byte-identical to
//!   `repro --json` output for the same scenario.
//!
//! Writes and the boot-time [`JobStore::scan`] follow the shared record
//! store ([`ipv6web_monitor::store`]): every write is an atomic
//! `<file>.<pid>.tmp` + rename, and the scan deletes torn temp files,
//! quarantines unparseable records as `*.corrupt` and returns the
//! survivors in submission order.

use crate::job::JobRecord;
use ipv6web_monitor::store::{self, ScanOutcome};
use std::io;
use std::path::{Path, PathBuf};

/// Handle on the store directory.
#[derive(Debug, Clone)]
pub struct JobStore {
    dir: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<JobStore> {
        std::fs::create_dir_all(dir)?;
        Ok(JobStore { dir: dir.to_path_buf() })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a job's record document.
    pub fn record_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    /// Path of a job's finished report.
    pub fn report_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.report.json"))
    }

    /// Per-job checkpoint directory handed to the study driver.
    pub fn checkpoint_dir(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.ckpt"))
    }

    /// Persists a record (atomic; overwrites any previous version).
    pub fn save(&self, record: &JobRecord) -> io::Result<()> {
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        store::write_atomic(&self.record_path(&record.id), json.as_bytes())
    }

    /// Persists a finished report (atomic).
    pub fn save_report(&self, id: &str, bytes: &[u8]) -> io::Result<()> {
        store::write_atomic(&self.report_path(id), bytes)
    }

    /// Reads a finished report back, `None` when absent.
    pub fn load_report(&self, id: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.report_path(id)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Boot-time recovery sweep over the store directory; records come
    /// back sorted by submission sequence.
    pub fn scan(&self) -> io::Result<ScanOutcome<JobRecord>> {
        let is_record = |name: &str| {
            name.starts_with("job-") && name.ends_with(".json") && !name.ends_with(".report.json")
        };
        let mut out =
            store::scan(&self.dir, is_record, |rec: &JobRecord| format!("{}.json", rec.id))?;
        out.records.sort_by_key(|r| r.seq);
        Ok(out)
    }

    /// One past the highest sequence number present (1 for an empty
    /// store). Quarantined records are not counted: ids must be unique
    /// among live records, not continuous.
    pub fn next_seq(records: &[JobRecord]) -> u64 {
        records.iter().map(|r| r.seq).max().unwrap_or(0) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRecord, JobState};
    use ipv6web_core::Scenario;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipv6webd-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = JobStore::open(&dir).unwrap();
        let mut a = JobRecord::new(1, Scenario::quick(1));
        let b = JobRecord::new(2, Scenario::quick(2));
        a.state = JobState::Running;
        store.save(&b).unwrap();
        store.save(&a).unwrap();
        // reports and checkpoint directories are not records
        store.save_report(&b.id, b"{}").unwrap();
        std::fs::create_dir_all(store.checkpoint_dir(&a.id)).unwrap();

        let scan = store.scan().unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].id, a.id);
        assert_eq!(scan.records[0].state, JobState::Running);
        assert_eq!(scan.records[1].id, b.id);
        assert!(scan.quarantined.is_empty());
        assert_eq!(scan.removed_tmp, 0);
        assert_eq!(store.load_report(&b.id).unwrap().unwrap(), b"{}");
        assert_eq!(store.load_report(&a.id).unwrap(), None);
        assert_eq!(JobStore::next_seq(&scan.records), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
