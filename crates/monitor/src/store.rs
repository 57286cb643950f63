//! The crash-safe record store: one write protocol and one recovery scan
//! for everything the workspace persists — per-round campaign checkpoints
//! and their population stamp, `ipv6webd`'s job records and reports, and
//! the sweep's study records, heartbeats and merged outputs.
//!
//! * [`write_atomic`] writes `<file>.<pid>.tmp` and renames it into place,
//!   so a reader (or the next boot) only ever sees complete documents. The
//!   pid keeps two processes that finish the same file — a respawned
//!   worker racing an orphan — from tearing each other's temp file; both
//!   write identical bytes, so whichever renames last changes nothing.
//! * [`remove_torn_tmp`] deletes the `*.tmp` files a crash mid-write left
//!   behind.
//! * [`scan`] is the recovery pass over a record directory: it removes
//!   torn temp files, quarantines unparseable or misnamed records as
//!   `<name>.corrupt` (counted on `store.quarantined`; a record is never
//!   half-read), and returns the survivors for the caller to sort.
//!
//! The protocol survives the death of a process mid-write (`SIGKILL`, a
//! panic). It does not `fsync`, so it makes no promise across a power
//! loss.

use serde::Deserialize;
use std::io;
use std::path::{Path, PathBuf};

/// Atomically replaces `path` with `bytes` via a pid-suffixed temp sibling.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = with_suffix(path, &format!(".{}.tmp", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// The directory's entries with UTF-8 names, sorted so quarantine order
/// (and with it logs and tests) is deterministic.
fn entries(dir: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut out: Vec<(PathBuf, String)> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| Some((e.path(), e.file_name().into_string().ok()?)))
        .collect();
    out.sort();
    Ok(out)
}

/// Deletes every torn `*.tmp` file in `dir`, returning how many.
pub fn remove_torn_tmp(dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for (path, name) in entries(dir)? {
        if name.ends_with(".tmp") {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// What a [`scan`] found.
#[derive(Debug)]
pub struct ScanOutcome<T> {
    /// Parseable records under their expected names, in file-name order.
    pub records: Vec<T>,
    /// Unparseable or misnamed records, renamed to `<name>.corrupt`.
    pub quarantined: Vec<PathBuf>,
    /// Torn `*.tmp` files deleted.
    pub removed_tmp: usize,
}

/// Recovery pass over the record directory `dir`.
///
/// Torn temp files are deleted first. Every file `is_record` accepts must
/// parse as a `T` whose `file_name` is the file's own name; anything else
/// is quarantined. Other files (reports, heartbeats, checkpoint
/// directories, merged outputs) are left alone, so a second scan is a
/// no-op.
pub fn scan<T: Deserialize>(
    dir: &Path,
    is_record: impl Fn(&str) -> bool,
    file_name: impl Fn(&T) -> String,
) -> io::Result<ScanOutcome<T>> {
    let removed_tmp = remove_torn_tmp(dir)?;
    let mut out = ScanOutcome { records: Vec::new(), quarantined: Vec::new(), removed_tmp };
    for (path, name) in entries(dir)? {
        if !is_record(&name) {
            continue;
        }
        let parsed = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str::<T>(&text).ok())
            .filter(|rec| file_name(rec) == name);
        match parsed {
            Some(rec) => out.records.push(rec),
            None => {
                let corrupt = with_suffix(&path, ".corrupt");
                std::fs::rename(&path, &corrupt)?;
                ipv6web_obs::inc("store.quarantined");
                out.quarantined.push(corrupt);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        id: String,
        n: u64,
    }

    fn rec(id: &str, n: u64) -> Rec {
        Rec { id: id.to_string(), n }
    }

    fn file_name(r: &Rec) -> String {
        format!("{}.json", r.id)
    }

    fn scan_dir(dir: &Path) -> ScanOutcome<Rec> {
        let is_record = |name: &str| name.starts_with("rec-") && name.ends_with(".json");
        scan(dir, is_record, file_name).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipv6web-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn save(dir: &Path, r: &Rec) {
        let json = serde_json::to_string_pretty(r).unwrap();
        write_atomic(&dir.join(file_name(r)), json.as_bytes()).unwrap();
    }

    #[test]
    fn scan_recovers_from_torn_writes_and_corrupt_records() {
        let dir = tmpdir("recovery");
        save(&dir, &rec("rec-2", 2));
        save(&dir, &rec("rec-1", 1));
        // torn temp files, under the pid-suffixed name and the older
        // un-suffixed one
        std::fs::write(dir.join("rec-3.json.4242.tmp"), b"{\"id\": \"rec-").unwrap();
        std::fs::write(dir.join("rec-4.json.tmp"), b"{").unwrap();
        // a truncated record, and a valid record under the wrong name (a
        // stray copy must not be trusted as the record its name claims)
        std::fs::write(dir.join("rec-5.json"), b"{\"id\": \"rec-5\"").unwrap();
        let stray = serde_json::to_string_pretty(&rec("rec-1", 1)).unwrap();
        std::fs::write(dir.join("rec-9.json"), stray).unwrap();

        ipv6web_obs::reset();
        ipv6web_obs::enable();
        let out = scan_dir(&dir);
        let counted = ipv6web_obs::snapshot().counters.get("store.quarantined").copied();
        ipv6web_obs::disable();
        ipv6web_obs::reset();
        assert_eq!(out.records, vec![rec("rec-1", 1), rec("rec-2", 2)]);
        assert_eq!(out.removed_tmp, 2);
        let corrupt = vec![dir.join("rec-5.json.corrupt"), dir.join("rec-9.json.corrupt")];
        assert_eq!(out.quarantined, corrupt);
        assert!(corrupt.iter().all(|p| p.exists()));
        assert_eq!(counted, Some(2));
        assert!(!dir.join("rec-3.json.4242.tmp").exists() && !dir.join("rec-4.json.tmp").exists());

        // a second scan is a no-op: quarantined files stay put
        let again = scan_dir(&dir);
        assert_eq!(again.records, out.records);
        assert!(again.quarantined.is_empty());
        assert_eq!(again.removed_tmp, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_ignores_foreign_files_directories_and_merged_outputs() {
        let dir = tmpdir("foreign");
        save(&dir, &rec("rec-1", 1));
        std::fs::write(dir.join("README.txt"), b"hello").unwrap();
        std::fs::write(dir.join("results.json"), b"{}").unwrap();
        std::fs::write(dir.join("rec-1.hb"), b"7").unwrap();
        std::fs::create_dir_all(dir.join("rec-1.ckpt")).unwrap();
        let out = scan_dir(&dir);
        assert_eq!(out.records, vec![rec("rec-1", 1)]);
        assert!(out.quarantined.is_empty(), "{:?}", out.quarantined);
        assert_eq!(out.removed_tmp, 0, "writes leave no temp file behind");
        assert!(dir.join("rec-1.ckpt").is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
