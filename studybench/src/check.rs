//! Correctness checks on every study: the report digest, the exact
//! counts that must repeat across traced runs, and fresh checkpoint
//! directories.

use ipv6web_core::Report;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// The report as `repro all --json F --metrics M` writes `F`: the report
/// value, pretty-printed, without a `timings` key.
pub fn report_bytes(report: &Report) -> String {
    let value = serde_json::to_value(report).expect("report serializes");
    serde_json::to_string_pretty(&value).expect("report serializes")
}

/// FNV-1a over the report bytes, printed as `fnv1a64:<16 hex digits>`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}

/// Fails unless `report` serializes to bytes with the `expected` digest.
pub fn check_digest(expected: &str, report: &Report) -> Result<(), String> {
    let got = digest(report_bytes(report).as_bytes());
    if got == expected {
        Ok(())
    } else {
        Err(format!("report digest {got} differs from {expected}"))
    }
}

/// Prepares `dir` as a study's checkpoint directory. A study that finds
/// earlier checkpoints resumes from them and probes nothing, so anything
/// but a missing or empty directory is refused.
pub fn fresh_checkpoint_dir(dir: &Path) -> Result<(), String> {
    match std::fs::read_dir(dir) {
        Ok(mut entries) => {
            if entries.next().is_some() {
                return Err(format!("refusing non-empty checkpoint directory {}", dir.display()));
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint directory {}: {e}", dir.display())),
        Err(e) => Err(format!("cannot read checkpoint directory {}: {e}", dir.display())),
    }
}

/// What every run of one `(workload, seed)` must reproduce: the report
/// digest, and the exact counts of the traced run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Expected {
    /// Report digest.
    pub digest: String,
    /// Exact counts from the traced run; empty until a traced run.
    pub counts: BTreeMap<String, u64>,
}

/// Compares this run's digest (and, for a traced run, its exact counts)
/// with what earlier runs of the same `(workload, seed)` recorded at
/// `path`, and records them when nothing was recorded yet. Returns every
/// mismatch.
pub fn check_expected(
    path: &Path,
    digest: &str,
    counts: Option<&BTreeMap<String, u64>>,
) -> Result<(), String> {
    let mut expected: Expected = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map_err(|e| format!("corrupt expectation file {}: {e}", path.display()))?,
        Err(_) => Expected::default(),
    };
    let mut errors = Vec::new();
    let mut changed = false;
    if expected.digest.is_empty() {
        expected.digest = digest.to_string();
        changed = true;
    } else if expected.digest != digest {
        errors
            .push(format!("report digest {digest} differs from earlier runs' {}", expected.digest));
    }
    if let Some(counts) = counts {
        if expected.counts.is_empty() {
            expected.counts = counts.clone();
            changed = true;
        } else {
            for (name, want) in &expected.counts {
                let got = counts.get(name).copied().unwrap_or(0);
                if got != *want {
                    errors.push(format!("exact count {name} = {got}, earlier traced runs {want}"));
                }
            }
        }
    }
    if changed {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        let text = serde_json::to_string_pretty(&expected).expect("expectations serialize");
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}
