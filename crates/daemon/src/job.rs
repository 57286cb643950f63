//! Job specifications and records — the unit of work `ipv6webd` accepts.
//!
//! A client `POST`s a [`JobSpec`] (a named scale, or a full inline
//! [`Scenario`], plus an optional fault plan); the daemon resolves it to a
//! concrete scenario, stamps it into a [`JobRecord`], and persists that
//! record through every state change so a killed daemon can pick the job
//! back up from its checkpoints on the next boot.

use ipv6web_core::{Scenario, SpanRecord};
use ipv6web_faults::FaultPlan;
use serde::{Deserialize, Serialize};

/// What a client submits to `POST /jobs`.
///
/// Either a named `scale` (with an optional `seed`, default 42) or a full
/// inline `scenario` — not both. An optional `fault_plan` overlays the
/// resolved scenario. Unknown keys are ignored, among them the schedule
/// flag older clients send: every job runs the one study schedule.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobSpec {
    /// Named scale: one of [`ipv6web_core::SCALES`].
    pub scale: Option<String>,
    /// Seed for a named scale (default 42). Rejected alongside an inline
    /// scenario, which carries its own seed.
    pub seed: Option<u64>,
    /// Full inline scenario; rejected alongside `scale` or `seed`.
    pub scenario: Option<Scenario>,
    /// Fault plan overlay for the resolved scenario.
    pub fault_plan: Option<FaultPlan>,
}

impl JobSpec {
    /// Resolves the spec into a validated scenario
    /// ([`Scenario::resolve_request`]'s rules, then the fault-plan
    /// overlay).
    ///
    /// The scenario's `checkpoint_dir` is always cleared: the job store
    /// owns checkpoint placement (one directory per job id), and a
    /// client-supplied path would break resume-on-restart.
    pub fn resolve(&self) -> Result<Scenario, String> {
        let mut scenario =
            Scenario::resolve_request(self.scale.as_deref(), self.seed, self.scenario.as_ref())?;
        if let Some(plan) = &self.fault_plan {
            scenario.faults = plan.clone();
        }
        scenario.validate().map_err(|msg| format!("invalid scenario: {msg}"))?;
        Ok(scenario)
    }
}

/// Lifecycle of a job. Serialized as its lowercase name, which is what CI
/// polls for (`"running"`, `"done"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the study (checkpointing every round).
    Running,
    /// Finished; the report file is on disk.
    Done,
    /// The study returned an error (recorded on the job).
    Failed,
}

impl JobState {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// The persisted (and served) form of a job. Every mutation is written
/// back to the store with an atomic temp+rename, so the on-disk record is
/// always a complete JSON document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// `job-{seq:06}-{config_hash:016x}` — stable across restarts.
    pub id: String,
    /// Submission sequence number (defines queue order after a reboot).
    pub seq: u64,
    /// Hex [`Scenario::config_hash`] of the resolved scenario.
    pub config_hash: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// How many daemon boots have picked this job back up mid-flight.
    pub resumes: u64,
    /// Failure message when `state == failed`.
    pub error: Option<String>,
    /// Completed top-level study phases, streamed from the obs span log
    /// while the job runs (`campaign: Penn`, `analysis`, …).
    pub phases: Vec<SpanRecord>,
    /// The fully resolved scenario this job runs.
    pub scenario: Scenario,
}

impl JobRecord {
    /// Builds a fresh queued record for a resolved scenario.
    pub fn new(seq: u64, scenario: Scenario) -> JobRecord {
        let hash = scenario.config_hash();
        JobRecord {
            id: format!("job-{seq:06}-{hash:016x}"),
            seq,
            config_hash: format!("{hash:016x}"),
            state: JobState::Queued,
            resumes: 0,
            error: None,
            phases: Vec::new(),
            scenario,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_resolves_to_quick_42() {
        assert_eq!(JobSpec::default().resolve().unwrap(), Scenario::quick(42));
    }

    #[test]
    fn named_scale_and_seed() {
        let spec = JobSpec { scale: Some("faults".into()), seed: Some(7), ..JobSpec::default() };
        assert_eq!(spec.resolve().unwrap(), Scenario::faults(7));
        // submissions written while jobs could select a sequential
        // schedule still parse, and resolve to the same scenario
        let legacy: JobSpec =
            serde_json::from_str("{\"scale\": \"faults\", \"seed\": 7, \"sequential\": true}")
                .unwrap();
        assert_eq!(legacy.resolve().unwrap(), Scenario::faults(7));
    }

    #[test]
    fn inline_scenario_strips_checkpoint_dir() {
        let mut inline = Scenario::quick(3);
        inline.checkpoint_dir = Some("/somewhere/else".into());
        let spec = JobSpec { scenario: Some(inline), ..JobSpec::default() };
        assert_eq!(spec.resolve().unwrap().checkpoint_dir, None);
    }

    #[test]
    fn conflicting_and_invalid_specs_are_rejected() {
        let both = JobSpec {
            scale: Some("quick".into()),
            scenario: Some(Scenario::quick(1)),
            ..JobSpec::default()
        };
        assert!(both.resolve().is_err());

        let seed_with_inline =
            JobSpec { scenario: Some(Scenario::quick(1)), seed: Some(9), ..JobSpec::default() };
        assert!(seed_with_inline.resolve().is_err());

        let bad_scale = JobSpec { scale: Some("galactic".into()), ..JobSpec::default() };
        assert!(bad_scale.resolve().unwrap_err().contains("galactic"));

        let mut broken = Scenario::quick(1);
        broken.campaign.workers = 0;
        let invalid = JobSpec { scenario: Some(broken), ..JobSpec::default() };
        assert!(invalid.resolve().unwrap_err().contains("invalid scenario"));
    }

    #[test]
    fn oversized_inline_site_count_is_rejected() {
        // the population this asks for would abort the daemon on its
        // allocation, so it must never reach the job store
        let mut huge = Scenario::quick(1);
        huge.tail_sites = 5_000_000_000;
        let json = serde_json::to_string(&huge).unwrap();
        assert!(json.contains("\"tail_sites\":5000000000"), "{json}");
        let spec: JobSpec = serde_json::from_str(&format!("{{\"scenario\": {json}}}")).unwrap();
        let err = spec.resolve().unwrap_err();
        assert!(err.contains("invalid scenario"), "{err}");
        assert!(err.contains("tail_sites (5000000000)"), "{err}");
    }

    #[test]
    fn fault_plan_overlay_applies() {
        let plan = Scenario::faults(1).faults;
        assert!(!plan.is_empty());
        let spec = JobSpec { fault_plan: Some(plan.clone()), ..JobSpec::default() };
        assert_eq!(spec.resolve().unwrap().faults, plan);
    }

    #[test]
    fn job_state_roundtrips_lowercase() {
        // serde writes exactly `name()` for every variant and reads it back;
        // CI's daemon smoke polls for "running" and "done"
        for (st, name) in [
            (JobState::Queued, "queued"),
            (JobState::Running, "running"),
            (JobState::Done, "done"),
            (JobState::Failed, "failed"),
        ] {
            assert_eq!(st.name(), name);
            let json = serde_json::to_string(&st).unwrap();
            assert_eq!(json, format!("\"{name}\""));
            assert_eq!(serde_json::from_str::<JobState>(&json).unwrap(), st);
        }
        assert!(serde_json::from_str::<JobState>("\"paused\"").is_err());
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = JobRecord::new(3, Scenario::quick(11));
        assert!(rec.id.starts_with("job-000003-"));
        assert_eq!(rec.config_hash, format!("{:016x}", Scenario::quick(11).config_hash()));
        let json = serde_json::to_string_pretty(&rec).unwrap();
        let back: JobRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.state, JobState::Queued);
        assert_eq!(back.scenario, rec.scenario);
    }
}
