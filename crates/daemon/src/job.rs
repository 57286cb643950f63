//! Job specifications and records — the unit of work `ipv6webd` accepts.
//!
//! A client `POST`s a [`JobSpec`] (a named scale, or a full inline
//! [`Scenario`], plus an optional fault plan); the daemon resolves it to a
//! concrete scenario, stamps it into a [`JobRecord`], and persists that
//! record through every state change so a killed daemon can pick the job
//! back up from its checkpoints on the next boot.

use ipv6web_bench::Scale;
use ipv6web_core::{ExecutionMode, Scenario, SpanRecord};
use ipv6web_faults::FaultPlan;
use serde::{DeError, Deserialize, Serialize, Value};

/// What a client submits to `POST /jobs`.
///
/// Either a named `scale` (with an optional `seed`, default 42) or a full
/// inline `scenario` — not both. An optional `fault_plan` overlays the
/// resolved scenario, and `sequential: true` forces the reference
/// [`ExecutionMode::Sequential`] pipeline (the default is vantage-parallel;
/// both produce byte-identical reports).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobSpec {
    /// Named scale: `quick`, `paper`, `faults`, `internet`,
    /// `internet-smoke`, `nat64`, `panel`.
    pub scale: Option<String>,
    /// Seed for a named scale (default 42). Rejected alongside an inline
    /// scenario, which carries its own seed.
    pub seed: Option<u64>,
    /// Full inline scenario; overrides `scale`/`seed`.
    pub scenario: Option<Scenario>,
    /// Fault plan overlay for the resolved scenario.
    pub fault_plan: Option<FaultPlan>,
    /// Run the reference sequential pipeline instead of vantage-parallel.
    pub sequential: Option<bool>,
}

impl JobSpec {
    /// Resolves the spec into a validated scenario and execution mode.
    ///
    /// The scenario's `checkpoint_dir` is always cleared: the job store
    /// owns checkpoint placement (one directory per job id), and a
    /// client-supplied path would break resume-on-restart.
    pub fn resolve(&self) -> Result<(Scenario, ExecutionMode), String> {
        let mut scenario = match (&self.scenario, &self.scale) {
            (Some(_), Some(_)) => {
                return Err("give either `scale` or an inline `scenario`, not both".into())
            }
            (Some(sc), None) => {
                if self.seed.is_some() {
                    return Err("`seed` only applies to a named `scale`; \
                                an inline scenario carries its own seed"
                        .into());
                }
                sc.clone()
            }
            (None, scale) => {
                let name = scale.as_deref().unwrap_or("quick");
                let scale = Scale::parse(name).ok_or_else(|| {
                    format!(
                        "unknown scale `{name}` (expected quick, paper, faults, \
                         internet, internet-smoke, nat64, or panel)"
                    )
                })?;
                scale.scenario(self.seed.unwrap_or(42))
            }
        };
        if let Some(plan) = &self.fault_plan {
            scenario.faults = plan.clone();
        }
        scenario.checkpoint_dir = None;
        scenario.validate().map_err(|msg| format!("invalid scenario: {msg}"))?;
        let mode = if self.sequential.unwrap_or(false) {
            ExecutionMode::Sequential
        } else {
            ExecutionMode::VantageParallel
        };
        Ok((scenario, mode))
    }
}

/// Lifecycle of a job. Serialized as its lowercase name, which is what CI
/// polls for (`"running"`, `"done"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Inverse of [`JobState::name`].
    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

impl Serialize for JobState {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for JobState {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => {
                JobState::parse(s).ok_or_else(|| DeError::new(format!("unknown job state `{s}`")))
            }
            other => Err(DeError::new(format!("job state must be a string, got {other:?}"))),
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
    /// `true` when the job runs the reference sequential pipeline.
    pub sequential: bool,
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
    pub fn new(seq: u64, scenario: Scenario, sequential: bool) -> JobRecord {
        let hash = scenario.config_hash();
        JobRecord {
            id: format!("job-{seq:06}-{hash:016x}"),
            seq,
            config_hash: format!("{hash:016x}"),
            state: JobState::Queued,
            sequential,
            resumes: 0,
            error: None,
            phases: Vec::new(),
            scenario,
        }
    }

    /// Execution mode implied by the record.
    pub fn mode(&self) -> ExecutionMode {
        if self.sequential {
            ExecutionMode::Sequential
        } else {
            ExecutionMode::VantageParallel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_resolves_to_quick_42() {
        let (scenario, mode) = JobSpec::default().resolve().unwrap();
        assert_eq!(scenario, Scenario::quick(42));
        assert_eq!(mode, ExecutionMode::VantageParallel);
    }

    #[test]
    fn named_scale_and_seed() {
        let spec = JobSpec {
            scale: Some("faults".into()),
            seed: Some(7),
            sequential: Some(true),
            ..JobSpec::default()
        };
        let (scenario, mode) = spec.resolve().unwrap();
        assert_eq!(scenario, Scenario::faults(7));
        assert_eq!(mode, ExecutionMode::Sequential);
    }

    #[test]
    fn inline_scenario_strips_checkpoint_dir() {
        let mut inline = Scenario::quick(3);
        inline.checkpoint_dir = Some("/somewhere/else".into());
        let spec = JobSpec { scenario: Some(inline), ..JobSpec::default() };
        let (scenario, _) = spec.resolve().unwrap();
        assert_eq!(scenario.checkpoint_dir, None);
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
        let (scenario, _) = spec.resolve().unwrap();
        assert_eq!(scenario.faults, plan);
    }

    #[test]
    fn job_state_roundtrips_lowercase() {
        for st in [JobState::Queued, JobState::Running, JobState::Done, JobState::Failed] {
            assert_eq!(JobState::parse(st.name()), Some(st));
            let json = serde_json::to_string(&st).unwrap();
            assert_eq!(json, format!("\"{}\"", st.name()));
            assert_eq!(serde_json::from_str::<JobState>(&json).unwrap(), st);
        }
        assert!(serde_json::from_str::<JobState>("\"paused\"").is_err());
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = JobRecord::new(3, Scenario::quick(11), true);
        assert!(rec.id.starts_with("job-000003-"));
        assert_eq!(rec.config_hash, format!("{:016x}", Scenario::quick(11).config_hash()));
        let json = serde_json::to_string_pretty(&rec).unwrap();
        let back: JobRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.state, JobState::Queued);
        assert_eq!(back.scenario, rec.scenario);
    }
}
