//! Run manifests: provenance written next to every generated artefact.

use serde::{Deserialize, Serialize, Value};

/// What produced an artefact, with enough detail to reproduce it:
/// which protocols ran, under which configuration and seeds, and how
/// much simulation work it took.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunManifest {
    /// Artefact name (e.g. `fig9`).
    pub artefact: String,
    /// Protocols simulated (empty for purely analytical artefacts).
    pub protocols: Vec<String>,
    /// Representative simulation configuration as a JSON value
    /// (`Value::Null` for analytical artefacts). Seeds vary per run and
    /// are listed separately.
    pub config: Value,
    /// RNG seeds used across the artefact's runs.
    pub seeds: Vec<u64>,
    /// Quick (reduced-size) configuration?
    pub quick: bool,
    /// Individual simulation runs executed.
    pub sims: u64,
    /// Total slots simulated across all runs.
    pub slots: u64,
    /// Wall-clock time to produce the artefact, in milliseconds.
    pub wall_ms: u64,
    /// Simulation throughput: slots per wall-clock second (0 when no
    /// slots were simulated).
    pub slots_per_sec: f64,
    /// Event-trace format the artefact's runs emitted (`"none"` when
    /// tracing was off, else `"bin"`; manifests written before runs
    /// traced to binary only may say `"jsonl"`).
    pub trace_format: String,
    /// Events written across every trace sink of the artefact.
    pub trace_events_written: u64,
    /// Bytes written across every trace sink of the artefact: the
    /// binary trace files' sizes, not those of their JSONL exports.
    pub trace_bytes_written: u64,
    /// How the run was initiated: `"cli"` for direct invocations,
    /// `"service"` for campaigns submitted over the job server's HTTP
    /// API — so forensics on service-produced artefacts stays
    /// self-describing.
    #[serde(default)]
    pub submitted_via: String,
    /// Service job id (the campaign's spec digest) for
    /// service-submitted runs; empty for CLI runs.
    #[serde(default)]
    pub service_job_id: String,
    /// Milliseconds the job waited in the service queue before a
    /// scheduler worker picked it up; 0 for CLI runs.
    #[serde(default)]
    pub queue_wait_ms: u64,
}

impl RunManifest {
    /// Build a manifest, deriving the throughput from `slots`/`wall_ms`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        artefact: &str,
        protocols: Vec<String>,
        config: Value,
        seeds: Vec<u64>,
        quick: bool,
        sims: u64,
        slots: u64,
        wall_ms: u64,
    ) -> Self {
        let slots_per_sec = if wall_ms > 0 {
            slots as f64 / (wall_ms as f64 / 1000.0)
        } else {
            0.0
        };
        Self {
            artefact: artefact.to_string(),
            protocols,
            config,
            seeds,
            quick,
            sims,
            slots,
            wall_ms,
            slots_per_sec,
            trace_format: "none".to_string(),
            trace_events_written: 0,
            trace_bytes_written: 0,
            submitted_via: "cli".to_string(),
            service_job_id: String::new(),
            queue_wait_ms: 0,
        }
    }

    /// Attach event-trace sink statistics (builder style; the default
    /// manifest records no tracing).
    pub fn with_trace_stats(mut self, format: &str, events: u64, bytes: u64) -> Self {
        self.trace_format = format.to_string();
        self.trace_events_written = events;
        self.trace_bytes_written = bytes;
        self
    }

    /// Mark the run as submitted through the campaign service (builder
    /// style; the default manifest records a CLI run).
    pub fn with_service_job(mut self, job_id: &str, queue_wait_ms: u64) -> Self {
        self.submitted_via = "service".to_string();
        self.service_job_id = job_id.to_string();
        self.queue_wait_ms = queue_wait_ms;
        self
    }

    /// Pretty JSON rendering (the on-disk format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Parse a manifest back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let m = RunManifest::new(
            "fig9",
            vec!["of".into(), "dbao".into(), "opt".into()],
            Value::Object(vec![("period".into(), Value::UInt(100))]),
            vec![1, 2, 3],
            true,
            90,
            1_200_000,
            2_500,
        );
        assert!((m.slots_per_sec - 480_000.0).abs() < 1e-6);
        let json = m.to_json_pretty();
        let back = RunManifest::from_json(&json).unwrap();
        assert_eq!(back.artefact, "fig9");
        assert_eq!(back.seeds, vec![1, 2, 3]);
        assert_eq!(back.sims, 90);
        assert!(back.quick);
        assert!((back.slots_per_sec - m.slots_per_sec).abs() < 1e-9);
        assert_eq!(back.trace_format, "none");
        assert_eq!(back.submitted_via, "cli");
        assert_eq!(back.service_job_id, "");
        assert_eq!(back.queue_wait_ms, 0);
    }

    #[test]
    fn service_provenance_attaches_and_roundtrips() {
        let m = RunManifest::new(
            "campaign-demo",
            vec![],
            Value::Null,
            vec![1],
            true,
            6,
            100,
            10,
        )
        .with_service_job(&"ab".repeat(32), 123);
        let back = RunManifest::from_json(&m.to_json_pretty()).unwrap();
        assert_eq!(back.submitted_via, "service");
        assert_eq!(back.service_job_id, "ab".repeat(32));
        assert_eq!(back.queue_wait_ms, 123);
    }

    #[test]
    fn trace_stats_attach_and_roundtrip() {
        let m = RunManifest::new("fig9", vec![], Value::Null, vec![1], true, 3, 100, 10)
            .with_trace_stats("bin", 12_345, 67_890);
        let back = RunManifest::from_json(&m.to_json_pretty()).unwrap();
        assert_eq!(back.trace_format, "bin");
        assert_eq!(back.trace_events_written, 12_345);
        assert_eq!(back.trace_bytes_written, 67_890);
    }

    #[test]
    fn zero_wall_clock_is_safe() {
        let m = RunManifest::new("table1", vec![], Value::Null, vec![], false, 0, 0, 0);
        assert_eq!(m.slots_per_sec, 0.0);
        assert!(RunManifest::from_json(&m.to_json_pretty()).is_ok());
    }
}
