//! Live campaign progress telemetry.
//!
//! Long campaigns (hundreds of cells × millions of slots) used to run
//! dark: no output until the aggregated table appeared. A [`Heartbeat`]
//! streams one JSON line per finished cell — cells completed/total,
//! that cell's wall clock and slot count, the campaign's aggregate
//! simulation throughput, and an ETA extrapolated from the cells run so
//! far — to `campaign-telemetry.jsonl` in the output directory, and
//! (unless suppressed with `--no-progress`) a matching human line to
//! stderr.
//!
//! Telemetry is deliberately *outside* the determinism contract: it
//! carries wall-clock measurements and its line order follows worker
//! scheduling. The reproducible artefacts (`campaign.md`,
//! `campaign.json`, per-cell checkpoints) never embed anything from it,
//! and the byte-identity tests must ignore `*-telemetry.jsonl`.

use ldcf_obs::{CampaignProgress, ProgressSink};
use serde::Value;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Thread-safe progress reporter for a cell-parallel campaign. Cheap
/// enough to call once per cell from inside a rayon worker: two relaxed
/// atomic bumps plus one short mutex-guarded file append.
pub struct Heartbeat {
    /// Cells in the whole matrix (resumed + to-run).
    total: usize,
    /// Cells reloaded from checkpoints before the run started.
    resumed: usize,
    /// Cells finished by *this* invocation so far.
    done: AtomicUsize,
    /// Slots simulated by this invocation so far.
    slots: AtomicU64,
    t0: Instant,
    sink: Option<Mutex<File>>,
    stderr: bool,
    /// Optional in-memory observer (the campaign service uses this to
    /// serve live progress over `GET /campaigns/{id}`).
    observer: Option<Arc<dyn ProgressSink>>,
}

impl Heartbeat {
    /// Conventional telemetry filename inside a campaign output dir.
    pub const FILENAME: &'static str = "campaign-telemetry.jsonl";

    /// Start a heartbeat for a campaign of `total` cells, `resumed` of
    /// which were already satisfied by checkpoints. `dir` is the
    /// campaign output directory ([`Self::FILENAME`] is created or
    /// truncated there; `None` disables the file sink, e.g. in unit
    /// tests); `stderr` gates the human progress lines.
    pub fn new(total: usize, resumed: usize, dir: Option<&Path>, stderr: bool) -> Self {
        let sink = dir
            .and_then(|d| File::create(d.join(Self::FILENAME)).ok())
            .map(Mutex::new);
        let hb = Self {
            total,
            resumed,
            done: AtomicUsize::new(0),
            slots: AtomicU64::new(0),
            t0: Instant::now(),
            sink,
            stderr,
            observer: None,
        };
        hb.emit(
            "start",
            Vec::new(),
            format!(
                "[campaign] {resumed}/{total} cells from checkpoints, {} to run",
                total - resumed
            ),
        );
        hb
    }

    /// Attach an in-memory progress observer and push it an initial
    /// snapshot (checkpoint-resumed cells count as completed from the
    /// start).
    pub fn with_sink(mut self, observer: Arc<dyn ProgressSink>) -> Self {
        observer.update(&CampaignProgress {
            completed: self.resumed as u64,
            total: self.total as u64,
            resumed: self.resumed as u64,
            slots_per_sec: 0.0,
            eta_s: 0.0,
            done: false,
        });
        self.observer = Some(observer);
        self
    }

    /// Record one freshly simulated cell: its stem (e.g.
    /// `of-d0.0500-s1`), wall clock, and slots stepped.
    pub fn cell_done(&self, stem: &str, wall: Duration, cell_slots: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let slots = self.slots.fetch_add(cell_slots, Ordering::Relaxed) + cell_slots;
        let elapsed = self.t0.elapsed().as_secs_f64().max(1e-9);
        let completed = self.resumed + done;
        let to_run = self.total - self.resumed;
        let slots_per_sec = slots as f64 / elapsed;
        let eta_s = elapsed / done as f64 * (to_run - done.min(to_run)) as f64;
        if let Some(observer) = &self.observer {
            observer.update(&CampaignProgress {
                completed: completed as u64,
                total: self.total as u64,
                resumed: self.resumed as u64,
                slots_per_sec,
                eta_s,
                done: false,
            });
        }
        self.emit(
            "cell",
            vec![
                ("cell".into(), Value::Str(stem.to_string())),
                ("completed".into(), Value::UInt(completed as u64)),
                ("total".into(), Value::UInt(self.total as u64)),
                ("cell_wall_ms".into(), Value::UInt(wall.as_millis() as u64)),
                ("cell_slots".into(), Value::UInt(cell_slots)),
                ("slots_per_sec".into(), Value::Float(slots_per_sec)),
                ("eta_s".into(), Value::Float(eta_s)),
            ],
            format!(
                "[campaign] {completed}/{} cells — {stem} in {:.1}s, {:.0} slots/s, ETA {:.0}s",
                self.total,
                wall.as_secs_f64(),
                slots_per_sec,
                eta_s
            ),
        );
    }

    /// Close out the run with a summary line. Call once, after the last
    /// cell.
    pub fn finish(&self) {
        let done = self.done.load(Ordering::Relaxed);
        let slots = self.slots.load(Ordering::Relaxed);
        let elapsed = self.t0.elapsed().as_secs_f64().max(1e-9);
        if let Some(observer) = &self.observer {
            observer.update(&CampaignProgress {
                completed: (self.resumed + done) as u64,
                total: self.total as u64,
                resumed: self.resumed as u64,
                slots_per_sec: slots as f64 / elapsed,
                eta_s: 0.0,
                done: true,
            });
        }
        self.emit(
            "done",
            vec![
                ("cells_run".into(), Value::UInt(done as u64)),
                ("cells_resumed".into(), Value::UInt(self.resumed as u64)),
                ("slots".into(), Value::UInt(slots)),
                ("wall_s".into(), Value::Float(elapsed)),
                ("slots_per_sec".into(), Value::Float(slots as f64 / elapsed)),
            ],
            format!(
                "[campaign] done — {done} cells run, {} resumed, {slots} slots in {elapsed:.1}s",
                self.resumed
            ),
        );
    }

    /// One telemetry record: a JSONL line to the file sink (if any) and
    /// a human line to stderr (if enabled).
    fn emit(&self, event: &str, mut fields: Vec<(String, Value)>, human: String) {
        if let Some(sink) = &self.sink {
            fields.insert(0, ("event".into(), Value::Str(event.to_string())));
            let line = serde_json::to_string(&Value::Object(fields)).expect("telemetry serializes");
            let mut f = sink.lock().expect("telemetry sink lock");
            // Telemetry is best-effort: a full disk must not abort the
            // campaign (the checkpoints are what correctness needs).
            let _ = writeln!(f, "{line}");
        }
        if self.stderr {
            eprintln!("{human}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_streams_jsonl_records() {
        let dir = std::env::temp_dir().join("ldcf-heartbeat-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let hb = Heartbeat::new(4, 1, Some(&dir), false);
        hb.cell_done("of-d0.0500-s1", Duration::from_millis(20), 1000);
        hb.cell_done("opt-d0.0500-s1", Duration::from_millis(30), 2000);
        hb.finish();

        let text = std::fs::read_to_string(dir.join(Heartbeat::FILENAME)).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("each line is JSON"))
            .collect();
        assert_eq!(lines.len(), 4, "start + 2 cells + done");
        assert_eq!(lines[0].get("event").unwrap().as_str(), Some("start"));
        assert_eq!(lines[1].get("event").unwrap().as_str(), Some("cell"));
        assert_eq!(lines[1].get("completed").unwrap().as_u64(), Some(2));
        assert_eq!(lines[1].get("total").unwrap().as_u64(), Some(4));
        assert_eq!(lines[1].get("cell_slots").unwrap().as_u64(), Some(1000));
        assert!(lines[1].get("slots_per_sec").unwrap().as_f64().unwrap() > 0.0);
        assert!(lines[2].get("eta_s").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(lines[3].get("event").unwrap().as_str(), Some("done"));
        assert_eq!(lines[3].get("cells_run").unwrap().as_u64(), Some(2));
        assert_eq!(lines[3].get("slots").unwrap().as_u64(), Some(3000));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_without_sinks_is_silent_and_safe() {
        let hb = Heartbeat::new(2, 0, None, false);
        hb.cell_done("x", Duration::from_millis(1), 10);
        hb.finish();
    }

    #[test]
    fn heartbeat_pushes_snapshots_to_an_observer() {
        let latest = Arc::new(ldcf_obs::LatestProgress::new());
        let hb = Heartbeat::new(3, 1, None, false).with_sink(latest.clone());
        let start = latest.snapshot();
        assert_eq!((start.completed, start.total, start.resumed), (1, 3, 1));
        assert!(!start.done);

        hb.cell_done("of-d0.0500-s1", Duration::from_millis(5), 500);
        let mid = latest.snapshot();
        assert_eq!(mid.completed, 2);
        assert!(mid.slots_per_sec > 0.0);
        assert!(!mid.done);

        hb.cell_done("opt-d0.0500-s1", Duration::from_millis(5), 500);
        hb.finish();
        let end = latest.snapshot();
        assert_eq!(end.completed, 3);
        assert!(end.done);
    }
}
