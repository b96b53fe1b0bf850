//! The `experiments trace` subcommand: inspect, export and query event
//! traces in either format.
//!
//! * `info` — header-level facts (format, event count, slot span,
//!   bytes) plus the measured compression ratio binary enjoys over
//!   JSONL for the same stream. For a binary trace the count and span
//!   come straight from the trailing index; the JSONL-equivalent size
//!   is measured by encoding the stream into a JSONL sink over
//!   `io::sink()`. For a JSONL trace the binary-equivalent size is
//!   measured the same way with a binary sink — so the ratio is
//!   comparable from either side.
//! * `export` — binary → JSONL, byte-identical to what a `--trace-format
//!   jsonl` run of the same case writes: both go through [`JsonlSink`],
//!   which encodes each event with [`SimEvent::write_jsonl`] + `\n`. CI
//!   diffs exported fig9 traces against the pinned JSONL baselines.
//! * `query` — slot-range scan (`--slot A..B`, `B` exclusive) with
//!   optional `--node` / `--packet` filters. On a binary trace the
//!   trailing index skips every frame outside the range; the scanned /
//!   total frame counts are reported so the skip is observable.

use ldcf_analysis::EventSource;
use ldcf_net::NodeId;
use ldcf_obs::binlog::{BinReader, BIN_MAGIC};
use ldcf_obs::{BinSink, JsonlSink, SimEvent, SimObserver};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Facts `trace info` prints.
#[derive(Clone, Debug)]
pub struct TraceInfo {
    /// Sniffed format of the input file.
    pub format: &'static str,
    /// Events in the trace.
    pub events: u64,
    /// Smallest and largest event slot (`None` for an empty trace).
    pub slot_span: Option<(u64, u64)>,
    /// Index frames (0 for a JSONL input).
    pub frames: usize,
    /// On-disk size of the input file.
    pub bytes: u64,
    /// Size of the same stream as JSONL (measured or actual).
    pub jsonl_bytes: u64,
    /// Size of the same stream as binary (measured or actual).
    pub bin_bytes: u64,
}

impl TraceInfo {
    /// JSONL bytes per binary byte — the compression ratio.
    pub fn ratio(&self) -> f64 {
        self.jsonl_bytes as f64 / self.bin_bytes.max(1) as f64
    }

    /// Render as the `trace info` terminal block.
    pub fn render(&self, path: &Path) -> String {
        let span = match self.slot_span {
            Some((lo, hi)) => format!("{lo}..={hi}"),
            None => "empty".to_string(),
        };
        let mut out = format!(
            "trace: {}\nformat: {}\nevents: {}\nslot span: {span}\n",
            path.display(),
            self.format,
            self.events,
        );
        if self.format == "bin" {
            out.push_str(&format!("index frames: {}\n", self.frames));
        }
        out.push_str(&format!(
            "bytes: {} (jsonl {} / bin {})\ncompression ratio: {:.2}x\n",
            self.bytes,
            self.jsonl_bytes,
            self.bin_bytes,
            self.ratio()
        ));
        out
    }
}

/// Measure a trace (either format). Streams the file once.
pub fn info(path: &Path) -> Result<TraceInfo, String> {
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    let src = EventSource::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let format = src.format();
    match format {
        "bin" => {
            // Count and span come from the index; one streaming pass
            // measures the JSONL-equivalent size.
            let reader = BinReader::open_path(path).map_err(|e| e.to_string())?;
            let events = reader.n_events();
            let slot_span = reader.slot_span();
            let frames = reader.frames().len();
            let mut probe = JsonlSink::new(std::io::sink());
            for ev in src {
                probe.on_event(&ev.map_err(|e| e.to_string())?);
            }
            let (seen, jsonl_bytes) = (probe.lines(), probe.bytes());
            if seen != events {
                return Err(format!(
                    "{}: index claims {events} events, stream decoded {seen}",
                    path.display()
                ));
            }
            Ok(TraceInfo {
                format,
                events,
                slot_span,
                frames,
                bytes,
                jsonl_bytes,
                bin_bytes: bytes,
            })
        }
        _ => {
            // JSONL input: encode the stream into a counting binary
            // sink to measure what `--trace-format bin` would write.
            let mut probe = BinSink::new(std::io::sink());
            let mut events = 0u64;
            let mut slot_span: Option<(u64, u64)> = None;
            for ev in src {
                let ev = ev.map_err(|e| e.to_string())?;
                let s = ev.slot();
                slot_span = Some(slot_span.map_or((s, s), |(lo, hi)| (lo.min(s), hi.max(s))));
                probe.on_event(&ev);
                events += 1;
            }
            probe.on_finish();
            let bin_bytes = probe.bytes();
            Ok(TraceInfo {
                format,
                events,
                slot_span,
                frames: 0,
                bytes,
                jsonl_bytes: bytes,
                bin_bytes,
            })
        }
    }
}

/// Default export target: the input path with `.bin` swapped for
/// `.jsonl` (appends `.jsonl` when the input has no `.bin` suffix).
pub fn default_export_path(input: &Path) -> PathBuf {
    let name = input
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("trace");
    let out = match name.strip_suffix(".bin") {
        Some(stem) => format!("{stem}.jsonl"),
        None => format!("{name}.jsonl"),
    };
    input.with_file_name(out)
}

/// Export a binary trace to JSONL, byte-identical to a direct JSONL
/// run of the same case. Returns `(events, bytes)` written.
pub fn export(path: &Path, out: &Path) -> Result<(u64, u64), String> {
    let mut magic = [0u8; 8];
    {
        use std::io::Read;
        let mut f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let n = f
            .read(&mut magic)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if magic[..n] != BIN_MAGIC {
            return Err(format!(
                "{}: not a binary trace (export reads .events.bin files)",
                path.display()
            ));
        }
    }
    let reader = BinReader::open_path(path).map_err(|e| e.to_string())?;
    let file = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut sink = JsonlSink::new(file);
    for ev in reader.events() {
        sink.on_event(&ev.map_err(|e| e.to_string())?);
    }
    sink.on_finish();
    let written = (sink.lines(), sink.bytes());
    sink.into_result()
        .map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(written)
}

/// Filters and results of one `trace query`.
#[derive(Clone, Copy, Debug)]
pub struct QueryStats {
    /// Events matching the slot range and filters.
    pub matched: u64,
    /// Frames actually decoded (binary traces; equals `frames_total`
    /// for JSONL, which has no index to skip with).
    pub frames_scanned: usize,
    /// Frames in the file's index (0 for JSONL).
    pub frames_total: usize,
}

/// Parse `A..B` (end-exclusive) into a slot range.
pub fn parse_slot_range(s: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| format!("--slot wants A..B (end-exclusive), got {s:?}"))?;
    let lo: u64 = if lo.is_empty() {
        0
    } else {
        lo.parse()
            .map_err(|_| format!("--slot start {lo:?} is not a slot"))?
    };
    let hi: u64 = if hi.is_empty() {
        u64::MAX
    } else {
        hi.parse()
            .map_err(|_| format!("--slot end {hi:?} is not a slot"))?
    };
    if lo >= hi {
        return Err(format!("--slot range {s:?} is empty"));
    }
    Ok((lo, hi))
}

/// Stream every event with `lo <= slot < hi` (and matching the optional
/// node/packet filters) to `out` as JSONL. Binary traces use the index
/// to skip frames outside the range.
pub fn query(
    path: &Path,
    (lo, hi): (u64, u64),
    node: Option<u32>,
    packet: Option<u32>,
    out: &mut impl Write,
) -> Result<QueryStats, String> {
    let mut line = Vec::new();
    let mut emit = |ev: &SimEvent, out: &mut dyn Write, matched: &mut u64| -> Result<(), String> {
        if let Some(n) = node {
            if !ev.involves(NodeId(n)) {
                return Ok(());
            }
        }
        if let Some(p) = packet {
            if ev.packet_id() != Some(p) {
                return Ok(());
            }
        }
        line.clear();
        ev.write_jsonl(&mut line);
        line.push(b'\n');
        out.write_all(&line).map_err(|e| e.to_string())?;
        *matched += 1;
        Ok(())
    };

    let src = EventSource::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut matched = 0u64;
    match src {
        EventSource::Bin(_) => {
            let reader = BinReader::open_path(path).map_err(|e| e.to_string())?;
            let frames_total = reader.frames().len();
            let (iter, frames_scanned) = reader.events_in(lo, hi);
            for ev in iter {
                emit(&ev.map_err(|e| e.to_string())?, out, &mut matched)?;
            }
            Ok(QueryStats {
                matched,
                frames_scanned,
                frames_total,
            })
        }
        jsonl => {
            for ev in jsonl {
                let ev = ev.map_err(|e| e.to_string())?;
                if ev.slot() >= lo && ev.slot() < hi {
                    emit(&ev, out, &mut matched)?;
                }
            }
            Ok(QueryStats {
                matched,
                frames_scanned: 0,
                frames_total: 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_ranges_parse_and_reject() {
        assert_eq!(parse_slot_range("10..20").unwrap(), (10, 20));
        assert_eq!(parse_slot_range("..20").unwrap(), (0, 20));
        assert_eq!(parse_slot_range("10..").unwrap(), (10, u64::MAX));
        assert!(parse_slot_range("20..10").is_err());
        assert!(parse_slot_range("10").is_err());
        assert!(parse_slot_range("a..b").is_err());
    }

    #[test]
    fn default_export_swaps_extension() {
        assert_eq!(
            default_export_path(Path::new("/t/x.events.bin")),
            Path::new("/t/x.events.jsonl")
        );
        assert_eq!(
            default_export_path(Path::new("/t/odd-name")),
            Path::new("/t/odd-name.jsonl")
        );
    }
}
