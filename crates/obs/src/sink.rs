//! JSONL event sink: one JSON object per event, one event per line.

use crate::event::SimEvent;
use crate::observer::SimObserver;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Streams every event as a line of JSON to any [`Write`] target.
///
/// Each line is encoded by [`SimEvent::write_jsonl`] into one reused
/// buffer, so a run traced to JSONL allocates nothing per event. Writes
/// are buffered; [`SimObserver::on_finish`] flushes. I/O errors
/// are sticky: the first error is kept and later writes are skipped, so
/// tracing failures never abort a simulation mid-run — check
/// [`JsonlSink::into_result`] after the run.
pub struct JsonlSink<W: Write> {
    out: BufWriter<W>,
    line: Vec<u8>,
    error: Option<io::Error>,
    lines: u64,
    bytes: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer (a `File`, `Vec<u8>`, stdout lock, ...).
    pub fn new(out: W) -> Self {
        Self {
            out: BufWriter::new(out),
            line: Vec::new(),
            error: None,
            lines: 0,
            bytes: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Bytes successfully written so far (lines plus their newlines).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush and surface the first I/O error, if any, together with the
    /// underlying writer.
    pub fn into_result(mut self) -> io::Result<W> {
        self.out.flush()?;
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))
    }
}

impl<W: Write> SimObserver for JsonlSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_jsonl(&mut self.line);
        self.line.push(b'\n');
        match self.out.write_all(&self.line) {
            Ok(()) => {
                self.lines += 1;
                self.bytes += self.line.len() as u64;
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn on_finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Streaming JSONL reader: iterates events line by line from any
/// [`BufRead`] source, holding one line in memory at a time — the
/// counterpart of [`crate::BinReader`] for row-wise traces.
///
/// Each line is parsed by [`SimEvent::parse_jsonl`] out of one reused
/// line buffer, so reading allocates nothing per line once the buffer
/// has grown to the longest line. Blank lines are skipped; the first
/// malformed line stops the iterator with an error naming its 1-based
/// line number.
pub struct JsonlReader<R: BufRead> {
    src: R,
    line: String,
    line_no: u64,
    failed: bool,
}

impl JsonlReader<BufReader<File>> {
    /// Open a JSONL trace file.
    pub fn open_path(path: &Path) -> io::Result<Self> {
        Ok(Self::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> JsonlReader<R> {
    /// Wrap a buffered reader positioned at the first line.
    pub fn new(src: R) -> Self {
        Self {
            src,
            line: String::new(),
            line_no: 0,
            failed: false,
        }
    }
}

impl<R: BufRead> Iterator for JsonlReader<R> {
    type Item = Result<SimEvent, serde::Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            self.line.clear();
            match self.src.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(serde::Error::custom(format!(
                        "line {}: {e}",
                        self.line_no + 1
                    ))));
                }
            }
            self.line_no += 1;
            // JSON whitespace only: `str::trim` would also strip Unicode
            // spaces, which no JSON document may hold between tokens.
            let line = self
                .line
                .trim_matches(|c| matches!(c, ' ' | '\t' | '\r' | '\n'));
            if line.is_empty() {
                continue;
            }
            return match SimEvent::parse_jsonl(line.as_bytes()) {
                Ok(ev) => Some(Ok(ev)),
                Err(e) => {
                    self.failed = true;
                    Some(Err(serde::Error::custom(format!(
                        "line {}: {e}",
                        self.line_no
                    ))))
                }
            };
        }
    }
}

/// Parse a JSONL event stream back into events, skipping blank lines.
/// Stops with an error on the first malformed line (1-based index
/// included in the message). Thin collecting wrapper over
/// [`JsonlReader`]; prefer the iterator for large traces.
pub fn read_jsonl(text: &str) -> Result<Vec<SimEvent>, serde::Error> {
    JsonlReader::new(text.as_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::NodeId;

    #[test]
    fn sink_writes_one_line_per_event_and_roundtrips() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [
            SimEvent::TxAttempt {
                slot: 0,
                sender: NodeId(0),
                receiver: NodeId(1),
                packet: 0,
                bypass_mac: false,
            },
            SimEvent::Delivered {
                slot: 0,
                sender: NodeId(0),
                receiver: NodeId(1),
                packet: 0,
                fresh: true,
            },
            SimEvent::SlotEnd {
                slot: 0,
                queued: 2,
                active_nodes: 1,
            },
        ];
        for e in &events {
            sink.on_event(e);
        }
        sink.on_finish();
        assert_eq!(sink.lines(), 3);
        let bytes = sink.into_result().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert_eq!(text.len() as u64, {
            let mut probe = JsonlSink::new(Vec::new());
            for e in &events {
                probe.on_event(e);
            }
            probe.bytes()
        });
        let back = read_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn reader_skips_blanks_and_reports_bad_lines() {
        let ok = "\n{\"t\":\"deferred\",\"slot\":3,\"sender\":2,\"receiver\":5,\"packet\":1}\n\n";
        let events = read_jsonl(ok).unwrap();
        assert_eq!(
            events,
            vec![SimEvent::Deferred {
                slot: 3,
                sender: NodeId(2),
                receiver: NodeId(5),
                packet: 1,
            }]
        );
        let bad =
            "{\"t\":\"deferred\",\"slot\":3,\"sender\":2,\"receiver\":5,\"packet\":1}\nnot json\n";
        let err = read_jsonl(bad).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn ids_past_u32_are_errors_with_their_line() {
        // 2^32 would wrap to node 0 if narrowed.
        let text = "{\"t\":\"node_crashed\",\"slot\":1,\"node\":7}\n\
                    {\"t\":\"node_crashed\",\"slot\":2,\"node\":4294967296}\n";
        let err = read_jsonl(text).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(
            err.contains("`node`") && err.contains("exceeds u32"),
            "{err}"
        );
    }

    #[test]
    fn only_json_whitespace_is_trimmed() {
        let line = "{\"t\":\"source_retry\",\"slot\":1,\"packet\":0}";
        let padded = format!(" \t{line}\r\n\n{line}\n");
        assert_eq!(read_jsonl(&padded).unwrap().len(), 2);
        // U+00A0 is whitespace to `str::trim` but not to JSON.
        let wrapped = format!("{line}\n\u{a0}{line}\u{a0}\n");
        let err = read_jsonl(&wrapped).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn streaming_reader_stops_after_first_error() {
        let bad = "not json\n{\"t\":\"source_retry\",\"slot\":1,\"packet\":0}\n";
        let mut reader = JsonlReader::new(bad.as_bytes());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "iterator must fuse after error");
    }
}
