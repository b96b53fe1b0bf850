//! Binary columnar trace format (`.events.bin`): compact, seekable,
//! stream-decodable slot-level event logs.
//!
//! JSONL traces are self-describing but cost ~60–90 bytes per event and
//! can only be consumed whole-file. This module defines a binary
//! container that stores the **same** [`SimEvent`] stream roughly an
//! order of magnitude smaller and supports bounded-memory iteration and
//! indexed slot-range seeks — the enabling layer for forensics over
//! 100k–1M-node runs.
//!
//! ## File layout
//!
//! ```text
//! magic            8 bytes  b"LDCFBIN1"
//! frame*           one per <= FRAME_EVENTS consecutive events
//! index            'I', frame count + per-frame (offset, slot range,
//!                  event count) as varints
//! trailer         20 bytes  index offset (u64 LE), index CRC32 (LE),
//!                           b"LDCFIDX1"
//! ```
//!
//! Each **frame** covers a run of consecutive events in emission order:
//!
//! ```text
//! 'F'              1 byte   frame marker
//! crc32            4 bytes  LE, over header varints + payload
//! header           varints: n_events, min_slot, max_slot, payload_len
//! payload          columnar event data (see below)
//! ```
//!
//! The payload is **columnar with per-event-kind blocks**: first a tag
//! stream (one byte per event, its kind id — this is what preserves the
//! exact interleaving of kinds within a slot), then the slot column
//! (zigzag varint deltas against the previous event's slot), then, for
//! each event kind present in ascending kind id, that kind's field
//! columns — each field a zigzag varint delta column against the
//! previous value *in the same column*. Delta coding makes slots
//! (non-decreasing), node ids (locally clustered) and packet ids
//! (mostly constant within a flood burst) almost free; the CRC covers
//! everything after itself, so any flipped byte in header or payload is
//! detected (CRC-32 catches all error bursts ≤ 32 bits) instead of
//! decoding into garbage events.
//!
//! The trailing index is what makes the format *seekable*: a reader
//! loads it in one seek, then visits only the frames whose slot range
//! overlaps a query — `experiments trace query` never touches the rest
//! of the file.

use crate::event::{SimEvent, KINDS, MAX_FIELDS};
use crate::observer::SimObserver;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Leading file magic of a binary trace.
pub const BIN_MAGIC: [u8; 8] = *b"LDCFBIN1";
/// Trailer magic closing a binary trace.
pub const IDX_MAGIC: [u8; 8] = *b"LDCFIDX1";
/// Events buffered per frame by default: large enough that per-frame
/// overhead (marker + CRC + header + index entry, ~25 bytes) vanishes,
/// small enough that a reader retains at most a few thousand decoded
/// events at a time.
pub const FRAME_EVENTS: usize = 4096;

const FRAME_MARKER: u8 = b'F';
const INDEX_MARKER: u8 = b'I';
const TRAILER_LEN: u64 = 20;
/// Sanity cap on a frame payload before the CRC has been verified, so a
/// corrupted length varint cannot trigger an absurd allocation.
const MAX_PAYLOAD: u64 = 1 << 26;
/// Sanity cap on the serialized index, likewise pre-CRC.
const MAX_INDEX: u64 = 1 << 26;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a binary trace could not be written or read back.
#[derive(Debug)]
pub enum BinError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a (healthy) binary trace: bad magic, CRC
    /// mismatch, truncated column, or an impossible field value.
    Corrupt(String),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "binlog i/o: {e}"),
            BinError::Corrupt(msg) => write!(f, "binlog corrupt: {msg}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> BinError {
    BinError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE), table-driven, dependency-free
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the `cksum`/zlib polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, BinError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| corrupt("varint runs past the end of its column"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows 64 bits"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint longer than 10 bytes"));
        }
    }
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `value` as a zigzag delta against `prev`, updating `prev`.
fn put_delta(out: &mut Vec<u8>, prev: &mut u64, value: u64) {
    put_varint(out, zigzag(value.wrapping_sub(*prev) as i64));
    *prev = value;
}

/// Read the next zigzag delta and fold it into `prev`.
fn get_delta(bytes: &[u8], pos: &mut usize, prev: &mut u64) -> Result<u64, BinError> {
    let d = unzigzag(get_varint(bytes, pos)?);
    *prev = prev.wrapping_add(d as u64);
    Ok(*prev)
}

// ---------------------------------------------------------------------
// Event <-> (kind id, slot, field tuple) mapping: the schema in
// `event::KINDS`, shared with the JSONL codec.
// ---------------------------------------------------------------------

/// Number of event kinds (tag ids `0..N_KINDS`).
const N_KINDS: usize = KINDS.len();

/// Non-slot field count of a kind.
fn field_count(kind: usize) -> usize {
    KINDS[kind].1.len()
}

/// Rebuild an event from its kind id, slot, and field tuple.
fn event_from(kind: usize, slot: u64, f: &[u64; MAX_FIELDS]) -> Result<SimEvent, BinError> {
    SimEvent::from_fields(kind, slot, f).map_err(|i| {
        let (name, _) = KINDS[kind].1[i];
        corrupt(format!("{name} {} exceeds u32", f[i]))
    })
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// One frame's entry in the trailing index: where it lives and which
/// slots it covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    /// Byte offset of the frame marker in the file.
    pub offset: u64,
    /// Smallest event slot in the frame.
    pub min_slot: u64,
    /// Largest event slot in the frame.
    pub max_slot: u64,
    /// Events stored in the frame.
    pub n_events: u64,
}

impl FrameMeta {
    /// Whether the frame can contain any event with `lo <= slot < hi`.
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.min_slot < hi && self.max_slot >= lo
    }
}

/// Encode `events` (non-empty) into the bytes of one frame.
fn encode_frame(events: &[SimEvent]) -> (Vec<u8>, FrameMeta) {
    debug_assert!(!events.is_empty());
    let mut min_slot = u64::MAX;
    let mut max_slot = 0u64;
    let mut counts = [0usize; N_KINDS];
    for ev in events {
        let s = ev.slot();
        min_slot = min_slot.min(s);
        max_slot = max_slot.max(s);
        counts[ev.kind_id()] += 1;
    }

    let mut payload = Vec::with_capacity(events.len() * 8);
    // Tag stream: the exact kind interleaving, one byte per event.
    for ev in events {
        payload.push(ev.kind_id() as u8);
    }
    // Slot column: zigzag deltas against the previous event, starting
    // from the frame's min_slot.
    let mut prev = min_slot;
    for ev in events {
        put_delta(&mut payload, &mut prev, ev.slot());
    }
    // Per-kind field columns, each delta-coded within itself.
    for (kind, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        for field in 0..field_count(kind) {
            let mut prev = 0u64;
            for ev in events {
                if ev.kind_id() == kind {
                    put_delta(&mut payload, &mut prev, ev.fields()[field]);
                }
            }
        }
    }

    let mut header = Vec::with_capacity(24);
    put_varint(&mut header, events.len() as u64);
    put_varint(&mut header, min_slot);
    put_varint(&mut header, max_slot);
    put_varint(&mut header, payload.len() as u64);

    let crc = crc32_update(crc32_update(0xFFFF_FFFF, &header), &payload) ^ 0xFFFF_FFFF;
    let mut frame = Vec::with_capacity(5 + header.len() + payload.len());
    frame.push(FRAME_MARKER);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&header);
    frame.extend_from_slice(&payload);
    let meta = FrameMeta {
        offset: 0, // patched by the writer
        min_slot,
        max_slot,
        n_events: events.len() as u64,
    };
    (frame, meta)
}

/// Decode one frame read at `meta.offset` back into its events.
fn decode_frame<R: Read + Seek>(src: &mut R, meta: &FrameMeta) -> Result<Vec<SimEvent>, BinError> {
    src.seek(SeekFrom::Start(meta.offset))?;
    let mut marker = [0u8; 5];
    src.read_exact(&mut marker)?;
    if marker[0] != FRAME_MARKER {
        return Err(corrupt(format!(
            "expected frame marker at offset {}, found byte {:#04x}",
            meta.offset, marker[0]
        )));
    }
    let crc_stored = u32::from_le_bytes([marker[1], marker[2], marker[3], marker[4]]);

    // Header varints, read byte-at-a-time so we keep the exact bytes
    // for the CRC.
    let mut header = Vec::with_capacity(24);
    let read_varint = |src: &mut R, header: &mut Vec<u8>| -> Result<u64, BinError> {
        let start = header.len();
        loop {
            let mut b = [0u8; 1];
            src.read_exact(&mut b)?;
            header.push(b[0]);
            if b[0] & 0x80 == 0 {
                break;
            }
            if header.len() - start > 10 {
                return Err(corrupt("frame header varint longer than 10 bytes"));
            }
        }
        let mut pos = start;
        get_varint(header, &mut pos)
    };
    let n_events = read_varint(src, &mut header)?;
    let min_slot = read_varint(src, &mut header)?;
    let max_slot = read_varint(src, &mut header)?;
    let payload_len = read_varint(src, &mut header)?;
    if payload_len > MAX_PAYLOAD {
        return Err(corrupt(format!(
            "frame payload length {payload_len} is absurd"
        )));
    }
    if n_events == 0 || n_events > payload_len {
        return Err(corrupt(format!(
            "frame claims {n_events} events in {payload_len} payload bytes"
        )));
    }
    let mut payload = vec![0u8; payload_len as usize];
    src.read_exact(&mut payload)?;

    let crc = crc32_update(crc32_update(0xFFFF_FFFF, &header), &payload) ^ 0xFFFF_FFFF;
    if crc != crc_stored {
        return Err(corrupt(format!(
            "frame at offset {} fails its CRC (stored {crc_stored:#010x}, computed {crc:#010x})",
            meta.offset
        )));
    }

    let n = n_events as usize;
    let mut pos = 0usize;
    let tags = payload
        .get(..n)
        .ok_or_else(|| corrupt("tag stream truncated"))?
        .to_vec();
    pos += n;
    let mut counts = [0usize; N_KINDS];
    for &t in &tags {
        if (t as usize) >= N_KINDS {
            return Err(corrupt(format!("unknown event kind tag {t}")));
        }
        counts[t as usize] += 1;
    }

    let mut slots = Vec::with_capacity(n);
    let mut prev = min_slot;
    for _ in 0..n {
        slots.push(get_delta(&payload, &mut pos, &mut prev)?);
    }

    let mut columns: Vec<Vec<u64>> = vec![Vec::new(); N_KINDS * MAX_FIELDS];
    for kind in 0..N_KINDS {
        if counts[kind] == 0 {
            continue;
        }
        for field in 0..field_count(kind) {
            let col = &mut columns[kind * MAX_FIELDS + field];
            col.reserve(counts[kind]);
            let mut prev = 0u64;
            for _ in 0..counts[kind] {
                col.push(get_delta(&payload, &mut pos, &mut prev)?);
            }
        }
    }
    if pos != payload.len() {
        return Err(corrupt(format!(
            "frame payload has {} trailing bytes after its columns",
            payload.len() - pos
        )));
    }

    let mut cursors = [0usize; N_KINDS];
    let mut events = Vec::with_capacity(n);
    let mut fields = [0u64; MAX_FIELDS];
    for (i, &tag) in tags.iter().enumerate() {
        let kind = tag as usize;
        let at = cursors[kind];
        for (field, slot) in fields.iter_mut().enumerate().take(field_count(kind)) {
            *slot = columns[kind * MAX_FIELDS + field][at];
        }
        cursors[kind] += 1;
        let slot = slots[i];
        if slot < min_slot || slot > max_slot {
            return Err(corrupt(format!(
                "event slot {slot} outside the frame's declared range {min_slot}..={max_slot}"
            )));
        }
        events.push(event_from(kind, slot, &fields)?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streams events into a binary columnar trace (see the module docs for
/// the layout). Like [`crate::JsonlSink`], I/O errors are sticky: the
/// first error is kept, later writes are skipped, and
/// [`BinSink::into_result`] surfaces it after the run.
pub struct BinSink<W: Write> {
    out: BufWriter<W>,
    buf: Vec<SimEvent>,
    frame_events: usize,
    frames: Vec<FrameMeta>,
    offset: u64,
    events: u64,
    error: Option<io::Error>,
    finished: bool,
}

impl<W: Write> BinSink<W> {
    /// Wrap a writer; the file magic is written immediately.
    pub fn new(out: W) -> Self {
        Self::with_frame_events(out, FRAME_EVENTS)
    }

    /// Like [`BinSink::new`] with a custom frame size (tests use small
    /// frames to exercise multi-frame files cheaply).
    pub fn with_frame_events(out: W, frame_events: usize) -> Self {
        let mut sink = Self {
            out: BufWriter::new(out),
            buf: Vec::with_capacity(frame_events.max(1)),
            frame_events: frame_events.max(1),
            frames: Vec::new(),
            offset: 0,
            events: 0,
            error: None,
            finished: false,
        };
        sink.write_all(&BIN_MAGIC);
        sink
    }

    /// Events accepted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bytes written so far (the final file size once finished).
    pub fn bytes(&self) -> u64 {
        self.offset
    }

    fn write_all(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        match self.out.write_all(bytes) {
            Ok(()) => self.offset += bytes.len() as u64,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush_frame(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let (bytes, mut meta) = encode_frame(&self.buf);
        meta.offset = self.offset;
        self.write_all(&bytes);
        if self.error.is_none() {
            self.frames.push(meta);
        }
        self.buf.clear();
    }

    fn finalize(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.flush_frame();

        let mut index = Vec::with_capacity(2 + self.frames.len() * 8);
        index.push(INDEX_MARKER);
        put_varint(&mut index, self.frames.len() as u64);
        let (mut prev_off, mut prev_min) = (0u64, 0u64);
        for f in &self.frames {
            put_delta(&mut index, &mut prev_off, f.offset);
            put_delta(&mut index, &mut prev_min, f.min_slot);
            put_varint(&mut index, f.max_slot - f.min_slot);
            put_varint(&mut index, f.n_events);
        }
        let index_offset = self.offset;
        let index_crc = crc32(&index);
        self.write_all(&index);

        let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
        trailer.extend_from_slice(&index_offset.to_le_bytes());
        trailer.extend_from_slice(&index_crc.to_le_bytes());
        trailer.extend_from_slice(&IDX_MAGIC);
        self.write_all(&trailer);

        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    /// Finish the file (if [`SimObserver::on_finish`] has not already)
    /// and surface the first I/O error together with the writer.
    pub fn into_result(mut self) -> io::Result<W> {
        self.finalize();
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))
    }
}

impl<W: Write> SimObserver for BinSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.error.is_some() || self.finished {
            return;
        }
        self.buf.push(*event);
        self.events += 1;
        if self.buf.len() >= self.frame_events {
            self.flush_frame();
        }
    }

    fn on_finish(&mut self) {
        self.finalize();
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A parsed binary trace: the index is loaded eagerly (a few bytes per
/// frame), event payloads lazily — one frame at a time.
pub struct BinReader<R: Read + Seek> {
    src: R,
    frames: Vec<FrameMeta>,
}

impl BinReader<BufReader<File>> {
    /// Open a binary trace file.
    pub fn open_path(path: &Path) -> Result<Self, BinError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> BinReader<R> {
    /// Validate magic + trailer + index of a binary trace.
    pub fn new(mut src: R) -> Result<Self, BinError> {
        let len = src.seek(SeekFrom::End(0))?;
        if len < BIN_MAGIC.len() as u64 + 2 + TRAILER_LEN {
            return Err(corrupt(format!(
                "{len} bytes is too short for a binary trace"
            )));
        }
        src.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        src.read_exact(&mut magic)?;
        if magic != BIN_MAGIC {
            return Err(corrupt("missing LDCFBIN1 file magic"));
        }

        src.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        src.read_exact(&mut trailer)?;
        if trailer[12..] != IDX_MAGIC {
            return Err(corrupt("missing LDCFIDX1 trailer magic"));
        }
        let index_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        let index_crc = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
        let index_len = (len - TRAILER_LEN)
            .checked_sub(index_offset)
            .filter(|l| (2..=MAX_INDEX).contains(l))
            .ok_or_else(|| corrupt(format!("index offset {index_offset} is out of bounds")))?;

        src.seek(SeekFrom::Start(index_offset))?;
        let mut index = vec![0u8; index_len as usize];
        src.read_exact(&mut index)?;
        if crc32(&index) != index_crc {
            return Err(corrupt("index fails its CRC"));
        }
        if index[0] != INDEX_MARKER {
            return Err(corrupt("index marker missing"));
        }

        let mut pos = 1usize;
        let n_frames = get_varint(&index, &mut pos)?;
        // Each entry takes at least four one-byte varints, so this also
        // bounds the allocation below by the index's own size.
        if n_frames > index_len / 4 {
            return Err(corrupt(format!("index claims {n_frames} frames")));
        }
        let mut frames = Vec::with_capacity(n_frames as usize);
        let (mut prev_off, mut prev_min) = (0u64, 0u64);
        for _ in 0..n_frames {
            let offset = get_delta(&index, &mut pos, &mut prev_off)?;
            let min_slot = get_delta(&index, &mut pos, &mut prev_min)?;
            let span = get_varint(&index, &mut pos)?;
            let n_events = get_varint(&index, &mut pos)?;
            if offset < BIN_MAGIC.len() as u64 || offset >= index_offset {
                return Err(corrupt(format!("frame offset {offset} is out of bounds")));
            }
            let max_slot = min_slot.checked_add(span).ok_or_else(|| {
                corrupt(format!("frame slot span {min_slot}+{span} overflows u64"))
            })?;
            // A frame holds at least one event, and at most one per
            // payload byte (the tag stream).
            if n_events == 0 || n_events > MAX_PAYLOAD {
                return Err(corrupt(format!(
                    "index claims {n_events} events in a frame"
                )));
            }
            frames.push(FrameMeta {
                offset,
                min_slot,
                max_slot,
                n_events,
            });
        }
        if pos != index.len() {
            return Err(corrupt("index has trailing bytes"));
        }
        Ok(Self { src, frames })
    }

    /// Per-frame index entries (offset, slot range, event count).
    pub fn frames(&self) -> &[FrameMeta] {
        &self.frames
    }

    /// Total events in the trace, from the index alone.
    pub fn n_events(&self) -> u64 {
        self.frames.iter().map(|f| f.n_events).sum()
    }

    /// Smallest and largest event slot, from the index alone (`None`
    /// for an empty trace).
    pub fn slot_span(&self) -> Option<(u64, u64)> {
        let min = self.frames.iter().map(|f| f.min_slot).min()?;
        let max = self.frames.iter().map(|f| f.max_slot).max()?;
        Some((min, max))
    }

    /// Iterate every event in emission order, decoding one frame at a
    /// time (peak retained events bounded by the frame size).
    pub fn events(self) -> BinEvents<R> {
        let frames = self.frames.clone();
        BinEvents::new(self.src, frames, None)
    }

    /// Iterate only events with `lo <= slot < hi`, using the index to
    /// skip every frame whose slot range misses the window. Returns the
    /// iterator and the number of frames it will actually decode.
    pub fn events_in(self, lo: u64, hi: u64) -> (BinEvents<R>, usize) {
        let frames: Vec<FrameMeta> = self
            .frames
            .iter()
            .filter(|f| f.overlaps(lo, hi))
            .copied()
            .collect();
        let scanned = frames.len();
        (BinEvents::new(self.src, frames, Some((lo, hi))), scanned)
    }
}

/// Lazy event iterator over (a subset of) a binary trace's frames.
pub struct BinEvents<R: Read + Seek> {
    src: R,
    frames: std::vec::IntoIter<FrameMeta>,
    range: Option<(u64, u64)>,
    current: std::vec::IntoIter<SimEvent>,
    failed: bool,
}

impl<R: Read + Seek> BinEvents<R> {
    fn new(src: R, frames: Vec<FrameMeta>, range: Option<(u64, u64)>) -> Self {
        Self {
            src,
            frames: frames.into_iter(),
            range,
            current: Vec::new().into_iter(),
            failed: false,
        }
    }
}

impl<R: Read + Seek> Iterator for BinEvents<R> {
    type Item = Result<SimEvent, BinError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            for ev in self.current.by_ref() {
                match self.range {
                    Some((lo, hi)) if ev.slot() < lo || ev.slot() >= hi => continue,
                    _ => return Some(Ok(ev)),
                }
            }
            let meta = self.frames.next()?;
            match decode_frame(&mut self.src, &meta) {
                Ok(events) => {
                    if events.len() as u64 != meta.n_events {
                        self.failed = true;
                        return Some(Err(corrupt(format!(
                            "frame at offset {} decoded {} events, index says {}",
                            meta.offset,
                            events.len(),
                            meta.n_events
                        ))));
                    }
                    self.current = events.into_iter();
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::{NodeId, PacketId};
    use std::io::Cursor;

    fn sample_events(n: usize) -> Vec<SimEvent> {
        let mut events = Vec::new();
        for node in 0..4u32 {
            events.push(SimEvent::ScheduleSlot {
                slot: 0,
                node: NodeId(node),
                period: 10,
                offset: node % 10,
            });
        }
        for i in 0..n as u64 {
            events.push(SimEvent::TxAttempt {
                slot: i,
                sender: NodeId((i % 4) as u32),
                receiver: NodeId(((i + 1) % 4) as u32),
                packet: (i % 3) as PacketId,
                bypass_mac: i % 2 == 0,
            });
            events.push(SimEvent::Delivered {
                slot: i,
                sender: NodeId((i % 4) as u32),
                receiver: NodeId(((i + 1) % 4) as u32),
                packet: (i % 3) as PacketId,
                fresh: i % 5 != 0,
            });
            events.push(SimEvent::SlotEnd {
                slot: i,
                queued: i % 7,
                active_nodes: 4,
            });
        }
        events
    }

    fn write_trace(events: &[SimEvent], frame_events: usize) -> Vec<u8> {
        let mut sink = BinSink::with_frame_events(Vec::new(), frame_events);
        for ev in events {
            sink.on_event(ev);
        }
        sink.on_finish();
        assert_eq!(sink.events(), events.len() as u64);
        sink.into_result().unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn varint_roundtrips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn roundtrip_across_frame_sizes() {
        let events = sample_events(100);
        for frame_events in [1, 7, 64, 4096] {
            let bytes = write_trace(&events, frame_events);
            let reader = BinReader::new(Cursor::new(&bytes)).unwrap();
            assert_eq!(reader.n_events(), events.len() as u64);
            let back: Vec<SimEvent> = reader
                .events()
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("frame size {frame_events}: {e}"));
            assert_eq!(back, events, "frame size {frame_events}");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = write_trace(&[], 16);
        let reader = BinReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.n_events(), 0);
        assert_eq!(reader.slot_span(), None);
        assert_eq!(reader.events().count(), 0);
    }

    #[test]
    fn slot_range_query_uses_the_index() {
        let events = sample_events(100);
        let bytes = write_trace(&events, 16);
        let reader = BinReader::new(Cursor::new(&bytes)).unwrap();
        let total_frames = reader.frames().len();
        let (iter, scanned) = reader.events_in(40, 50);
        let got: Vec<SimEvent> = iter.collect::<Result<_, _>>().unwrap();
        let expect: Vec<SimEvent> = events
            .iter()
            .filter(|e| (40..50).contains(&e.slot()))
            .copied()
            .collect();
        assert_eq!(got, expect);
        assert!(
            scanned < total_frames,
            "query decoded {scanned}/{total_frames} frames — the index did not help"
        );
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let events = sample_events(40);
        let bytes = write_trace(&events, 16);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let outcome: Result<Vec<SimEvent>, BinError> =
                BinReader::new(Cursor::new(&bad)).and_then(|r| r.events().collect());
            assert!(
                outcome.is_err(),
                "flipping byte {i} of {} went undetected",
                bytes.len()
            );
        }
    }

    /// A container around a hand-written index: magic, `body`, the
    /// index, and a trailer carrying the index's real offset and CRC,
    /// so every index field reaches the parser.
    fn sealed(body: &[u8], index: &[u8]) -> Vec<u8> {
        let mut bytes = BIN_MAGIC.to_vec();
        bytes.extend_from_slice(body);
        let index_offset = bytes.len() as u64;
        bytes.extend_from_slice(index);
        bytes.extend_from_slice(&index_offset.to_le_bytes());
        bytes.extend_from_slice(&crc32(index).to_le_bytes());
        bytes.extend_from_slice(&IDX_MAGIC);
        bytes
    }

    fn open_err(bytes: Vec<u8>) -> String {
        match BinReader::new(Cursor::new(bytes)) {
            Ok(_) => panic!("hostile index accepted"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn hostile_index_slot_span_is_corrupt() {
        // One frame at offset 8 (zigzag 16) whose min_slot is the delta
        // −1 (zigzag 1) from 0, i.e. u64::MAX, with a slot span of 1.
        let err = open_err(sealed(&[0], &[INDEX_MARKER, 1, 16, 1, 1, 1]));
        assert!(err.contains("overflows u64"), "{err}");
    }

    #[test]
    fn hostile_index_event_counts_are_corrupt() {
        // Two frames claiming 2^63 events each: their total would not
        // fit in a u64.
        let mut index = vec![INDEX_MARKER, 2];
        for offset_delta in [16, 2] {
            index.extend_from_slice(&[offset_delta, 0, 0]);
            put_varint(&mut index, 1 << 63);
        }
        let err = open_err(sealed(&[0, 0], &index));
        assert!(err.contains("events in a frame"), "{err}");
        // A frame of no events is no frame.
        let err = open_err(sealed(&[0], &[INDEX_MARKER, 1, 16, 0, 0, 0]));
        assert!(err.contains("events in a frame"), "{err}");
    }

    #[test]
    fn all_event_kinds_roundtrip() {
        let s = NodeId(3);
        let r = NodeId(7);
        let events = vec![
            SimEvent::TxAttempt {
                slot: 1,
                sender: s,
                receiver: r,
                packet: 2,
                bypass_mac: true,
            },
            SimEvent::Delivered {
                slot: 1,
                sender: s,
                receiver: r,
                packet: 2,
                fresh: true,
            },
            SimEvent::Overheard {
                slot: 2,
                sender: s,
                receiver: r,
                packet: 0,
                fresh: false,
            },
            SimEvent::LinkLoss {
                slot: 3,
                sender: s,
                receiver: r,
                packet: 1,
            },
            SimEvent::Collision {
                slot: 4,
                sender: s,
                receiver: r,
                packet: 1,
            },
            SimEvent::ReceiverBusy {
                slot: 5,
                sender: s,
                receiver: r,
                packet: 1,
            },
            SimEvent::Mistimed {
                slot: 6,
                sender: s,
                receiver: r,
                packet: 3,
            },
            SimEvent::Deferred {
                slot: 7,
                sender: s,
                receiver: r,
                packet: 2,
            },
            SimEvent::CoverageReached {
                slot: 8,
                packet: 3,
                holders: 99,
            },
            SimEvent::SlotEnd {
                slot: 9,
                queued: 42,
                active_nodes: 5,
            },
            SimEvent::BurstLoss {
                slot: 10,
                sender: s,
                receiver: r,
                packet: 1,
            },
            SimEvent::NodeCrashed { slot: 11, node: r },
            SimEvent::NodeRecovered { slot: 12, node: r },
            SimEvent::SourceRetry {
                slot: 13,
                packet: 0,
            },
            SimEvent::ScheduleSlot {
                slot: 0,
                node: s,
                period: 100,
                offset: 37,
            },
            SimEvent::PacketInjected {
                slot: 14,
                node: s,
                packet: 4,
            },
        ];
        let bytes = write_trace(&events, 5);
        let back: Vec<SimEvent> = BinReader::new(Cursor::new(&bytes))
            .unwrap()
            .events()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn binary_is_much_smaller_than_jsonl() {
        let events = sample_events(500);
        let bytes = write_trace(&events, FRAME_EVENTS);
        let jsonl: usize = events
            .iter()
            .map(|e| {
                let mut line = Vec::new();
                e.write_jsonl(&mut line);
                line.len() + 1
            })
            .sum();
        assert!(
            jsonl >= 4 * bytes.len(),
            "compression ratio {:.2}x is below 4x",
            jsonl as f64 / bytes.len() as f64
        );
    }
}
