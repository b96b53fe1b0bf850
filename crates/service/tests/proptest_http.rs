//! The HTTP request reader as a parser of untrusted bytes: anyone who
//! can reach the server's port can send it anything. Arbitrary bytes,
//! every truncation and byte mutations of valid `POST /campaigns?quick=1`
//! requests carrying the committed specs, hostile `Content-Length`
//! values, too many headers and over-long lines all go through
//! `http::read_request`. Each must return `Ok` or `Err`, never panic,
//! and no allocation made while reading may exceed `MAX_BODY`: a
//! declared length is checked before any buffer is sized by it.

use ldcf_service::http::{read_request, Request, MAX_BODY};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest request made on each
/// thread since [`largest_in`] last reset it.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: delegates verbatim to `System`, only noting the size asked
// for in a thread-local cell (const-initialised, so noting never
// allocates) on the allocating entry points.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Run `f`, returning its result and the largest allocation it made.
fn largest_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Read `raw` as one request; a panic fails the test with the input,
/// so it can be kept as a fixed case.
fn check(raw: &[u8]) -> Result<Request, String> {
    let (parsed, largest) = largest_in(|| std::panic::catch_unwind(|| read_request(raw)));
    let shown = String::from_utf8_lossy(&raw[..raw.len().min(200)]);
    let parsed = parsed.unwrap_or_else(|_| panic!("read_request panicked on {shown:?}"));
    assert!(
        largest <= MAX_BODY,
        "allocated {largest} bytes reading {shown:?}"
    );
    parsed
}

/// A `POST /campaigns?quick=1` request laid out as the client sends it.
fn post(body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST /campaigns?quick=1 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Submissions of the committed specs, read at test time so the cases
/// follow them.
fn valid_requests() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut specs: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "scenarios/ holds the committed specs");
    specs
        .iter()
        .map(|p| post(&std::fs::read(p).expect("read spec")))
        .collect()
}

/// A request whose one `Content-Length` header holds `value`.
fn with_length(value: &str, body: &[u8]) -> Vec<u8> {
    let mut raw =
        format!("POST /campaigns?quick=1 HTTP/1.1\r\nContent-Length: {value}\r\n\r\n").into_bytes();
    raw.extend_from_slice(body);
    raw
}

#[test]
fn valid_requests_parse() {
    for raw in valid_requests() {
        let req = check(&raw).expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert!(req.query_flag("quick"));
        assert!(!req.body.is_empty() && raw.ends_with(&req.body));
    }
}

#[test]
fn every_truncation_of_a_valid_request_is_an_error() {
    for raw in valid_requests() {
        for cut in 0..raw.len() {
            assert!(check(&raw[..cut]).is_err(), "accepted a cut at {cut}");
        }
    }
}

#[test]
fn hostile_content_lengths_are_errors() {
    let body = b"[scenario]\n";
    for value in [
        (MAX_BODY + 1).to_string(),
        usize::MAX.to_string(),
        "18446744073709551616".to_string(),
        "340282366920938463463374607431768211456".to_string(),
        "-1".to_string(),
        "-0".to_string(),
        "0x10".to_string(),
        "1e3".to_string(),
        String::new(),
        "11, 11".to_string(),
        format!("{}\r\nContent-Length: {}", body.len(), body.len()),
        format!("{}\r\ncontent-length: 0", body.len()),
        // At the cap, with no body behind it: a short body.
        MAX_BODY.to_string(),
    ] {
        assert!(check(&with_length(&value, body)).is_err(), "{value:?}");
    }
    let req = check(&with_length(&body.len().to_string(), body)).unwrap();
    assert_eq!(req.body, body);
}

#[test]
fn too_many_headers_and_long_lines_are_errors() {
    let headers = |n: usize| {
        let mut raw = b"GET /campaigns HTTP/1.1\r\n".to_vec();
        for i in 0..n {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw
    };
    assert!(check(&headers(64)).is_ok());
    assert!(check(&headers(65)).is_err());
    assert!(check(&headers(10_000)).is_err());

    let long = "a".repeat(9 << 10);
    let request_line = format!("GET /{long} HTTP/1.1\r\n\r\n");
    assert!(check(request_line.as_bytes()).is_err());
    let header = format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n");
    assert!(check(header.as_bytes()).is_err());
    // A line that never ends stops at the cap too.
    assert!(check(&vec![b'a'; 4 << 20]).is_err());
}

/// Tokens the grammar gives a meaning to, so that random input reaches
/// past the request line.
const SYNTAX: &[&[u8]] = &[
    b"GET ",
    b"POST ",
    b"/campaigns",
    b"?quick=1",
    b"&",
    b"=",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b"\r\n",
    b"\n",
    b"Content-Length: ",
    b"content-length:",
    b"0",
    b"5",
    b"-",
    b":",
    b" ",
    b"\xff",
];

/// The bytes a `Content-Length` value is drawn from.
const LENGTH_CHARS: &[u8] = b"0123456789 +-,xe";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_total(raw in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = check(&raw);
    }

    #[test]
    fn syntax_soup_is_total(
        picks in prop::collection::vec((any::<u8>(), any::<u8>()), 0..60),
    ) {
        let mut raw = Vec::new();
        for &(sel, byte) in &picks {
            match SYNTAX.get(sel as usize % (SYNTAX.len() + 4)) {
                Some(token) => raw.extend_from_slice(token),
                None => raw.push(byte),
            }
        }
        let _ = check(&raw);
    }

    #[test]
    fn byte_mutations_of_valid_requests_are_total(
        which in any::<usize>(),
        edits in prop::collection::vec((any::<usize>(), 0u8..3, any::<u8>()), 1..6),
    ) {
        let requests = valid_requests();
        let mut raw = requests[which % requests.len()].clone();
        for &(at, op, byte) in &edits {
            let at = at % (raw.len() + 1);
            match op {
                0 => raw.insert(at, byte),
                1 if at < raw.len() => raw[at] = byte,
                _ if at < raw.len() => {
                    raw.remove(at);
                }
                _ => {}
            }
        }
        let _ = check(&raw);
    }

    #[test]
    fn any_content_length_is_total(
        picks in prop::collection::vec(any::<u8>(), 0..24),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let value: String = picks
            .iter()
            .map(|&p| LENGTH_CHARS[p as usize % LENGTH_CHARS.len()] as char)
            .collect();
        if let Ok(req) = check(&with_length(&value, &body)) {
            let declared: usize = value.trim().parse().expect("accepted a length");
            prop_assert_eq!(req.body.len(), declared);
            prop_assert!(req.body.len() <= MAX_BODY);
        }
    }
}
