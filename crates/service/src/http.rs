//! A minimal HTTP/1.1 layer over `std::net`, in the same no-new-deps
//! style as the hand-written TOML parser: enough of the protocol for a
//! local job API (request line, headers, `Content-Length` bodies,
//! `Connection: close` responses) and nothing more. Every connection
//! carries exactly one request/response exchange — the clients are
//! short CLI invocations and CI curls, not browsers holding keep-alive
//! pools.

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on a request body (a scenario spec is a few KiB; one
/// MiB leaves two orders of magnitude of headroom without letting a
/// stray client balloon server memory).
pub const MAX_BODY: usize = 1 << 20;
/// Upper bound on one header / request line.
const MAX_LINE: usize = 8 << 10;
/// Upper bound on the header count.
const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Path without the query string, e.g. `/campaigns/abc123`.
    pub path: String,
    /// `key=value` pairs of the query string, in order, as sent:
    /// nothing is percent-decoded.
    pub query: Vec<(String, String)>,
    /// Body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value under `key`, if any.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Boolean query flag: `?key`, `?key=1` or `?key=true`.
    pub fn query_flag(&self, key: &str) -> bool {
        self.query_value(key)
            .is_some_and(|v| v.is_empty() || v == "1" || v == "true")
    }

    /// The path split into non-empty segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Read and parse one request from a connection (or any byte stream).
/// `Err` is a malformed request the caller should answer with 400 (or
/// drop, if the line never arrived). A second `Content-Length` header
/// is malformed, whatever its value.
pub fn read_request(stream: impl Read) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line without target")?;
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        other => return Err(format!("unsupported protocol {other:?}")),
    }

    let mut content_length = None;
    // The headers and the blank line that ends them.
    for _ in 0..=MAX_HEADERS {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            let (path, query) = split_target(target);
            let mut body = vec![0u8; content_length.unwrap_or(0)];
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("short body: {e}"))?;
            return Ok(Request {
                method,
                path,
                query,
                body,
            });
        }
        let (name, value) = line.split_once(':').ok_or("malformed header")?;
        if name.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err("repeated content-length".into());
            }
            let len = value
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad content-length {value:?}"))?;
            if len > MAX_BODY {
                return Err(format!("body of {len} bytes exceeds {MAX_BODY}"));
            }
            content_length = Some(len);
        }
    }
    Err("too many headers".into())
}

/// One CRLF-terminated line, without the terminator.
fn read_line(reader: &mut impl BufRead) -> Result<String, String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        reader
            .read_exact(&mut byte)
            .map_err(|e| format!("connection closed mid-line: {e}"))?;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| "non-UTF-8 header".to_string());
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Err("header line too long".into());
        }
    }
}

/// Split `/path?query` into the path and the query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (p.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// One response, always `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from a [`Value`] tree.
    pub fn json(status: u16, value: &Value) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: (serde_json::to_string(value).expect("json serializes") + "\n").into_bytes(),
        }
    }

    /// A JSON error body: `{"error": msg}` plus any extra fields.
    pub fn error(status: u16, msg: &str, extra: Vec<(String, Value)>) -> Self {
        let mut fields = vec![("error".to_string(), Value::Str(msg.to_string()))];
        fields.extend(extra);
        Self::json(status, &Value::Object(fields))
    }

    /// A raw file body with an explicit content type.
    pub fn file(content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status: 200,
            content_type,
            body,
        }
    }
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a response onto the wire. Write errors are returned for
/// logging but are not fatal to the server (the peer hung up).
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn parse_raw(raw: &[u8]) -> Result<Request, String> {
        read_request(raw)
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse_raw(
            b"POST /campaigns?quick=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert!(req.query_flag("quick"));
        assert!(!req.query_flag("missing"));
        assert_eq!(req.body, b"hello");
        assert_eq!(req.segments(), vec!["campaigns"]);
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw(b"GET /campaigns/abc/results HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.segments(), vec!["campaigns", "abc", "results"]);
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_raw(b"\r\n\r\n").is_err(), "empty request line");
        assert!(parse_raw(b"GET /x SPDY/9\r\n\r\n").is_err(), "bad protocol");
        assert!(
            parse_raw(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err(),
            "bad content-length"
        );
        let too_big = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse_raw(too_big.as_bytes()).is_err(), "oversized body");
        assert!(
            parse_raw(b"POST /x HTTP/1.1\r\nContent-Length: 0\r\ncontent-length: 0\r\n\r\n")
                .is_err(),
            "repeated content-length"
        );
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let resp = Response::error(404, "no such campaign", vec![]);
        write_response(&mut server_side, &resp).unwrap();
        drop(server_side);
        let mut raw = String::new();
        let mut client = client;
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 404 Not Found\r\n"), "{raw}");
        assert!(raw.contains("Connection: close"), "{raw}");
        assert!(raw.contains("{\"error\":\"no such campaign\"}"), "{raw}");
    }
}
