//! A hand-rolled HTTP/1.1 subset: request parsing and response writing
//! over any `Read`/`Write` pair.
//!
//! The service speaks just enough HTTP for `curl`, browsers and the
//! [`crate::client`] module: request line + headers + `Content-Length`
//! bodies, keep-alive by default, `Connection: close` honoured. The
//! parser is defensive — header section and body sizes are capped, stray
//! control bytes and chunked transfer encoding are rejected — because it
//! sits directly on the network.

use std::io::{self, Read, Write};

/// Header section larger than this is rejected outright (slowloris and
/// absurd-header hardening).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/solve`).
    pub path: String,
    /// Decoded `key=value` query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Lower-cased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (case-insensitively named) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or `None` when it isn't valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why reading a request off a connection did not produce one.
#[derive(Debug)]
pub enum ReadError {
    /// The read timed out with no request bytes pending — the connection
    /// is idle. The caller decides whether to keep waiting (this is how
    /// the shutdown flag gets polled on keep-alive connections).
    Idle,
    /// Clean end of stream between requests.
    Eof,
    /// The declared body (or the header section) exceeds the configured
    /// limit; respond `413` and close.
    TooLarge {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The bytes are not a well-formed request; respond `400` and close.
    Bad(String),
    /// A hard transport error; just close.
    Io(io::Error),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// How many consecutive read timeouts to tolerate while a declared body
/// is still arriving (with the server's 250 ms read timeout this is a
/// ~10 s total deadline). Clients like `curl` legitimately pause between
/// head and body — up to a full second when they sent
/// `Expect: 100-continue` — so a single mid-body timeout must not 400.
pub const MAX_BODY_TIMEOUTS: u32 = 40;

/// Reads one request from `stream`. `carry` holds bytes of a following
/// pipelined request between calls and must be reused across calls on the
/// same connection. `max_body` bounds the accepted `Content-Length`.
pub fn read_request(
    stream: &mut impl Read,
    carry: &mut Vec<u8>,
    max_body: usize,
) -> Result<Request, ReadError> {
    read_request_expecting(stream, carry, max_body, &mut || {})
}

/// Like [`read_request`], invoking `send_continue` once when the request
/// carries `Expect: 100-continue` and its body has not fully arrived —
/// the callback must write the interim `100 Continue` response, or the
/// client will stall before sending the body.
pub fn read_request_expecting(
    stream: &mut impl Read,
    carry: &mut Vec<u8>,
    max_body: usize,
    send_continue: &mut dyn FnMut(),
) -> Result<Request, ReadError> {
    // accumulate until the blank line ending the header section
    let head_end = loop {
        if let Some(pos) = find_head_end(carry) {
            if pos > MAX_HEAD_BYTES {
                return Err(ReadError::TooLarge {
                    limit: MAX_HEAD_BYTES,
                });
            }
            break pos;
        }
        if carry.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if carry.is_empty() {
                    Err(ReadError::Eof)
                } else {
                    Err(ReadError::Bad("connection closed mid-request".into()))
                };
            }
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return if carry.is_empty() {
                    Err(ReadError::Idle)
                } else {
                    Err(ReadError::Bad("timed out mid-request".into()))
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    };

    let head = std::str::from_utf8(&carry[..head_end])
        .map_err(|_| ReadError::Bad("non-UTF-8 request head".into()))?
        .to_string();
    let body_start = head_end + 4; // past "\r\n\r\n"

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Bad("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Bad("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Bad(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        if headers.len() > 64 {
            return Err(ReadError::Bad("too many headers".into()));
        }
    }

    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::Bad(
            "chunked transfer encoding unsupported".into(),
        ));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Bad(format!("bad content-length {v:?}")))?,
    };
    if content_length > max_body {
        return Err(ReadError::TooLarge { limit: max_body });
    }

    // read the body, reusing whatever already arrived past the head
    let mut body = carry[body_start.min(carry.len())..].to_vec();
    if body.len() < content_length
        && headers
            .iter()
            .any(|(n, v)| n == "expect" && v.eq_ignore_ascii_case("100-continue"))
    {
        send_continue();
    }
    let mut timeouts = 0u32;
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Bad("connection closed mid-body".into())),
            Ok(n) => {
                body.extend_from_slice(&chunk[..n]);
                timeouts = 0;
            }
            Err(e) if is_timeout(&e) => {
                timeouts += 1;
                if timeouts > MAX_BODY_TIMEOUTS {
                    return Err(ReadError::Bad("timed out reading body".into()));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    // keep pipelined bytes beyond this request for the next call
    let extra = body.split_off(content_length);
    *carry = extra;

    let (path, query) = split_target(target)?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn split_target(target: &str) -> Result<(String, Vec<(String, String)>), ReadError> {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(path)?;
    let mut query = Vec::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok((path, query))
}

fn percent_decode(s: &str) -> Result<String, ReadError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| ReadError::Bad(format!("bad percent escape in {s:?}")))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| ReadError::Bad(format!("non-UTF-8 escape in {s:?}")))
}

/// Percent-encodes one path segment or query component (RFC 3986
/// unreserved bytes pass through) — the inverse of the request parser's
/// decoding. A tier that forwards a request it parsed must re-encode the
/// decoded names, or reserved characters (`&`, `?`, `%`, spaces) would
/// change the request's meaning downstream.
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// One HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers (name, value) beyond the standard set.
    pub extra_headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error envelope `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\":{}}}", antruss_core::json::quoted(message)),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Sets a header, replacing every earlier value of `name` (a relayed
    /// reply may already carry one from the tier below).
    pub fn set_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.retain(|(n, _)| n != name);
        self.with_header(name, value)
    }

    /// Serializes the response; `close` adds `Connection: close`.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(if close {
            "connection: close\r\n\r\n"
        } else {
            "connection: keep-alive\r\n\r\n"
        });
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// The reason phrase for the status codes the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_one(raw: &str, max_body: usize) -> Result<Request, ReadError> {
        let mut carry = Vec::new();
        read_request(
            &mut Cursor::new(raw.as_bytes().to_vec()),
            &mut carry,
            max_body,
        )
    }

    #[test]
    fn parses_a_get_with_query() {
        let r = read_one(
            "GET /graphs?name=my%20graph&x=a+b HTTP/1.1\r\nHost: h\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/graphs");
        assert_eq!(r.query_param("name"), Some("my graph"));
        assert_eq!(r.query_param("x"), Some("a b"));
        assert_eq!(r.header("host"), Some("h"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = read_one(
            "POST /solve HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world",
            1024,
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body_utf8(), Some("hello world"));
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let err = read_one(
            "POST /solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert!(matches!(err, ReadError::TooLarge { limit: 1024 }));
    }

    #[test]
    fn oversized_header_section_is_rejected() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        let err = read_one(&raw, 1024).unwrap_err();
        assert!(matches!(err, ReadError::TooLarge { .. }));
    }

    #[test]
    fn malformed_requests_are_bad() {
        for raw in [
            "NOT-HTTP\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET / HTTP/1.1\r\nbroken header line\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "GET /%zz HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(read_one(raw, 1024), Err(ReadError::Bad(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn eof_and_truncation_are_distinguished() {
        assert!(matches!(read_one("", 1024), Err(ReadError::Eof)));
        assert!(matches!(read_one("GET / HT", 1024), Err(ReadError::Bad(_))));
        assert!(matches!(
            read_one("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", 1024),
            Err(ReadError::Bad(_))
        ));
    }

    #[test]
    fn pipelined_requests_stay_in_carry() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut carry = Vec::new();
        let mut cur = Cursor::new(raw.as_bytes().to_vec());
        let a = read_request(&mut cur, &mut carry, 1024).unwrap();
        assert_eq!(a.path, "/a");
        let b = read_request(&mut cur, &mut carry, 1024).unwrap();
        assert_eq!(b.path, "/b");
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("x-antruss-cache", "hit")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"), "{text}");
        assert!(text.contains("x-antruss-cache: hit\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");

        let replaced = Response::json(200, "{}")
            .with_header("x-antruss-shard", "1")
            .with_header("x-antruss-cache", "hit")
            .set_header("x-antruss-shard", "2");
        assert_eq!(
            replaced.extra_headers,
            [
                ("x-antruss-cache".to_string(), "hit".to_string()),
                ("x-antruss-shard".to_string(), "2".to_string()),
            ]
        );

        let mut out = Vec::new();
        Response::error(404, "no such \"thing\"")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close"), "{text}");
        assert!(
            text.contains("{\"error\":\"no such \\\"thing\\\"\"}"),
            "{text}"
        );
    }

    /// Yields each scripted chunk on a separate `read` call, with a
    /// timeout error before every chunk after the first — curl-like
    /// pacing (head arrives, then a pause, then the body).
    struct ScriptedReader {
        chunks: Vec<Vec<u8>>,
        delivered: usize,
        gave_timeout: bool,
    }

    impl ScriptedReader {
        fn new(chunks: Vec<Vec<u8>>) -> ScriptedReader {
            ScriptedReader {
                chunks,
                delivered: 0,
                gave_timeout: false,
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.delivered > 0 && !self.gave_timeout && !self.chunks.is_empty() {
                self.gave_timeout = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.gave_timeout = false;
            match self.chunks.first() {
                None => Ok(0),
                Some(_) => {
                    let chunk = self.chunks.remove(0);
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    self.delivered += 1;
                    Ok(chunk.len())
                }
            }
        }
    }

    #[test]
    fn expect_100_continue_triggers_the_callback_before_the_body() {
        let mut reader = ScriptedReader::new(vec![
            b"POST /graphs HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n".to_vec(),
            b"01234".to_vec(),
        ]);
        let mut carry = Vec::new();
        let mut continued = 0;
        let req =
            read_request_expecting(&mut reader, &mut carry, 1024, &mut || continued += 1).unwrap();
        assert_eq!(continued, 1, "100 Continue must be offered exactly once");
        assert_eq!(req.body_utf8(), Some("01234"));
    }

    #[test]
    fn no_continue_callback_when_the_body_already_arrived() {
        let mut carry = Vec::new();
        let mut continued = 0;
        let raw = b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let req = read_request_expecting(
            &mut Cursor::new(raw.to_vec()),
            &mut carry,
            1024,
            &mut || continued += 1,
        )
        .unwrap();
        assert_eq!(continued, 0);
        assert_eq!(req.body_utf8(), Some("ok"));
    }

    #[test]
    fn mid_body_timeouts_are_tolerated_up_to_the_deadline() {
        // one timeout between head and body must not 400 (see
        // MAX_BODY_TIMEOUTS); exhausting the deadline must
        let mut reader = ScriptedReader::new(vec![
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n".to_vec(),
            b"abc".to_vec(),
        ]);
        let mut carry = Vec::new();
        let req = read_request(&mut reader, &mut carry, 1024).unwrap();
        assert_eq!(req.body_utf8(), Some("abc"));
    }

    #[test]
    fn encoded_components_decode_back() {
        for raw in ["plain-name_1.0~", "a b&c=d?e%f+g/h", "ünï"] {
            let encoded = encode_component(raw);
            assert!(encoded.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~' | b'%')
            ));
            assert_eq!(percent_decode(&encoded).unwrap(), raw);
        }
    }

    #[test]
    fn wants_close_reads_the_connection_header() {
        let r = read_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(r.wants_close());
        let r = read_one("GET / HTTP/1.1\r\n\r\n", 64).unwrap();
        assert!(!r.wants_close());
    }
}
