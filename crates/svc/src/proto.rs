//! HTTP-lite wire framing over `std::net` — just enough of HTTP/1.1
//! for `curl` to speak to the daemon: one request per connection, a
//! `Content-Length`-framed JSON body each way, `Connection: close`.
//! Hand-rolled on purpose: the workspace builds fully offline, so the
//! wire layer uses nothing beyond the standard library and the
//! in-tree serde_json shim.
//!
//! A message — request or response, head and body — is formatted into
//! one buffer and leaves through one `write_all` ([`send`]), the way
//! `bsim_dist::frame::write_frame` sends a frame: formatting straight
//! onto a `TcpStream` costs one `write(2)` per format piece, and the
//! peer's reader then wakes for a fragment.

use bsim_check::proto::{svc_cached, Tracker, Violation};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed request: method, path, and the (possibly empty) body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

impl Request {
    /// The protocol-table message this request is, as named by the PV
    /// model in `bsim_check::proto::svc_protocol`. Total: anything the
    /// table does not know is `Bad`, which the daemon answers with a
    /// `Reject`-class response.
    pub fn event(&self) -> &'static str {
        classify(&self.method, &self.path)
    }
}

fn classify(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/submit") => "Submit",
        ("GET", p) if p.starts_with("/status/") => "Status",
        ("GET", p) if p.starts_with("/fetch/") => "Fetch",
        ("GET", "/metrics") => "Metrics",
        ("POST", "/shutdown") => "Shutdown",
        _ => "Bad",
    }
}

/// The protocol-table message class of a response status: 2xx is `Ok`,
/// 429/503 are `Busy` (shed/drain/overload — retry later), everything
/// else is `Reject`.
pub(crate) fn response_event(status: u16) -> &'static str {
    match status {
        200..=299 => "Ok",
        429 | 503 => "Busy",
        _ => "Reject",
    }
}

/// Socket timeouts for one wire direction pair. Applied on **both**
/// sides of the svc protocol (client round trips and pooled daemon
/// connections) so a slow-loris peer — one that connects and then
/// trickles or withholds bytes — cannot pin a worker thread forever.
///
/// A zero duration means "unbounded" (std rejects zero timeouts);
/// the GD002 guard lint flags configs that disable the protection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireTimeouts {
    /// Read timeout for the whole request/response read.
    pub read: Duration,
    /// Write timeout for sending the request/response.
    pub write: Duration,
}

impl Default for WireTimeouts {
    /// The pre-guard hardcoded value, now symmetric: 120 s each way.
    fn default() -> WireTimeouts {
        WireTimeouts {
            read: Duration::from_secs(120),
            write: Duration::from_secs(120),
        }
    }
}

impl WireTimeouts {
    /// Applies both timeouts to a connected socket.
    pub fn apply(&self, stream: &TcpStream) -> io::Result<()> {
        stream.set_read_timeout(if self.read.is_zero() {
            None
        } else {
            Some(self.read)
        })?;
        stream.set_write_timeout(if self.write.is_zero() {
            None
        } else {
            Some(self.write)
        })
    }
}

fn drift(v: Violation) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, v.to_string())
}

fn bad(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// A message that exceeds one of the wire limits below; the daemon
/// answers it `413`.
fn too_large(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::FileTooLarge, detail.into())
}

// Wire limits. Constants, not configuration: the peer's bytes are
// outside input and nothing this protocol carries comes near them.
/// Longest start or header line, terminator included.
const MAX_HEAD_LINE: u64 = 8 << 10;
/// Most header lines in one head.
const MAX_HEADERS: usize = 64;
/// Largest request body the daemon reads.
const MAX_REQUEST_BODY: usize = 1 << 20;
/// Largest response body a client reads: `bsim_dist::frame`'s cap.
const MAX_RESPONSE_BODY: usize = 64 << 20;
/// Most of a declared body length reserved before any of it arrived.
const BODY_PREALLOC: usize = 64 << 10;

/// One head line, through its `\n`. A connection that ends first is
/// `UnexpectedEof`; a line that runs past [`MAX_HEAD_LINE`] is
/// [`too_large`] after at most that many bytes were buffered.
fn read_head_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = Vec::new();
    reader.take(MAX_HEAD_LINE).read_until(b'\n', &mut line)?;
    if line.last() != Some(&b'\n') {
        return Err(if line.len() as u64 == MAX_HEAD_LINE {
            too_large(format!("head line longer than {MAX_HEAD_LINE} bytes"))
        } else {
            io::ErrorKind::UnexpectedEof.into()
        });
    }
    String::from_utf8(line).map_err(|_| bad("head is not UTF-8"))
}

/// A message as framed on the wire: start line, `(lowercased-name,
/// value)` header pairs, and the body when `Content-Length` declared one.
type Message = (String, Vec<(String, String)>, Option<Vec<u8>>);

/// The one head-and-body reader under [`read_request`] and
/// [`read_response_full`]. Every length the peer controls is bounded
/// before it is believed: lines by [`MAX_HEAD_LINE`], their number by
/// [`MAX_HEADERS`], the declared body by `max_body` — and the body is
/// read through `take`, so past [`BODY_PREALLOC`] what is allocated
/// follows what arrived.
fn read_message(reader: &mut impl BufRead, max_body: usize) -> io::Result<Message> {
    let start = read_head_line(reader)?;
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let line = read_head_line(reader)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(too_large(format!("more than {MAX_HEADERS} headers")));
        }
        if let Some((k, v)) = line.split_once(':') {
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
            if k == "content-length" {
                let n: usize = v
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {v:?}")))?;
                if n > max_body {
                    return Err(too_large(format!(
                        "{n}-byte body exceeds the {max_body}-byte limit"
                    )));
                }
                content_length = Some(n);
            }
            headers.push((k, v));
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut body = Vec::with_capacity(n.min(BODY_PREALLOC));
            reader.take(n as u64).read_to_end(&mut body)?;
            if body.len() < n {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Some(body)
        }
        None => None,
    };
    Ok((start, headers, body))
}

/// Reads one request from the stream: request line, headers (only
/// `Content-Length` is interpreted), then exactly that many body bytes.
/// A malformed head is `InvalidData` and an over-limit one
/// `FileTooLarge`; the daemon answers those `400` / `413`.
pub(crate) fn read_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let (line, _, body) = read_message(reader, MAX_REQUEST_BODY)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line lacks a path"))?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: String::from_utf8(body.unwrap_or_default()).map_err(|_| bad("body is not UTF-8"))?,
    })
}

/// Sends one message: `head` (start line and headers, through the
/// blank line) and `body` joined in one buffer, written once.
fn send(writer: &mut impl Write, head: String, body: &str) -> io::Result<()> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body.as_bytes());
    writer.write_all(&message)?;
    writer.flush()
}

/// Writes one response: status line, framing headers, JSON body.
pub(crate) fn write_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    send(writer, head, body)
}

/// Writes one shed response (`429`/`503`) carrying a `Retry-After`
/// header, so clients under admission control know when to come back
/// instead of hot-looping.
pub(crate) fn write_response_retry(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    retry_after_secs: u64,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Retry-After: {retry_after_secs}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    send(writer, head, body)
}

/// Writes one request: request line, `Host`, framing headers, JSON body.
fn write_request(
    writer: &mut impl Write,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    send(writer, head, body)
}

/// A parsed response: status code, `(lowercased-name, value)` header
/// pairs, and the body.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// Reads one framed response: status line, headers — returned as
/// `(lowercased-name, value)` pairs; the shed path's `Retry-After`
/// rides there — and body. A malformed `Content-Length` is a typed
/// error (same contract as the server-side [`read_request`]), and a
/// response that carries body bytes without declaring `Content-Length`
/// is rejected rather than silently reinterpreted — the daemon always
/// frames, so an unframed non-empty body means the wire is not speaking
/// this protocol.
pub fn read_response_full(reader: &mut impl BufRead) -> io::Result<FullResponse> {
    let (status_line, headers, body) = read_message(reader, MAX_RESPONSE_BODY)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let body = match body {
        Some(body) => body,
        None if reader.fill_buf()?.is_empty() => Vec::new(),
        None => return Err(bad("response body without Content-Length framing")),
    };
    Ok((
        status,
        headers,
        String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?,
    ))
}

/// Client side: one round trip — connect, send, read the framed
/// response, under the default [`WireTimeouts`]. Returns
/// `(status, body)`.
pub fn roundtrip(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let (status, _, body) = roundtrip_with(addr, method, path, body, WireTimeouts::default())?;
    Ok((status, body))
}

/// Client side: one round trip — connect, send, read the framed
/// response. Returns `(status, headers, body)`. The configured read
/// *and* write timeouts keep a wedged daemon from hanging the client
/// forever (the pre-guard wire had only a hardcoded 120 s read side).
///
/// The exchange drives the `client` role of the PV-checked protocol
/// table: the request classification and the response handling are both
/// table transitions, so a client move the model does not allow fails
/// here as a typed error instead of silently diverging from the model.
pub fn roundtrip_with(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeouts: WireTimeouts,
) -> io::Result<FullResponse> {
    let mut tracker = Tracker::new(svc_cached(), "client").ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "svc table lacks a client role")
    })?;
    let tag = match classify(method, path) {
        "Submit" => "submit",
        "Status" => "status",
        "Fetch" => "fetch",
        "Metrics" => "metrics",
        "Shutdown" => "shutdown",
        _ => "bad",
    };
    tracker.local(tag).map_err(drift)?;
    let mut stream = TcpStream::connect(addr)?;
    timeouts.apply(&stream)?;
    write_request(&mut stream, addr, method, path, body)?;
    match read_response_full(&mut BufReader::new(stream)) {
        Ok((status, headers, body)) => {
            tracker.recv(response_event(status)).map_err(drift)?;
            debug_assert!(tracker.is_terminal());
            Ok((status, headers, body))
        }
        Err(e) => {
            // Peer loss: clean EOF between frames vs anything torn. Both
            // are table transitions to `lost`; surface the io error.
            let stepped = if e.kind() == io::ErrorKind::UnexpectedEof {
                tracker.eof()
            } else {
                tracker.torn()
            };
            debug_assert!(stepped.is_ok(), "{stepped:?}");
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_framed_request() {
        let wire = "POST /submit HTTP/1.1\r\nHost: x\r\ncontent-length: 9\r\n\r\n{\"a\":true}";
        // 9 bytes of body on purpose: framing must win over the extra byte.
        let req = read_request(&mut Cursor::new(wire.as_bytes())).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/submit");
        assert_eq!(req.body, "{\"a\":true");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let wire = "GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_request(&mut Cursor::new(wire.as_bytes())).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn malformed_request_lines_are_errors() {
        assert!(read_request(&mut Cursor::new(b"\r\n\r\n" as &[u8])).is_err());
        assert!(read_request(&mut Cursor::new(b"GET\r\n\r\n" as &[u8])).is_err());
        let wire = "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(read_request(&mut Cursor::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn over_limit_heads_and_bodies_are_refused_before_they_are_buffered() {
        let kind = |wire: &[u8]| read_request(&mut Cursor::new(wire)).unwrap_err().kind();
        // A body length the peer merely claims is never allocated.
        let claimed = b"POST /submit HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n";
        assert_eq!(kind(claimed), io::ErrorKind::FileTooLarge);
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1 << 20));
        assert_eq!(kind(long_line.as_bytes()), io::ErrorKind::FileTooLarge);
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: 1\r\n".repeat(65));
        assert_eq!(kind(many.as_bytes()), io::ErrorKind::FileTooLarge);
        let at_cap = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: 1\r\n".repeat(64));
        assert!(read_request(&mut Cursor::new(at_cap.as_bytes())).is_ok());
        // The connection ending early is peer loss, not a bad request.
        let short = b"POST /submit HTTP/1.1\r\nContent-Length: 9\r\n\r\n{}";
        assert_eq!(kind(short), io::ErrorKind::UnexpectedEof);
        assert_eq!(
            kind(b"GET / HTTP/1.1\r\nHost: x"),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(kind(b""), io::ErrorKind::UnexpectedEof);
        // The client side reads through the same limits.
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n";
        let err = read_response_full(&mut Cursor::new(wire.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::FileTooLarge);
    }

    #[test]
    fn response_with_malformed_content_length_is_an_error() {
        // The client path must reject what the server path rejects —
        // a garbage Content-Length used to be silently dropped and the
        // body reinterpreted under EOF framing.
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n{\"ok\":true}";
        let err = read_response_full(&mut Cursor::new(wire.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("Content-Length"), "{err}");
    }

    #[test]
    fn unframed_nonempty_response_body_is_an_error() {
        let wire = "HTTP/1.1 200 OK\r\n\r\n{\"ok\":true}";
        let err = read_response_full(&mut Cursor::new(wire.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("without Content-Length"), "{err}");
    }

    #[test]
    fn unframed_empty_response_is_fine() {
        // A bodyless response (our 404s before a body was added, plain
        // probes) needs no framing header.
        let wire = "HTTP/1.1 204 No Content\r\n\r\n";
        let (status, _, body) = read_response_full(&mut Cursor::new(wire.as_bytes())).unwrap();
        assert_eq!(status, 204);
        assert_eq!(body, "");
    }

    #[test]
    fn framed_response_roundtrips() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "{\"job\":\"job-1\"}").unwrap();
        let (status, _, body) = read_response_full(&mut Cursor::new(&out[..])).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"job\":\"job-1\"}");
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let mut out = Vec::new();
        write_response_retry(
            &mut out,
            429,
            "Too Many Requests",
            2,
            "{\"error\":\"shed\"}",
        )
        .unwrap();
        let (status, headers, body) = read_response_full(&mut Cursor::new(&out[..])).unwrap();
        assert_eq!(status, 429);
        assert_eq!(
            headers
                .iter()
                .find(|(k, _)| k == "retry-after")
                .map(|(_, v)| v.as_str()),
            Some("2")
        );
        assert_eq!(body, "{\"error\":\"shed\"}");
        // Both shed statuses are Busy-class for the protocol table.
        assert_eq!(response_event(429), "Busy");
        assert_eq!(response_event(503), "Busy");
    }

    #[test]
    fn zero_wire_timeouts_mean_unbounded_not_an_error() {
        // std rejects Some(ZERO) timeouts; the guard maps zero to None.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let zero = WireTimeouts {
            read: Duration::ZERO,
            write: Duration::ZERO,
        };
        zero.apply(&stream).unwrap();
        assert_eq!(stream.read_timeout().unwrap(), None);
        assert_eq!(stream.write_timeout().unwrap(), None);
        WireTimeouts::default().apply(&stream).unwrap();
        assert_eq!(
            stream.read_timeout().unwrap(),
            Some(Duration::from_secs(120))
        );
        assert_eq!(
            stream.write_timeout().unwrap(),
            Some(Duration::from_secs(120))
        );
    }

    /// Counts `write` calls and takes whatever it is given.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_one_write() {
        let body = "{\"cells\":[1,2,3]}".repeat(4000);
        let mut w = CountingWriter::default();
        write_response(&mut w, 200, "OK", &body).unwrap();
        assert_eq!(w.writes, 1, "response");
        assert_eq!(
            w.bytes,
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        );

        let mut w = CountingWriter::default();
        write_response_retry(&mut w, 429, "Too Many Requests", 1, "{}").unwrap();
        assert_eq!(w.writes, 1, "shed response");
        assert_eq!(
            w.bytes,
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
              Retry-After: 1\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        );

        let mut w = CountingWriter::default();
        write_request(&mut w, "127.0.0.1:9", "POST", "/submit", &body).unwrap();
        assert_eq!(w.writes, 1, "request");
        assert_eq!(
            w.bytes,
            format!(
                "POST /submit HTTP/1.1\r\nHost: 127.0.0.1:9\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        );
        // What the daemon reads back is what the client wrote.
        let req = read_request(&mut Cursor::new(&w.bytes[..])).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/submit")
        );
        assert_eq!(req.body, body);
    }

    #[test]
    fn response_carries_exact_framing() {
        let mut out = Vec::new();
        write_response(&mut out, 202, "Accepted", "{\"job\":\"job-1\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"), "{text}");
        assert!(text.contains("Content-Length: 15\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"job\":\"job-1\"}"), "{text}");
    }
}
