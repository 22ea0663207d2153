//! HTTP-lite wire framing over `std::net` — just enough of HTTP/1.1
//! for `curl` to speak to the daemon: a `Content-Length`-framed JSON
//! body each way, and persistent connections. A connection carries one
//! exchange at a time, as many as both sides keep it for: every response
//! says `Connection: keep-alive` or `Connection: close`, and a client
//! sends its thread's next request to the same address on the last
//! connection the daemon kept ([`roundtrip_with`]). Hand-rolled on
//! purpose: the workspace builds fully offline, so the wire layer uses
//! nothing beyond the standard library and the in-tree serde_json shim.
//! Both sides arm every socket with one `WIRE_TIMEOUT` each way: a
//! constant, like the wire limits, not a setting.
//!
//! A message — request or response, head and body — is formatted into
//! one buffer and leaves through one `write_all` (`send`), the way
//! `bsim_core::frame::write_frame` sends a frame: formatting straight
//! onto a `TcpStream` costs one `write(2)` per format piece, and the
//! peer's reader then wakes for a fragment.

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed request: method, path, the (possibly empty) body, and
/// whether it said `Connection: close`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
    /// The client closes after this exchange; the daemon answers
    /// `Connection: close` and keeps nothing.
    pub close: bool,
}

/// The socket read and write timeout both sides of the protocol arm on
/// every connection — client round trips and pooled daemon connections —
/// so a slow-loris peer, one that connects and then trickles or
/// withholds bytes, cannot pin a thread forever.
pub(crate) const WIRE_TIMEOUT: Duration = Duration::from_secs(120);

/// Arms [`WIRE_TIMEOUT`] on both directions of a connected socket.
pub(crate) fn arm(stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(WIRE_TIMEOUT))?;
    stream.set_write_timeout(Some(WIRE_TIMEOUT))
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
/// Largest response body a client reads: `bsim_core::frame`'s cap.
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

/// Whether a head's `Connection` header carries `token` (`close`,
/// `keep-alive`), case-insensitively.
fn connection_says(headers: &[(String, String)], token: &str) -> bool {
    headers.iter().any(|(k, v)| {
        k == "connection" && v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token))
    })
}

/// Reads one request from the stream: request line, headers (only
/// `Content-Length` and `Connection` are interpreted), then exactly that
/// many body bytes. A malformed head is `InvalidData` and an over-limit
/// one `FileTooLarge`; the daemon answers those `400` / `413`.
pub(crate) fn read_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let (line, headers, body) = read_message(reader, MAX_REQUEST_BODY)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line lacks a path"))?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: String::from_utf8(body.unwrap_or_default()).map_err(|_| bad("body is not UTF-8"))?,
        close: connection_says(&headers, "close"),
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

/// Writes one response: status line, framing headers, JSON body. `keep`
/// is the daemon's decision, made before the write, to serve another
/// request on this connection (`Connection: keep-alive`) or to close it
/// after this response (`Connection: close`).
pub(crate) fn write_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    keep: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep { "keep-alive" } else { "close" }
    );
    send(writer, head, body)
}

/// Writes one shed response (`429`/`503`) carrying a `Retry-After`
/// header, so clients under admission control know when to come back
/// instead of hot-looping. A shed connection is never kept.
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
         Content-Length: {}\r\n\r\n",
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
/// error (same contract as the server-side `read_request`), and a
/// response that carries body bytes without declaring `Content-Length`
/// is rejected rather than silently reinterpreted — the daemon always
/// frames, so an unframed non-empty body means the wire is not speaking
/// this protocol. An unframed response is empty only on a connection it
/// says is closing: on a kept one, the bytes after it belong to no
/// message yet, and waiting for its end would wait out the read timeout.
pub fn read_response_full(reader: &mut impl BufRead) -> io::Result<FullResponse> {
    let (status_line, headers, body) = read_message(reader, MAX_RESPONSE_BODY)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let body = match body {
        Some(body) => body,
        None if !connection_says(&headers, "close") => {
            return Err(bad("response without Content-Length on a kept connection"))
        }
        None if reader.fill_buf()?.is_empty() => Vec::new(),
        None => return Err(bad("response body without Content-Length framing")),
    };
    Ok((
        status,
        headers,
        String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?,
    ))
}

/// Client side: one round trip ([`roundtrip_with`] without the headers).
/// Returns `(status, body)`.
pub fn roundtrip(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let (status, _, body) = roundtrip_with(addr, method, path, body)?;
    Ok((status, body))
}

/// A connection the daemon said it keeps.
struct Kept {
    addr: String,
    reader: BufReader<TcpStream>,
}

thread_local! {
    /// This thread's last kept connection: its next round trip to the
    /// same address goes out on it.
    static KEPT: RefCell<Option<Kept>> = const { RefCell::new(None) };
}

/// Client side: one round trip — send, read the framed response.
/// Returns `(status, headers, body)`. `WIRE_TIMEOUT` on the read *and*
/// write side keeps a wedged daemon from hanging the client forever.
///
/// The request goes out on this thread's kept connection when it leads
/// to `addr`, and on a new one otherwise. A kept connection the daemon
/// closed between exchanges — it closes one only before reading a byte
/// of the next request — fails before the first byte of a response, and
/// the request is then sent once more on a new connection, which repeats
/// no work. A response torn after its first byte is an error.
pub fn roundtrip_with(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<FullResponse> {
    if let Some(conn) = KEPT.take().filter(|k| k.addr == addr) {
        match exchange(conn, method, path, body) {
            Err((e, true)) if closed_while_idle(&e) => {}
            done => return done.map_err(|(e, _)| e),
        }
    }
    let stream = TcpStream::connect(addr)?;
    arm(&stream)?;
    let conn = Kept {
        addr: addr.to_string(),
        reader: BufReader::new(stream),
    };
    exchange(conn, method, path, body).map_err(|(e, _)| e)
}

/// The errors a kept connection fails with when the daemon closed it
/// between exchanges.
fn closed_while_idle(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

/// One exchange on `conn`, which becomes this thread's kept connection
/// when the response says `keep-alive`. An error carries whether it came
/// before the first byte of the response.
fn exchange(
    mut conn: Kept,
    method: &str,
    path: &str,
    body: &str,
) -> Result<FullResponse, (io::Error, bool)> {
    send_and_await(&mut conn.reader, &conn.addr, method, path, body).map_err(|e| (e, true))?;
    let (status, headers, body) = read_response_full(&mut conn.reader).map_err(|e| (e, false))?;
    if connection_says(&headers, "keep-alive") {
        KEPT.set(Some(conn));
    }
    Ok((status, headers, body))
}

/// Sends one request and waits for the first byte of its response; a
/// connection that ends first is `UnexpectedEof`.
fn send_and_await(
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    write_request(reader.get_mut(), addr, method, path, body)?;
    if reader.fill_buf()?.is_empty() {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
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
        let wire = "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"ok\":true}";
        let err = read_response_full(&mut Cursor::new(wire.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("without Content-Length"), "{err}");
    }

    #[test]
    fn unframed_empty_response_is_fine() {
        // A bodyless response (our 404s before a body was added, plain
        // probes) needs no framing header when the connection ends with it.
        let wire = "HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n";
        let (status, _, body) = read_response_full(&mut Cursor::new(wire.as_bytes())).unwrap();
        assert_eq!(status, 204);
        assert_eq!(body, "");
    }

    #[test]
    fn unframed_response_on_a_kept_connection_is_an_error() {
        // On a kept connection nothing says where an unframed response
        // ends: a typed error at once, not a wait for an EOF that never
        // comes.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut server = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (client, _) = listener.accept().unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        server
            .write_all(b"HTTP/1.1 204 No Content\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let err = read_response_full(&mut BufReader::new(client)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("kept connection"), "{err}");
    }

    #[test]
    fn framed_response_roundtrips() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "{\"job\":\"job-1\"}", true).unwrap();
        let (status, headers, body) = read_response_full(&mut Cursor::new(&out[..])).unwrap();
        assert_eq!(status, 200);
        assert!(connection_says(&headers, "keep-alive"), "{headers:?}");
        assert_eq!(body, "{\"job\":\"job-1\"}");
    }

    fn get(addr: &str) -> io::Result<FullResponse> {
        roundtrip_with(addr, "GET", "/metrics", "")
    }

    /// Accepts one connection on `listener`, and on it reads one request
    /// per answer and writes that answer; then drops the connection. A
    /// client that never connects or never sends fails it within 10 s
    /// rather than hanging the test.
    fn serve_one(listener: &std::net::TcpListener, answers: &[&[u8]]) {
        let patience = Duration::from_secs(10);
        let deadline = std::time::Instant::now() + patience;
        listener.set_nonblocking(true).unwrap();
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "no connection");
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("{e}"),
            }
        };
        stream.set_nonblocking(false).unwrap();
        stream.set_read_timeout(Some(patience)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for answer in answers {
            read_request(&mut reader).unwrap();
            reader.get_mut().write_all(answer).unwrap();
        }
    }

    const KEEP_ALIVE_OK: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";

    #[test]
    fn a_response_torn_on_a_kept_connection_is_an_error_and_not_resent() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            s.spawn(|| serve_one(&listener, &[KEEP_ALIVE_OK, b"HTTP/1.1 2"]));
            assert_eq!(get(&addr).unwrap().2, "{}");
            // The second request goes out on the kept connection, and half
            // a status line comes back: the daemon read it, so sending it
            // again could repeat its work.
            let err = get(&addr).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        });
        listener.set_nonblocking(true).unwrap();
        assert!(listener.accept().is_err(), "the request was sent again");
    }

    #[test]
    fn a_kept_connection_closed_before_the_next_request_is_resent_once() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Keep-alive, then a close before the next request is read.
                serve_one(&listener, &[KEEP_ALIVE_OK]);
                serve_one(
                    &listener,
                    &[b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nConnection: close\r\n\r\n2"],
                );
            });
            assert_eq!(get(&addr).unwrap().2, "{}");
            assert_eq!(get(&addr).unwrap().2, "2");
        });
        // A `close` answer leaves nothing kept.
        assert!(KEPT.with_borrow(Option::is_none));
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
    }

    #[test]
    fn both_directions_are_armed_with_120_s() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        arm(&stream).unwrap();
        let limit = Some(Duration::from_secs(120));
        assert_eq!(stream.read_timeout().unwrap(), limit);
        assert_eq!(stream.write_timeout().unwrap(), limit);
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
        for (keep, connection) in [(true, "keep-alive"), (false, "close")] {
            let mut w = CountingWriter::default();
            write_response(&mut w, 200, "OK", &body, keep).unwrap();
            assert_eq!(w.writes, 1, "response");
            assert_eq!(
                w.bytes,
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            );
        }

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
                 Content-Length: {}\r\n\r\n{body}",
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
        assert!(!req.close, "a client request leaves the connection open");
        let closing = "GET /metrics HTTP/1.1\r\nConnection: Close\r\n\r\n";
        assert!(
            read_request(&mut Cursor::new(closing.as_bytes()))
                .unwrap()
                .close
        );
    }

    #[test]
    fn response_carries_exact_framing() {
        let mut out = Vec::new();
        write_response(&mut out, 202, "Accepted", "{\"job\":\"job-1\"}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"), "{text}");
        assert!(text.contains("Content-Length: 15\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"job\":\"job-1\"}"), "{text}");
    }
}
