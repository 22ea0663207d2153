//! Thin client helpers over [`crate::proto::roundtrip`] — the calls
//! `bsim submit` / `bsim status` / `bsim fetch` and the lifecycle tests
//! make. Each returns `(http_status, body)` so callers decide policy.

use crate::proto::roundtrip;
use std::io;
use std::time::{Duration, Instant};

/// `POST /submit` with a request JSON body.
pub fn submit(addr: &str, body: &str) -> io::Result<(u16, String)> {
    roundtrip(addr, "POST", "/submit", body)
}

/// `GET /status/<job>`.
pub fn status(addr: &str, job: &str) -> io::Result<(u16, String)> {
    roundtrip(addr, "GET", &format!("/status/{job}"), "")
}

/// `GET /fetch/<job>`.
pub fn fetch(addr: &str, job: &str) -> io::Result<(u16, String)> {
    roundtrip(addr, "GET", &format!("/fetch/{job}"), "")
}

/// `GET /metrics` — every `host.svc.*` counter as JSON.
pub fn metrics(addr: &str) -> io::Result<(u16, String)> {
    roundtrip(addr, "GET", "/metrics", "")
}

/// `POST /shutdown` — drain, flush, stop.
pub fn shutdown(addr: &str) -> io::Result<(u16, String)> {
    roundtrip(addr, "POST", "/shutdown", "")
}

/// Extracts the `"job"` id from a 202 submit response.
pub fn job_id(submit_body: &str) -> Option<String> {
    let tree = serde_json::from_str(submit_body).ok()?;
    match &tree {
        serde::Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == "job")
            .and_then(|(_, v)| v.as_str().map(str::to_string)),
        _ => None,
    }
}

/// Polls `/fetch/<job>` until the job leaves the queue (HTTP != 202) or
/// the timeout lapses. Returns the final `(status, body)`. The poll
/// interval starts at 200 µs — a warm job is done within a millisecond —
/// and doubles to a 10 ms cap for jobs that simulate.
pub fn wait(addr: &str, job: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let deadline = Instant::now() + timeout;
    let mut pause = Duration::from_micros(200);
    loop {
        let (status, body) = fetch(addr, job)?;
        if status != 202 {
            return Ok((status, body));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("job {job} still {body} after {timeout:?}"),
            ));
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_parses_a_submit_response() {
        assert_eq!(
            job_id(r#"{"job":"job-3","cells":4,"state":"queued"}"#),
            Some("job-3".to_string())
        );
        assert_eq!(job_id("not json"), None);
        assert_eq!(job_id(r#"{"cells":4}"#), None);
    }
}
