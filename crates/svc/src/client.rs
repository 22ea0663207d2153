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

/// `GET /fetch/<job>`: the document once, `202` if the job is still
/// unfinished after the daemon's wait, `410` once delivered.
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

/// Fetches `/fetch/<job>` until the answer is not 202 or the timeout
/// lapses, and returns that final `(status, body)`. The daemon paces the
/// wait: it holds a fetch of an unfinished job until the job finishes,
/// for up to a second, so this refetches at once and a warm job costs
/// one fetch. The document is delivered once; a later fetch is `410`.
pub fn wait(addr: &str, job: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let deadline = Instant::now() + timeout;
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
