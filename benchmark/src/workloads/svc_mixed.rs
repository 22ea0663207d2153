//! `svc-mixed`: an in-process `bsimd` on loopback over a file-backed
//! store. Each pass starts a fresh daemon on a copy of the prewarmed
//! store and one closed-loop client issues a seeded, fixed-length
//! sequence of `sweep` requests through `client::submit` /
//! `client::fetch`: ≈ 99 % ask for prewarmed cells (store reads), ≈ 1 %
//! carry a fresh seed and simulate one cell (store writes).
//!
//! Why it exists: it is the only workload where `svc` — wire framing,
//! request preflight, key hashing, the store, admission — does most of
//! the work and simulation little, with reads beside writes on one store.

use super::stage;
use super::{pace_slices, Ctx, Layers, PassOut, Workload};
use crate::seed::SplitMix64;
use crate::span::Tracer;
use silicon_bridge::core::Parallelism;
use silicon_bridge::soc::configs;
use silicon_bridge::svc::{client, Daemon, DaemonConfig};
use silicon_bridge::workloads::microbench;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// No MILK-V model here: its 64 MiB LLC costs 27 MB of tables per
/// simulated cell, which would be most of this process's peak RSS.
const PLATFORMS: [&str; 6] = [
    "Rocket 1",
    "Banana Pi Sim Model",
    "Medium BOOM",
    "Large BOOM",
    "Rocket 2",
    "Small BOOM",
];
const KERNELS: [&str; 14] = [
    "Cca", "CCh", "CS1", "DP1d", "ED1", "EM5", "MD", "STc", "CF1", "EI", "MI", "ML2", "Cce", "EF",
];
/// A warm request asks for this many platforms × this many kernels. The
/// other platforms are prewarmed too and never asked for: reads land in
/// a store larger than what is read.
const WARM_PLATFORMS: usize = 4;
const WARM_KERNELS: usize = 12;
/// A cold request simulates one of these on `COLD_PLATFORM`.
const COLD_KERNELS: [&str; 4] = ["EM5", "STc", "Cca", "ED1"];
const COLD_PLATFORM: &str = "Rocket 1";
/// One closed-loop client and one job worker: with the connection thread
/// that serves it, that is as many threads as may run at once on the
/// 2-core host. Two clients and two workers ran 41 CPU-seconds in 36 and
/// their passes differed by 19 %: that measured the scheduler.
const WORKERS: usize = 1;
/// Requests per pass, and how many of them are cold.
const FULL_REQUESTS: usize = 1500;
const FULL_COLD: usize = 16;
const SMOKE_REQUESTS: usize = 40;
const SMOKE_COLD: usize = 2;
/// A pace slice after every so many requests.
const REQUESTS_PER_SLICE: usize = 4;
/// Pace slices after each of the eight prewarm bodies of a set-up.
const SLICES_PER_PREWARM_BODY: usize = 5;
/// A request that has not finished by then counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause between two fetches of an unfinished job. `client::wait` is not
/// used: it sleeps 10 ms after a fetch that finds the job unfinished, and
/// about half of the warm requests lose that race here, so op time had
/// two modes (3.9 and 12.3 ms) and its median moved from one to the
/// other between runs.
const POLL_PAUSE: Duration = Duration::from_micros(200);

/// One request of the sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    /// Index into the prewarmed request bodies.
    Warm(usize),
    /// Index into `COLD_KERNELS`, and the fresh seed that makes its key new.
    Cold(usize, u64),
}

/// The request sequence, the same in every pass of a run: `n` requests,
/// exactly `cold` of them cold at seeded positions, the warm ones drawn
/// uniformly from `bodies` prewarmed bodies. Fixed counts keep the work
/// of a pass fixed whatever the seed; the seed only moves what is asked
/// when.
pub fn sequence(seed: u64, n: usize, cold: usize, bodies: usize) -> Vec<Req> {
    let mut rng = SplitMix64::new(seed, 0);
    let cold_at = rng.permutation(n);
    let mut reqs: Vec<Req> = (0..n).map(|_| Req::Warm(rng.below(bodies))).collect();
    for (k, &at) in cold_at[..cold].iter().enumerate() {
        // Fresh per k. Every pass asks for them again: each starts from
        // a copy of the prewarmed store, where they are new.
        reqs[at] = Req::Cold(k % COLD_KERNELS.len(), 1_000_000 + k as u64);
    }
    reqs
}

fn sweep_body(platforms: &[&str], kernels: &[&str], seed: u64) -> String {
    let list = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"kind\":\"sweep\",\"platforms\":[{}],\"kernels\":[{}],\"scale\":1,\"seed\":{seed}}}",
        list(platforms),
        list(kernels)
    )
}

/// The warm request bodies: every platform × a window of the kernels.
fn warm_bodies() -> Vec<String> {
    (0..KERNELS.len())
        .step_by(2)
        .map(|k| {
            let kernels: Vec<&str> = (0..WARM_KERNELS)
                .map(|i| KERNELS[(k + i) % KERNELS.len()])
                .collect();
            sweep_body(&PLATFORMS[..WARM_PLATFORMS], &kernels, 0)
        })
        .collect()
}

/// Submit → fetch until done. `Err` says what went wrong: a refusal, a
/// shed, a non-200, a timeout.
fn roundtrip(addr: &str, body: &str, tr: &mut Tracer) -> Result<String, String> {
    let (status, response) = tr
        .scope("svc", "submit", false, |_| client::submit(addr, body))
        .map_err(|e| format!("submit: {e}"))?;
    if status != 202 {
        return Err(format!("submit answered {status}: {response}"));
    }
    let job = client::job_id(&response).ok_or("submit response carries no job id")?;
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    tr.scope("svc", "fetch until done", false, |_| loop {
        match client::fetch(addr, &job) {
            Ok((202, _)) if Instant::now() < deadline => std::thread::sleep(POLL_PAUSE),
            Ok((200, result)) => break Ok(result),
            Ok((status, answer)) => break Err(format!("fetch answered {status}: {answer}")),
            Err(e) => break Err(format!("fetch: {e}")),
        }
    })
}

/// `(Σ retired, result subtree of the first cell as text)` of a response.
fn parse_response(body: &str) -> Option<(u64, String)> {
    let tree = serde_json::from_str(body).ok()?;
    let cells = tree.get("cells")?.as_seq()?;
    let mut retired = 0;
    for cell in cells {
        retired += cell.get("result")?.get("retired")?.as_u64()?;
    }
    let first = serde_json::to_string(cells.first()?.get("result")?).ok()?;
    Some((retired, first))
}

/// A counter of the `/metrics` export.
fn counter(metrics: &str, name: &str) -> f64 {
    serde_json::from_str(metrics)
        .ok()
        .and_then(|t| find(&t, name))
        .unwrap_or(0.0)
}

fn find(tree: &serde::Value, name: &str) -> Option<f64> {
    match tree {
        serde::Value::Map(entries) => {
            entries
                .iter()
                .find_map(|(k, v)| if k == name { v.as_f64() } else { find(v, name) })
        }
        _ => None,
    }
}

#[derive(Default)]
struct LastPass {
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    /// `(span, cold kernel)` of each cold request, for staging.
    cold_spans: Vec<(Option<u32>, usize)>,
    open_ms: f64,
    flush_ms: f64,
    busy_s: f64,
    hits: f64,
    total: f64,
    simulated: f64,
    shed: f64,
}

pub struct SvcMixed {
    requests: usize,
    cold: usize,
    dir: PathBuf,
    bodies: Vec<String>,
    /// Prewarm response and retired instructions of each warm body.
    expected: Vec<(String, u64)>,
    last: LastPass,
}

impl SvcMixed {
    pub fn new(smoke: bool) -> SvcMixed {
        SvcMixed {
            requests: if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS },
            cold: if smoke { SMOKE_COLD } else { FULL_COLD },
            dir: crate::out_dir().join(format!("svc-{}", std::process::id())),
            bodies: Vec::new(),
            expected: Vec::new(),
            last: LastPass::default(),
        }
    }

    fn spawn(&self, store: &str) -> Result<Daemon, String> {
        let (daemon, report) = Daemon::spawn(DaemonConfig {
            store_path: Some(self.dir.join(store)),
            workers: WORKERS,
            par: Parallelism::Sequential,
            ..DaemonConfig::default()
        })
        .map_err(|e| format!("daemon spawn: {e}"))?;
        if report.has_errors() {
            return Err(format!("daemon preflight: {report}"));
        }
        Ok(daemon)
    }
}

impl Drop for SvcMixed {
    fn drop(&mut self) {
        // The stores are scratch; failing to remove them is not an error.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for SvcMixed {
    /// Builds the prewarm set by simulating every distinct warm cell
    /// through a daemon, then shuts it down, which flushes the store.
    fn setup(&mut self, cx: &mut Ctx) -> (u64, u64) {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir).expect("benchmark/out is writable");
        self.bodies = warm_bodies();
        self.expected.clear();
        let daemon = match self.spawn("prewarm.json") {
            Ok(d) => d,
            Err(e) => {
                eprintln!("svc-mixed setup: {e}");
                return (1, 1);
            }
        };
        let addr = daemon.addr();
        let rest = sweep_body(&PLATFORMS[WARM_PLATFORMS..], &KERNELS, 0);
        let mut failed = match roundtrip(&addr, &rest, &mut cx.tracer) {
            Ok(response) => u64::from(!cx.check.verify("prewarm-only", &response)),
            Err(e) => {
                eprintln!("svc-mixed setup: prewarm-only body: {e}");
                1
            }
        };
        pace_slices(&cx.pace, SLICES_PER_PREWARM_BODY);
        for (i, body) in self.bodies.iter().enumerate() {
            let ok = match roundtrip(&addr, body, &mut cx.tracer) {
                Ok(response) => {
                    let retired = parse_response(&response).map_or(0, |p| p.0);
                    let ok = retired > 0 && cx.check.verify(&format!("warm:{i}"), &response);
                    self.expected.push((response, retired));
                    ok
                }
                Err(e) => {
                    eprintln!("svc-mixed setup: body {i}: {e}");
                    self.expected.push((String::new(), 0));
                    false
                }
            };
            failed += u64::from(!ok);
            pace_slices(&cx.pace, SLICES_PER_PREWARM_BODY);
        }
        let stopped = client::shutdown(&addr).is_ok_and(|(status, _)| status == 200);
        daemon.join();
        failed += u64::from(!stopped);
        (self.bodies.len() as u64 + 2, failed)
    }

    fn pass(&mut self, cx: &mut Ctx, pass: u32) -> PassOut {
        let mut out = PassOut::default();
        let mut last = LastPass::default();
        let store = format!("pass-{pass}.json");
        let t = Instant::now();
        let daemon = cx.tracer.scope("svc", "Daemon::spawn", false, |_| {
            std::fs::copy(self.dir.join("prewarm.json"), self.dir.join(&store))
                .map_err(|e| format!("store copy: {e}"))
                .and_then(|_| self.spawn(&store))
        });
        last.open_ms = t.elapsed().as_secs_f64() * 1e3;
        let daemon = match daemon {
            Ok(d) => d,
            Err(e) => {
                eprintln!("svc-mixed pass {pass}: {e}");
                out.checks = 1;
                out.failed = 1;
                return out;
            }
        };
        let addr = daemon.addr();

        // Closed loop: the client sends its next request only after the
        // previous one came back.
        let reqs = sequence(cx.seed, self.requests, self.cold, self.bodies.len());
        for (i, req) in reqs.into_iter().enumerate() {
            let cold_body;
            let (name, body) = match &req {
                Req::Warm(i) => ("warm request", self.bodies[*i].as_str()),
                Req::Cold(k, seed) => {
                    cold_body = sweep_body(&[COLD_PLATFORM], &[COLD_KERNELS[*k]], *seed);
                    ("cold request", cold_body.as_str())
                }
            };
            let open = cx.tracer.enter("svc", name, false);
            let t = Instant::now();
            let result = roundtrip(&addr, body, &mut cx.tracer);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            cx.tracer.exit(open);
            if (i + 1) % REQUESTS_PER_SLICE == 0 {
                pace_slices(&cx.pace, 1);
            }

            out.op_ms.push(ms);
            last.busy_s += ms / 1e3;
            let ok = match (&req, result) {
                (Req::Warm(i), Ok(body)) => {
                    last.warm_ms.push(ms);
                    out.insts += self.expected[*i].1;
                    // Served from the store: byte-identical to prewarm.
                    body == self.expected[*i].0
                }
                (Req::Cold(k, _), Ok(body)) => {
                    last.cold_ms.push(ms);
                    last.cold_spans.push((open.id(), *k));
                    parse_response(&body).is_some_and(|(retired, result)| {
                        out.insts += retired;
                        cx.check.verify(
                            &format!("cold:{}@{COLD_PLATFORM}", COLD_KERNELS[*k]),
                            &result,
                        )
                    })
                }
                (_, Err(e)) => {
                    eprintln!("svc-mixed pass {pass}: {req:?}: {e}");
                    false
                }
            };
            out.failed += u64::from(!ok);
        }

        if let Ok((200, metrics)) = client::metrics(&addr) {
            last.hits = counter(&metrics, "host.svc.cache.hits");
            last.total = counter(&metrics, "host.svc.cells.total");
            last.simulated = counter(&metrics, "host.svc.cells.simulated");
            last.shed = counter(&metrics, "host.guard.conns.shed")
                + counter(&metrics, "host.guard.requests.shed");
        }
        // A shed request already failed above; the counter is a witness.
        let t = Instant::now();
        let stopped = cx.tracer.scope("svc", "shutdown+flush", false, |_| {
            let ok = client::shutdown(&addr).is_ok_and(|(status, _)| status == 200);
            daemon.join();
            ok
        });
        last.flush_ms = t.elapsed().as_secs_f64() * 1e3;
        out.checks += 1;
        out.failed += u64::from(!stopped);
        // The pass's store copy is spent; passes must not pile up on disk.
        let _ = std::fs::remove_file(self.dir.join(&store));
        self.last = last;
        out
    }

    fn layers(&mut self, cx: &mut Ctx, out: &mut Layers) {
        let last = &self.last;
        let tr = &mut cx.tracer;
        out.set("svc.warm_p50_ms", crate::stats::median(&last.warm_ms));
        out.set(
            "svc.warm_p99_ms",
            crate::stats::percentile(&last.warm_ms, 99.0),
        );
        if !last.cold_ms.is_empty() {
            out.set("svc.cold_p50_ms", crate::stats::median(&last.cold_ms));
            out.set(
                "svc.cold_p90_ms",
                crate::stats::percentile(&last.cold_ms, 90.0),
            );
        }
        out.set("svc.open_ms", last.open_ms);
        out.set("svc.flush_ms", last.flush_ms);
        out.set("svc.cache_hit_ratio", last.hits / last.total.max(1.0));
        out.set("svc.cells_simulated", last.simulated);
        out.set("svc.shed", last.shed);
        let store_bytes = std::fs::metadata(self.dir.join("prewarm.json")).map_or(0, |m| m.len());
        out.set("svc.store_mb", store_bytes as f64 / (1 << 20) as f64);

        // The simulation inside each cold request, staged; the rest of
        // every request — and all of every warm one — is `svc`.
        let suite = microbench::suite();
        let cfg = configs::by_name(COLD_PLATFORM, 1).expect("cold platform is in the catalog");
        let mut staged = stage::MicroStaged::default();
        let first_staged = tr.spans().len();
        for &(span, k) in &last.cold_spans {
            let kernel = suite
                .iter()
                .find(|s| s.name == COLD_KERNELS[k])
                .expect("cold kernel is in the suite");
            stage::micro_cell(tr, span, kernel, &cfg, 1, &mut staged);
        }
        if staged.cells > 0 {
            staged.publish(out);
        }
        let busy_s = last.busy_s + (last.open_ms + last.flush_ms) / 1e3;
        // No staged span measures `svc` itself (the requests are the real
        // calls): it is the unattributed rest under `svc`'s name as well.
        let rest = super::set_staged_shares(out, tr.spans(), first_staged, busy_s);
        out.set("svc.self_share", rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_different_seed_different_requests() {
        let a = sequence(11, 200, 2, 7);
        assert_eq!(a, sequence(11, 200, 2, 7));
        assert_ne!(a, sequence(12, 200, 2, 7));
    }

    #[test]
    fn every_sequence_is_the_same_amount_of_work() {
        for seed in 0..20 {
            let reqs = sequence(seed, 330, 3, 7);
            assert_eq!(reqs.len(), 330);
            let cold: Vec<&Req> = reqs.iter().filter(|r| matches!(r, Req::Cold(..))).collect();
            assert_eq!(cold.len(), 3, "exactly the cold share, whatever the seed");
            let mut kernels: Vec<usize> = cold
                .iter()
                .map(|r| match r {
                    Req::Cold(k, _) => *k,
                    Req::Warm(_) => unreachable!(),
                })
                .collect();
            kernels.sort_unstable();
            assert_eq!(
                kernels,
                [0, 1, 2],
                "the same cold kernels, whatever the seed"
            );
            assert!(reqs.iter().all(|r| !matches!(r, Req::Warm(i) if *i >= 7)));
        }
    }

    #[test]
    fn a_response_parses_to_its_instruction_count() {
        let body = r#"{"schema":"s","cells":[{"key":"k","result":{"retired":5,"cycles":9}},
                      {"key":"l","result":{"retired":7,"cycles":2}}]}"#;
        let (retired, first) = parse_response(body).unwrap();
        assert_eq!(retired, 12);
        assert_eq!(first, r#"{"retired":5,"cycles":9}"#);
        assert!(parse_response("{}").is_none());
        assert_eq!(
            counter(
                r#"{"counters":{"host.svc.cache.hits": 4}}"#,
                "host.svc.cache.hits"
            ),
            4.0
        );
    }
}
