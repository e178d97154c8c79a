//! The `serve_jobs` client: one closed-loop connection to an in-process
//! `pipo-serve` instance over loopback, on a fresh result store.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use pipo_bench::serve::{ServeOptions, Server};
use pipo_bench::{Json, ResultStore};

use crate::host::Calibration;
use crate::sim::elapsed_ns;

/// The server's options: the defaults with one worker, so the cold job
/// runs on one thread like the benchmark's other simulations.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    }
}

/// What one session sends: a job of `cells` cold, the same job
/// `warm_repeats` times warm, then `reads` dashboard and stats reads each.
pub struct SessionPlan {
    /// The job's cell specs, as `pipo-serve` accepts them.
    pub cells: Vec<Json>,
    pub warm_repeats: usize,
    pub reads: usize,
}

/// Timings and checks of one session.
#[derive(Debug, Default)]
pub struct SessionResult {
    /// `ResultStore::open` + `Server::bind` + the client's connect.
    pub setup_ns: u64,
    /// From the cold job's request to the shutdown acknowledgement.
    pub wall_ns: u64,
    pub cold_ms: f64,
    /// Server-side `wall_us` of the cold job.
    pub cold_server_us: f64,
    pub warm_ms: Vec<f64>,
    pub warm_server_us: Vec<f64>,
    pub dashboard_ms: Vec<f64>,
    pub stats_ms: Vec<f64>,
    pub requests: u64,
    pub failed_requests: u64,
    pub cells_hit: u64,
    pub cells_missed: u64,
    /// Every check that failed, described.
    pub failures: Vec<String>,
    /// The store's final `(key, payload)` records, read back from its log.
    pub records: Vec<(String, String)>,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Sends one request line and reads reply lines until `last` says the
    /// reply is complete. Returns the parsed lines and the round-trip time.
    fn request(
        &mut self,
        request: &Json,
        last: impl Fn(&Json) -> bool,
    ) -> Result<(Vec<Json>, f64), String> {
        let start = Instant::now();
        let mut line = request.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut replies = Vec::new();
        loop {
            let mut text = String::new();
            let read = self
                .reader
                .read_line(&mut text)
                .map_err(|e| format!("receive failed: {e}"))?;
            if read == 0 {
                return Err("server closed the connection mid-reply".to_string());
            }
            let reply = Json::parse(text.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
            let done = last(&reply) || reply.get("ok").and_then(Json::as_bool) != Some(true);
            replies.push(reply);
            if done {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                return Ok((replies, ms));
            }
        }
    }
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// What the server's `done` line reports about one job.
#[derive(Debug, Default)]
struct JobSummary {
    wall_us: f64,
    hits: u64,
    misses: u64,
}

/// One job's replies: every line ok, one cell line per cell with the
/// expected `cached` flag, a `done` summary with the expected counts.
/// Returns the cell results by cell index and the summary.
fn check_job(
    replies: &[Json],
    cells: usize,
    cached: bool,
    failures: &mut Vec<String>,
) -> (Vec<Option<String>>, JobSummary) {
    let mut results = vec![None; cells];
    let mut summary = JobSummary::default();
    for reply in replies {
        if !is_ok(reply) {
            failures.push(format!("job reply not ok: {}", reply.to_line()));
            continue;
        }
        if reply.get("done").and_then(Json::as_bool) == Some(true) {
            let count = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap_or(0);
            summary = JobSummary {
                wall_us: reply.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0),
                hits: count("hits"),
                misses: count("misses"),
            };
            let expected = if cached { (cells, 0) } else { (0, cells) };
            if (summary.hits, summary.misses) != (expected.0 as u64, expected.1 as u64) {
                failures.push(format!("job summary counts wrong: {}", reply.to_line()));
            }
            continue;
        }
        let index = reply.get("cell").and_then(Json::as_u64).map(|i| i as usize);
        match index.filter(|&i| i < cells) {
            Some(i) => {
                if reply.get("cached").and_then(Json::as_bool) != Some(cached) {
                    failures.push(format!("cell {i}: expected cached={cached}"));
                }
                results[i] = reply.get("result").map(Json::to_line);
            }
            None => failures.push(format!("reply names no valid cell: {}", reply.to_line())),
        }
    }
    if results.iter().any(Option::is_none) {
        failures.push("job reply is missing cells".to_string());
    }
    (results, summary)
}

fn is_done(reply: &Json) -> bool {
    reply.get("done").and_then(Json::as_bool) == Some(true)
}

/// Runs one session against a server on a fresh store at `store_path`,
/// sampling the host's speed into `calibration` before the set-up and
/// around the cold job (the session's host-bound parts).
pub fn run_session(
    store_path: &Path,
    plan: &SessionPlan,
    calibration: &mut Calibration,
) -> SessionResult {
    let mut out = SessionResult::default();
    let _ = std::fs::remove_file(store_path);

    calibration.sample();
    let start = Instant::now();
    let store = ResultStore::open(store_path).expect("open a fresh result store");
    let server = Server::bind(store, serve_options()).expect("bind a loopback server");
    let addr = server.local_addr();
    let connected = TcpStream::connect(addr).expect("connect to the loopback server");
    out.setup_ns = elapsed_ns(start);
    connected
        .set_nodelay(true)
        .expect("disable Nagle on the client socket");
    // A reply that never comes fails the request instead of hanging the run.
    connected
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set the client read timeout");

    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        let mut client = Client {
            reader: BufReader::new(connected.try_clone().expect("clone the client socket")),
            writer: connected,
        };
        calibration.sample();
        let started = Instant::now();
        session(&mut client, plan, &mut out, calibration);
        let shutdown = Json::object().field("op", "shutdown");
        out.requests += 1;
        if let Err(e) = client.request(&shutdown, |_| true) {
            out.failed_requests += 1;
            out.failures.push(format!("shutdown: {e}"));
            // The session's connection is unusable; stop the server over a
            // fresh one so the serving thread can be joined.
            if let Ok(mut stream) = TcpStream::connect(addr) {
                let _ = stream.write_all(b"{\"op\":\"shutdown\"}\n");
                let _ = BufReader::new(stream).read_line(&mut String::new());
            }
        }
        out.wall_ns = elapsed_ns(started);
        drop(client);
        match serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out
                .failures
                .push(format!("server stopped with an error: {e}")),
            Err(_) => out.failures.push("server thread panicked".to_string()),
        }
    });

    match ResultStore::open(store_path) {
        Ok(store) => {
            let mut records: Vec<(String, String)> = store
                .records()
                .map(|(k, p)| (k.to_string(), p.to_string()))
                .collect();
            records.sort();
            out.records = records;
        }
        Err(e) => out.failures.push(format!("cannot reopen the store: {e}")),
    }
    let _ = std::fs::remove_file(store_path);
    out
}

/// Sends one request, counting it and any failure against the session.
fn send(
    client: &mut Client,
    out: &mut SessionResult,
    request: &Json,
    last: &dyn Fn(&Json) -> bool,
) -> Option<(Vec<Json>, f64)> {
    out.requests += 1;
    match client.request(request, last) {
        Ok((replies, ms)) => {
            if !replies.iter().all(is_ok) {
                out.failed_requests += 1;
            }
            Some((replies, ms))
        }
        Err(e) => {
            out.failed_requests += 1;
            out.failures.push(e);
            None
        }
    }
}

fn session(
    client: &mut Client,
    plan: &SessionPlan,
    out: &mut SessionResult,
    calibration: &mut Calibration,
) {
    let cells = plan.cells.len();
    let job = Json::object()
        .field("op", "job")
        .field("cells", plan.cells.clone());
    let cold = send(client, out, &job, &is_done);
    calibration.sample();
    calibration.sample();
    let Some((replies, ms)) = cold else {
        return;
    };
    let (cold, summary) = check_job(&replies, cells, false, &mut out.failures);
    out.cold_ms = ms;
    out.cold_server_us = summary.wall_us;
    out.cells_hit += summary.hits;
    out.cells_missed += summary.misses;

    for _ in 0..plan.warm_repeats {
        let Some((replies, ms)) = send(client, out, &job, &is_done) else {
            return;
        };
        let (warm, summary) = check_job(&replies, cells, true, &mut out.failures);
        if warm != cold {
            out.failures
                .push("a warm result differs from its cold result".to_string());
        }
        out.warm_ms.push(ms);
        out.warm_server_us.push(summary.wall_us);
        out.cells_hit += summary.hits;
        out.cells_missed += summary.misses;
    }

    let dashboard = Json::object().field("op", "dashboard");
    let stats = Json::object().field("op", "stats");
    for _ in 0..plan.reads {
        if let Some((replies, ms)) = send(client, out, &dashboard, &|_| true) {
            if replies[0].get("records").and_then(Json::as_u64) != Some(cells as u64) {
                out.failures
                    .push(format!("dashboard does not list {cells} records"));
            }
            out.dashboard_ms.push(ms);
        }
        if let Some((_, ms)) = send(client, out, &stats, &|_| true) {
            out.stats_ms.push(ms);
        }
    }
}
