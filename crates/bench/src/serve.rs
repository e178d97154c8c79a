//! `pipo-serve`: a long-running sweep service over the persistent store.
//!
//! The figure binaries are batch processes: they open a [`ResultStore`],
//! answer what they can, simulate the rest and exit. `pipo-serve` keeps the
//! same store resident, so interactive clients — plotting notebooks, CI
//! smoke checks, other harness invocations — get warm sweep cells back in
//! microseconds instead of re-simulating them.
//!
//! # Protocol
//!
//! Line-delimited JSON over plain TCP (the build environment has no registry
//! access, so there is no HTTP stack — one request object per line, one or
//! more response objects per line back). Requests carry an `"op"` field:
//!
//! | request                          | response                            |
//! |----------------------------------|-------------------------------------|
//! | `{"op":"ping"}`                  | one `{"ok":true,"op":"pong",…}` line |
//! | `{"op":"stats"}`                 | one line of server + store counters |
//! | `{"op":"dashboard"}`             | one line aggregating every stored record |
//! | `{"op":"job","cells":[…]}`       | one line per cell as it completes, then a `"done"` summary line |
//! | `{"op":"shutdown"}`              | one ack line; the server then exits |
//!
//! A job's cells are looked up in the store first; warm cells stream back
//! immediately (`"cached":true`). Cold cells run as one [`Sweep`] — cells
//! that differ only in monitor configuration share one baseline simulation,
//! exactly as in the figure binaries — fanned across
//! [`ServeOptions::workers`] threads. They stream back as each finishes, in
//! completion order, then the whole batch is written back to the store and
//! flushed. The `"done"` line reports `simulated_systems`, the baseline and
//! monitored runs the job actually simulated. The `"result"` object of a
//! cell is byte-identical whether it was served warm or computed cold —
//! [`ResultStore::lookup`] reads back exactly the run
//! [`ResultStore::record`] wrote — so clients may cache on either.
//!
//! Every failure is a structured `{"ok":false,"error":…}` line; the server
//! validates everything it reads off the socket (parse errors carry byte
//! offsets, cell specs reject unknown fields, instruction counts are capped
//! by [`ServeOptions::max_instructions`], a cell's `l × b` is capped at
//! 2^20 filter entries and its `mnk` at 4096) and never panics on client
//! input.
//!
//! # Concurrency model
//!
//! One thread per connection. The store sits behind one mutex (it is
//! single-writer by design; see the [`store`](crate::store) docs) and is
//! locked only for lookups and write-backs, never across a simulation. A
//! second mutex gates the cold pass, so concurrent jobs' cold batches run
//! one batch at a time while warm traffic flows freely past them. Replies
//! go out as one write per line on `TCP_NODELAY` sockets, so a reply never
//! waits on the client's delayed ACK.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use auto_cuckoo::{FilterParams, ParseBackendError};
use cache_sim::{Replacement, SystemConfig};
use pipo_workloads::mixes::mix_by_name;
use pipomonitor::MonitorConfig;

use crate::json::Json;
use crate::store::{ResultStore, STORE_SCHEMA_VERSION};
use crate::sweep::{ExecMode, MixCell, Sweep};
use crate::{MixRun, DEFAULT_INSTRUCTIONS};

/// Upper bound on one request line. Requests are a few hundred bytes in
/// practice; anything larger is a confused (or hostile) client.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Upper bound on cells per job, so one request cannot queue unbounded work.
const MAX_JOB_CELLS: usize = 1024;

/// Upper bound on a cell's filter table, `l × b` entries, so one request
/// cannot make the cold pass allocate past the host's memory (a failed
/// allocation aborts the whole server). The largest Fig. 8 table is
/// 2048 × 8.
const MAX_FILTER_ENTRIES: usize = 1 << 20;

/// Upper bound on a cell's `mnk`: once a table is full, every insert walks
/// this many kicks while the cold gate is held. The largest in use is 500.
const MAX_FILTER_KICKS: u32 = 4096;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; `127.0.0.1:0` picks a free port (the chosen address
    /// is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads a job's cold cells fan across (`1` runs them one at
    /// a time). Cold batches of concurrent jobs run one after another.
    pub workers: usize,
    /// Largest per-core instruction count a job cell may request. Simulation
    /// time is linear in this, so it is the server's admission control.
    pub max_instructions: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            max_instructions: 10 * DEFAULT_INSTRUCTIONS,
        }
    }
}

/// State shared by every connection handler.
struct Shared {
    store: Mutex<ResultStore>,
    /// Held for the whole cold pass of a job: one cold batch at a time.
    cold_gate: Mutex<()>,
    workers: usize,
    max_instructions: u64,
    addr: SocketAddr,
    jobs: AtomicU64,
    cells: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    shutdown: AtomicBool,
}

/// A bound (but not yet serving) `pipo-serve` instance.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.addr)
            .field("workers", &self.shared.workers)
            .finish()
    }
}

impl Server {
    /// Binds the listen socket and takes ownership of the store.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(store: ResultStore, options: ServeOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let workers = options.workers.max(1);
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                store: Mutex::new(store),
                cold_gate: Mutex::new(()),
                workers,
                max_instructions: options.max_instructions.max(1),
                addr,
                jobs: AtomicU64::new(0),
                cells: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound listen address (resolves port 0 to the chosen port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves connections until a client sends `{"op":"shutdown"}`, then
    /// flushes the store and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept errors and the final store flush error.
    pub fn run(self) -> io::Result<()> {
        let mut handlers = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            // Replies are whole lines written at once; do not let Nagle's
            // algorithm hold one back until the client ACKs the previous.
            // A socket that refuses the option is still served, just slower.
            let _ = stream.set_nodelay(true);
            let shared = Arc::clone(&self.shared);
            handlers.push(std::thread::spawn(move || {
                // A connection error just drops that client.
                let _ = handle_connection(stream, &shared);
            }));
        }
        for handler in handlers {
            let _ = handler.join();
        }
        self.shared
            .store
            .lock()
            .expect("store mutex not poisoned")
            .flush()
    }
}

/// Sends one compact response line, newline included, as a single write.
fn send(out: &mut impl Write, doc: &Json) -> io::Result<()> {
    let mut line = doc.to_line();
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

fn error_doc(message: impl Into<String>) -> Json {
    Json::object()
        .field("ok", false)
        .field("error", message.into())
}

/// Reads one newline-terminated request, bounded by [`MAX_REQUEST_BYTES`].
/// `Ok(None)` is a clean EOF; an oversized or non-UTF-8 line is an error.
fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(MAX_REQUEST_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() > MAX_REQUEST_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
        ));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request is not UTF-8"))
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    loop {
        let line = match read_request(&mut reader) {
            Ok(None) => return Ok(()),
            Ok(Some(line)) => line,
            Err(e) => {
                // Tell the client why before hanging up.
                let _ = send(&mut out, &error_doc(format!("bad request: {e}")));
                return Err(e);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                send(&mut out, &error_doc(format!("request parse error: {e}")))?;
                continue;
            }
        };
        match request.get("op").and_then(Json::as_str) {
            Some("ping") => send(
                &mut out,
                &Json::object()
                    .field("ok", true)
                    .field("op", "pong")
                    .field("schema_version", STORE_SCHEMA_VERSION),
            )?,
            Some("stats") => {
                let doc = stats_doc(shared);
                send(&mut out, &doc)?;
            }
            Some("dashboard") => {
                let doc = dashboard_doc(shared);
                send(&mut out, &doc)?;
            }
            Some("job") => handle_job(shared, &request, &mut out)?,
            Some("shutdown") => {
                send(
                    &mut out,
                    &Json::object().field("ok", true).field("op", "shutdown"),
                )?;
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so `Server::run` observes the flag.
                let _ = TcpStream::connect(shared.addr);
                return Ok(());
            }
            Some(op) => send(
                &mut out,
                &error_doc(format!(
                    "unknown op {op:?} (ping, stats, dashboard, job, shutdown)"
                )),
            )?,
            None => send(&mut out, &error_doc("request needs a string \"op\" field"))?,
        }
    }
}

fn stats_doc(shared: &Shared) -> Json {
    let store = shared.store.lock().expect("store mutex not poisoned");
    let telemetry = store.telemetry();
    Json::object()
        .field("ok", true)
        .field("op", "stats")
        .field("schema_version", STORE_SCHEMA_VERSION)
        .field("workers", shared.workers)
        .field("jobs", shared.jobs.load(Ordering::Relaxed))
        .field("cells", shared.cells.load(Ordering::Relaxed))
        .field("hits", shared.hits.load(Ordering::Relaxed))
        .field("misses", shared.misses.load(Ordering::Relaxed))
        .field(
            "store",
            Json::object()
                .field("path", store.path().display().to_string())
                .field("records", store.len())
                .field("bytes", store.bytes())
                .field("recovered_records", telemetry.recovered_records)
                .field("dropped_tail_bytes", telemetry.dropped_tail_bytes),
        )
}

/// Aggregates every stored record into the all-figures dashboard: per-mix
/// means over the decoded payloads plus the full record list, in key order.
fn dashboard_doc(shared: &Shared) -> Json {
    let store = shared.store.lock().expect("store mutex not poisoned");
    // (mix name, cell count, Σ normalized_performance, Σ fp/MI)
    let mut mixes: Vec<(String, u64, f64, f64)> = Vec::new();
    let mut cells = Vec::new();
    for (key, payload) in store.records() {
        let Ok(result) = Json::parse(payload) else {
            // A corrupt payload is a store bug, but the dashboard must not
            // die on it: skip the record (lookups already treat it as a miss).
            continue;
        };
        if let (Some(mix), Some(np), Some(fp)) = (
            result.get("mix").and_then(Json::as_str),
            result.get("normalized_performance").and_then(Json::as_f64),
            result.get("false_positives_per_mi").and_then(Json::as_f64),
        ) {
            match mixes.iter_mut().find(|(name, ..)| name == mix) {
                Some((_, count, np_sum, fp_sum)) => {
                    *count += 1;
                    *np_sum += np;
                    *fp_sum += fp;
                }
                None => mixes.push((mix.to_string(), 1, np, fp)),
            }
        }
        cells.push(Json::object().field("key", key).field("result", result));
    }
    mixes.sort_by(|a, b| a.0.cmp(&b.0));
    let mixes: Vec<Json> = mixes
        .into_iter()
        .map(|(mix, count, np_sum, fp_sum)| {
            Json::object()
                .field("mix", mix)
                .field("cells", count)
                .field("mean_normalized_performance", np_sum / count as f64)
                .field("mean_false_positives_per_mi", fp_sum / count as f64)
        })
        .collect();
    Json::object()
        .field("ok", true)
        .field("op", "dashboard")
        .field("records", store.len())
        .field("bytes", store.bytes())
        .field("mixes", mixes)
        .field("cells", cells)
}

fn cell_doc(index: usize, label: &str, cached: bool, run: &MixRun) -> Json {
    Json::object()
        .field("ok", true)
        .field("cell", index)
        .field("label", label)
        .field("cached", cached)
        .field("result", run.to_json())
}

fn handle_job(shared: &Shared, request: &Json, out: &mut (impl Write + Send)) -> io::Result<()> {
    let Some(specs) = request.get("cells").and_then(Json::as_array) else {
        return send(out, &error_doc("job needs a \"cells\" array"));
    };
    if specs.is_empty() {
        return send(out, &error_doc("job needs at least one cell"));
    }
    if specs.len() > MAX_JOB_CELLS {
        return send(
            out,
            &error_doc(format!(
                "job has {} cells; this server accepts at most {MAX_JOB_CELLS}",
                specs.len()
            )),
        );
    }
    let mut cells = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        match cell_from_spec(spec, shared.max_instructions) {
            Ok(cell) => cells.push(cell),
            Err(e) => return send(out, &error_doc(format!("cell {i}: {e}"))),
        }
    }

    let started = Instant::now();
    // Warm pass: one store lock for the whole batch, stream hits right away.
    let warm: Vec<Option<MixRun>> = {
        let store = shared.store.lock().expect("store mutex not poisoned");
        cells.iter().map(|cell| store.lookup(cell)).collect()
    };
    let mut hits = 0u64;
    for (i, run) in warm.iter().enumerate() {
        if let Some(run) = run {
            send(out, &cell_doc(i, &cells[i].label, true, run))?;
            hits += 1;
        }
    }
    let pending: Vec<usize> = (0..cells.len()).filter(|&i| warm[i].is_none()).collect();
    let misses = pending.len() as u64;

    // Cold pass, one job at a time. The store lock is not held meanwhile.
    let mut incomplete = false;
    let mut simulated_systems = 0;
    if !pending.is_empty() {
        let _gate = shared.cold_gate.lock().expect("cold gate not poisoned");
        let (computed, simulated) = run_cold(&cells, &pending, shared.workers, out)?;
        // Write the batch back and persist before answering `done`, so a
        // client that saw the summary can rely on the next job being warm.
        let mut store = shared.store.lock().expect("store mutex not poisoned");
        for (slot, run) in computed.iter().enumerate() {
            if let Some(run) = run {
                store.record(&cells[pending[slot]], run);
            }
        }
        store.flush()?;
        match simulated {
            Some(systems) => simulated_systems = systems,
            None => incomplete = true,
        }
    }

    shared.jobs.fetch_add(1, Ordering::Relaxed);
    shared
        .cells
        .fetch_add(cells.len() as u64, Ordering::Relaxed);
    shared.hits.fetch_add(hits, Ordering::Relaxed);
    shared.misses.fetch_add(misses, Ordering::Relaxed);
    if incomplete {
        return send(
            out,
            &error_doc("a worker panicked; job incomplete (completed cells were stored)"),
        );
    }
    let store_records = shared.store.lock().expect("store mutex not poisoned").len();
    send(
        out,
        &Json::object()
            .field("ok", true)
            .field("done", true)
            .field("cells", cells.len())
            .field("hits", hits)
            .field("misses", misses)
            .field("simulated_systems", simulated_systems)
            .field("wall_us", started.elapsed().as_micros() as u64)
            .field("total_hits", shared.hits.load(Ordering::Relaxed))
            .field("total_misses", shared.misses.load(Ordering::Relaxed))
            .field("store_records", store_records),
    )
}

/// Runs a job's missed cells (`pending` indexes `cells`) as one sweep
/// across `workers` threads. The sweep's completion hook streams each cell
/// to `out` as it completes (completion order; the `"cell"` index
/// identifies them) and records its run. After a failed write the rest of
/// the sweep still runs, unstreamed, and the write's error is returned.
///
/// Returns each pending cell's run, by position in `pending`, and the
/// number of systems simulated. That number is `None` when a panicking cell
/// cut the sweep short; then only the cells completed before it have runs.
fn run_cold(
    cells: &[MixCell],
    pending: &[usize],
    workers: usize,
    out: &mut (impl Write + Send),
) -> io::Result<(Vec<Option<MixRun>>, Option<usize>)> {
    let mut sweep = Sweep::new();
    for &i in pending {
        sweep.push(cells[i].clone());
    }
    let mut computed: Vec<Option<MixRun>> = vec![None; pending.len()];
    let mut written = Ok(());
    let mode = ExecMode::with_threads(workers);
    let simulated = catch_unwind(AssertUnwindSafe(|| {
        let on_cell = |slot: usize, run: &MixRun| {
            if written.is_ok() {
                let cell_index = pending[slot];
                written = send(
                    out,
                    &cell_doc(cell_index, &cells[cell_index].label, false, run),
                );
            }
            computed[slot] = Some(run.clone());
        };
        sweep.run_streaming(mode, None, on_cell).1.simulated_systems
    }))
    .ok();
    written?;
    Ok((computed, simulated))
}

/// Every field a job cell spec may carry. `mix` is required; everything else
/// defaults to the paper's configuration.
const CELL_SPEC_KEYS: [&str; 14] = [
    "mix",
    "label",
    "instructions",
    "seed",
    "delay",
    "backend",
    "l",
    "b",
    "f",
    "mnk",
    "thr",
    "filter_seed",
    "replacement",
    "replacement_seed",
];

fn opt_str<'a>(spec: &'a Json, name: &str) -> Result<Option<&'a str>, String> {
    spec.get(name)
        .map(|v| v.as_str().ok_or_else(|| format!("{name} must be a string")))
        .transpose()
}

fn opt_u64(spec: &Json, name: &str) -> Result<Option<u64>, String> {
    spec.get(name)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{name} must be a non-negative integer"))
        })
        .transpose()
}

fn narrow<T: TryFrom<u64>>(value: u64, name: &str) -> Result<T, String> {
    T::try_from(value).map_err(|_| format!("{name} is out of range"))
}

/// Parses one job cell spec into a [`MixCell`], strictly: unknown fields,
/// wrong types, unknown names, over-limit instruction counts and filter
/// geometries past the server's caps are all rejected with a message
/// naming the field.
fn cell_from_spec(spec: &Json, max_instructions: u64) -> Result<MixCell, String> {
    let Json::Object(fields) = spec else {
        return Err("cell spec must be an object".to_string());
    };
    for (key, _) in fields {
        if !CELL_SPEC_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "unknown cell field {key:?} (allowed: {})",
                CELL_SPEC_KEYS.join(", ")
            ));
        }
    }
    let mix_name = opt_str(spec, "mix")?.ok_or("cell spec needs a \"mix\" field")?;
    let mix = mix_by_name(mix_name).ok_or_else(|| format!("unknown mix {mix_name:?}"))?;
    let instructions = opt_u64(spec, "instructions")?.unwrap_or(DEFAULT_INSTRUCTIONS);
    if instructions == 0 {
        return Err("instructions must be positive".to_string());
    }
    if instructions > max_instructions {
        return Err(format!(
            "instructions {instructions} exceeds this server's limit of {max_instructions}"
        ));
    }
    let seed = opt_u64(spec, "seed")?.unwrap_or(42);

    let defaults = MonitorConfig::paper_default();
    let filter = FilterParams::builder()
        .buckets(match opt_u64(spec, "l")? {
            Some(v) => narrow(v, "l")?,
            None => defaults.filter.buckets(),
        })
        .entries_per_bucket(match opt_u64(spec, "b")? {
            Some(v) => narrow(v, "b")?,
            None => defaults.filter.entries_per_bucket(),
        })
        .fingerprint_bits(match opt_u64(spec, "f")? {
            Some(v) => narrow(v, "f")?,
            None => defaults.filter.fingerprint_bits(),
        })
        .max_kicks(match opt_u64(spec, "mnk")? {
            Some(v) => narrow(v, "mnk")?,
            None => defaults.filter.max_kicks(),
        })
        .security_threshold(match opt_u64(spec, "thr")? {
            Some(v) => narrow(v, "thr")?,
            None => defaults.filter.security_threshold(),
        })
        .seed(opt_u64(spec, "filter_seed")?.unwrap_or_else(|| defaults.filter.seed()))
        .build()
        .map_err(|e| format!("invalid filter parameters: {e}"))?;
    let (l, b) = (filter.buckets(), filter.entries_per_bucket());
    if l.checked_mul(b).is_none_or(|n| n > MAX_FILTER_ENTRIES) {
        return Err(format!(
            "l * b = {l} * {b} exceeds this server's limit of {MAX_FILTER_ENTRIES} entries"
        ));
    }
    if filter.max_kicks() > MAX_FILTER_KICKS {
        return Err(format!(
            "mnk {} exceeds this server's limit of {MAX_FILTER_KICKS}",
            filter.max_kicks()
        ));
    }
    let backend = match opt_str(spec, "backend")? {
        None => defaults.backend,
        Some(name) => name.parse().map_err(|e: ParseBackendError| e.to_string())?,
    };
    let delay = opt_u64(spec, "delay")?.unwrap_or(defaults.prefetch_delay);
    let monitor = defaults
        .with_filter(filter)
        .with_backend(backend)
        .with_prefetch_delay(delay);

    let mut system = SystemConfig::paper_default();
    let replacement_seed = opt_u64(spec, "replacement_seed")?;
    if let Some(name) = opt_str(spec, "replacement")? {
        let policies = [
            Replacement::Lru,
            Replacement::TreePlru,
            Replacement::Random {
                seed: replacement_seed.unwrap_or(0),
            },
        ];
        system.replacement = policies
            .into_iter()
            .find(|policy| policy.name() == name)
            .ok_or_else(|| {
                let names = policies.map(|policy| policy.name()).join(", ");
                format!("unknown replacement {name:?} ({names})")
            })?;
    }
    if replacement_seed.is_some() && !matches!(system.replacement, Replacement::Random { .. }) {
        return Err("replacement_seed needs replacement: \"random\"".to_string());
    }
    let label = opt_str(spec, "label")?.unwrap_or(mix_name).to_string();
    Ok(MixCell::new(label, mix, monitor, instructions, seed).on_system(system))
}

#[cfg(test)]
mod tests {
    use super::*;
    use auto_cuckoo::FilterBackend;
    use pipo_workloads::all_mixes;

    fn spec(text: &str) -> Json {
        Json::parse(text).expect("test spec parses")
    }

    #[test]
    fn minimal_cell_spec_uses_paper_defaults() {
        let cell = cell_from_spec(&spec(r#"{"mix":"mix3"}"#), u64::MAX).expect("valid spec");
        assert_eq!(cell.mix.name, "mix3");
        assert_eq!(cell.label, "mix3");
        assert_eq!(cell.instructions, DEFAULT_INSTRUCTIONS);
        assert_eq!(cell.seed, 42);
        assert_eq!(cell.monitor, MonitorConfig::paper_default());
        assert_eq!(cell.system, SystemConfig::paper_default());
    }

    #[test]
    fn full_cell_spec_overrides_every_knob() {
        let cell = cell_from_spec(
            &spec(
                r#"{"mix":"mix1","label":"big","instructions":5000,"seed":7,
                    "delay":100,"backend":"bloom","l":2048,"b":4,
                    "replacement":"random","replacement_seed":9}"#,
            ),
            u64::MAX,
        )
        .expect("valid spec");
        assert_eq!(cell.label, "big");
        assert_eq!((cell.instructions, cell.seed), (5000, 7));
        assert_eq!(cell.monitor.prefetch_delay, 100);
        assert_eq!(cell.monitor.backend, FilterBackend::Bloom);
        assert_eq!(cell.monitor.filter.buckets(), 2048);
        assert_eq!(cell.monitor.filter.entries_per_bucket(), 4);
        assert_eq!(cell.system.replacement, Replacement::Random { seed: 9 });
    }

    #[test]
    fn cell_spec_rejections_name_the_field() {
        for (text, needle) in [
            (r#"{"instructions":5}"#, "needs a \"mix\""),
            (r#"{"mix":"nope"}"#, "unknown mix"),
            (
                r#"{"mix":"mix1","bogus":1}"#,
                "unknown cell field \"bogus\"",
            ),
            (
                r#"{"mix":"mix1","seed":"x"}"#,
                "seed must be a non-negative",
            ),
            (r#"{"mix":"mix1","instructions":0}"#, "must be positive"),
            (r#"{"mix":"mix1","backend":"gpu"}"#, "unknown backend"),
            (r#"{"mix":"mix1","l":1000}"#, "invalid filter parameters"),
            (r#"{"mix":"mix3","l":1099511627776}"#, "l * b"),
            (r#"{"mix":"mix1","l":262144,"b":8}"#, "l * b"),
            (r#"{"mix":"mix1","l":9223372036854775808,"b":2}"#, "l * b"),
            (r#"{"mix":"mix1","mnk":4097}"#, "mnk 4097 exceeds"),
            (
                r#"{"mix":"mix1","replacement":"fifo"}"#,
                "unknown replacement",
            ),
            (
                r#"{"mix":"mix1","replacement_seed":3}"#,
                "needs replacement",
            ),
            (
                r#"{"mix":"mix3","replacement":"lru","replacement_seed":5}"#,
                "needs replacement",
            ),
            (r#"[1]"#, "must be an object"),
        ] {
            let err = cell_from_spec(&spec(text), u64::MAX).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn a_panicking_cold_cell_keeps_the_cells_completed_before_it() {
        let mixes = all_mixes();
        let good = MixCell::new("good", mixes[2], MonitorConfig::paper_default(), 20_000, 1);
        let mut bad = MixCell::new("bad", mixes[5], MonitorConfig::paper_default(), 20_000, 1);
        // Four benchmarks on a two-core system: installing them panics.
        bad.system.cores = 2;
        // The work queue holds both baselines, then both monitored runs; a
        // panic stops one of the two workers, so the other always reaches
        // the good cell's monitored run.
        let mut out = Vec::new();
        let (computed, simulated) =
            run_cold(&[good.clone(), bad], &[0, 1], 2, &mut out).expect("in-memory sink");
        assert_eq!(simulated, None, "the pass must report the panic");
        assert_eq!(computed[0].as_ref(), Some(&good.run()));
        assert!(computed[1].is_none());
        let streamed = String::from_utf8(out).expect("utf-8 replies");
        let lines: Vec<Json> = streamed
            .lines()
            .map(|line| Json::parse(line).expect("reply parses"))
            .collect();
        assert_eq!(lines.len(), 1, "only the good cell streams: {streamed}");
        assert_eq!(lines[0].get("cell").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[0].get("label").and_then(Json::as_str), Some("good"));
    }

    #[test]
    fn a_failed_cold_write_ends_the_stream_and_is_returned() {
        /// A client that hung up: every write fails.
        struct Gone(usize);
        impl Write for Gone {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mixes = all_mixes();
        let cells =
            [2, 3].map(|m| MixCell::new("c", mixes[m], MonitorConfig::paper_default(), 20_000, 1));
        let mut out = Gone(0);
        let err = run_cold(&cells, &[0, 1], 1, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(out.0, 1, "no write after the failed one");
    }

    #[test]
    fn cell_spec_accepts_filter_geometry_at_the_caps() {
        let cell = cell_from_spec(
            &spec(r#"{"mix":"mix1","l":131072,"b":8,"mnk":4096}"#),
            u64::MAX,
        )
        .expect("at the caps is accepted");
        assert_eq!(cell.monitor.filter.capacity(), MAX_FILTER_ENTRIES);
        assert_eq!(cell.monitor.filter.max_kicks(), MAX_FILTER_KICKS);
    }

    #[test]
    fn cell_spec_enforces_the_instruction_cap() {
        let err = cell_from_spec(&spec(r#"{"mix":"mix1","instructions":1001}"#), 1000).unwrap_err();
        assert!(err.contains("limit of 1000"), "{err}");
        cell_from_spec(&spec(r#"{"mix":"mix1","instructions":1000}"#), 1000)
            .expect("at the limit is accepted");
    }
}
