//! `pipo-serve`: long-running sweep service over the persistent result store.
//!
//! Server mode keeps one [`ResultStore`] resident and answers line-JSON
//! requests over TCP (see `pipo_bench::serve` for the protocol): warm sweep
//! cells come back in microseconds, cold cells run as one sweep (shared
//! baselines simulate once) across `--workers` threads, stream back as they
//! finish and are written back to the store. Client mode is a one-shot
//! request sender so scripts (and the CI smoke step) can exercise the
//! socket without extra tooling.
//!
//! ```text
//! pipo_serve --store PATH [--addr HOST:PORT] [--workers N]
//!            [--max-instructions N]
//! pipo_serve --connect HOST:PORT --request JSON
//! ```
//!
//! The server prints `pipo-serve listening on HOST:PORT` once the socket is
//! bound (with `--addr 127.0.0.1:0` this is how the chosen port is learned)
//! and runs until a client sends `{"op":"shutdown"}`. The client prints every
//! response line to stdout and exits 0 if all were `"ok":true`, 3 otherwise.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use pipo_bench::args::{exit_with_error, parse_command_line, write_stdout, Tokens};
use pipo_bench::serve::{ServeOptions, Server};
use pipo_bench::{Json, ResultStore};

const USAGE: &str = "\
usage: pipo_serve --store PATH [--addr HOST:PORT] [--workers N]
                  [--max-instructions N]
       pipo_serve --connect HOST:PORT --request JSON

server mode:
  --store PATH          persistent result store to serve (created on first
                        write if missing)
  --addr HOST:PORT      listen address (default 127.0.0.1:0 — a free port,
                        printed as `pipo-serve listening on ...`)
  --workers N           threads a job's cold cells fan across; each
                        simulated system runs on one thread, and cold jobs
                        run one at a time (default: one per host core)
  --max-instructions N  reject job cells asking for more than N instructions
                        per core (admission control)

client mode:
  --connect HOST:PORT   send one request to a running server
  --request JSON        the request object (one line); job responses are
                        read until their `done` summary line

  --help, -h            print this help and exit";

/// What the command line asks for.
enum Mode {
    /// Serve the store at `store` (`--store PATH`).
    Server {
        store: String,
        options: ServeOptions,
    },
    /// Send `request` to the server at `addr` (`--connect ADDR`); a job's
    /// responses run until its `done` line.
    Client {
        addr: String,
        request: String,
        is_job: bool,
    },
}

fn parse_args(mut tokens: Tokens) -> Result<Mode, String> {
    let mut store = None;
    let mut addr = None;
    let mut workers: Option<usize> = None;
    let mut max_instructions: Option<u64> = None;
    let mut connect = None;
    let mut request = None;
    while let Some(token) = tokens.next() {
        match token.as_str() {
            "--store" => store = Some(tokens.value("--store", "a value")?),
            "--addr" => addr = Some(tokens.value("--addr", "a value")?),
            "--workers" => workers = Some(tokens.positive("--workers", "a value")?),
            "--max-instructions" => {
                max_instructions = Some(tokens.positive("--max-instructions", "a value")?);
            }
            "--connect" => connect = Some(tokens.value("--connect", "a value")?),
            "--request" => request = Some(tokens.value("--request", "a value")?),
            _ => return Err(Tokens::unexpected(&token)),
        }
    }
    if let Some(connect) = connect {
        for (flag, set) in [
            ("--store", store.is_some()),
            ("--addr", addr.is_some()),
            ("--workers", workers.is_some()),
            ("--max-instructions", max_instructions.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} is a server-mode flag (conflicts with --connect)"
                ));
            }
        }
        let request = request.ok_or("client mode needs --request JSON")?;
        let parsed =
            Json::parse(&request).map_err(|e| format!("--request is not valid JSON: {e}"))?;
        return Ok(Mode::Client {
            addr: connect,
            is_job: parsed.get("op").and_then(Json::as_str) == Some("job"),
            request,
        });
    }
    let store = store.ok_or("pick a mode: --store PATH (server) or --connect ADDR (client)")?;
    if request.is_some() {
        return Err("--request is a client-mode flag (needs --connect)".into());
    }
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        addr: addr.unwrap_or(defaults.addr),
        workers: workers.unwrap_or(defaults.workers),
        max_instructions: max_instructions.unwrap_or(defaults.max_instructions),
    };
    Ok(Mode::Server { store, options })
}

fn main() {
    match parse_command_line(USAGE, parse_args) {
        Mode::Server { store, options } => server_main(&store, options),
        Mode::Client {
            addr,
            request,
            is_job,
        } => client_main(&addr, &request, is_job),
    }
}

fn server_main(path: &str, options: ServeOptions) {
    let store = ResultStore::open(path)
        .unwrap_or_else(|e| exit_with_error(1, format!("cannot open result store {path}: {e}")));
    let _ = writeln!(
        io::stderr(),
        "store {path}: {} records recovered",
        store.telemetry().recovered_records
    );
    let server = Server::bind(store, options)
        .unwrap_or_else(|e| exit_with_error(1, format!("cannot bind listen socket: {e}")));
    // The one line scripts wait for: the resolved listen address (a line,
    // so stdout flushes it at once).
    let _ = writeln!(
        io::stdout(),
        "pipo-serve listening on {}",
        server.local_addr()
    );
    if let Err(e) = server.run() {
        exit_with_error(1, format!("server failed: {e}"));
    }
    let _ = writeln!(io::stderr(), "pipo-serve: shut down, store flushed");
}

fn client_main(addr: &str, request: &str, is_job: bool) {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| exit_with_error(1, format!("cannot connect to {addr}: {e}")));
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .unwrap_or_else(|e| exit_with_error(1, format!("cannot clone socket: {e}"))),
    );
    let mut writer = stream;
    // One write for the whole line, so the newline is not held back by
    // Nagle's algorithm waiting on the server's delayed ACK.
    if let Err(e) = writer
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| writer.flush())
    {
        exit_with_error(1, format!("cannot send request: {e}"));
    }

    // A job answers with one line per cell then a `done` summary; every
    // other op answers with exactly one line.
    let mut all_ok = true;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => exit_with_error(1, "server closed the connection mid-response"),
            Ok(_) => {}
            Err(e) => exit_with_error(1, format!("cannot read response: {e}")),
        }
        write_stdout(&line);
        let doc = Json::parse(line.trim_end())
            .unwrap_or_else(|e| exit_with_error(1, format!("unparsable response line: {e}")));
        let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
        all_ok &= ok;
        let done = doc.get("done").and_then(Json::as_bool) == Some(true);
        if !is_job || done || !ok {
            break;
        }
    }
    std::process::exit(if all_ok { 0 } else { 3 });
}
