//! Command-line parsing for the harness binaries.
//!
//! Every binary reads its command line through [`parse_command_line`] and
//! a [`Tokens`] walker, which own the contract they share: `--help` / `-h`
//! prints the binary's usage and exits 0, and a flag with no value, a count
//! that is not a positive integer, an unknown flag or an extra positional
//! argument prints `error: …` and the usage, then exits 2. Nothing is
//! silently swallowed into a default.
//!
//! The twelve figure binaries parse [`HarnessArgs`] and print [`USAGE`].
//! Each takes `--json PATH`, `--sequential` and `--threads N` (the last two
//! conflict, in either order), and names the optional [`Input`]s it takes
//! where it parses:
//!
//! * the positional `scale` (instructions per core, probe windows, trials,
//!   insertions, ...; each binary's doc comment names it), up to a bound
//!   that is a constant of the binary;
//! * `--filter BACKEND`, taken by the binaries that build monitors, except
//!   `ablation_filter`, which sweeps every backend itself;
//! * `--trace PATH`, taken by `trace_replay` alone;
//! * `--store PATH`, taken by the `System::run` sweep figures with
//!   store-keyed cells (`fig8_performance`, `sensitivity_secthr`,
//!   `ablation_replacement`).
//!
//! An input a binary does not take is an `error:` line naming the flag (or
//! the scale), with exit status 2. `throughput` and `pipo_serve` keep their
//! own usage text and flags, read through the same walker.

use std::fmt::Display;
use std::io::{self, Write};
use std::str::FromStr;

use auto_cuckoo::FilterBackend;

use crate::store::ResultStore;
use crate::sweep::ExecMode;

/// Usage string printed alongside argument errors and by `--help`.
pub const USAGE: &str = "\
usage: <binary> [scale] [--json PATH] [--sequential | --threads N]
                [--filter auto|classic|bloom|xor] [--trace PATH]
                [--store PATH] [--help]

  scale             optional positive integer; per-binary meaning
                    (instructions per core, probe windows, trials,
                    insertions, ...)
  --json PATH       additionally write machine-readable results to PATH
  --sequential      evaluate sweep cells one at a time
                    (conflicts with --threads)
  --threads N       evaluate sweep cells on N worker threads
                    (default: one per host core; conflicts with --sequential)
  --filter BACKEND  pattern-store backend for the simulated monitors:
                    auto (paper default), classic, bloom or xor
  --trace PATH      replay a recorded pipo-trace file (v1 text or v2
                    binary); only trace_replay consumes recorded traces
  --store PATH      persistent content-addressed result store: warm sweep
                    cells are answered from it, cold cells recorded into it
                    (only the System::run sweep figures accept it)
  --help, -h        print this help and exit";

/// Reads the process's command line with `parse`. `--help` or `-h`
/// anywhere prints `usage` and exits 0; an error from `parse` prints
/// `error: <message>` and `usage` on stderr and exits 2. The status holds
/// even when the reader has already gone: a failed write is ignored.
pub fn parse_command_line<T>(usage: &str, parse: impl FnOnce(Tokens) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let _ = writeln!(io::stdout(), "{usage}");
        std::process::exit(0);
    }
    parse(Tokens::new(args))
        .unwrap_or_else(|message| exit_with_error(2, format!("{message}\n{usage}")))
}

/// Writes `error: <message>` to stderr and exits with `status`. The status
/// holds even when stderr's reader has gone: a failed write is ignored.
pub fn exit_with_error(status: i32, message: impl Display) -> ! {
    let _ = writeln!(io::stderr(), "error: {message}");
    std::process::exit(status);
}

/// A command line's tokens, walked in order. A parser matches each token
/// against its flags, takes a flag's value with [`value`](Self::value) or
/// [`positive`](Self::positive), and hands any other token to
/// [`positional`](Self::positional) or [`unexpected`](Self::unexpected).
pub struct Tokens(std::vec::IntoIter<String>);

impl Tokens {
    /// Walks `args` (without the program name).
    pub(crate) fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The value after `flag`, or the error "`flag` needs `what`" when the
    /// command line ends first.
    pub fn value(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The positive integer (of an unsigned type) after `flag`.
    pub fn positive<N: FromStr + Default + PartialEq>(
        &mut self,
        flag: &str,
        what: &str,
    ) -> Result<N, String> {
        let raw = self.value(flag, what)?;
        parse_positive(flag, &raw)
    }

    /// Reads a token no flag matched into `slot`, the command line's one
    /// positional count, named `name` in errors. An unknown flag or a
    /// second positional is [`unexpected`](Self::unexpected).
    pub fn positional<N: FromStr + Default + PartialEq>(
        token: &str,
        name: &str,
        slot: &mut Option<N>,
    ) -> Result<(), String> {
        if token.starts_with('-') || slot.is_some() {
            return Err(Self::unexpected(token));
        }
        *slot = Some(parse_positive(name, token)?);
        Ok(())
    }

    /// The error for a token no flag matched and no positional slot took:
    /// an unknown flag, or an extra positional argument.
    #[must_use]
    pub fn unexpected(token: &str) -> String {
        if token.starts_with('-') {
            format!("unknown flag {token:?}")
        } else {
            format!("unexpected extra argument {token:?}")
        }
    }
}

impl Iterator for Tokens {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// `raw` as a positive integer of an unsigned type, or an error naming
/// `name` and the value.
fn parse_positive<N: FromStr + Default + PartialEq>(name: &str, raw: &str) -> Result<N, String> {
    match raw.parse() {
        Ok(n) if n != N::default() => Ok(n),
        _ => Err(format!("{name} expects a positive integer, got {raw:?}")),
    }
}

/// An optional input a figure binary may take, beyond `--json`,
/// `--sequential` and `--threads`, which every one takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The positional scale, a positive integer up to this bound. A binary
    /// that allocates nothing per unit of scale passes `u64::MAX`.
    Scale(u64),
    /// `--filter BACKEND`.
    Filter,
    /// `--trace PATH`.
    Trace,
    /// `--store PATH`.
    Store,
}

/// Parsed harness arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// The optional positional scale argument (per-binary meaning).
    pub scale: Option<u64>,
    /// Where to write JSON results, if requested.
    pub json: Option<String>,
    /// How to execute sweep cells.
    pub mode: ExecMode,
    /// Pattern-store backend for monitors (`--filter BACKEND`); `None`
    /// leaves the [`MonitorConfig`](pipomonitor::MonitorConfig) default
    /// (`auto`) in place.
    pub filter: Option<FilterBackend>,
    /// Path to a recorded trace file to replay (`--trace PATH`).
    pub trace: Option<String>,
    /// Path to the persistent result store (`--store PATH`).
    pub store: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args` for a binary that takes the optional
    /// `inputs`, under [`parse_command_line`]'s contract.
    #[must_use]
    pub fn parse(inputs: &[Input]) -> Self {
        parse_command_line(USAGE, |tokens| Self::try_parse(tokens, inputs))
    }

    /// Parses an explicit argument list for a binary that takes the
    /// optional `inputs` (testable core of [`parse`](Self::parse)).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown flag, a missing flag
    /// value, an unparsable number, a zero scale, a duplicate positional
    /// argument, `--sequential` with `--threads`, an input the binary does
    /// not take, or a scale above its bound.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
        inputs: &[Input],
    ) -> Result<Self, String> {
        let mut scale: Option<u64> = None;
        let mut json = None;
        let mut sequential = false;
        let mut threads: Option<usize> = None;
        let mut filter = None;
        let mut trace = None;
        let mut store = None;
        let mut tokens = Tokens::new(args);
        while let Some(token) = tokens.next() {
            match token.as_str() {
                "--json" => json = Some(tokens.value("--json", "a file path")?),
                "--sequential" => sequential = true,
                "--threads" => threads = Some(tokens.positive("--threads", "a thread count")?),
                "--filter" => {
                    let raw = tokens.value("--filter", "a backend name")?;
                    filter = Some(raw.parse().map_err(|e| format!("--filter: {e}"))?);
                }
                "--trace" => trace = Some(tokens.value("--trace", "a file path")?),
                "--store" => store = Some(tokens.value("--store", "a file path")?),
                _ => Tokens::positional(&token, "scale", &mut scale)?,
            }
        }
        // `--sequential` with `--threads N` (either order) is an error
        // naming both flags, never a silent last-one-wins.
        let mode = match (sequential, threads) {
            (true, Some(threads)) => {
                return Err(format!(
                    "conflicting execution-mode flags: --sequential and --threads {threads} \
                     cannot be combined (pick one)"
                ))
            }
            (true, None) => ExecMode::Sequential,
            (false, Some(threads)) => ExecMode::with_threads(threads),
            (false, None) => ExecMode::host_default(),
        };
        let args = Self {
            scale,
            json,
            mode,
            filter,
            trace,
            store,
        };
        args.reject_undeclared(inputs)?;
        Ok(args)
    }

    /// Rejects the inputs given that the binary does not take, and a scale
    /// above the binary's bound, each naming the flag (or the scale).
    fn reject_undeclared(&self, inputs: &[Input]) -> Result<(), String> {
        let takes = |input| inputs.contains(&input);
        if let (Some(backend), false) = (self.filter, takes(Input::Filter)) {
            return Err(format!(
                "unsupported flag `--filter {backend}`: this binary does not \
                 take a pattern-store backend selection"
            ));
        }
        if let Some(scale) = self.scale {
            let bound = inputs.iter().find_map(|input| match *input {
                Input::Scale(max) => Some(max),
                _ => None,
            });
            match bound {
                None => return Err(format!("this binary takes no scale argument (got {scale})")),
                Some(max) if scale > max => {
                    return Err(format!(
                        "scale expects a positive integer up to {max}, got \"{scale}\""
                    ))
                }
                Some(_) => {}
            }
        }
        if let (Some(path), false) = (&self.trace, takes(Input::Trace)) {
            return Err(format!(
                "unsupported flag `--trace {path}`: this binary does not \
                 replay recorded traces (use the trace_replay binary)"
            ));
        }
        if let (Some(path), false) = (&self.store, takes(Input::Store)) {
            return Err(format!(
                "unsupported flag `--store {path}`: this binary has no \
                 store-keyed sweep cells (use fig8_performance, \
                 sensitivity_secthr or ablation_replacement)"
            ));
        }
        Ok(())
    }

    /// The scale argument, or `default` when absent.
    #[must_use]
    pub fn scale_or(&self, default: u64) -> u64 {
        self.scale.unwrap_or(default)
    }

    /// Opens the `--store` result store, exiting 1 with a diagnostic when
    /// the file exists but cannot be read or is not a store. `None` when
    /// the flag was absent.
    #[must_use]
    pub fn open_store(&self) -> Option<ResultStore> {
        let path = self.store.as_deref()?;
        Some(ResultStore::open(path).unwrap_or_else(|e| {
            exit_with_error(1, format!("cannot open result store {path}: {e}"))
        }))
    }

    /// The `--filter` backend, defaulting to the paper's `auto` design.
    #[must_use]
    pub fn filter_backend(&self) -> FilterBackend {
        self.filter.unwrap_or(FilterBackend::Auto)
    }

    /// The scale argument read as instructions per core
    /// ([`DEFAULT_INSTRUCTIONS`](crate::DEFAULT_INSTRUCTIONS) when absent).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.scale_or(crate::DEFAULT_INSTRUCTIONS)
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    /// Every optional input, so these tests see the whole surface.
    const ALL_INPUTS: &[Input] = &[
        Input::Scale(u64::MAX),
        Input::Filter,
        Input::Trace,
        Input::Store,
    ];

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        parse_taking(args, ALL_INPUTS)
    }

    fn parse_taking(args: &[&str], inputs: &[Input]) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse(args.iter().map(ToString::to_string), inputs)
    }

    #[test]
    fn empty_args_use_defaults() {
        let args = parse(&[]).expect("valid");
        assert_eq!(args.scale, None);
        assert_eq!(args.json, None);
        assert_eq!(args.instructions(), crate::DEFAULT_INSTRUCTIONS);
        assert_eq!(args.scale_or(17), 17);
    }

    #[test]
    fn positional_scale_and_flags() {
        let args = parse(&["50000", "--json", "out.json", "--threads", "3"]).expect("valid");
        assert_eq!(args.scale, Some(50_000));
        assert_eq!(args.instructions(), 50_000);
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.mode.threads(), 3);
        assert_eq!(
            parse(&["--sequential"]).expect("valid").mode,
            ExecMode::Sequential
        );
    }

    #[test]
    fn conflicting_execution_modes_are_rejected_in_both_orders() {
        for args in [
            &["--sequential", "--threads", "4"][..],
            &["--threads", "4", "--sequential"][..],
            &["--threads", "4", "--json", "x.json", "--sequential"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.contains("--sequential") && err.contains("--threads"),
                "conflict message must name both flags: {err}"
            );
        }
        // Repeating one mode flag stays allowed (idempotent / last wins).
        assert_eq!(
            parse(&["--sequential", "--sequential"])
                .expect("valid")
                .mode,
            ExecMode::Sequential
        );
        assert_eq!(
            parse(&["--threads", "2", "--threads", "3"])
                .expect("valid")
                .mode
                .threads(),
            3
        );
    }

    #[test]
    fn store_flag_parses_a_path() {
        assert_eq!(parse(&[]).expect("valid").store, None);
        let args = parse(&["--store", "/tmp/results.store"]).expect("valid");
        assert_eq!(args.store.as_deref(), Some("/tmp/results.store"));
        assert!(parse(&["--store"]).unwrap_err().contains("file path"));
    }

    #[test]
    fn usage_enumerates_every_flag() {
        for flag in [
            "--json",
            "--sequential",
            "--threads",
            "--filter",
            "--trace",
            "--store",
            "--help",
        ] {
            assert!(USAGE.contains(flag), "usage text must mention {flag}");
        }
        for backend in FilterBackend::ALL {
            assert!(
                USAGE.contains(backend.name()),
                "usage text must enumerate backend {backend}"
            );
        }
    }

    #[test]
    fn filter_flag_parses_every_backend() {
        assert_eq!(parse(&[]).expect("valid").filter, None);
        assert_eq!(
            parse(&[]).expect("valid").filter_backend(),
            FilterBackend::Auto
        );
        for backend in FilterBackend::ALL {
            let args = parse(&["--filter", backend.name()]).expect("valid");
            assert_eq!(args.filter, Some(backend));
            assert_eq!(args.filter_backend(), backend);
        }
        assert!(parse(&["--filter"]).unwrap_err().contains("backend name"));
        let err = parse(&["--filter", "ribbon"]).unwrap_err();
        assert!(err.contains("ribbon") && err.contains("auto"), "{err}");
    }

    #[test]
    fn trace_flag_parses_a_path() {
        assert_eq!(parse(&[]).expect("valid").trace, None);
        let args = parse(&["--trace", "traces/occupancy_sweep.trace2"]).expect("valid");
        assert_eq!(args.trace.as_deref(), Some("traces/occupancy_sweep.trace2"));
        assert!(parse(&["--trace"]).unwrap_err().contains("file path"));
    }

    #[test]
    fn unparsable_scale_is_an_error_not_a_default() {
        let err = parse(&["2e6"]).unwrap_err();
        assert!(err.contains("2e6"), "message names the argument: {err}");
        assert!(parse(&["-5"]).is_err(), "negative numbers look like flags");
        let err = parse(&["0"]).unwrap_err();
        assert!(
            err.contains("\"0\"") && err.contains("positive integer"),
            "a zero scale is an error naming the value: {err}"
        );
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(parse(&["--jsno", "x"]).unwrap_err().contains("--jsno"));
        assert!(parse(&["--json"]).unwrap_err().contains("file path"));
        assert!(parse(&["--threads", "zero"]).unwrap_err().contains("zero"));
        assert!(parse(&["--threads", "0"]).unwrap_err().contains('0'));
        assert!(parse(&["1", "2"]).unwrap_err().contains("extra"));
    }

    #[test]
    fn inputs_a_binary_does_not_take_are_rejected_by_name() {
        for (args, named) in [
            (&["--filter", "bloom"][..], "`--filter bloom`"),
            (&["5"][..], "takes no scale argument (got 5)"),
            (&["--trace", "t.trace"][..], "`--trace t.trace`"),
            (&["--store", "s.store"][..], "`--store s.store`"),
        ] {
            let err = parse_taking(args, &[]).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
            assert!(parse(args).is_ok(), "{args:?} is valid where it is taken");
        }
        // The shared flags need no declaration.
        let args = parse_taking(&["--json", "x.json", "--threads", "2"], &[]).expect("valid");
        assert_eq!(args.mode.threads(), 2);
    }

    #[test]
    fn a_scale_above_its_bound_is_an_error_naming_the_value() {
        let inputs = &[Input::Scale(10)];
        assert_eq!(
            parse_taking(&["10"], inputs).expect("valid").scale,
            Some(10)
        );
        let err = parse_taking(&["11"], inputs).unwrap_err();
        assert!(err.contains("\"11\"") && err.contains("10"), "{err}");
        let err = parse_taking(&["18446744073709551615"], inputs).unwrap_err();
        assert!(err.contains("\"18446744073709551615\""), "{err}");
    }

    #[test]
    fn tokens_take_values_counts_and_one_positional() {
        let mut tokens = Tokens::new(["--samples", "3", "--label"].map(String::from));
        assert_eq!(tokens.next().as_deref(), Some("--samples"));
        let samples: usize = tokens.positive("--samples", "a count").expect("valid");
        assert_eq!(samples, 3);
        assert_eq!(tokens.next().as_deref(), Some("--label"));
        assert_eq!(
            tokens.value("--label", "a value").unwrap_err(),
            "--label needs a value"
        );
        for raw in ["0", "-1", "x"] {
            let mut tokens = Tokens::new(["--n", raw].map(String::from));
            tokens.next();
            let err = tokens.positive::<u64>("--n", "a count").unwrap_err();
            assert!(err.contains("--n") && err.contains(raw), "{err}");
        }

        let mut slot: Option<u64> = None;
        Tokens::positional("7", "total", &mut slot).expect("valid");
        assert_eq!(slot, Some(7));
        let err = Tokens::positional("8", "total", &mut slot).unwrap_err();
        assert!(err.contains("extra") && err.contains("\"8\""), "{err}");
        let err = Tokens::positional("--bogus", "total", &mut None::<u64>).unwrap_err();
        assert!(err.contains("unknown flag \"--bogus\""), "{err}");
        let err = Tokens::positional("0", "total", &mut None::<u64>).unwrap_err();
        assert!(err.contains("total") && err.contains("\"0\""), "{err}");
    }
}
