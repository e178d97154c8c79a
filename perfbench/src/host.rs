//! Host context recorded with every result: a measurement means little
//! without the machine, toolchain and code it was taken on.

use std::path::Path;
use std::process::Command;

use pipo_bench::Json;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the workspace sources (every `.rs` and `.toml` under
/// `crates/`, plus the root manifest, in path order): identifies the code
/// measured even where the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x} ({} files)", fnv1a64(&bytes), files.len())
}

/// The host-context object printed with every result.
pub fn context(workload: &str, seed: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    Json::object()
        .field("workload", workload)
        .field("seed", seed)
        .field("trace", trace)
        .field("nproc", nproc)
        .field("cpu", cpu_model())
        .field(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        )
        .field(
            "commit",
            commit.unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        )
        .field("source_digest", source_digest())
}

/// Words in the calibration table: 2 MiB, about the size of the simulated
/// hierarchy's tag and metadata arrays, so the kernel leans on the host's
/// caches and memory the way the simulator does.
const CALIBRATION_WORDS: usize = 1 << 18;
/// Table updates per calibration chunk.
const CALIBRATION_STEPS: u64 = 4_000_000;
/// A chunk's wall time on an unloaded host (2-vCPU Xeon at 2.0 GHz, whose
/// fastest chunks take 14.5–15 ms). Calibrated times are in seconds of
/// that host.
const CALIBRATION_REFERENCE_NS: f64 = 15e6;

thread_local! {
    /// The calibration table, allocated once and never freed: freeing a
    /// 2 MiB block would raise the allocator's mmap threshold and so
    /// change what the benchmark's constructors cost.
    static CALIBRATION_TABLE: std::cell::RefCell<Vec<u64>> =
        std::cell::RefCell::new(vec![1; CALIBRATION_WORDS]);
}

/// Times one chunk of a fixed kernel that no change to the repository can
/// speed up: a xorshift stream driving read-modify-writes at random slots
/// of a 2 MiB table. Returns its wall time in ns.
fn calibration_ns() -> u64 {
    CALIBRATION_TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let start = std::time::Instant::now();
        for _ in 0..CALIBRATION_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[(x >> 46) as usize];
            *slot = slot.wrapping_add(x).rotate_left(5);
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        std::hint::black_box(&mut *table);
        ns
    })
}

/// The host's speed while one op ran, from calibration chunks run between
/// the op's pieces. A shared host's speed drifts by up to 1.7× within
/// minutes, for the simulator and the chunks alike; dividing an op's spans
/// by the op's own slowdown cancels that drift, while a change to the
/// repository moves only the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calibration {
    ns: u64,
    chunks: u64,
}

impl Calibration {
    /// Runs one calibration chunk.
    pub fn sample(&mut self) {
        self.ns += calibration_ns();
        self.chunks += 1;
    }

    /// Mean chunk time over the reference host's: above 1 when the host ran
    /// slow. 1 without samples.
    pub fn slowdown(&self) -> f64 {
        if self.chunks == 0 {
            1.0
        } else {
            self.ns as f64 / self.chunks as f64 / CALIBRATION_REFERENCE_NS
        }
    }
}

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and every thread it starts later, to the
/// highest CPU it may run on (CPU 0 tends to take the most interrupts), so
/// the calibration chunks and the work they calibrate share one CPU
/// (`serve_jobs`' server threads included). Returns the CPU, or `None`
/// where the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable `cpu_set_t`-sized buffer and `size`
    // is its length; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a valid mask naming an allowed CPU.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
