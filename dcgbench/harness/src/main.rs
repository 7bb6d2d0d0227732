//! Benchmark harness for the dcg crates.
//!
//! `dcgbench-harness <workload> --seed N --seconds S --trace 0|1 --work DIR`
//!
//! Runs one workload (`live_suite`, `warm_replay` or `server_mixed`),
//! checks its outputs and prints one JSON document of raw measurements
//! as the last line of standard output. `dcgbench/run.py` builds this
//! binary, turns the raw samples into the reported metrics and prints
//! the benchmark's result line. With `--trace 1` the untraced workload
//! runs first, then the traced re-execution; spans go to
//! `<work>/spans.jsonl` when the run ends.

mod live;
mod notify;
mod out;
mod replay;
mod server;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use out::Check;
use tracer::Tracer;

/// Worker threads for the suite pool, the sweep pool and the server:
/// sized for a 2-core machine.
pub const WORKERS: usize = 2;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub work: PathBuf,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = argv.first().cloned() else {
        eprintln!("usage: dcgbench-harness <live_suite|warm_replay|server_mixed> --seed N --seconds S --trace 0|1 --work DIR");
        return ExitCode::from(2);
    };
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        match (flag.as_str(), value) {
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            ("--work", Some(v)) => work = Some(PathBuf::from(v)),
            _ => {
                eprintln!("bad argument {flag}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(seed), Some(seconds), Some(trace), Some(work)) = (seed, seconds, trace, work) else {
        eprintln!("--seed, --seconds, --trace and --work are all required");
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    // Both pools are sized by environment; the harness sets them before
    // any thread starts.
    std::env::set_var("DCG_WORKERS", WORKERS.to_string());
    std::env::set_var("DCG_SWEEP_THREADS", WORKERS.to_string());

    let args = Args {
        seed,
        seconds,
        work,
    };
    let tracer = trace.then(Tracer::new);
    let outcome = match workload.as_str() {
        "live_suite" => live::run(&args, tracer.as_ref()),
        "warm_replay" => replay::run(&args, tracer.as_ref()),
        "server_mixed" => server::run(&args, tracer.as_ref()),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tracer {
        let path = args.work.join("spans.jsonl");
        if let Err(e) = t.write(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        outcome.spans = Some(path);
    }
    println!("{}", outcome.to_json(&workload, seed));
    ExitCode::SUCCESS
}

/// The process's peak resident set so far (`VmHWM`), MB. Workloads read
/// it when their untraced timed phase ends, before output verification
/// and the traced run.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run iterations of `f` for about `seconds`: at least one, and another
/// only while the expected overshoot stays under half an iteration.
/// Returns the wall time of each iteration.
pub fn timed_loop(
    seconds: f64,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if start.elapsed().as_secs_f64() + mean / 2.0 >= seconds {
            return Ok(times);
        }
    }
}

/// Compare two byte strings; on mismatch, name the first differing line.
pub fn same_bytes(name: &str, got: &[u8], want: &[u8]) -> Check {
    if got == want {
        return Check::ok(name);
    }
    let got = String::from_utf8_lossy(got);
    let want = String::from_utf8_lossy(want);
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Check::fail(name, format!("outputs differ from line {}", line + 1))
}

/// splitmix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Total size of the regular files under `dir`, MB.
pub fn dir_mb(dir: &std::path::Path) -> f64 {
    let mut bytes = 0u64;
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            if let Ok(m) = e.metadata() {
                if m.is_file() {
                    bytes += m.len();
                }
            }
        }
    }
    bytes as f64 / 1e6
}
