//! The harness's output document: raw samples, counts and checks. The
//! arithmetic that turns them into metrics lives in `dcgbench/stats.py`.

use std::fmt::Write;
use std::path::PathBuf;

/// One output check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn ok(name: &str) -> Check {
        Check {
            name: name.to_string(),
            ok: true,
            detail: String::new(),
        }
    }

    pub fn fail(name: &str, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok: false,
            detail,
        }
    }
}

/// Raw measurements of one timed phase (untraced or traced).
#[derive(Default)]
pub struct Phase {
    /// Wall time of each iteration, seconds.
    pub iter_s: Vec<f64>,
    /// Committed simulated instructions processed in each iteration.
    pub iter_insts: Vec<u64>,
    /// Per-operation latencies (a benchmark run or a job round trip), ms.
    pub latency_ms: Vec<f64>,
}

#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    pub untraced: Phase,
    pub traced: Option<Phase>,
    /// Operations attempted and failed (failed, refused, quarantined or
    /// wrong output) in the untraced phase.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Named scalar counts of the untraced run.
    pub counts: Vec<(String, f64)>,
    /// Named sample lists beyond the phase latencies (per-class round
    /// trips), ms.
    pub samples: Vec<(String, Vec<f64>)>,
    pub peak_rss_mb: f64,
    pub spans: Option<PathBuf>,
}

impl Outcome {
    pub fn count(&mut self, name: &str, v: f64) {
        self.counts.push((name.to_string(), v));
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"workload\":\"{workload}\",\"seed\":{seed}");
        let _ = write!(s, ",\"setup_s\":{}", nums(&self.setup_s));
        let _ = write!(s, ",\"untraced\":{}", phase(&self.untraced));
        if let Some(t) = &self.traced {
            let _ = write!(s, ",\"traced\":{}", phase(t));
        }
        let _ = write!(
            s,
            ",\"attempted\":{},\"failed\":{},\"peak_rss_mb\":{}",
            self.attempted,
            self.failed,
            num(self.peak_rss_mb)
        );
        s.push_str(",\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                string(&c.name),
                c.ok,
                string(&c.detail)
            );
        }
        s.push_str("],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", string(k), num(*v));
        }
        s.push_str("},\"samples\":{");
        for (i, (k, v)) in self.samples.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", string(k), nums(v));
        }
        s.push('}');
        if let Some(p) = &self.spans {
            let _ = write!(s, ",\"spans\":{}", string(&p.display().to_string()));
        }
        s.push('}');
        s
    }
}

fn phase(p: &Phase) -> String {
    let insts: Vec<String> = p.iter_insts.iter().map(u64::to_string).collect();
    format!(
        "{{\"iter_s\":{},\"iter_insts\":[{}],\"latency_ms\":{}}}",
        nums(&p.iter_s),
        insts.join(","),
        nums(&p.latency_ms)
    )
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn nums(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", parts.join(","))
}

fn string(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}
