//! What a result must say about where it was measured.

use std::path::Path;

use crate::json::Json;

/// The host and build a result comes from.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may use.
    pub cores: usize,
    /// The CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// The commit under test: `PERFBENCH_COMMIT` if set, else read from
    /// the `.git` directory of the working directory, else `unknown`.
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = std::env::var("PERFBENCH_COMMIT")
            .ok()
            .or_else(|| git_head(Path::new(".git")))
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cores: cores(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            commit,
        }
    }

    /// The host as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cores", Json::Int(self.cores as i64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(self.rustc)),
            ("commit", Json::str(&self.commit)),
        ])
    }
}

/// Cores the process may use (1 if unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit `HEAD` names in a `.git` directory, without running git.
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(id, _)| id.to_string())
}

/// Time the calling thread has spent on a CPU, in seconds (from
/// `/proc/thread-self/schedstat`; time the thread was descheduled, or its
/// virtual CPU stolen, does not count). `None` where that file is absent.
pub fn thread_cpu_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
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
