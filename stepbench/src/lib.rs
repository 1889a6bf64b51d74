//! # stepbench — step-level benchmark of the tofumd simulated cluster
//!
//! Measures the two clocks of the simulator per timestep, from outside
//! the program: host wall time around public calls (`Cluster::run_step`,
//! `SerialSim`, checkpoint/restore, `SpinPool::run`) and the modeled
//! Fugaku time the cluster reports. [`workload`] defines the inputs,
//! [`trace`] the traced run that splits each step by layer.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod trace;
pub mod workload;

/// Median of `v` (`NaN` when empty). Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host a result was measured on, as a JSON object: core count, CPU
/// model, compiler, source revision and the driver threads used.
pub fn host_fingerprint(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \"driver_threads\": {threads}}}",
        json_escape(&cpu),
        json_escape(&rustc),
        json_escape(&git_sha()),
    )
}

/// The checked-out revision, read from `.git` in the working directory
/// (no `git` process, no search above the checkout).
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
