//! Process and host facts read from `/proc` and the checkout: peak RSS, CPU
//! time, and the host block recorded with every result.

use serde_json::{json, Value};

/// Field `key` (in kB) of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// User plus system CPU time of the whole process (every thread), in
/// seconds, at clock-tick resolution.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, the 12th and 13th after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    Some(ticks / 100.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of `program args`' output, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

pub fn host_block() -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        "cpu_model": cpu_model(),
        "rustc": command_line("rustc", &["--version"]),
        // `unknown` outside a git checkout.
        "git_sha": command_line("git", &["rev-parse", "HEAD"]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(process_cpu_seconds().is_some_and(|s| s >= 0.0));
        let host = host_block();
        assert!(host["nproc"].as_u64().is_some_and(|n| n >= 1));
    }
}
