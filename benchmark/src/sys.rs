//! What the benchmark reads from the operating system: process CPU time,
//! the peak-RSS watermark and the checkout's git commit.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this repository targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used; zero
/// where `/proc` is unavailable.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis with the state at index 0, `utime` at 11
    // and `stime` at 12.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MB; zero where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, or `unknown` outside
/// a git repository (the driver's checkout is not one).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head,
    };
    commit.chars().take(12).collect()
}
