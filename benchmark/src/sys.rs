//! Process-level measurements read from `/proc`, and run provenance.
//!
//! CPU time and peak memory are measured from outside the library, the
//! same way an operator would read them; nothing here needs `unsafe` or a
//! new dependency.

use std::path::Path;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every mainstream kernel configuration.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this whole process, including threads
/// that have already exited.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|at| &stat[at + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => 0.0,
    }
}

/// CPU seconds the calling thread has run, at nanosecond resolution.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `"unknown"` outside a git checkout.
pub fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu_s() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(cores() >= 1);
    }
}
