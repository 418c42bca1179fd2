//! Process CPU time and peak memory, read from Linux `/proc`.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads included
/// (exited ones too).
pub fn cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    #[test]
    fn reads_positive_process_figures() {
        // Spin until at least one clock tick of CPU time has been charged.
        let start = Instant::now();
        while super::cpu_s() == 0.0 && start.elapsed() < Duration::from_secs(5) {}
        assert!(super::cpu_s() > 0.0);
        assert!(super::peak_rss_mb() > 0.0);
    }
}
