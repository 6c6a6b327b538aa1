//! Host-noise diagnostics and process memory, read from `/proc`.
//!
//! The diagnostics line printed before the result lets a noisy run (CPU
//! stolen by other guests, a busy host) be told apart from a slow change.

use std::time::Instant;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
pub struct Snapshot {
    at: Instant,
    /// `[user, nice, system, idle, iowait, irq, softirq, steal]`.
    jiffies: [u64; 8],
}

impl Snapshot {
    pub fn take() -> Self {
        let mut jiffies = [0u64; 8];
        if let Ok(text) = std::fs::read_to_string("/proc/stat") {
            if let Some(line) = text.lines().next() {
                for (slot, field) in jiffies.iter_mut().zip(line.split_whitespace().skip(1)) {
                    *slot = field.parse().unwrap_or(0);
                }
            }
        }
        Snapshot {
            at: Instant::now(),
            jiffies,
        }
    }

    /// One JSON line: steal and idle shares of all CPU time since `start`,
    /// the load average, the CPU count and model.
    pub fn diagnostics_since(&self, start: &Snapshot) -> String {
        let delta: Vec<u64> = self
            .jiffies
            .iter()
            .zip(start.jiffies)
            .map(|(now, then)| now.saturating_sub(then))
            .collect();
        let total = delta.iter().sum::<u64>().max(1) as f64;
        let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
        let load: Vec<&str> = loadavg.split_whitespace().take(3).collect();
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|l| l.trim_start_matches([' ', '\t', ':']).replace('"', "'"))
            .unwrap_or_default();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!(
            "{{\"host\": {{\"wall_s\": {:.3}, \"steal_share\": {:.4}, \"idle_share\": {:.4}, \
             \"loadavg\": [{}], \"nproc\": {nproc}, \"cpu_model\": \"{model}\"}}}}",
            self.at.duration_since(start.at).as_secs_f64(),
            delta[7] as f64 / total,
            (delta[3] + delta[4]) as f64 / total,
            load.join(", "),
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
