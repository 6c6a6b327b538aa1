//! The DL2Fence benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign-table1|sim-16x16|serve-8x8> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload, checks every output against its recorded digest or
//! offline replay, and prints one JSON object as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. `--record` instead prints the expected-output table of
//! a batch workload for every input set (see `expected/`). README.md maps
//! each metric to the layer it measures.

mod batch;
mod host;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every workload prints with `--trace 0`, in the
/// order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 4] = ["setup_s", "windows_per_s", "peak_rss_mb", "ok_share"];

/// The per-layer metrics every workload prints with `--trace 1`, in the
/// order `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 8] = [
    "noc.step_ns_per_router_cycle.benign",
    "noc.step_ns_per_router_cycle.attack",
    "noc.packets_delivered",
    "noc.avg_packet_latency_cycles",
    "monitor.sample_us_per_window",
    "monitor.collect_run_ms.p50",
    "campaign.execute_s",
    "campaign.pool_busy_share",
];

/// Input sets per workload: `--seed` selects set `seed % INPUT_SETS`, each
/// with its own recorded expected outputs.
pub const INPUT_SETS: u64 = 16;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (runs, reports, served windows).
    pub attempted: u64,
    /// Operations that failed or did not pass their correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures of this workload alone (quality, the layers only it
    /// exercises), printed on a line of their own before the result.
    pub details: Vec<Metric>,
    /// Check failures, reported on standard error.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push(Metric { name, value, unit });
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// The end-to-end metrics every workload measures the same way:
    /// `peak_rss_mb` and `ok_share`.
    pub fn finish_common(&mut self) {
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
        self.metric("ok_share", ok, "share");
    }

    /// An error naming the metrics that differ from `want`, in name or
    /// order, or that have no finite value.
    fn expect_metrics(&self, want: &[&str]) -> Result<(), String> {
        let got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        if got != want {
            return Err(format!("printed metrics {got:?}, expected {want:?}"));
        }
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} has no finite value", m.name)),
            None => Ok(()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `"name": {"value": v, "unit": "u"}, ...`
fn metrics_json(metrics: &[Metric]) -> String {
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN: a figure with nothing to measure is null.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: bool,
}

impl Args {
    /// The input set this run draws its inputs from.
    pub fn input_set(&self) -> u64 {
        self.seed % INPUT_SETS
    }
}

const USAGE: &str = "usage: perfbench --workload <campaign-table1|sim-16x16|serve-8x8> \
                     --seed N --seconds S --trace <0|1> [--record]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// How many units of a workload fit in `seconds` at `nominal_s` each (at
/// least one). The count depends on the arguments alone, so a run does the
/// same work however fast the host is.
pub fn units_in(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).floor() as usize).max(1)
}

/// Times `reps` calls of `f`, returning the median duration in seconds and
/// the last result.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        stats::median(&times),
        last.expect("at least one repetition"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match batch::record(&args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let before = host::Snapshot::take();
    let result = match args.workload.as_str() {
        "campaign-table1" | "sim-16x16" => batch::run(&args),
        "serve-8x8" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        outcome.finish_common();
    }
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    // A result must carry every metric of the manifest, and only those.
    let want: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = outcome.expect_metrics(want) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    // Workload figures and host-noise diagnostics sit beside the metrics,
    // not among them.
    println!("{{\"details\": {{{}}}}}", metrics_json(&outcome.details));
    println!("{}", host::Snapshot::take().diagnostics_since(&before));
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one metric list of `BENCHMARK.json`.
    fn manifest_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let list = &text[start..];
        let list = &list[..list.find(']').expect("section is a list")];
        list.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_manifest_lists() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
    }
}
