//! The `dl2fence-serve` CLI: soak a live multi-tenant detection service
//! with campaign-generated traffic, and inspect saved status snapshots.
//!
//! ```text
//! dl2fence-serve soak   <spec.toml|spec.json> [options]
//! dl2fence-serve status <status.json|dir> [--json]
//! ```

use dl2fence_campaign::output::write_stdout;
use dl2fence_campaign::CampaignSpec;
use dl2fence_serve::{run_soak, ServeConfig, ServeStatus, SoakOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  dl2fence-serve soak <spec.toml|spec.json> [--out DIR] [--tenants N]
                      [--workers N] [--capacity N] [--batch N]
                      [--sim-workers N] [--quantized] [--no-swap]
                      [--max-p99-us N] [--json]
      Run the campaign as a traffic generator through a live detection
      service: train on the generated samples, force one counted
      backpressure rejection, stream every window across --tenants sessions
      (hot-swapping the model mid-stream unless --no-swap), then audit
      verdicts bit-identically against offline replicas and check the
      --max-p99-us end-to-end SLO. Exits non-zero if any invariant fails.
      With --out DIR the final status snapshot lands in DIR/status.json.
      --quantized serves the fused int8 detector first (the swap then
      installs the f32 pipeline; without it, the reverse).
  dl2fence-serve status <status.json|dir> [--json]
      Render a saved status snapshot (a file, or a soak --out directory
      containing status.json). --json echoes the raw JSON.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("soak") => cmd_soak(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".to_string()),
    }
}

fn parse_count(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<usize>()
        .map_err(|_| format!("invalid value `{v}` for {flag}"))
}

fn cmd_soak(args: &[String]) -> Result<ExitCode, String> {
    let mut spec_path: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut options = SoakOptions::default();
    let mut config = ServeConfig::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--tenants" => options.tenants = parse_count(&mut it, "--tenants")?,
            "--workers" => config.workers = parse_count(&mut it, "--workers")?,
            "--capacity" => config.queue_capacity = parse_count(&mut it, "--capacity")?,
            "--batch" => config.batch_windows = parse_count(&mut it, "--batch")?,
            "--sim-workers" => options.sim_workers = parse_count(&mut it, "--sim-workers")?,
            "--quantized" => options.quantized = true,
            "--no-swap" => options.swap_mid_stream = false,
            "--max-p99-us" => {
                options.max_p99_e2e_us = parse_count(&mut it, "--max-p99-us")? as u64;
            }
            "--json" => json = true,
            other if !other.starts_with("--") && spec_path.is_none() => {
                spec_path = Some(other.to_string());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let spec_path = spec_path.ok_or("soak needs a spec path")?;
    options.spec = CampaignSpec::from_path(Path::new(&spec_path)).map_err(|e| e.to_string())?;
    config.max_tenants = config.max_tenants.max(options.tenants);
    options.config = config;

    let report = run_soak(&options)?;
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("status.json");
        std::fs::write(&path, report.status.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if json {
        write_stdout(&format!("{}\n", report.status.to_json()));
        for f in &report.failures {
            eprintln!("FAIL: {f}");
        }
    } else {
        write_stdout(&report.render());
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let mut path: Option<PathBuf> = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if !other.starts_with("--") && path.is_none() => {
                path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let mut path = path.ok_or("status needs a snapshot path")?;
    if path.is_dir() {
        path = path.join("status.json");
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let status = ServeStatus::from_json(&text).map_err(|e| e.to_string())?;
    if json {
        write_stdout(&format!("{}\n", status.to_json()));
    } else {
        write_stdout(&status.render());
    }
    Ok(ExitCode::SUCCESS)
}
