//! The `campaign` CLI: expand, run, resume, shard, merge, compact and
//! inspect declarative scenario campaigns.
//!
//! ```text
//! campaign expand  <spec.toml|spec.json>
//! campaign run     <spec.toml|spec.json> [--workers N] [--out DIR] [--telemetry] [--quiet]
//! campaign resume  <campaign-dir> [--spec PATH] [--workers N] [--telemetry] [--quiet]
//! campaign shard   <spec.toml|spec.json> --shards N --index I --out DIR [--telemetry]
//! campaign merge   <dir>... --out DIR [--workers N] [--reexec-gaps] [--quiet]
//! campaign serve-sched <campaign-dir> [--spec PATH] [--lease-size N] [--lease-ttl SECS]
//! campaign work    <campaign-dir> --worker ID [--patience SECS] [--fail-after N]
//! campaign compact <campaign-dir> [--strip-samples] [--quiet]
//! campaign status  <dir>... [--json]
//! campaign watch   <campaign-dir> [--interval SECS] [--json]
//! campaign report  <report.json|campaign-dir> [--timings]
//! ```

use dl2fence_campaign::output::write_stdout;
use dl2fence_campaign::stream::run_streaming_expanded_with;
use dl2fence_campaign::{
    compact, expand, merge_with_opts, resume_with, run_shard, serve_sched, shard_plan,
    spec_fingerprint, status, summarize_events, work, CampaignDir, CampaignOutcome, CampaignReport,
    CampaignSpec, Executor, ServeOptions, SpillPolicy, WatchSnapshot, WorkOptions, EVENTS_FILE,
};
use dl2fence_telemetry::Telemetry;
use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage:
  campaign expand <spec.toml|spec.json>
      Print the expanded run matrix as JSON (one run per line).
  campaign run <spec.toml|spec.json> [--workers N] [--out DIR] [--quiet]
               [--spill-threshold N | --no-spill] [--telemetry]
      Execute the campaign. Without --out the aggregated JSON report goes to
      stdout; with --out DIR every finished run is streamed to DIR/runs.jsonl
      as it completes and the report lands in DIR/report.json (a DIR ending
      in .json is treated as a plain report file instead). Eval-phase sample
      pools spill to DIR/samples/ past --spill-threshold (default 65536)
      unless --no-spill buffers them all in memory.
      --workers defaults to the machine's available parallelism.
      --telemetry (needs --out DIR) streams structured span/counter/histogram
      events to DIR/events.jsonl for `watch` and `report --timings`.
  campaign resume <campaign-dir> [--spec PATH] [--workers N] [--quiet]
                  [--spill-threshold N | --no-spill] [--telemetry]
      Resume an interrupted `run --out` campaign: verify the stored spec
      fingerprint (and PATH's, when given), re-execute only the missing run
      indices, and rebuild a report byte-identical to an uninterrupted run.
      A shard or worker directory is only healed (torn tail dropped); re-run
      its `shard` or `work` command to continue it. --telemetry appends to
      DIR/events.jsonl, continuing the original run's sequence numbers.
  campaign shard <spec.toml|spec.json> --shards N --index I --out DIR
                 [--workers W] [--quiet] [--telemetry]
      Execute shard I of N: the run indices congruent to I modulo N, streamed
      to the worker directory `shard-I-of-N` at DIR. Running the same command
      again on DIR continues a crashed shard (stored runs are skipped). Run
      one shard per machine, collect the directories, then `merge`.
  campaign merge <dir>... --out DIR [--workers N] [--reexec-gaps] [--quiet]
                 [--spill-threshold N | --no-spill]
      Merge shard directories sharing one spec fingerprint into DIR: the
      union of their run logs (identical duplicates dedupe; gaps and
      conflicts are refused) and sample stores, plus a report.json
      byte-identical to an uninterrupted single-machine run. With
      --reexec-gaps, run indices no input holds are speculatively
      re-executed locally instead of refused — runs are deterministic, so
      the report stays byte-identical.
  campaign serve-sched <campaign-dir> [--spec PATH] [--workers N] [--quiet]
                       [--lease-size N] [--lease-ttl SECS] [--poll SECS]
                       [--spill-threshold N | --no-spill] [--telemetry]
      Coordinate a worker fleet over a shared filesystem: lease bounded
      run-index batches (default --lease-size 4) to `work` processes,
      expire and re-issue leases whose worker stops reporting progress for
      --lease-ttl seconds (default 30), and — once every run is stored —
      assemble DIR/report.json byte-identical to a single-machine run
      (re-executing any residual gap indices locally). A fresh DIR needs
      --spec; re-serving an interrupted campaign re-indexes DIR and its
      workers/ and leases only what is missing. Start the coordinator
      before the workers.
  campaign work <campaign-dir> --worker ID [--workers N] [--quiet]
                [--poll SECS] [--patience SECS] [--fail-after N]
                [--strip-samples] [--telemetry]
      Join the fleet serving DIR as worker ID: request leases, execute and
      stream their runs to DIR/workers/ID, report per-run progress (the
      lease heartbeat), and exit when the coordinator announces the matrix
      drained. Restartable under the same ID without re-executing stored
      runs. --patience (default 120) bounds coordinator silence;
      --fail-after N aborts after N runs (crash injection for tests);
      --strip-samples compacts the worker directory scalar-only on exit.
  campaign compact <campaign-dir> [--strip-samples] [--quiet]
      Atomically rewrite DIR/runs.jsonl in run-index order with duplicate
      records and any torn tail dropped. With --strip-samples, move each
      record's labeled-sample payload into DIR/samples/ first and keep the
      log scalar-only; the directory stays resumable and mergeable. Do not
      compact while the campaign is still executing (records appended
      during the rewrite would be lost) — status is the live-safe command.
  campaign status <dir>... [--json]
      Read-only progress inspection: per directory the stored run count,
      worker id, torn-tail state, log and spill sizes, and a whole
      campaign's exact gap list; over several directories, the union gap
      list a merge would refuse on. Safe to run while a campaign is
      executing.
  campaign watch <campaign-dir> [--interval SECS] [--json]
      Live progress for one campaign directory: completed/missing runs with
      a progress bar, throughput and ETA, per-worker utilization and
      per-stage latency quantiles (from DIR/events.jsonl when the campaign
      runs with --telemetry). Loops every --interval seconds (default 2)
      until every run is stored; --json prints one snapshot and exits.
      Read-only and torn-tail-tolerant — safe against a live campaign.
  campaign report <report.json|campaign-dir> [--timings]
      Render a saved report as a human-readable table. With --timings,
      aggregate DIR/events.jsonl instead and print the timing summary JSON
      (per-stage histograms, worker utilization, counter totals) — the
      schema committed as BENCH_campaign.json.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("expand") => cmd_expand(args.get(1).ok_or("expand needs a spec path")?),
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("serve-sched") => cmd_serve_sched(&args[1..]),
        Some("work") => cmd_work(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".to_string()),
    }
}

/// Shared flags of the executing subcommands (`run`/`resume`/`shard`/
/// `merge`). Positional arguments collect into `paths` (`run`, `resume` and
/// `shard` use exactly one; `merge` takes any number of input directories).
#[derive(Debug, Default)]
struct ExecFlags {
    paths: Vec<String>,
    spec: Option<String>,
    workers: Option<usize>,
    out: Option<PathBuf>,
    shards: Option<usize>,
    index: Option<usize>,
    spill_threshold: Option<usize>,
    no_spill: bool,
    telemetry: bool,
    quiet: bool,
}

impl ExecFlags {
    fn parse(
        args: &[String],
        allow_out: bool,
        allow_spec: bool,
        allow_shard: bool,
        allow_spill: bool,
    ) -> Result<Self, String> {
        let mut flags = ExecFlags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--workers" => {
                    let v = it.next().ok_or("--workers needs a value")?;
                    flags.workers = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("invalid worker count `{v}`"))?,
                    );
                }
                "--out" if allow_out => {
                    flags.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?));
                }
                "--spec" if allow_spec => {
                    flags.spec = Some(it.next().ok_or("--spec needs a path")?.clone());
                }
                "--shards" if allow_shard => {
                    let v = it.next().ok_or("--shards needs a value")?;
                    flags.shards = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("invalid shard count `{v}`"))?,
                    );
                }
                "--index" if allow_shard => {
                    let v = it.next().ok_or("--index needs a value")?;
                    flags.index = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("invalid shard index `{v}`"))?,
                    );
                }
                "--spill-threshold" if allow_spill => {
                    let v = it.next().ok_or("--spill-threshold needs a value")?;
                    flags.spill_threshold = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("invalid spill threshold `{v}`"))?,
                    );
                }
                "--no-spill" if allow_spill => flags.no_spill = true,
                "--telemetry" => flags.telemetry = true,
                "--quiet" => flags.quiet = true,
                other if !other.starts_with('-') => {
                    flags.paths.push(other.to_string());
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        if flags.no_spill && flags.spill_threshold.is_some() {
            return Err("--no-spill and --spill-threshold are mutually exclusive".to_string());
        }
        Ok(flags)
    }

    fn spill_policy(&self) -> SpillPolicy {
        if self.no_spill {
            SpillPolicy::InMemory
        } else {
            match self.spill_threshold {
                Some(threshold) => SpillPolicy::Threshold(threshold),
                None => SpillPolicy::default(),
            }
        }
    }

    fn single_path(&self, what: &str) -> Result<&str, String> {
        match self.paths.as_slice() {
            [path] => Ok(path),
            [] => Err(format!("{what} needs a path")),
            _ => Err(format!("{what} takes exactly one path")),
        }
    }

    fn executor(&self) -> Executor {
        match self.workers {
            Some(n) => Executor::new(n),
            None => Executor::with_available_parallelism(),
        }
    }
}

fn load_spec(path: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::from_path(Path::new(path)).map_err(|e| e.to_string())
}

fn cmd_expand(path: &str) -> Result<(), String> {
    let spec = load_spec(path)?;
    let runs = expand(&spec).map_err(|e| e.to_string())?;
    for run in &runs {
        let line = serde_json::to_string(run).expect("run serialization cannot fail");
        write_stdout(&format!("{line}\n"));
    }
    eprintln!("{} runs expanded from campaign `{}`", runs.len(), spec.name);
    Ok(())
}

/// Builds the telemetry handle for an executing subcommand: a JSONL sink
/// on `dir/events.jsonl`, created fresh (`run`) or appended to with
/// continued sequence numbers (`resume`, and a re-run `shard`/`work`).
fn telemetry_in(dir: &Path, append: bool) -> Result<Telemetry, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(EVENTS_FILE);
    let telemetry = if append {
        Telemetry::append_jsonl_file(&path)
    } else {
        Telemetry::to_jsonl_file(&path)
    };
    telemetry.map_err(|e| format!("cannot open event log {}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = ExecFlags::parse(args, true, false, false, true)?;
    let spec = load_spec(flags.single_path("run")?)?;
    let mut executor = flags.executor();
    let runs = expand(&spec).map_err(|e| e.to_string())?;
    if !flags.quiet {
        eprintln!(
            "campaign `{}` (fingerprint {}): {} runs on {} workers...",
            spec.name,
            spec_fingerprint(&spec),
            runs.len(),
            executor.workers()
        );
    }
    let started = Instant::now();
    let (report, written_to) = match &flags.out {
        // A .json path keeps the original single-file behaviour; anything
        // else is a campaign directory that streams runs.jsonl.
        Some(path) if path.extension().and_then(|e| e.to_str()) != Some("json") => {
            if flags.telemetry {
                executor = executor.with_telemetry(telemetry_in(path, false)?);
            }
            let report =
                run_streaming_expanded_with(&executor, &spec, &runs, path, flags.spill_policy())
                    .map_err(|e| e.to_string())?;
            (report, Some(path.join("report.json")))
        }
        _ => {
            if flags.spill_threshold.is_some() {
                return Err(
                    "--spill-threshold needs a campaign directory (run with --out DIR)".to_string(),
                );
            }
            if flags.telemetry {
                return Err(
                    "--telemetry needs a campaign directory (run with --out DIR)".to_string(),
                );
            }
            let results = executor.execute_runs(&spec.sim, &runs);
            let outcome = CampaignOutcome {
                spec,
                runs: results,
            };
            let report =
                CampaignReport::build_with(&outcome, &executor).map_err(|e| e.to_string())?;
            if let Some(path) = &flags.out {
                std::fs::write(path, report.to_json())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            (report, flags.out.clone())
        }
    };
    finish(&report, started, written_to.as_deref(), flags.quiet);
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let flags = ExecFlags::parse(args, false, true, false, true)?;
    let dir = flags.single_path("resume")?;
    let expected = match &flags.spec {
        Some(path) => Some(load_spec(path)?),
        None => None,
    };
    let mut executor = flags.executor();
    if flags.telemetry {
        executor = executor.with_telemetry(telemetry_in(Path::new(dir), true)?);
    }
    if !flags.quiet {
        eprintln!(
            "resuming campaign in {dir} on {} workers...",
            executor.workers()
        );
    }
    let started = Instant::now();
    match resume_with(&executor, dir, expected.as_ref(), flags.spill_policy())
        .map_err(|e| e.to_string())?
    {
        Some(report) => finish(
            &report,
            started,
            Some(&Path::new(dir).join("report.json")),
            flags.quiet,
        ),
        // A worker directory: healed, but only its own command knows what
        // it owns, and merge builds the report.
        None => {
            if !flags.quiet {
                let manifest = CampaignDir::open(dir)
                    .and_then(|d| d.manifest())
                    .map_err(|e| e.to_string())?;
                eprintln!(
                    "{dir} is worker directory `{}`; its log is healed — re-run the same \
                     `campaign shard` or `campaign work` command to continue it, then merge",
                    manifest.worker.unwrap_or_default()
                );
            }
        }
    }
    Ok(())
}

fn cmd_shard(args: &[String]) -> Result<(), String> {
    let flags = ExecFlags::parse(args, true, false, true, false)?;
    let spec = load_spec(flags.single_path("shard")?)?;
    let index = flags.index.ok_or("shard needs --index I")?;
    let count = flags.shards.ok_or("shard needs --shards N")?;
    let out = flags.out.clone().ok_or("shard needs --out DIR")?;
    let total = expand(&spec).map_err(|e| e.to_string())?.len();
    let owned = shard_plan(index, count, total)
        .map_err(|e| e.to_string())?
        .len();
    let mut executor = flags.executor();
    if flags.telemetry {
        // A re-run continues the shard, so it appends to its event log.
        let append = out.join(EVENTS_FILE).exists();
        executor = executor.with_telemetry(telemetry_in(&out, append)?);
    }
    if !flags.quiet {
        eprintln!(
            "campaign `{}` (fingerprint {}): shard {index}/{count} on {} workers...",
            spec.name,
            spec_fingerprint(&spec),
            executor.workers()
        );
    }
    let started = Instant::now();
    let executed = run_shard(&executor, &spec, index, count, &out).map_err(|e| e.to_string())?;
    if !flags.quiet {
        eprintln!(
            "shard {index}/{count}: {executed} run(s) executed; its {owned} of {total} runs \
             are stored in {} ({:.2}s)",
            out.display(),
            started.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let mut reexec_gaps = false;
    let args: Vec<String> = args
        .iter()
        .filter(|arg| {
            let hit = arg.as_str() == "--reexec-gaps";
            reexec_gaps |= hit;
            !hit
        })
        .cloned()
        .collect();
    let flags = ExecFlags::parse(&args, true, false, false, true)?;
    if flags.paths.is_empty() {
        return Err("merge needs at least one shard directory".to_string());
    }
    if flags.telemetry {
        return Err("merge does not execute runs; --telemetry applies to run/resume/shard".into());
    }
    let out = flags.out.clone().ok_or("merge needs --out DIR")?;
    let inputs: Vec<PathBuf> = flags.paths.iter().map(PathBuf::from).collect();
    let executor = flags.executor();
    if !flags.quiet {
        eprintln!(
            "merging {} campaign director{} into {}...",
            inputs.len(),
            if inputs.len() == 1 { "y" } else { "ies" },
            out.display()
        );
    }
    let started = Instant::now();
    let report = merge_with_opts(&executor, &inputs, &out, flags.spill_policy(), reexec_gaps)
        .map_err(|e| e.to_string())?;
    finish(
        &report,
        started,
        Some(&out.join("report.json")),
        flags.quiet,
    );
    Ok(())
}

/// Parses a positive seconds value (fractions allowed) for the scheduler's
/// duration flags.
fn parse_secs(flag: &str, value: &str) -> Result<Duration, String> {
    let secs = value
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("invalid {flag} `{value}` (need positive seconds)"))?;
    Ok(Duration::from_secs_f64(secs))
}

fn cmd_serve_sched(args: &[String]) -> Result<(), String> {
    let mut opts = ServeOptions::default();
    let mut spec_path = None;
    let mut workers = None;
    let mut spill_threshold = None;
    let mut no_spill = false;
    let mut telemetry = false;
    let mut quiet = false;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = Some(it.next().ok_or("--spec needs a path")?.clone()),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid worker count `{v}`"))?,
                );
            }
            "--lease-size" => {
                let v = it.next().ok_or("--lease-size needs a value")?;
                opts.lease_size = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("invalid lease size `{v}`"))?;
            }
            "--lease-ttl" => {
                let v = it.next().ok_or("--lease-ttl needs seconds")?;
                opts.lease_ttl = parse_secs("--lease-ttl", v)?;
            }
            "--poll" => {
                let v = it.next().ok_or("--poll needs seconds")?;
                opts.poll = parse_secs("--poll", v)?;
            }
            "--spill-threshold" => {
                let v = it.next().ok_or("--spill-threshold needs a value")?;
                spill_threshold = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid spill threshold `{v}`"))?,
                );
            }
            "--no-spill" => no_spill = true,
            "--telemetry" => telemetry = true,
            "--quiet" => quiet = true,
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if no_spill && spill_threshold.is_some() {
        return Err("--no-spill and --spill-threshold are mutually exclusive".to_string());
    }
    let [dir] = paths.as_slice() else {
        return Err("serve-sched takes exactly one campaign directory".to_string());
    };
    opts.spill = if no_spill {
        SpillPolicy::InMemory
    } else {
        match spill_threshold {
            Some(threshold) => SpillPolicy::Threshold(threshold),
            None => SpillPolicy::default(),
        }
    };
    let spec = match &spec_path {
        Some(path) => Some(load_spec(path)?),
        None => None,
    };
    let mut executor = match workers {
        Some(n) => Executor::new(n),
        None => Executor::with_available_parallelism(),
    };
    let dir_path = Path::new(dir);
    if telemetry {
        // A re-served campaign appends, continuing the original sequence
        // numbers — exactly like `resume`.
        let append = dir_path.join(EVENTS_FILE).exists();
        executor = executor.with_telemetry(telemetry_in(dir_path, append)?);
    }
    if !quiet {
        eprintln!(
            "serving campaign in {dir}: leases of {} run(s), ttl {:.1}s...",
            opts.lease_size,
            opts.lease_ttl.as_secs_f64()
        );
    }
    let started = Instant::now();
    let report =
        serve_sched(&executor, dir_path, spec.as_ref(), &opts).map_err(|e| e.to_string())?;
    finish(&report, started, Some(&dir_path.join("report.json")), quiet);
    Ok(())
}

fn cmd_work(args: &[String]) -> Result<(), String> {
    let mut worker_id = None;
    let mut poll = None;
    let mut patience = None;
    let mut fail_after = None;
    let mut strip_samples = false;
    let mut workers = None;
    let mut telemetry = false;
    let mut quiet = false;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--worker" => worker_id = Some(it.next().ok_or("--worker needs an id")?.clone()),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid worker count `{v}`"))?,
                );
            }
            "--poll" => {
                let v = it.next().ok_or("--poll needs seconds")?;
                poll = Some(parse_secs("--poll", v)?);
            }
            "--patience" => {
                let v = it.next().ok_or("--patience needs seconds")?;
                patience = Some(parse_secs("--patience", v)?);
            }
            "--fail-after" => {
                let v = it.next().ok_or("--fail-after needs a run count")?;
                fail_after = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid --fail-after `{v}`"))?,
                );
            }
            "--strip-samples" => strip_samples = true,
            "--telemetry" => telemetry = true,
            "--quiet" => quiet = true,
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let [dir] = paths.as_slice() else {
        return Err("work takes exactly one (coordinator) campaign directory".to_string());
    };
    let mut opts = WorkOptions::named(worker_id.ok_or("work needs --worker ID")?);
    if let Some(poll) = poll {
        opts.poll = poll;
    }
    if let Some(patience) = patience {
        opts.patience = patience;
    }
    opts.fail_after = fail_after;
    opts.strip_samples = strip_samples;
    let mut executor = match workers {
        Some(n) => Executor::new(n),
        None => Executor::with_available_parallelism(),
    };
    if telemetry {
        let wdir = Path::new(dir).join("workers").join(&opts.worker);
        let append = wdir.join(EVENTS_FILE).exists();
        executor = executor.with_telemetry(telemetry_in(&wdir, append)?);
    }
    if !quiet {
        eprintln!(
            "worker `{}` joining the fleet serving {dir}...",
            opts.worker
        );
    }
    let started = Instant::now();
    let outcome = work(&executor, Path::new(dir), &opts).map_err(|e| e.to_string())?;
    if !quiet {
        eprintln!(
            "worker `{}`: {} run(s) executed over {} lease(s) in {:.2}s",
            outcome.worker,
            outcome.executed,
            outcome.leases,
            started.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), String> {
    let mut strip_samples = false;
    let mut quiet = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--strip-samples" => strip_samples = true,
            "--quiet" => quiet = true,
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let [dir] = paths.as_slice() else {
        return Err("compact takes exactly one campaign directory".to_string());
    };
    let stats = compact(dir, strip_samples).map_err(|e| e.to_string())?;
    if !quiet {
        eprintln!(
            "compacted {dir}: {} records, {} duplicate(s) dropped{}{}; {} -> {} bytes",
            stats.records,
            stats.dropped_duplicates,
            if stats.healed_torn_tail {
                ", torn tail healed"
            } else {
                ""
            },
            if stats.stripped_samples > 0 {
                format!(", {} samples stripped to samples/", stats.stripped_samples)
            } else {
                String::new()
            },
            stats.bytes_before,
            stats.bytes_after,
        );
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let report = status(&paths).map_err(|e| e.to_string())?;
    if json {
        write_stdout(&format!("{}\n", report.to_json()));
    } else {
        write_stdout(&report.render());
    }
    Ok(())
}

fn finish(report: &CampaignReport, started: Instant, written_to: Option<&Path>, quiet: bool) {
    let elapsed = started.elapsed();
    if !quiet {
        eprintln!(
            "{} runs finished in {:.2}s ({:.1} runs/s)",
            report.total_runs,
            elapsed.as_secs_f64(),
            report.total_runs as f64 / elapsed.as_secs_f64().max(1e-9)
        );
    }
    match written_to {
        Some(path) => {
            if !quiet {
                eprintln!("report written to {}", path.display());
            }
        }
        None => write_stdout(&format!("{}\n", report.to_json())),
    }
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut interval = 2.0f64;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--interval" => {
                let v = it.next().ok_or("--interval needs seconds")?;
                interval = v
                    .parse::<f64>()
                    .map_err(|_| format!("invalid interval `{v}`"))?
                    .max(0.1);
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let [dir] = paths.as_slice() else {
        return Err("watch takes exactly one campaign directory".to_string());
    };
    let path = Path::new(dir);
    if json {
        // One machine-readable snapshot and exit — the CI entry point.
        let snapshot = WatchSnapshot::capture(path).map_err(|e| e.to_string())?;
        write_stdout(&format!("{}\n", snapshot.to_json()));
        return Ok(());
    }
    let clear = std::io::stdout().is_terminal();
    loop {
        let snapshot = WatchSnapshot::capture(path).map_err(|e| e.to_string())?;
        // Home the cursor and wipe the previous frame on a terminal.
        let home = if clear { "\x1b[H\x1b[2J" } else { "" };
        write_stdout(&format!("{home}{}", snapshot.render()));
        if snapshot.complete() {
            break;
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut timings = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--timings" => timings = true,
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let [path] = paths.as_slice() else {
        return Err("report takes exactly one report path or campaign directory".to_string());
    };
    if timings {
        // Aggregate the telemetry event log instead of the run report.
        let file = if Path::new(path).is_dir() {
            Path::new(path).join(EVENTS_FILE)
        } else {
            PathBuf::from(path)
        };
        let summary = summarize_events(&file).map_err(|e| e.to_string())?;
        if summary.events == 0 {
            return Err(format!(
                "{} holds no telemetry events; run the campaign with --telemetry",
                file.display()
            ));
        }
        write_stdout(&format!("{}\n", summary.to_json()));
        return Ok(());
    }
    // Accept either a report file or a campaign directory.
    let file = if Path::new(path).is_dir() {
        Path::new(path).join("report.json")
    } else {
        PathBuf::from(path)
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let report = CampaignReport::from_json(&text).map_err(|e| e.to_string())?;
    write_stdout(&report.render());
    Ok(())
}
