//! The batch workloads, `campaign-table1` and `sim-16x16`: one campaign
//! spec run through [`Executor`] and [`ReportAccumulator`], closed loop
//! (the next campaign starts when the previous one ends).
//!
//! Every run record and the report are checked byte for byte against the
//! digests recorded in `expected/` for the input set.

use crate::stats::{fnv64, median, quantile};
use crate::{units_in, Args, Outcome, INPUT_SETS};
use dl2fence_campaign::grid::{self, RunSpec};
use dl2fence_campaign::{
    CampaignReport, CampaignSpec, Executor, ReportAccumulator, RunMetrics, RunResult, SimParams,
};
use dl2fence_telemetry::{AggregateSink, Telemetry};
use noc_monitor::{FrameSampler, GroundTruth, LabeledSample};
use noc_sim::{EnergyModel, NocConfig, Topology};
use noc_traffic::AttackScenario;
use std::sync::Arc;
use std::time::Instant;

/// A batch workload definition.
struct Workload {
    name: &'static str,
    spec_toml: &'static str,
    /// Executor workers for both the runs and the eval phase.
    workers: usize,
    /// Grid seed of input set 0; set `i` uses `base_seed + i`.
    base_seed: u64,
    /// Nominal seconds per campaign: a run measures `--seconds / unit_s`
    /// campaigns (at least one), on consecutive input sets, and reports
    /// their median.
    unit_s: f64,
    /// One line per input set: `<set> <report digest> <run digests...>`.
    expected: &'static str,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "campaign-table1",
        spec_toml: include_str!("../specs/table1_quick.toml"),
        workers: 2,
        base_seed: 0xDAC,
        unit_s: 15.0,
        expected: include_str!("../expected/campaign-table1.txt"),
    },
    Workload {
        name: "sim-16x16",
        spec_toml: include_str!("../specs/sim_16x16.toml"),
        workers: 1,
        base_seed: 0x16,
        unit_s: 12.0,
        expected: include_str!("../expected/sim-16x16.txt"),
    },
];

/// Set-up is timed in chunks of [`SETUP_PER_CHUNK`] repetitions,
/// [`SETUP_CHUNKS`] chunks before every campaign and after the last;
/// `setup_s` is the median over all chunks of the mean repetition. One
/// repetition takes tens of microseconds, so a chunk averages over timer
/// and cache noise. The host's speed can change by a third from one second
/// to the next, which one burst of chunks at start-up would catch whole,
/// so the chunks are spread over the run as the campaigns are.
const SETUP_CHUNKS: usize = 21;
const SETUP_PER_CHUNK: usize = 50;

/// Times [`SETUP_CHUNKS`] chunks of set-up, adding each chunk's mean
/// repetition to `times`.
fn time_setup(w: &Workload, input: u64, times: &mut Vec<f64>) {
    for _ in 0..SETUP_CHUNKS {
        let t = Instant::now();
        (0..SETUP_PER_CHUNK).for_each(|_| drop(setup(w, input)));
        times.push(t.elapsed().as_secs_f64() / SETUP_PER_CHUNK as f64);
    }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("{name:?} is not a batch workload"))
}

/// The spec and expanded run matrix of one input set.
struct Setup {
    spec: CampaignSpec,
    runs: Vec<RunSpec>,
}

fn setup(w: &Workload, input: u64) -> Result<Setup, String> {
    let mut spec = CampaignSpec::from_toml(w.spec_toml).map_err(|e| e.to_string())?;
    spec.grid.seeds = vec![w.base_seed + input];
    let runs = grid::expand(&spec).map_err(|e| e.to_string())?;
    Ok(Setup { spec, runs })
}

/// One measured campaign: phase times plus everything the checks need.
struct Unit {
    wall: f64,
    execute: f64,
    fold: f64,
    finish: f64,
    results: Vec<RunResult>,
    report: CampaignReport,
    report_json: String,
}

impl Unit {
    fn windows(&self) -> usize {
        self.results.iter().map(|r| r.samples.len()).sum()
    }

    /// `<report digest> <run digests...>`, the recorded form.
    fn digests(&self) -> Vec<u64> {
        std::iter::once(fnv64(self.report_json.as_bytes()))
            .chain(self.results.iter().map(run_digest))
            .collect()
    }
}

pub fn run_digest(run: &RunResult) -> u64 {
    fnv64(
        serde_json::to_string(run)
            .expect("run records serialize")
            .as_bytes(),
    )
}

fn run_unit(s: &Setup, executor: &Executor) -> Result<Unit, String> {
    let t0 = Instant::now();
    let results = executor.execute_runs(&s.spec.sim, &s.runs);
    let t1 = Instant::now();
    let mut acc = ReportAccumulator::for_spec(&s.spec).map_err(|e| e.to_string())?;
    for r in &results {
        acc.fold(r);
    }
    let t2 = Instant::now();
    let report = acc.finish(executor).map_err(|e| e.to_string())?;
    let report_json = report.to_json();
    let t3 = Instant::now();
    Ok(Unit {
        wall: (t3 - t0).as_secs_f64(),
        execute: (t1 - t0).as_secs_f64(),
        fold: (t2 - t1).as_secs_f64(),
        finish: (t3 - t2).as_secs_f64(),
        results,
        report,
        report_json,
    })
}

/// The recorded digests of input set `input`, if any.
fn expected(w: &Workload, input: u64) -> Option<Vec<u64>> {
    w.expected.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()?.parse::<u64>().ok()? == input).then(|| {
            fields
                .filter_map(|f| u64::from_str_radix(f, 16).ok())
                .collect()
        })
    })
}

/// Checks digests against the recorded ones, one operation each. Index 0
/// is the report and index `i + 1` run `i`; `got` starts at index `first`.
fn check(out: &mut Outcome, got: &[u64], first: usize, want: Option<&[u64]>, what: &str) {
    let want = want.unwrap_or(&[]);
    for (i, g) in (first..).zip(got) {
        let item = match i {
            0 => "report".to_string(),
            i => format!("run {}", i - 1),
        };
        out.check(want.get(i) == Some(g), || {
            format!("{what}: {item} digest {g:016x} does not match the recorded one")
        });
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = workload(&args.workload)?;
    let input = args.input_set();
    let executor = Executor::new(w.workers);
    let mut out = Outcome::default();
    if args.trace {
        let s = setup(w, input)?;
        traced(w, &s, &executor, expected(w, input).as_deref(), &mut out)?;
        return Ok(out);
    }
    let mut setup_times = Vec::new();
    time_setup(w, input, &mut setup_times);
    // Unit k runs input set `input + k`, so a run's median spans several
    // input sets and not only several host moments.
    let mut walls = Vec::new();
    let mut windows = 0;
    let mut quality = None;
    for k in 0..units_in(args.seconds, w.unit_s) as u64 {
        let set = (input + k) % INPUT_SETS;
        let unit = run_unit(&setup(w, set)?, &executor)?;
        check(
            &mut out,
            &unit.digests(),
            0,
            expected(w, set).as_deref(),
            w.name,
        );
        walls.push(unit.wall);
        time_setup(w, input, &mut setup_times);
        if k == 0 {
            windows = unit.windows();
            // Quality is deterministic per input set: the one `--seed` selects.
            quality = unit.report.evaluations.first().map(|e| {
                (
                    e.report.overall_detection(),
                    e.report.overall_localization(),
                )
            });
        }
    }
    let wall_s = median(&walls);
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("windows_per_s", windows as f64 / wall_s, "windows/s");
    out.detail("wall_s", wall_s, "s");
    if let Some((det, loc)) = quality {
        out.detail("detection_accuracy", det.accuracy(), "share");
        out.detail("detection_precision", det.precision(), "share");
        out.detail("localization_accuracy", loc.accuracy(), "share");
        out.detail("localization_precision", loc.precision(), "share");
    }
    Ok(out)
}

/// The traced run: an untraced campaign for the overhead baseline, the
/// same campaign with the program's telemetry collected in an
/// [`AggregateSink`], and the benchmark's own instrumented simulation
/// pass over the same run matrix.
fn traced(
    w: &Workload,
    s: &Setup,
    executor: &Executor,
    want: Option<&[u64]>,
    out: &mut Outcome,
) -> Result<(), String> {
    let plain = run_unit(s, executor)?;
    check(out, &plain.digests(), 0, want, w.name);

    let sink = Arc::new(AggregateSink::new());
    let traced_exec = Executor::new(w.workers).with_telemetry(Telemetry::with_sink(sink.clone()));
    let unit = run_unit(s, &traced_exec)?;
    check(out, &unit.digests(), 0, want, "traced campaign");
    drop(traced_exec);

    out.detail("campaign.fold_s", unit.fold, "s");
    out.detail("campaign.finish_s", unit.finish, "s");
    if s.spec.eval.enabled {
        let hists = sink.histograms();
        let sum_s = |prefix: &str| -> f64 {
            hists
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, h)| h.sum_us() as f64 / 1e6)
                .sum()
        };
        let passes = [
            ("nn.localizer.bwd_s", "nn.localizer.bwd."),
            ("nn.localizer.fwd_s", "nn.localizer.fwd."),
            ("nn.detector.bwd_s", "nn.detector.bwd."),
            ("nn.detector.fwd_s", "nn.detector.fwd."),
        ];
        let mut in_layers = 0.0;
        for (metric, prefix) in passes {
            let v = sum_s(prefix);
            in_layers += v;
            out.detail(metric, v, "s");
        }
        // Train and held-out evaluation time spent outside layer passes
        // (loss, optimizer, batching, data preparation).
        let spans = sum_s("train.detector") + sum_s("train.localizer") + sum_s("eval.evaluate");
        out.detail("nn.train.other_s", spans - in_layers, "s");
    }

    out.detail(
        "telemetry.overhead_share",
        unit.wall / plain.wall - 1.0,
        "share",
    );

    let layers = instrumented_pass(&s.spec.sim, &s.runs);
    let digests: Vec<u64> = layers.results.iter().map(run_digest).collect();
    check(out, &digests, 1, want, "instrumented simulation pass");
    layers.report(out);
    let busy_s = sink.counter("worker.busy_us") as f64 / 1e6;
    report_pool(
        out,
        unit.execute,
        busy_s / ((unit.execute + unit.finish) * w.workers as f64),
    );
    Ok(())
}

/// The campaign layer's per-layer metrics: the executor's wall time over
/// the run matrix and the share of worker time it kept busy.
pub fn report_pool(out: &mut Outcome, execute_s: f64, busy_share: f64) {
    out.metric("campaign.execute_s", execute_s, "s");
    out.metric("campaign.pool_busy_share", busy_share, "share");
}

/// Per-layer timings of the simulator and monitor, measured by the
/// benchmark around the public calls `execute_run` makes.
#[derive(Default)]
pub struct SimLayers {
    pub results: Vec<RunResult>,
    /// `(step seconds, router-cycles)` of benign and attacked runs.
    benign: (f64, f64),
    attack: (f64, f64),
    sample_s: f64,
    windows: usize,
    run_ms: Vec<f64>,
}

impl SimLayers {
    pub fn report(&self, out: &mut Outcome) {
        let ns = |(secs, router_cycles): (f64, f64)| secs * 1e9 / router_cycles;
        out.metric("noc.step_ns_per_router_cycle.benign", ns(self.benign), "ns");
        out.metric("noc.step_ns_per_router_cycle.attack", ns(self.attack), "ns");
        let delivered: u64 = self
            .results
            .iter()
            .map(|r| r.metrics.packets_received)
            .sum();
        let latency_sum: f64 = self
            .results
            .iter()
            .map(|r| r.metrics.packet_latency * r.metrics.packets_received as f64)
            .sum();
        out.metric("noc.packets_delivered", delivered as f64, "count");
        out.metric(
            "noc.avg_packet_latency_cycles",
            latency_sum / delivered.max(1) as f64,
            "cycles",
        );
        out.metric(
            "monitor.sample_us_per_window",
            self.sample_s * 1e6 / self.windows.max(1) as f64,
            "us",
        );
        out.metric(
            "monitor.collect_run_ms.p50",
            quantile(&self.run_ms, 0.5),
            "ms",
        );
    }
}

/// Runs the matrix on the calling thread exactly as
/// `dl2fence_campaign::execute_run` does, timing `AttackScenario::run`
/// and `FrameSampler::sample_both`. The records it builds are checked
/// against the same digests as the executor's.
pub fn instrumented_pass(sim: &SimParams, runs: &[RunSpec]) -> SimLayers {
    let mut layers = SimLayers::default();
    for run in runs {
        let started = Instant::now();
        let topology = Topology::parse(&run.topology).expect("expanded runs carry a topology");
        let mut noc = NocConfig::for_topology(&topology);
        if sim.injection_queue_capacity > 0 {
            noc = noc.with_injection_queue_capacity(sim.injection_queue_capacity);
        }
        let mut scenario = run.scenario.build(noc, run.run_seed);
        let truth = GroundTruth::of_scenario(&scenario);
        let (mut step_s, mut cycles) = (0.0, 0u64);
        let mut advance = |scenario: &mut AttackScenario, n: u64| {
            let t = Instant::now();
            scenario.run(n);
            step_s += t.elapsed().as_secs_f64();
            cycles += n;
        };
        advance(&mut scenario, sim.warmup_cycles);
        scenario.network_mut().reset_boc();
        let mut samples = Vec::new();
        for _ in 0..sim.samples_per_run {
            advance(&mut scenario, sim.sample_period);
            if sim.collect_samples {
                let t = Instant::now();
                let (vco, boc) = FrameSampler::sample_both(scenario.network());
                layers.sample_s += t.elapsed().as_secs_f64();
                layers.windows += 1;
                samples.push(LabeledSample {
                    vco,
                    boc,
                    truth: truth.clone(),
                    benchmark: run.workload.clone(),
                });
            }
            scenario.network_mut().reset_boc();
        }
        let stats = scenario.network().stats();
        let energy = EnergyModel::new().estimate(stats, topology.node_count());
        let metrics = RunMetrics {
            packet_latency: stats.packet_latency.mean(),
            packet_queue_latency: stats.packet_queue_latency.mean(),
            flit_latency: stats.flit_latency.mean(),
            flit_queue_latency: stats.flit_queue_latency.mean(),
            packets_created: stats.packets_created,
            packets_received: stats.packets_received,
            malicious_packets_received: stats.malicious_packets_received,
            saturated: scenario.network().is_saturated(),
            energy_nj: energy.total_nj,
            power_mw: energy.average_mw,
        };
        let class = if run.is_attack() {
            &mut layers.attack
        } else {
            &mut layers.benign
        };
        class.0 += step_s;
        class.1 += cycles as f64 * topology.node_count() as f64;
        layers.run_ms.push(started.elapsed().as_secs_f64() * 1e3);
        layers.results.push(RunResult {
            spec: run.clone(),
            metrics,
            samples,
        });
    }
    layers
}

/// Prints the expected-output table of a batch workload, one line per
/// input set, in the form `expected/<workload>.txt` holds. Regenerate it
/// only when a change alters the outputs on purpose.
pub fn record(name: &str) -> Result<(), String> {
    let w = workload(name)?;
    let executor = Executor::new(w.workers);
    for input in 0..INPUT_SETS {
        let unit = run_unit(&setup(w, input)?, &executor)?;
        let hex: Vec<String> = unit.digests().iter().map(|d| format!("{d:016x}")).collect();
        println!("{input} {}", hex.join(" "));
    }
    Ok(())
}
