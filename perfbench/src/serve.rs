//! `serve-8x8`: the online path. A [`DetectionService`] serving the int8
//! model to three tenants with one worker is fed by the main thread: open
//! loop through a fixed ladder of Poisson arrival rates, and after each
//! open interval with bursts queued while dispatch is paused, to measure
//! capacity.
//!
//! Set-up trains one model per input set for [`MODELS`] consecutive input
//! sets, each with its own held-out windows: serving cost depends on the
//! model (how many windows it flags, how much its localizer marks), so one
//! input set alone would make a run's figures depend on the seed. Every
//! step is split into one interval per model, each served by a fresh
//! service, so the service's own `serve.e2e` histogram (window assembled →
//! verdict recorded) covers one interval.
//!
//! Set-up (simulation, training, quantization) is not measured with the
//! ladder. After the ladder every verdict is replayed offline through a
//! [`PipelineReplica`] with the exact batch composition the service used
//! and must match bit for bit.

use crate::batch::{instrumented_pass, report_pool, run_digest};
use crate::stats::{fnv64, median, quantile, SplitMix};
use crate::{median_time, units_in, Args, Outcome, INPUT_SETS};
use dl2fence::input::sample_frames;
use dl2fence::pipeline::FenceReport;
use dl2fence::{
    Dl2Fence, DosDetector, DosLocalizer, FenceConfig, MultiFrameFusion, QuantizedDetector,
    TableLikeMethod, VictimComplementingEnhancement,
};
use dl2fence_campaign::spec::parse_feature;
use dl2fence_campaign::{grid, CampaignSpec, Executor};
use dl2fence_serve::{
    AssembledWindow, DetectionService, LatencySummary, ModelBundle, PipelineReplica, ServeConfig,
};
use dl2fence_telemetry::{AggregateSink, Telemetry};
use noc_monitor::{DirectionalFrames, FeatureKind, LabeledSample};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC: &str = include_str!("../specs/serve_8x8.toml");
/// Grid seeds of input set 0 for the training and the served (held-out)
/// campaigns; set `i` adds `i` to both.
const TRAIN_SEED: u64 = 0x5E4E;
const HELDOUT_SEED: u64 = 0x5E4E_0000;
const TENANTS: u64 = 3;
/// Executor workers of the set-up campaigns.
const SETUP_WORKERS: usize = 2;
/// Rings hold 1024 windows per tenant, so a dispatcher stall ends an open
/// step (see [`BACKLOG_ABORT`]) before any ring fills: no offered window is
/// rejected.
const CONFIG: ServeConfig = ServeConfig {
    queue_capacity: 1024,
    max_tenants: 8,
    workers: 1,
    batch_windows: 8,
};
/// Offered rates of the open-loop steps, windows/s, lowest first. On a
/// 2-vCPU host the service answers several thousand windows/s, so every
/// step is served without a standing queue and its latency is the
/// service's own, not queueing behind a backlog.
const RATES: [f64; 3] = [500.0, 1000.0, 2000.0];
/// The nominal step, whose latency the traced run reports as
/// `serve.e2e_ms.p50` / `.p99`.
const NOMINAL: usize = 1;
/// Windows queued per burst of the capacity step after the open ones:
/// batches stay full and the worker never idles while a burst drains, so
/// the answered rate is the service's capacity. A burst fits the three
/// tenants' rings, so none is rejected.
const BURST: usize = 1500;
/// The open steps and the capacity step.
const STEPS: usize = RATES.len() + 1;
/// The capacity step's index.
const CAPACITY_STEP: usize = RATES.len();
/// The open steps' share of `--seconds`, split equally between them.
const OPEN_SHARE: f64 = 0.3;
/// The capacity step's share of `--seconds` at [`SIZING_RATE`]. It runs a
/// fixed number of bursts, so a run serves the same windows however fast
/// the host is, and its memory does not follow the host's speed.
const CAPACITY_SHARE: f64 = 1.0 / 3.0;
/// A capacity in windows/s, used only to size the capacity step.
const SIZING_RATE: f64 = 6000.0;
/// Models per run, one per consecutive input set starting at the one
/// `--seed` selects; every step has one interval per model.
const MODELS: usize = 4;
/// An open interval stops offering once its backlog passes this: it is
/// overloaded beyond doubt, and a longer queue would only cost memory.
const BACKLOG_ABORT: usize = 1024;
/// How often the generator samples the service's backlog.
const STATUS_EVERY: Duration = Duration::from_millis(10);
/// How often the generator looks for verdicts while it waits.
const POLL: Duration = Duration::from_micros(200);

/// The served model and the held-out windows it is fed.
struct Setup {
    bundle: ModelBundle,
    det: FeatureKind,
    loc: FeatureKind,
    pool: Vec<LabeledSample>,
}

impl Setup {
    /// Share of the held-out windows that come from attacked runs: the
    /// campaign's own mix.
    fn attack_share(&self) -> f64 {
        let attacked = self.pool.iter().filter(|s| s.truth.under_attack).count();
        attacked as f64 / self.pool.len() as f64
    }
}

fn samples_of(spec: &CampaignSpec, seed: u64) -> Result<Vec<LabeledSample>, String> {
    let mut spec = spec.clone();
    spec.grid.seeds = vec![seed];
    let outcome = Executor::new(SETUP_WORKERS)
        .execute(&spec)
        .map_err(|e| e.to_string())?;
    Ok(outcome.runs.into_iter().flat_map(|r| r.samples).collect())
}

fn setup(input: u64) -> Result<Setup, String> {
    let spec = CampaignSpec::from_toml(SPEC).map_err(|e| e.to_string())?;
    let det = parse_feature(&spec.eval.detection_feature).map_err(|e| e.to_string())?;
    let loc = parse_feature(&spec.eval.localization_feature).map_err(|e| e.to_string())?;
    let train = samples_of(&spec, TRAIN_SEED + input)?;
    let mesh = train
        .first()
        .ok_or("training campaign produced no windows")?
        .truth
        .rows;
    let config = FenceConfig {
        detection_feature: det,
        localization_feature: loc,
        ..FenceConfig::new(mesh, mesh)
            .with_epochs(spec.eval.detector_epochs, spec.eval.localizer_epochs)
    };
    let mut fence = Dl2Fence::new(config);
    fence.train(&train);
    let quant = fence.detector().quantize().export();
    let pool = samples_of(&spec, HELDOUT_SEED + input)?;
    if !pool.iter().any(|s| s.truth.under_attack) || pool.iter().all(|s| s.truth.under_attack) {
        return Err("held-out campaign needs attacked and attack-free windows".to_string());
    }
    Ok(Setup {
        bundle: ModelBundle::quantized(fence.export_model(), quant),
        det,
        loc,
        pool,
    })
}

/// One offered window.
struct Offered {
    /// The interval, hence the service, it was offered to.
    interval: usize,
    tenant: u64,
    sample: usize,
    due: Instant,
    /// How late the generator offered the window, ms.
    lag_ms: f64,
    accepted: bool,
    answer: Option<Answer>,
}

/// A verdict as observed by the generator.
struct Answer {
    /// Due → verdict seen by the generator, which polls every [`POLL`];
    /// seconds.
    seen: f64,
    batch: u64,
    position: usize,
    version: u64,
    /// Whether the window was flagged, so paid the localization tail.
    flagged: bool,
    /// Digest of the report's `Debug` form, which prints every float
    /// exactly, so equal digests mean bit-identical reports.
    digest: u64,
}

fn report_digest(report: &FenceReport) -> u64 {
    fnv64(format!("{report:?}").as_bytes())
}

/// What one interval measured.
struct Interval {
    step: usize,
    /// Index of the model (and held-out pool) it served.
    model: usize,
    /// `queued + in_flight` right after the last offer.
    backlog: usize,
    /// Largest sampled `in_flight`.
    in_flight_max: usize,
    /// Verdicts seen while offering, per second offering; for a capacity
    /// interval, windows answered per second of drain.
    answered_per_s: f64,
    /// The service's `serve.e2e` histogram summary.
    e2e: Option<LatencySummary>,
}

/// Everything the ladder offered and measured.
#[derive(Default)]
struct Ladder {
    offered: Vec<Offered>,
    intervals: Vec<Interval>,
    /// Windows drained in capacity bursts, and the seconds they took.
    drained: usize,
    drain_s: f64,
    ingest_us: Vec<f64>,
    rejected: u64,
}

/// The generator's side of one interval: its service and the windows
/// offered to it that await a verdict.
struct Feed<'a> {
    s: &'a Setup,
    service: DetectionService,
    interval: usize,
    /// (tenant, seq) → index into `Ladder::offered`.
    pending: HashMap<(u64, u64), usize>,
    seen: usize,
    in_flight_max: usize,
    sampled: Instant,
    backlog: usize,
    trace: bool,
}

impl<'a> Feed<'a> {
    fn new(s: &'a Setup, interval: usize, trace: bool) -> Self {
        Feed {
            s,
            service: DetectionService::new(CONFIG, s.bundle.clone()),
            interval,
            pending: HashMap::new(),
            seen: 0,
            in_flight_max: 0,
            sampled: Instant::now(),
            backlog: 0,
            trace,
        }
    }

    /// Stamps the verdicts that arrived since the last call, and samples
    /// the backlog every [`STATUS_EVERY`].
    fn poll(&mut self, ladder: &mut Ladder) {
        let verdicts = self.service.take_verdicts();
        let now = Instant::now();
        for v in verdicts {
            if let Some(i) = self.pending.remove(&(v.tenant, v.seq)) {
                let o = &mut ladder.offered[i];
                self.seen += 1;
                o.answer = Some(Answer {
                    seen: now.duration_since(o.due).as_secs_f64(),
                    batch: v.batch,
                    position: v.position,
                    version: v.model_version,
                    flagged: v.report.detected,
                    digest: report_digest(&v.report),
                });
            }
        }
        if now.saturating_duration_since(self.sampled) > STATUS_EVERY {
            self.sample_backlog();
        }
    }

    fn sample_backlog(&mut self) {
        let status = self.service.status();
        self.backlog = status.queued + status.in_flight;
        self.in_flight_max = self.in_flight_max.max(status.in_flight);
        self.sampled = Instant::now();
    }

    /// Offers pool window `sample`, which was due at `due`.
    fn offer(&mut self, ladder: &mut Ladder, sample: usize, due: Instant) {
        let tenant = ladder.offered.len() as u64 % TENANTS;
        let lag_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        let mut outcome = Ok(None);
        for frame in window_frames(self.s, sample) {
            let t = Instant::now();
            outcome = self.service.ingest(tenant, frame);
            if self.trace {
                ladder.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let index = ladder.offered.len();
        let accepted = match outcome {
            Ok(Some(seq)) => {
                self.pending.insert((tenant, seq), index);
                true
            }
            _ => {
                ladder.rejected += 1;
                false
            }
        };
        ladder.offered.push(Offered {
            interval: self.interval,
            tenant,
            sample,
            due,
            lag_ms,
            accepted,
            answer: None,
        });
    }

    /// Records the interval with the backlog now; then waits for every
    /// verdict and shuts the service down, which gives its final
    /// `serve.e2e` histogram.
    fn finish(mut self, ladder: &mut Ladder, step: usize, model: usize, answered_per_s: f64) {
        self.sample_backlog();
        while !self.pending.is_empty() {
            std::thread::sleep(POLL);
            self.poll(ladder);
        }
        let status = self.service.shutdown();
        ladder.intervals.push(Interval {
            step,
            model,
            backlog: self.backlog,
            in_flight_max: self.in_flight_max,
            answered_per_s,
            e2e: status.e2e,
        });
    }
}

fn window_frames(s: &Setup, sample: usize) -> Vec<noc_monitor::FeatureFrame> {
    let sample = &s.pool[sample];
    let mut frames = sample_frames(sample, s.det).clone().into_frames();
    if s.det != s.loc {
        frames.extend(sample_frames(sample, s.loc).clone().into_frames());
    }
    frames
}

/// Offers Poisson arrivals at `rate` for `secs`, each window drawn
/// uniformly from the held-out pool, so the served mix is the pool's.
fn open_interval(feed: &mut Feed, ladder: &mut Ladder, rng: &mut SplitMix, rate: f64, secs: f64) {
    let start = Instant::now() + Duration::from_millis(5);
    let mut offset = 0.0;
    for _ in 0..(rate * secs).round().max(1.0) as usize {
        offset += -(1.0 - rng.next_f64()).ln() / rate;
        let sample = rng.below(feed.s.pool.len());
        let due = start + Duration::from_secs_f64(offset);
        loop {
            feed.poll(ladder);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        if feed.backlog > BACKLOG_ABORT {
            break; // overloaded: the rest of the interval is not offered
        }
        feed.offer(ladder, sample, due);
    }
}

/// `bursts` capacity bursts: with dispatch paused,
/// queues [`BURST`] windows, then resumes and waits until the service is
/// idle. Adds the windows and the drain time to the ladder's totals and
/// returns the interval's answered rate over its drain time. The
/// generator sleeps while the service drains, so the worker and the
/// dispatcher have the host's CPUs to themselves.
fn capacity_interval(
    feed: &mut Feed,
    ladder: &mut Ladder,
    rng: &mut SplitMix,
    bursts: usize,
) -> f64 {
    let mut drain_s = 0.0;
    for _ in 0..bursts {
        feed.service.pause();
        for _ in 0..BURST {
            let sample = rng.below(feed.s.pool.len());
            feed.offer(ladder, sample, Instant::now());
        }
        let t = Instant::now();
        feed.service.resume();
        feed.service.drain_until_idle();
        drain_s += t.elapsed().as_secs_f64();
        feed.poll(ladder);
    }
    ladder.drained += bursts * BURST;
    ladder.drain_s += drain_s;
    (bursts * BURST) as f64 / drain_s
}

fn run_ladder(setups: &[Setup], seed: u64, seconds: f64, trace: bool) -> Ladder {
    let mut rng = SplitMix::new(seed ^ 0x5E4E_5EED);
    let mut ladder = Ladder::default();
    // Each open interval is followed by a capacity interval of the same
    // model, so the capacity samples span the whole ladder and not one
    // stretch of host time.
    let intervals = (RATES.len() * setups.len()) as f64;
    let secs = seconds * OPEN_SHARE / intervals;
    let bursts = units_in(
        seconds * CAPACITY_SHARE / intervals,
        BURST as f64 / SIZING_RATE,
    );
    for (step, &rate) in RATES.iter().enumerate() {
        for (model, s) in setups.iter().enumerate() {
            let mut feed = Feed::new(s, ladder.intervals.len(), trace);
            let start = Instant::now();
            open_interval(&mut feed, &mut ladder, &mut rng, rate, secs);
            let answered_per_s = feed.seen as f64 / start.elapsed().as_secs_f64();
            feed.finish(&mut ladder, step, model, answered_per_s);

            let mut feed = Feed::new(s, ladder.intervals.len(), trace);
            let answered_per_s = capacity_interval(&mut feed, &mut ladder, &mut rng, bursts);
            feed.finish(&mut ladder, CAPACITY_STEP, model, answered_per_s);
        }
    }
    ladder
}

/// Replay threads of the audit: the host's two CPUs.
const AUDIT_THREADS: usize = 2;

/// A served batch, keyed by (interval, batch id): its windows' indices
/// into `Ladder::offered` with their answers.
type ServedBatch<'a> = ((usize, u64), Vec<(usize, &'a Answer)>);

/// Replays every served batch offline with the same composition, on
/// [`AUDIT_THREADS`] threads with a replica per model each, and counts each offered
/// window: rejected, unanswered or differing windows fail. Returns the
/// replay's wall time and each batch's replay time, keyed by (interval,
/// batch).
fn audit(
    setups: &[Setup],
    ladder: &Ladder,
    out: &mut Outcome,
    telemetry: Option<Telemetry>,
) -> (f64, BTreeMap<(usize, u64), f64>) {
    let mut batches: BTreeMap<(usize, u64), Vec<(usize, &Answer)>> = BTreeMap::new();
    for (i, o) in ladder.offered.iter().enumerate() {
        if let Some(a) = &o.answer {
            batches
                .entry((o.interval, a.batch))
                .or_default()
                .push((i, a));
        }
    }
    let batches: Vec<_> = batches.into_iter().collect();
    let replay = |part: &[ServedBatch]| {
        let mut replicas: Vec<PipelineReplica> = setups
            .iter()
            .map(|s| {
                let mut replica = PipelineReplica::build(&s.bundle);
                if let Some(t) = &telemetry {
                    replica.set_telemetry(t.recorder());
                }
                replica
            })
            .collect();
        let mut checked = Vec::new();
        for (key, group) in part {
            let model = ladder.intervals[key.0].model;
            let (s, replica) = (&setups[model], &mut replicas[model]);
            let mut group = group.clone();
            group.sort_by_key(|(_, a)| a.position);
            let exact = group
                .iter()
                .enumerate()
                .all(|(p, (_, a))| a.position == p && a.version == s.bundle.version);
            let windows: Vec<AssembledWindow> = group
                .iter()
                .map(|&(i, _)| {
                    let o = &ladder.offered[i];
                    let sample = &s.pool[o.sample];
                    AssembledWindow {
                        tenant: o.tenant,
                        seq: 0, // provenance only: reports do not depend on it
                        detection: sample_frames(sample, s.det).clone(),
                        localization: sample_frames(sample, s.loc).clone(),
                        assembled_at: Instant::now(),
                    }
                })
                .collect();
            let t = Instant::now();
            let offline = replica.process(key.1, &windows);
            let secs = t.elapsed().as_secs_f64();
            let ok: Vec<(usize, bool)> = group
                .iter()
                .zip(&offline)
                .map(|((i, a), off)| (*i, exact && a.digest == report_digest(&off.report)))
                .collect();
            checked.push((*key, secs, ok));
        }
        checked
    };
    let started = Instant::now();
    let parts: Vec<_> = std::thread::scope(|scope| {
        let per = batches.len().div_ceil(AUDIT_THREADS).max(1);
        let handles: Vec<_> = batches
            .chunks(per)
            .map(|part| scope.spawn(move || replay(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let replay_s = started.elapsed().as_secs_f64();
    let mut ok = vec![false; ladder.offered.len()];
    let mut batch_s = BTreeMap::new();
    for (key, secs, windows) in parts.into_iter().flatten() {
        batch_s.insert(key, secs);
        for (i, good) in windows {
            ok[i] = good;
        }
    }
    for (i, o) in ladder.offered.iter().enumerate() {
        out.check(ok[i], || {
            let why = if !o.accepted {
                "was rejected"
            } else if o.answer.is_none() {
                "got no verdict"
            } else {
                "differs from the offline replay of its batch"
            };
            let step = ladder.intervals[o.interval].step;
            format!("window {i} (step {step}, tenant {}) {why}", o.tenant)
        });
    }
    (replay_s, batch_s)
}

/// The intervals of one step.
fn step_intervals(ladder: &Ladder, step: usize) -> impl Iterator<Item = &Interval> {
    ladder.intervals.iter().filter(move |iv| iv.step == step)
}

/// The windows offered in one step, in due order.
fn step_windows(ladder: &Ladder, step: usize) -> impl Iterator<Item = &Offered> {
    ladder
        .offered
        .iter()
        .filter(move |o| ladder.intervals[o.interval].step == step)
}

/// The median over a step's intervals of `f`.
fn step_median(ladder: &Ladder, step: usize, f: impl Fn(&Interval) -> f64) -> f64 {
    median(&step_intervals(ladder, step).map(f).collect::<Vec<_>>())
}

/// The median over a step's intervals of a `serve.e2e` summary field, ms.
fn step_e2e_ms(ladder: &Ladder, step: usize, field: fn(&LatencySummary) -> u64) -> f64 {
    step_median(ladder, step, |iv| {
        iv.e2e.as_ref().map_or(f64::NAN, |e| field(e) as f64 / 1e3)
    })
}

/// The median over a step's intervals of the `q`-quantile of `f` over the
/// windows of each.
fn step_window_quantile(
    ladder: &Ladder,
    step: usize,
    q: f64,
    f: impl Fn(&Offered) -> Option<f64>,
) -> f64 {
    let mut per: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for o in step_windows(ladder, step) {
        if let Some(v) = f(o) {
            per.entry(o.interval).or_default().push(v);
        }
    }
    median(&per.values().map(|v| quantile(v, q)).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut setup_times = Vec::new();
    for k in 0..MODELS as u64 {
        let t = Instant::now();
        setups.push(setup((args.input_set() + k) % INPUT_SETS)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let ladder = run_ladder(&setups, args.seed, args.seconds, args.trace);
    let mut out = Outcome::default();
    let (replay_s, batch_s) = audit(&setups, &ladder, &mut out, None);

    let mut steps = Vec::new();
    for step in 0..STEPS {
        let answered: Vec<&Answer> = step_windows(&ladder, step)
            .filter_map(|o| o.answer.as_ref())
            .collect();
        let flagged = answered.iter().filter(|a| a.flagged).count();
        let offered = RATES
            .get(step)
            .map_or("\"burst\"".to_string(), |r| r.to_string());
        steps.push(format!(
            "{{\"offered_per_s\": {offered}, \"answered_per_s\": {:.1}, \"samples\": {}, \
             \"flagged_share\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \
             \"backlog_max\": {}}}",
            step_median(&ladder, step, |iv| iv.answered_per_s),
            answered.len(),
            flagged as f64 / answered.len().max(1) as f64,
            step_e2e_ms(&ladder, step, |e| e.p50_us),
            step_e2e_ms(&ladder, step, |e| e.p99_us),
            step_e2e_ms(&ladder, step, |e| e.mean_us),
            step_intervals(&ladder, step)
                .map(|iv| iv.backlog)
                .max()
                .unwrap_or(0),
        ));
    }
    println!(
        "{{\"serve_ladder\": [{}], \"nominal_per_s\": {}, \"capacity_burst\": {BURST}, \
         \"attack_share\": {:.3}}}",
        steps.join(", "),
        RATES[NOMINAL],
        setups.iter().map(Setup::attack_share).sum::<f64>() / setups.len() as f64,
    );
    if args.trace {
        traced(&setups, &ladder, replay_s, &batch_s, &mut out);
        sim_layers(args.input_set(), &mut out)?;
    } else {
        out.metric("setup_s", median(&setup_times), "s");
        // The service's capacity: windows answered per second while
        // queued bursts drain, over all bursts of the run.
        out.metric(
            "windows_per_s",
            ladder.drained as f64 / ladder.drain_s,
            "windows/s",
        );
    }
    Ok(out)
}

/// The simulation and campaign layers as the set-up exercises them: the
/// first model's held-out campaign runs again through an executor with
/// telemetry and through the benchmark's instrumented simulation pass,
/// whose run records must match the executor's.
fn sim_layers(input: u64, out: &mut Outcome) -> Result<(), String> {
    let mut spec = CampaignSpec::from_toml(SPEC).map_err(|e| e.to_string())?;
    spec.grid.seeds = vec![HELDOUT_SEED + input];
    let runs = grid::expand(&spec).map_err(|e| e.to_string())?;
    let sink = Arc::new(AggregateSink::new());
    let executor = Executor::new(SETUP_WORKERS).with_telemetry(Telemetry::with_sink(sink.clone()));
    let t = Instant::now();
    let results = executor.execute_runs(&spec.sim, &runs);
    let execute_s = t.elapsed().as_secs_f64();
    drop(executor);
    let layers = instrumented_pass(&spec.sim, &runs);
    for (i, (a, b)) in results.iter().zip(&layers.results).enumerate() {
        out.check(run_digest(a) == run_digest(b), || {
            format!("instrumented simulation pass: run {i} differs from the executor's record")
        });
    }
    layers.report(out);
    let busy_s = sink.counter("worker.busy_us") as f64 / 1e6;
    report_pool(out, execute_s, busy_s / (execute_s * SETUP_WORKERS as f64));
    Ok(())
}

/// Per-layer details of the serving path, which only this workload
/// exercises: the service's, from the nominal step of the ladder; the core
/// pipeline stages, timed offline at the serve batch size with the first
/// model; and the telemetry overhead on the offline replay.
fn traced(
    setups: &[Setup],
    ladder: &Ladder,
    replay_s: f64,
    batch_s: &BTreeMap<(usize, u64), f64>,
    out: &mut Outcome,
) {
    out.detail(
        "serve.e2e_ms.p50",
        step_e2e_ms(ladder, NOMINAL, |e| e.p50_us),
        "ms",
    );
    out.detail(
        "serve.e2e_ms.p99",
        step_e2e_ms(ladder, NOMINAL, |e| e.p99_us),
        "ms",
    );
    out.detail(
        "serve.ingest_us.p50",
        quantile(&ladder.ingest_us, 0.5),
        "us",
    );
    out.detail(
        "serve.ingest_us.p99",
        quantile(&ladder.ingest_us, 0.99),
        "us",
    );
    // Time a window waited before its batch started: its due → seen time
    // less the offline replay time of the batch that carried it.
    let wait_ms = |o: &Offered| {
        let a = o.answer.as_ref()?;
        let t = batch_s.get(&(o.interval, a.batch))?;
        Some((a.seen - t).max(0.0) * 1e3)
    };
    out.detail(
        "serve.queue_wait_ms.p99",
        step_window_quantile(ladder, NOMINAL, 0.99, wait_ms),
        "ms",
    );
    let answered: Vec<(usize, u64)> = step_windows(ladder, NOMINAL)
        .filter_map(|o| o.answer.as_ref().map(|a| (o.interval, a.batch)))
        .collect();
    let batches: std::collections::BTreeSet<_> = answered.iter().collect();
    out.detail(
        "serve.batch_windows.mean",
        answered.len() as f64 / batches.len().max(1) as f64,
        "windows",
    );
    out.detail(
        "serve.in_flight_max",
        step_intervals(ladder, NOMINAL)
            .map(|iv| iv.in_flight_max)
            .max()
            .unwrap_or(0) as f64,
        "windows",
    );
    out.detail("serve.rejected", ladder.rejected as f64, "count");
    out.detail(
        "serve.generator_lag_ms.p99",
        step_window_quantile(ladder, NOMINAL, 0.99, |o| Some(o.lag_ms)),
        "ms",
    );

    core_stages(&setups[0], out);

    // Replays alternate without and with a telemetry recorder attached.
    let (mut plain, mut traced) = (vec![replay_s], Vec::new());
    for _ in 0..2 {
        let sink = Arc::new(AggregateSink::new());
        let mut scratch = Outcome::default();
        traced.push(
            audit(
                setups,
                ladder,
                &mut scratch,
                Some(Telemetry::with_sink(sink)),
            )
            .0,
        );
        plain.push(audit(setups, ladder, &mut scratch, None).0);
    }
    out.detail(
        "telemetry.overhead_share",
        median(&traced) / median(&plain) - 1.0,
        "share",
    );
}

/// Passes over the held-out pool for the offline stage timings.
const STAGE_PASSES: usize = 51;

/// Times each core stage offline over the held-out windows, in chunks of
/// the serve batch size; reports the median pass.
fn core_stages(s: &Setup, out: &mut Outcome) {
    let config = s.bundle.fence.config;
    let (rows, cols) = (config.rows, config.cols);
    let det: Vec<&DirectionalFrames> = s.pool.iter().map(|w| sample_frames(w, s.det)).collect();
    let loc: Vec<&DirectionalFrames> = s.pool.iter().map(|w| sample_frames(w, s.loc)).collect();
    let per_window = |secs: f64, n: usize| secs * 1e6 / n.max(1) as f64;

    let mut int8 = QuantizedDetector::from_export(s.bundle.quant.clone().expect("int8 bundle"));
    let (t, flags) = median_time(STAGE_PASSES, || {
        det.chunks(CONFIG.batch_windows)
            .flat_map(|c| int8.detect_batch(c))
            .map(|d| d.detected)
            .collect::<Vec<bool>>()
    });
    out.detail(
        "core.detect_us_per_window.int8",
        per_window(t, det.len()),
        "us",
    );
    let mut f32_det = DosDetector::from_export(rows, cols, s.bundle.fence.detector.clone());
    let (t, _) = median_time(STAGE_PASSES, || {
        for c in det.chunks(CONFIG.batch_windows) {
            f32_det.detect_batch(c);
        }
    });
    out.detail(
        "core.detect_us_per_window.f32",
        per_window(t, det.len()),
        "us",
    );

    // The tail runs on flagged windows only.
    let flagged: Vec<&DirectionalFrames> = loc
        .iter()
        .zip(&flags)
        .filter(|(_, f)| **f)
        .map(|(l, _)| *l)
        .collect();
    let mut localizer = DosLocalizer::from_export(rows, cols, s.bundle.fence.localizer.clone());
    let (t, segs) = median_time(STAGE_PASSES, || {
        flagged
            .iter()
            .map(|l| localizer.segment_bundle(l))
            .collect::<Vec<_>>()
    });
    out.detail(
        "core.segment_us_per_window",
        per_window(t, flagged.len()),
        "us",
    );
    let fusion = MultiFrameFusion::for_mesh(rows, cols).with_threshold(config.fusion_threshold);
    let (t, fused) = median_time(STAGE_PASSES, || {
        segs.iter()
            .map(|seg| fusion.fuse(seg, rows, cols))
            .collect::<Vec<_>>()
    });
    out.detail("core.fuse_us", per_window(t, fused.len()), "us");
    let (vce, tlm) = (
        VictimComplementingEnhancement::new(rows, cols),
        TableLikeMethod::new(rows, cols),
    );
    let (t, _) = median_time(STAGE_PASSES, || {
        for f in &fused {
            let victims = if config.vce_enabled {
                vce.complete(f)
            } else {
                f.victims.clone()
            };
            tlm.localize(f, &victims);
        }
    });
    out.detail("core.localize_us", per_window(t, fused.len()), "us");
}
