//! The pipeline phases the workloads are built from: problem set-up,
//! training, forecasting over the test period, and streaming serving. Each
//! phase times the benchmark's own calls into the program's public API and
//! checks the outputs against computations made here.

use crate::reference::{self, Cell, Grid};
use crate::schedule::Quota;
use crate::stats;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use stsm_core::{
    train_stsm, DistanceMode, DtwContext, Predictor, ProblemInstance, StsmConfig, TrainedStsm,
};
use stsm_serve::{ForecastRequest, ServeStats, Server};
use stsm_synth::{space_split, DatasetConfig, FaultPlan, FaultSchedule, SplitAxis};
use stsm_tensor::{telemetry, Tensor};
use stsm_timeseries::{sliding_windows, Metrics};

/// Failed correctness checks of one run. Any failure makes the run
/// incorrect.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

pub fn seconds_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A built problem plus the time each half of its set-up took.
pub struct BuiltProblem {
    pub problem: ProblemInstance,
    pub generate_s: f64,
    pub build_s: f64,
}

/// Generates the dataset and binds it into a problem with the horizontal
/// space split (the paper's default split for PEMS-Bay).
pub fn build_problem(data: &DatasetConfig) -> BuiltProblem {
    let t0 = Instant::now();
    let dataset = data.generate();
    let generate_s = seconds_since(t0);
    let t1 = Instant::now();
    let split = space_split(&dataset.coords, SplitAxis::Horizontal, false);
    let problem = ProblemInstance::new(dataset, split, DistanceMode::Euclidean);
    BuiltProblem { problem, generate_s, build_s: seconds_since(t1) }
}

pub struct Trained {
    pub model: Arc<TrainedStsm>,
    pub windows: usize,
    pub seconds: f64,
}

/// Training windows one `train_stsm` call processes under `cfg`: each epoch
/// draws `max(windows_per_epoch, batch_windows)` windows (fewer if the
/// training period holds fewer) and batches them, skipping a contrastive
/// batch of one.
pub fn windows_per_training(problem: &ProblemInstance, cfg: &StsmConfig) -> usize {
    let available = sliding_windows(problem.train_time.len(), cfg.t_in, cfg.t_out, 1).len();
    let drawn = cfg.windows_per_epoch.max(cfg.batch_windows).min(available);
    let skipped = usize::from(cfg.contrastive && drawn % cfg.batch_windows == 1);
    cfg.epochs * (drawn - skipped)
}

/// Trains one round of `cfg`'s epoch budget and checks its losses. Every
/// round trains the same model, so further rounds only add timing samples.
pub fn train_round(
    problem: &ProblemInstance,
    cfg: &StsmConfig,
    expect_descent: bool,
    checks: &mut Checks,
) -> Trained {
    let t0 = Instant::now();
    let (model, report) = train_stsm(problem, cfg).expect("training a generated problem");
    let seconds = seconds_since(t0);
    let losses = &report.epoch_losses;
    checks.require(losses.len() == cfg.epochs && losses.iter().all(|l| l.is_finite()), || {
        format!("epoch losses must be {} finite values, got {losses:?}", cfg.epochs)
    });
    if expect_descent {
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        checks.require(last < first, || format!("loss rose from {first} to {last}"));
    }
    Trained { model: Arc::new(model), windows: windows_per_training(problem, cfg), seconds }
}

pub struct Forecasts {
    /// Wall time of every forecast, ms.
    pub times_ms: Vec<f64>,
    /// The forecasts made with telemetry on (traced runs only), ms.
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    /// The program's metrics over the first pass.
    pub metrics: Metrics,
    /// Targets of one pass, for the reference floors.
    pub cells: Vec<Cell>,
}

/// Non-overlapping test windows, the protocol of `evaluate_stsm`.
fn test_window_starts(problem: &ProblemInstance, cfg: &StsmConfig) -> Vec<usize> {
    sliding_windows(problem.test_time.len(), cfg.t_in, cfg.t_out, cfg.t_out)
        .iter()
        .map(|w| problem.test_time.start + w.input_start)
        .collect()
}

/// The forecast phase: forecasts the whole region for every test window,
/// pass after pass, in stretches that each resume where the last one
/// stopped. Checks shape and finiteness of every forecast, that a window
/// forecast again is bitwise identical, and, on `finish`, that the
/// program's RMSE/MAE match an f64 recomputation from the raw forecasts.
pub struct Forecaster {
    starts: Vec<usize>,
    first_pass: Vec<Vec<u32>>,
    times_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Traced runs switch telemetry on for every other forecast so the
    /// traced and untraced window times come from the same passes.
    alternate_trace: bool,
    pub seconds: f64,
}

impl Forecaster {
    pub fn new(problem: &ProblemInstance, cfg: &StsmConfig, alternate_trace: bool) -> Self {
        let starts = test_window_starts(problem, cfg);
        assert!(!starts.is_empty(), "test period shorter than one window");
        Forecaster {
            first_pass: Vec::with_capacity(starts.len()),
            starts,
            times_ms: Vec::new(),
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
            alternate_trace,
            seconds: 0.0,
        }
    }

    /// Test windows in one pass; `finish` needs the first pass complete.
    pub fn pass_len(&self) -> usize {
        self.starts.len()
    }

    pub fn made(&self) -> usize {
        self.times_ms.len()
    }

    pub fn run(
        &mut self,
        predictor: &mut Predictor<'_>,
        problem: &ProblemInstance,
        stretch: Quota,
        checks: &mut Checks,
    ) {
        let (n, t_out) = (problem.n(), predictor.cfg().t_out);
        let made_before = self.made();
        let t0 = Instant::now();
        while self.made() - made_before < stretch.min_ops || seconds_since(t0) < stretch.seconds {
            let (pass, w) = (self.made() / self.starts.len(), self.made() % self.starts.len());
            let start = self.starts[w];
            let traced = self.alternate_trace && (w + pass) % 2 == 0;
            if self.alternate_trace {
                telemetry::set_enabled(traced);
            }
            let t = Instant::now();
            let (pred, _) = predictor.predict_window_checked(problem, start);
            let ms = seconds_since(t) * 1e3;
            self.times_ms.push(ms);
            if self.alternate_trace {
                if traced { &mut self.traced_ms } else { &mut self.untraced_ms }.push(ms);
            }
            checks.require(pred.dims() == [n, t_out, 1], || {
                format!("forecast shape {:?}, expected [{n}, {t_out}, 1]", pred.dims())
            });
            checks.require(pred.data().iter().all(|v| v.is_finite()), || {
                format!("non-finite forecast for the window at step {start}")
            });
            let bits = bits_of(&pred);
            if pass == 0 {
                self.first_pass.push(bits);
            } else {
                checks.require(bits == self.first_pass[w], || {
                    format!("forecast of the window at step {start} changed between passes")
                });
            }
        }
        if self.alternate_trace {
            telemetry::set_enabled(true);
        }
        self.seconds += seconds_since(t0);
    }

    pub fn finish(
        self,
        problem: &ProblemInstance,
        cfg: &StsmConfig,
        checks: &mut Checks,
    ) -> Forecasts {
        assert_eq!(self.first_pass.len(), self.starts.len(), "the first pass is incomplete");
        let (metrics, cells) =
            check_metrics(problem, &self.starts, &self.first_pass, cfg.t_in, cfg.t_out, checks);
        let Forecaster { times_ms, traced_ms, untraced_ms, .. } = self;
        Forecasts { times_ms, traced_ms, untraced_ms, metrics, cells }
    }
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Scores one pass over the unobserved region with the program's
/// `Metrics`, and recomputes RMSE and MAE in f64 with the benchmark's own
/// inverse scaling.
fn check_metrics(
    problem: &ProblemInstance,
    starts: &[usize],
    forecasts: &[Vec<u32>],
    t_in: usize,
    t_out: usize,
    checks: &mut Checks,
) -> (Metrics, Vec<Cell>) {
    let scaler = problem.scaler;
    let (mut pred32, mut truth32, mut pred64, mut truth64, mut cells) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (&start, bits) in starts.iter().zip(forecasts) {
        for &u in &problem.unobserved {
            for p in 0..t_out {
                let scaled = f32::from_bits(bits[u * t_out + p]);
                let step = start + t_in + p;
                let truth = problem.dataset.value(u, step);
                pred32.push(scaler.inverse(scaled));
                truth32.push(truth);
                pred64.push(scaled as f64 * scaler.std as f64 + scaler.mean as f64);
                truth64.push(truth as f64);
                cells.push(Cell { sensor: u, step, last_input: start + t_in - 1 });
            }
        }
    }
    let metrics = Metrics::compute(&pred32, &truth32);
    let (rmse, mae) = reference::rmse_mae(&pred64, &truth64);
    for (name, program, own) in [("RMSE", metrics.rmse, rmse), ("MAE", metrics.mae, mae)] {
        checks.require((program - own).abs() <= 1e-4 * own.abs(), || {
            format!("program {name} {program} differs from the f64 recomputation {own}")
        });
    }
    (metrics, cells)
}

/// Both reference floors over the same targets as the model's RMSE:
/// (time-of-day average, inverse-distance persistence).
pub fn floors(problem: &ProblemInstance, cells: &[Cell]) -> (f64, f64) {
    let data = &problem.dataset;
    let grid = Grid { values: &data.values, t_total: data.t_total };
    let tod = reference::tod_floor(
        grid,
        &problem.observed,
        problem.train_time.clone(),
        data.steps_per_day,
        cells,
    );
    let idw = reference::idw_persistence_floor(grid, &data.coords, &problem.observed, cells);
    (tod, idw)
}

/// A served `Latest` forecast whose input window was clean and unmasked,
/// kept to compare against a batch forecast of the same sources.
pub struct Recorded {
    pub sources: Vec<f32>,
    pub abs_start: usize,
    pub forecast: Vec<u32>,
}

#[derive(Default)]
pub struct Served {
    pub request_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub ingest_us: Vec<f64>,
    pub imputed: usize,
    pub breaker_trips: u64,
    pub submitted: usize,
    pub completed: usize,
    pub failed: usize,
    pub seconds: f64,
    /// Completed requests per second of each stretch.
    pub stretch_rates: Vec<f64>,
    pub recorded: Vec<Recorded>,
}

/// Clean windows kept for the batch comparison.
const RECORDED_WINDOWS: usize = 32;

/// A submitted request: its handle, when it was submitted, and its input
/// window when that window was clean.
type InFlight = (stsm_serve::Pending, Instant, Option<(Vec<f32>, usize)>);

/// The serve phase: one generator thread streams the dataset (scaled, with
/// seeded faults) into the server a step at a time and submits one
/// `Latest` request per step, waiting for the oldest reply whenever
/// `outstanding` are in flight. It streams in stretches that each resume
/// the stream where the last one stopped and end once every request in
/// flight is answered. The faults are sparse point NaNs on every observed
/// sensor plus one sensor blacked out long enough to trip its circuit
/// breaker.
pub struct Streamer<'a> {
    server: &'a Server,
    problem: &'a ProblemInstance,
    t_in: usize,
    t_out: usize,
    outstanding: usize,
    points: FaultSchedule,
    blackout: FaultSchedule,
    /// The last `t_in` steps ingested, and the next step's index.
    window: VecDeque<Vec<f32>>,
    k: usize,
    stats_before: ServeStats,
    out: Served,
}

impl<'a> Streamer<'a> {
    /// Ingests the first input window.
    pub fn new(
        server: &'a Server,
        problem: &'a ProblemInstance,
        cfg: &StsmConfig,
        outstanding: usize,
        seed: u64,
    ) -> Self {
        let (n, t_total, t_in) = (problem.n(), problem.dataset.t_total, cfg.t_in);
        let observed = &problem.observed;
        // Half a NaN per input window on average: about 60% of windows are
        // clean, the rest go through imputation.
        let points = FaultSchedule::new(
            &FaultPlan {
                seed: seed ^ 0x5eed_0001,
                nan_rate: 0.5 / (observed.len() * t_in) as f64,
                sensors: Some(observed.clone()),
                ..FaultPlan::default()
            },
            n,
            t_total,
        );
        let victim = observed[(seed as usize).wrapping_mul(2_654_435_761) % observed.len()];
        let blackout = FaultSchedule::new(
            &FaultPlan {
                seed: seed ^ 0x5eed_0002,
                dropout_windows: 1,
                // Starts within half a window of the first request and lasts
                // four windows: the breaker trips after three.
                dropout_len: 4 * t_in,
                sensors: Some(vec![victim]),
                time_range: Some(t_in..5 * t_in + t_in / 2),
                ..FaultPlan::default()
            },
            n,
            t_total,
        );
        let mut streamer = Streamer {
            server,
            problem,
            t_in,
            t_out: cfg.t_out,
            outstanding,
            points,
            blackout,
            window: VecDeque::with_capacity(t_in + 1),
            k: 0,
            stats_before: server.stats(),
            out: Served::default(),
        };
        for _ in 0..t_in {
            streamer.ingest();
        }
        streamer
    }

    pub fn submitted(&self) -> usize {
        self.out.submitted
    }

    pub fn seconds(&self) -> f64 {
        self.out.seconds
    }

    fn reading(&self, k: usize) -> Vec<f32> {
        let p = self.problem;
        let t = k % p.dataset.t_total;
        p.observed
            .iter()
            .map(|&g| self.blackout.corrupt(g, t, self.points.corrupt(g, t, p.scaled_value(g, t))))
            .collect()
    }

    fn ingest(&mut self) {
        let step = self.reading(self.k);
        let t = Instant::now();
        self.server.ingest_step(&step);
        self.out.ingest_us.push(seconds_since(t) * 1e6);
        if self.window.len() == self.t_in {
            self.window.pop_front();
        }
        self.window.push_back(step);
        self.k += 1;
    }

    fn receive(&mut self, (pending, submitted, clean): InFlight, checks: &mut Checks) {
        let (n, t_out) = (self.problem.n(), self.t_out);
        let out = &mut self.out;
        match pending.wait() {
            Ok(resp) => {
                out.request_ms.push(seconds_since(submitted) * 1e3);
                out.queue_wait_ms.push(resp.queued.as_secs_f64() * 1e3);
                out.compute_ms.push(resp.compute.as_secs_f64() * 1e3);
                let q = &resp.quality;
                out.imputed += q.imputed_blend + q.imputed_carry + q.unrecoverable;
                out.completed += 1;
                let data = resp.prediction.data();
                checks.require(resp.prediction.dims() == [n, t_out, 1], || {
                    format!("served forecast shape {:?}", resp.prediction.dims())
                });
                checks.require(data.iter().all(|v| v.is_finite()), || {
                    "non-finite served forecast".to_string()
                });
                if let Some((sources, abs_start)) = clean {
                    if resp.breaker_masked == 0 && out.recorded.len() < RECORDED_WINDOWS {
                        let forecast = bits_of(&resp.prediction);
                        out.recorded.push(Recorded { sources, abs_start, forecast });
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                checks.require(false, || format!("request failed: {e}"));
            }
        }
    }

    pub fn run(&mut self, stretch: Quota, checks: &mut Checks) {
        let (t_in, n_obs) = (self.t_in, self.problem.observed.len());
        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        let (submitted_before, completed_before) = (self.out.submitted, self.out.completed);
        let t0 = Instant::now();
        while self.out.submitted - submitted_before < stretch.min_ops
            || seconds_since(t0) < stretch.seconds
        {
            self.ingest();
            let clean = self.window.iter().all(|s| s.iter().all(|v| v.is_finite()));
            let clean = clean.then(|| {
                let mut sources = vec![0.0f32; n_obs * t_in];
                for (t, step) in self.window.iter().enumerate() {
                    for (s, &v) in step.iter().enumerate() {
                        sources[s * t_in + t] = v;
                    }
                }
                (sources, self.k - t_in)
            });
            let t = Instant::now();
            let pending = self.server.submit(ForecastRequest::latest());
            self.out.submit_us.push(seconds_since(t) * 1e6);
            self.out.submitted += 1;
            match pending {
                Ok(p) => in_flight.push_back((p, t, clean)),
                Err(e) => {
                    self.out.failed += 1;
                    checks.require(false, || format!("request rejected: {e}"));
                }
            }
            if in_flight.len() >= self.outstanding {
                let oldest = in_flight.pop_front().expect("in flight");
                self.receive(oldest, checks);
            }
        }
        while let Some(f) = in_flight.pop_front() {
            self.receive(f, checks);
        }
        let seconds = seconds_since(t0);
        self.out.seconds += seconds;
        self.out.stretch_rates.push((self.out.completed - completed_before) as f64 / seconds);
    }

    /// Checks the server's counters against the generator's own.
    pub fn finish(self, checks: &mut Checks) -> Served {
        let Streamer { server, k, stats_before, mut out, .. } = self;
        let stats = server.stats();
        out.breaker_trips = stats.breaker_trips - stats_before.breaker_trips;
        let delta = |after: u64, before: u64| (after - before) as usize;
        let accepted = delta(stats.accepted, stats_before.accepted);
        let completed = delta(stats.completed, stats_before.completed);
        let ingested = delta(stats.ingested_steps, stats_before.ingested_steps);
        let rejected =
            stats.overloaded + stats.deadline_exceeded + stats.cold_start + stats.bad_request
                - (stats_before.overloaded
                    + stats_before.deadline_exceeded
                    + stats_before.cold_start
                    + stats_before.bad_request);
        let submitted = out.submitted;
        checks.require(
            accepted == submitted && completed == out.completed && ingested == k && rejected == 0,
            || {
                format!(
                    "server counted {accepted} accepted, {completed} completed, {ingested} \
                     ingested, {rejected} rejected; the generator {submitted} submitted, {} \
                     answered, {k} ingested",
                    out.completed
                )
            },
        );
        checks.require(stats.worker_panics == stats_before.worker_panics, || {
            "a worker panicked".into()
        });
        checks.require(out.breaker_trips >= 1, || "the blackout tripped no circuit breaker".into());
        checks.require(!out.recorded.is_empty(), || "no clean served window was recorded".into());
        out
    }
}

/// Neighbours of sampled observed sensors checked per run, and how many
/// ranked neighbours of each.
const DTW_SAMPLED: usize = 8;
const DTW_RANKED: usize = 4;

/// The DTW neighbours the program ranks for a seeded sample of observed
/// sensors must be the nearest by the benchmark's own banded DTW over every
/// candidate, in order (ties allowed, to f32 rounding).
pub fn check_dtw_neighbours(
    problem: &ProblemInstance,
    cfg: &StsmConfig,
    seed: u64,
    checks: &mut Checks,
) {
    let q = cfg.q_kk.max(cfg.q_ku);
    let ctx =
        DtwContext::with_options(problem, cfg.dtw_band, cfg.dtw_downsample, cfg.dtw_candidates, q);
    let n = ctx.n_observed();
    let alive = vec![true; n];
    let mut state = seed ^ 0xd7a5_1eed;
    let close = |a: f64, b: f64| a <= b * (1.0 + 1e-5) + 1e-9;
    for _ in 0..DTW_SAMPLED {
        let i = (splitmix64(&mut state) % n as u64) as usize;
        let links = ctx.surviving_links(i, DTW_RANKED, &alive);
        let dist: Vec<f64> = (0..n)
            .map(|j| {
                if j == i {
                    f64::INFINITY
                } else {
                    reference::dtw_banded(ctx.profile(i), ctx.profile(j), ctx.band())
                }
            })
            .collect();
        let chosen: Vec<f64> = links.iter().map(|&j| dist[j as usize]).collect();
        let nearest_other = (0..n)
            .filter(|j| !links.contains(&(*j as u32)))
            .map(|j| dist[j])
            .fold(f64::INFINITY, f64::min);
        let ordered = chosen.windows(2).all(|w| close(w[0], w[1]));
        let worst = chosen.iter().copied().fold(0.0, f64::max);
        checks.require(
            links.len() == DTW_RANKED.min(n - 1) && ordered && close(worst, nearest_other),
            || {
                format!(
                    "DTW neighbours {links:?} of observed sensor {i} (distances {chosen:?}) are \
                     not the nearest; the next candidate is at {nearest_other}"
                )
            },
        );
    }
}

/// SplitMix64: the benchmark's own seeded sampler.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Served clean windows must be bitwise equal to a batch forecast of the
/// same sources.
pub fn check_recorded(
    predictor: &mut Predictor<'_>,
    problem: &ProblemInstance,
    recorded: &[Recorded],
    checks: &mut Checks,
) {
    for r in recorded {
        let mut sources = r.sources.clone();
        let (pred, quality) = predictor.predict_sources_checked(problem, &mut sources, r.abs_start);
        checks.require(quality.non_finite == 0 && bits_of(&pred) == r.forecast, || {
            format!("served forecast of the window at step {} differs from batch", r.abs_start)
        });
    }
}

/// The p90 of `samples`, which must have ten samples beyond it.
pub fn p90(samples: &[f64]) -> f64 {
    assert!(stats::tail_is_backed(samples.len(), 0.9), "{} samples back no p90", samples.len());
    stats::percentile(samples, 0.9)
}
