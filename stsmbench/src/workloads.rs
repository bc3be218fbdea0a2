//! The three workloads. Each runs the whole STSM pipeline — set-up,
//! training, forecasting over the test period, streaming serving — so that
//! every end-to-end metric is measured on every workload, but each puts its
//! weight on one part of it:
//!
//! * `pemsbay_train` — the paper's fit: PEMS-Bay trained for a fixed epoch
//!   budget (repeated until the run length is spent), then evaluated.
//! * `metro_forecast` — forward-only inference at metro scale (~1k
//!   sensors), repeated passes over the test period for the run length.
//! * `pemsbay_serve` — `stsm-serve` over PEMS-Bay with streaming faulted
//!   ingest for the run length, kernel pool at one thread.

use crate::args::Args;
use crate::host;
use crate::phases::{
    self, seconds_since, BuiltProblem, Checks, Forecaster, Forecasts, Served, Streamer,
};
use crate::report::Values;
use crate::schedule::{Quota, Schedule};
use crate::stats::median;
use crate::trace;
use std::sync::Arc;
use std::time::Instant;
use stsm_core::{
    DtwCandidates, InferAssets, Predictor, ProblemInstance, SharedModel, StsmConfig, TrainedStsm,
};
use stsm_serve::{ServeConfig, Server};
use stsm_synth::{presets, DatasetConfig};
use stsm_tensor::telemetry::{self, TelemetryReport};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PemsbayTrain,
    MetroForecast,
    PemsbayServe,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::PemsbayTrain, Workload::MetroForecast, Workload::PemsbayServe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PemsbayTrain => "pemsbay_train",
            Workload::MetroForecast => "metro_forecast",
            Workload::PemsbayServe => "pemsbay_serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests the serve phase keeps in flight. `pemsbay_serve` keeps
    /// every worker busy with one more queued behind it. Elsewhere the one
    /// worker forwards on the whole kernel pool, so a second request in
    /// flight would only set the generator's ingest and submit work against
    /// the pool's threads for the CPUs.
    pub fn outstanding(self, workers: usize) -> usize {
        match self {
            Workload::PemsbayServe => 2 * workers,
            _ => workers,
        }
    }

    /// Kernel pool size. Serving keeps the pool at one thread so that the
    /// `nproc` serve workers do not contend with pool helpers.
    pub fn pool_threads(self, nproc: usize) -> usize {
        match self {
            Workload::PemsbayServe => 1,
            _ => nproc,
        }
    }
}

/// Sizes of the workloads; smoke runs shrink them so every check runs in
/// seconds.
struct Sizes {
    pems_days: usize,
    metro_sensors: usize,
    metro_days: usize,
    /// Epoch budget of the PEMS-Bay fit.
    fit_epochs: usize,
    /// Brief training of the model the forecast and serve workloads use,
    /// repeated whole for half the run length.
    prep_epochs: usize,
    prep_windows_per_epoch: usize,
    /// Set-ups per run; `setup_s` is their median. A metro set-up costs
    /// about six PEMS-Bay ones.
    pems_setups: usize,
    metro_setups: usize,
}

const FULL: Sizes = Sizes {
    pems_days: 8,
    metro_sensors: 1000,
    metro_days: 4,
    fit_epochs: 8,
    prep_epochs: 4,
    prep_windows_per_epoch: 10,
    pems_setups: 9,
    metro_setups: 5,
};

const SMOKE: Sizes = Sizes {
    pems_days: 8,
    metro_sensors: 200,
    metro_days: 3,
    fit_epochs: 8,
    prep_epochs: 1,
    prep_windows_per_epoch: 8,
    pems_setups: 2,
    metro_setups: 2,
};

/// Seed of every workload's dataset (the CLI's default). The dataset is
/// one fixed instance per workload so that every run does the same work:
/// across dataset seeds the spatial adjacency's density, and with it the
/// cost of a GCN hop, moves by up to half. `--seed` drives everything
/// else: weight initialisation, masking draws, training-window order, the
/// served fault stream and the sampled checks.
const DATASET_SEED: u64 = 42;

/// Samples behind every latency quantile: the p90 needs ten beyond it.
const MIN_SAMPLES: usize = 100;

/// The full STSM (selective masking and contrastive loss) with the paper's
/// per-dataset settings and exact DTW candidates.
fn model_cfg(data: &DatasetConfig, seed: u64, epochs: usize, windows: usize) -> StsmConfig {
    StsmConfig {
        epochs,
        windows_per_epoch: windows,
        dtw_candidates: DtwCandidates::Exact,
        seed,
        ..StsmConfig::default()
    }
    .for_dataset(&data.name)
}

/// What one run measured and found.
pub struct Outcome {
    pub e2e: Values,
    pub layers: Values,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Facts for the run record, as JSON values.
    pub notes: Vec<(&'static str, String)>,
    /// The per-layer report of a traced run.
    pub report: String,
}

struct Run<'a> {
    args: &'a Args,
    workers: usize,
    out: Outcome,
}

/// The interleaved phases, in the order of their quotas.
const FORECAST: usize = 0;
const SERVE: usize = 1;

/// Length of one interleaved forecast or serve stretch.
const STRETCH_SECONDS: f64 = 0.5;

pub fn run(args: &Args) -> Outcome {
    // Serve workers times pool threads fill the CPUs without
    // oversubscribing them: `nproc` workers beside a one-thread pool on
    // `pemsbay_serve`, one worker beside the full pool elsewhere.
    let nproc = host::nproc();
    let workers = (nproc / args.workload.pool_threads(nproc)).max(1);
    let mut run = Run {
        args,
        workers,
        out: Outcome {
            e2e: Values::default(),
            layers: Values::default(),
            attempted: 0,
            failed: 0,
            checks: Checks::default(),
            notes: Vec::new(),
            report: String::new(),
        },
    };
    let sizes = if args.smoke { &SMOKE } else { &FULL };
    match args.workload {
        Workload::PemsbayTrain => run.pemsbay_train(sizes),
        Workload::MetroForecast => run.metro_forecast(sizes),
        Workload::PemsbayServe => run.pemsbay_serve(sizes),
    }
    let rss = host::peak_rss_mib().expect("VmHWM in /proc/self/status");
    run.out.e2e.set("peak_rss_mb", rss);
    run.out.notes.push(("serve_workers", workers.to_string()));
    run.out
}

impl Run<'_> {
    fn pemsbay_train(&mut self, s: &Sizes) {
        let data = presets::pems_bay(s.pems_days, DATASET_SEED);
        let cfg =
            model_cfg(&data, self.args.seed, s.fit_epochs, StsmConfig::default().windows_per_epoch);
        let (problem, ()) = self.setups(&data, s.pems_setups, |_| ());
        self.probe(&problem, &cfg);
        let model = self.train(&problem, &cfg, self.args.seconds, true);
        let assets = InferAssets::new(&cfg, &problem);
        let mut predictor =
            Predictor::new_shared_with_assets(SharedModel::F32(model.clone()), &assets);
        let (server, start_s) = self.start_server(&problem, &model);
        self.out.layers.set("serve.start_s", start_s);
        // The test RMSE is not checked against the time-of-day floor: at
        // this budget some seeds lose to it (seed 16: 10.34 against 8.65),
        // so such a check would fail runs by seed. The run record carries
        // both floors beside every RMSE.
        let quotas = self.quotas(self.secondary(), self.secondary());
        self.forecast_and_serve(quotas, &problem, &cfg, &mut predictor, &server);
    }

    fn metro_forecast(&mut self, s: &Sizes) {
        let data = presets::metro(s.metro_sensors, s.metro_days, DATASET_SEED);
        let cfg = model_cfg(&data, self.args.seed, s.prep_epochs, s.prep_windows_per_epoch);
        let model =
            self.train(&phases::build_problem(&data).problem, &cfg, self.secondary(), false);
        let (problem, mut predictor) = self.setups(&data, s.metro_setups, |p| {
            let assets = InferAssets::new(&cfg, p);
            Predictor::new_shared_with_assets(SharedModel::F32(model.clone()), &assets)
        });
        self.probe(&problem, &cfg);
        phases::check_dtw_neighbours(&problem, &cfg, self.args.seed, &mut self.out.checks);
        let (server, start_s) = self.start_server(&problem, &model);
        self.out.layers.set("serve.start_s", start_s);
        let quotas = self.quotas(self.args.seconds, self.secondary());
        self.forecast_and_serve(quotas, &problem, &cfg, &mut predictor, &server);
    }

    fn pemsbay_serve(&mut self, s: &Sizes) {
        let data = presets::pems_bay(s.pems_days, DATASET_SEED);
        let cfg = model_cfg(&data, self.args.seed, s.prep_epochs, s.prep_windows_per_epoch);
        let model =
            self.train(&phases::build_problem(&data).problem, &cfg, self.secondary(), false);
        let mut starts = Vec::new();
        let serve_cfg = self.serve_cfg();
        let (problem, server) = self.setups(&data, s.pems_setups, |p| {
            let t = Instant::now();
            let shared = SharedModel::F32(Arc::clone(&model));
            let server = Server::start(Arc::clone(p), shared, serve_cfg.clone());
            starts.push(seconds_since(t));
            server
        });
        self.out.layers.set("serve.start_s", median(&starts));
        self.probe(&problem, &cfg);
        let assets = InferAssets::new(&cfg, &problem);
        let mut predictor = Predictor::new_shared_with_assets(SharedModel::F32(model), &assets);
        let quotas = self.quotas(self.secondary(), self.args.seconds);
        self.forecast_and_serve(quotas, &problem, &cfg, &mut predictor, &server);
    }

    /// Phases other than a workload's own run for half the run length, so
    /// that their metrics also rest on seconds of samples.
    fn secondary(&self) -> f64 {
        self.args.seconds / 2.0
    }

    /// Quotas of forecasting and serving; every latency quantile rests on
    /// at least `MIN_SAMPLES` operations.
    fn quotas(&self, forecast_s: f64, serve_s: f64) -> [Quota; 2] {
        [
            Quota { seconds: forecast_s, min_ops: MIN_SAMPLES },
            Quota { seconds: serve_s, min_ops: MIN_SAMPLES },
        ]
    }

    /// Builds the problem (and whatever `tail` adds) `repeats` times and
    /// reports the median set-up time; the last build is kept.
    fn setups<T>(
        &mut self,
        data: &DatasetConfig,
        repeats: usize,
        mut tail: impl FnMut(&Arc<ProblemInstance>) -> T,
    ) -> (Arc<ProblemInstance>, T) {
        let (mut total, mut generate, mut build) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let BuiltProblem { problem, generate_s, build_s } = phases::build_problem(data);
            let problem = Arc::new(problem);
            let extra = tail(&problem);
            total.push(seconds_since(t0));
            generate.push(generate_s);
            build.push(build_s);
            last = Some((problem, extra));
            self.out.attempted += 1;
        }
        self.out.e2e.set("setup_s", median(&total));
        self.out.layers.set("synth.generate_s", median(&generate));
        self.out.layers.set("problem.build_s", median(&build));
        last.expect("at least one set-up")
    }

    /// Traced runs time the set-up layers one call at a time.
    fn probe(&mut self, problem: &ProblemInstance, cfg: &StsmConfig) {
        if self.args.trace {
            let density = trace::probe_layers(problem, cfg, &mut self.out.layers);
            self.out.notes.push(("spatial_adjacency_density", format!("{density:?}")));
        }
    }

    /// Trains whole rounds of `cfg`'s epoch budget until `min_seconds` have
    /// passed (at least one round). Every round trains the same model, so
    /// further rounds only add timing samples. Training runs before any
    /// inference session exists on this thread: a session's buffer cache
    /// would also take in the buffers training frees.
    fn train(
        &mut self,
        problem: &ProblemInstance,
        cfg: &StsmConfig,
        min_seconds: f64,
        expect_descent: bool,
    ) -> Arc<TrainedStsm> {
        telemetry::reset();
        let (mut windows, mut seconds) = (0, 0.0);
        let model = loop {
            let trained = phases::train_round(problem, cfg, expect_descent, &mut self.out.checks);
            windows += trained.windows;
            seconds += trained.seconds;
            if seconds >= min_seconds {
                break trained.model;
            }
        };
        self.out.e2e.set("train_windows_per_s", windows as f64 / seconds);
        self.out.attempted += windows as u64;
        if self.args.trace {
            trace::train_layers(
                &telemetry::snapshot(),
                cfg,
                problem.n_observed(),
                windows,
                &mut self.out.layers,
                &mut self.out.checks,
                &mut self.out.report,
            );
        }
        model
    }

    /// Runs the forecast and the serve phase. Untraced runs interleave
    /// them in short stretches (see `schedule`); traced runs run each phase
    /// whole, one after the other, so that each phase's telemetry is its
    /// own. The served clean windows are then checked against batch
    /// forecasts from `predictor`, which has the server's model and assets.
    fn forecast_and_serve(
        &mut self,
        quotas: [Quota; 2],
        problem: &ProblemInstance,
        cfg: &StsmConfig,
        predictor: &mut Predictor<'_>,
        server: &Server,
    ) {
        let trace = self.args.trace;
        let mut forecaster = Forecaster::new(problem, cfg, trace);
        // The RMSE is scored over one whole pass.
        let mut quotas = quotas;
        quotas[FORECAST].min_ops = quotas[FORECAST].min_ops.max(forecaster.pass_len());
        let mut schedule = Schedule::new(&quotas, !trace);
        let outstanding = self.args.workload.outstanding(self.workers);
        let mut streamer = Streamer::new(server, problem, cfg, outstanding, self.args.seed);
        let mut infer_telemetry = None;
        let mut stretches = [0usize; 2];
        while let Some(phase) = schedule.next() {
            stretches[phase] += 1;
            let stretch = if trace {
                schedule.remaining(phase)
            } else {
                Quota { seconds: STRETCH_SECONDS, min_ops: 1 }
            };
            telemetry::reset();
            if phase == FORECAST {
                let (seconds, made) = (forecaster.seconds, forecaster.made());
                forecaster.run(predictor, problem, stretch, &mut self.out.checks);
                schedule.spend(FORECAST, forecaster.seconds - seconds, forecaster.made() - made);
                infer_telemetry = trace.then(telemetry::snapshot);
            } else {
                let (seconds, submitted) = (streamer.seconds(), streamer.submitted());
                streamer.run(stretch, &mut self.out.checks);
                schedule.spend(
                    SERVE,
                    streamer.seconds() - seconds,
                    streamer.submitted() - submitted,
                );
            }
        }
        self.out.notes.push(("stretches_forecast_serve", format!("{stretches:?}")));
        let forecasts = forecaster.finish(problem, cfg, &mut self.out.checks);
        self.record_forecasts(forecasts, infer_telemetry, problem, cfg);
        let served = streamer.finish(&mut self.out.checks);
        phases::check_recorded(predictor, problem, &served.recorded, &mut self.out.checks);
        self.record_served(served);
    }

    fn record_forecasts(
        &mut self,
        f: Forecasts,
        telemetry: Option<TelemetryReport>,
        problem: &ProblemInstance,
        cfg: &StsmConfig,
    ) {
        self.out.notes.push(("forecast_ms_p50", format!("{:?}", median(&f.times_ms))));
        self.out.e2e.set("forecast_ms.p90", phases::p90(&f.times_ms));
        self.out.e2e.set("test_rmse", f.metrics.rmse);
        self.out.attempted += f.times_ms.len() as u64;
        if let Some(report) = telemetry {
            trace::infer_layers(
                &report,
                cfg,
                problem.n(),
                &f.traced_ms,
                &f.untraced_ms,
                &mut self.out.layers,
                &mut self.out.report,
            );
        }
        let (tod, idw) = phases::floors(problem, &f.cells);
        self.out.notes.push(("test_mae", format!("{:?}", f.metrics.mae)));
        self.out.notes.push(("floor_time_of_day_rmse", format!("{tod:?}")));
        self.out.notes.push(("floor_idw_persistence_rmse", format!("{idw:?}")));
    }

    fn record_served(&mut self, served: Served) {
        self.out.notes.push(("request_ms_p50", format!("{:?}", median(&served.request_ms))));
        let (e2e, layers) = (&mut self.out.e2e, &mut self.out.layers);
        e2e.set("request_ms.p90", phases::p90(&served.request_ms));
        e2e.set("requests_per_s", median(&served.stretch_rates));
        layers.set("serve.queue_wait_ms.p50", median(&served.queue_wait_ms));
        layers.set("serve.compute_ms.p50", median(&served.compute_ms));
        layers.set("serve.submit_us.p50", median(&served.submit_us));
        layers.set("serve.ingest_us.p50", median(&served.ingest_us));
        layers.set("serve.imputed_per_request", served.imputed as f64 / served.completed as f64);
        layers.set("serve.breaker_trips", served.breaker_trips as f64);
        self.out.attempted += served.submitted as u64;
        self.out.failed += served.failed as u64;
    }

    /// No deadline, and the default queue depth, which is deeper than the
    /// requests kept outstanding, so nothing is shed.
    fn serve_cfg(&self) -> ServeConfig {
        ServeConfig { workers: self.workers, ..ServeConfig::default() }
    }

    fn start_server(
        &self,
        problem: &Arc<ProblemInstance>,
        model: &Arc<TrainedStsm>,
    ) -> (Server, f64) {
        let t = Instant::now();
        let shared = SharedModel::F32(Arc::clone(model));
        let server = Server::start(Arc::clone(problem), shared, self.serve_cfg());
        (server, seconds_since(t))
    }
}
