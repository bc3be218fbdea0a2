//! End-to-end STSM benchmark: runs the real pipeline on one named workload
//! and prints its metrics as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path stsmbench/Cargo.toml -- \
//!     --workload pemsbay_train --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with telemetry off;
//! `--trace 1` turns telemetry on and prints the per-layer metrics instead,
//! after a per-layer report. `--smoke` shrinks every workload so its checks
//! run in seconds. See README.md.

mod args;
mod host;
mod phases;
mod reference;
mod report;
mod schedule;
mod stats;
mod trace;
mod workloads;

/// Layers whose figures the tree of the per-layer report does not show.
const SETUP_AND_SERVE_LAYERS: [&str; 8] =
    ["synth", "problem", "graph", "dtw", "pseudo", "masking", "predictor", "serve"];

fn main() {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stsmbench: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let nproc = host::nproc();
    let pool_threads = args.workload.pool_threads(nproc);
    // The program reads its knobs from STSM_* variables; the benchmark
    // fixes them so that only the generated inputs vary between runs. The
    // pool reads its size once, at first use, which is after this.
    let inherited: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("STSM_")).collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    std::env::set_var("STSM_NUM_THREADS", pool_threads.to_string());
    stsm_tensor::telemetry::set_enabled(args.trace);

    let drift_before = host::drift_marker_ms();
    let steal_before = host::steal_ticks();
    let outcome = workloads::run(&args);
    let steal = host::steal_ticks().zip(steal_before).map(|(after, before)| after - before);
    let drift_after = host::drift_marker_ms();

    let correct = outcome.checks.passed();
    let mut record = vec![
        ("workload", report::quoted(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", args.trace.to_string()),
        ("smoke", args.smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", report::quoted(&host::cpu_model())),
        ("pool_threads", stsm_tensor::pool::num_threads().to_string()),
        ("git_revision", report::quoted(&host::git_revision())),
        ("drift_marker_ms_before", format!("{drift_before:?}")),
        ("drift_marker_ms_after", format!("{drift_after:?}")),
        ("steal_ticks", steal.map_or("null".into(), |t| t.to_string())),
    ];
    record.extend(outcome.notes);
    if args.trace {
        print!("{}", outcome.report);
        println!("set-up and serving layers (benchmark-timed calls and counts):");
        for (name, unit) in report::PER_LAYER {
            let layer = name.split('.').next().unwrap_or_default();
            if SETUP_AND_SERVE_LAYERS.contains(&layer) {
                let value = outcome.layers.get(name).unwrap_or(f64::NAN);
                println!("  {name:<28}{value:>14.6} {unit}");
            }
        }
    }
    println!("{}", report::object(&[("record", report::object(&record))]));
    let (values, table) = if args.trace {
        (&outcome.layers, &report::PER_LAYER[..])
    } else {
        (&outcome.e2e, &report::END_TO_END[..])
    };
    let (correct, line) =
        report::result_line(correct, outcome.attempted, outcome.failed, values, table);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
