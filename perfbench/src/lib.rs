//! End-to-end and per-layer benchmark of the OPPROX workspace.
//!
//! Three workloads, each doing most of its work in different layers:
//! `train` (profiling and fitting), `plan` (the per-job optimize path:
//! optimizer, validation executions and the adaptive controller) and
//! `serve` (parse, queue, handler, serialize and socket of the daemon).
//! End-to-end metrics come from untraced runs; `--trace 1` re-runs the
//! same seed with timers around the calls into each layer, placed here
//! in the benchmark rather than in the program. Every workload reports
//! the same metric names ([`END_TO_END`], [`PER_LAYER`]); what each one
//! measures on each workload is in `README.md`.

mod counting;
pub mod gen;
mod host;
mod plan;
pub mod report;
mod serve;
mod train;

use opprox_approx_rt::ApproxApp;
use report::{Metrics, Tally};
use std::time::Instant;

/// Seconds since `t`.
pub(crate) fn elapsed_s(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["train", "plan", "serve"];

/// End-to-end metrics and their units: every untraced run reports each.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_geomean_ms", "ms"),
    ("models_below_target", "count"),
    ("plan_speedup", "x"),
];

/// Per-layer metrics and their units: every traced run reports each,
/// as 0 for a layer its workload does not call into.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("apps.runs", "count"),
    ("apps.run_s", "s"),
    ("evaluator.executions", "count"),
    ("evaluator.cache_hits", "count"),
    ("evaluator.hit_ratio", "share"),
    ("sampling.s", "s"),
    ("modeling.s", "s"),
    ("modeling.base_fit_s", "s"),
    ("modeling.combined_fit_s", "s"),
    ("modeling.fits", "count"),
    ("modeling.cv_solves", "count"),
    ("modeling.degrees_tried", "count"),
    ("train.self_check_s", "s"),
    ("train.layer_gap_s", "s"),
    ("optimizer.solves", "count"),
    ("optimizer.solve_p50_us", "us"),
    ("request.candidates_tried", "count"),
    ("request.fallback_share", "share"),
    ("control.replans", "count"),
    ("api.parse_p50_us", "us"),
    ("api.serialize_p50_us", "us"),
    ("serve.handler_p50_us", "us"),
    ("serve.queue_p50_us", "us"),
    ("serve.plan_cache_hit_ratio", "share"),
    ("serve.shed", "count"),
    ("server.transport_p50_us", "us"),
    ("server.threads", "count"),
    ("serve.p99_us", "us"),
    ("telemetry.metrics_reply_bytes", "bytes"),
    ("telemetry.scrape_p50_ms", "ms"),
    ("telemetry.rss_growth_mb", "MB"),
    ("trace.overhead_share", "share"),
    ("host.steal_share", "share"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message naming the flag that is missing, unknown or invalid.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone());
                }
                "--workload" => return Err(bad("one of train, plan, serve")),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("seconds in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Builds the apps a workload runs over. The benchmark passes
/// `opprox_apps::registry::all_apps`; its tests pass a cheap subset.
pub type Registry<'a> = &'a dyn Fn() -> Vec<Box<dyn ApproxApp>>;

/// Runs the workload `args` names over the apps `registry` builds and
/// returns what it measured: untraced, the end-to-end metrics; traced,
/// the per-layer metrics of the layers it calls into, plus
/// `host.steal_share`. Prints the `# run:` line.
pub fn measure(args: &Args, registry: Registry, tally: &mut Tally) -> Metrics {
    let before = host::CpuTicks::now();
    let mut metrics = match args.workload.as_str() {
        "train" => train::run(args, registry, tally),
        "plan" => plan::run(args, registry, tally),
        _ => serve::run(args, registry, tally),
    };
    let steal = host::CpuTicks::now().steal_share_since(before);
    let (threads, connections) = match args.workload.as_str() {
        "serve" => (serve::CONNECTIONS, serve::CONNECTIONS),
        _ => (1, 0),
    };
    println!(
        "# run: workload={} seed={} trace={} nproc={} commit={} generator_threads={threads} \
         connections={connections} host.steal_share={steal:.5}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::commit(),
    );
    if args.trace {
        metrics.put("host.steal_share", steal, "share");
    }
    metrics
}

/// Runs a workload (see [`measure`]) and returns its result: every
/// metric of [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), in
/// table order. A per-layer metric the workload did not measure is 0,
/// its layer not called; an end-to-end metric missing, a unit that
/// differs from the table's, or a value that is not finite counts as a
/// failed operation.
pub fn run(args: &Args, registry: Registry) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let measured = measure(args, registry, &mut tally);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in table {
        let found = measured.0.iter().find(|(n, _, _)| n == name);
        match found {
            Some((_, value, u)) => {
                if *u != unit {
                    tally.record(Some(format!("metric {name} in {u}, not {unit}")));
                }
                metrics.put(name, *value, unit);
            }
            None if args.trace => metrics.put(name, 0.0, unit),
            None => {
                tally.record(Some(format!("metric {name} not measured")));
                metrics.put(name, 0.0, unit);
            }
        }
    }
    for (name, value, _) in &measured.0 {
        if !value.is_finite() {
            tally.record(Some(format!("metric {name} is {value}")));
        }
        if !table.iter().any(|(n, _)| n == name) {
            tally.record(Some(format!("metric {name} is not in the table")));
        }
    }
    (tally, metrics)
}
