//! The benchmark's own checks, run over two cheap apps (Stencil and
//! StreamAgg) so they finish in seconds: every workload reports every
//! metric of the tables with zero failed operations and measures the
//! layers it calls into, one seed reproduces every deterministic metric
//! bit-exactly, and a holdout seed changes the generated inputs.

use opprox_approx_rt::ApproxApp;
use opprox_perfbench::gen::{self, AppShape};
use opprox_perfbench::report::{Metrics, Tally};
use opprox_perfbench::{measure, run, Args, END_TO_END, PER_LAYER};

fn cheap_apps() -> Vec<Box<dyn ApproxApp>> {
    vec![
        Box::new(opprox_apps::Stencil::new()),
        Box::new(opprox_apps::StreamAgg::new()),
    ]
}

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
    }
}

fn assert_clean(workload: &str, trace: bool, tally: &Tally) {
    assert_eq!(
        tally.failed, 0,
        "{workload} (trace {trace}) failed operations: {:?}",
        tally.failures
    );
    assert!(tally.attempted > 0, "{workload} attempted nothing");
}

fn run_cheap(workload: &str, seed: u64, trace: bool) -> Metrics {
    let (tally, metrics) = run(&args(workload, seed, trace), &cheap_apps);
    assert_clean(workload, trace, &tally);
    metrics
}

/// The profiling, fitting and self-check layers every traced training
/// reports (`train`'s work, `plan`'s and `serve`'s set-up).
const TRAINING_STAGES: [&str; 9] = [
    "sampling.s",
    "modeling.s",
    "modeling.base_fit_s",
    "modeling.combined_fit_s",
    "modeling.fits",
    "modeling.cv_solves",
    "modeling.degrees_tried",
    "train.self_check_s",
    "train.layer_gap_s",
];

/// Per-layer metrics each workload measures itself (traced runs), on
/// top of [`TRAINING_STAGES`]; the rest of [`PER_LAYER`] reads 0 there.
const MEASURED_LAYERS: [(&str, &[&str]); 3] = [
    (
        "train",
        &[
            "apps.runs",
            "apps.run_s",
            "evaluator.executions",
            "evaluator.cache_hits",
            "evaluator.hit_ratio",
            "optimizer.solves",
            "optimizer.solve_p50_us",
            "trace.overhead_share",
            "host.steal_share",
        ],
    ),
    (
        "plan",
        &[
            "apps.runs",
            "apps.run_s",
            "evaluator.executions",
            "evaluator.cache_hits",
            "evaluator.hit_ratio",
            "optimizer.solves",
            "optimizer.solve_p50_us",
            "request.candidates_tried",
            "request.fallback_share",
            "control.replans",
            "trace.overhead_share",
            "host.steal_share",
        ],
    ),
    (
        "serve",
        &[
            "optimizer.solves",
            "optimizer.solve_p50_us",
            "api.parse_p50_us",
            "api.serialize_p50_us",
            "serve.handler_p50_us",
            "serve.queue_p50_us",
            "serve.plan_cache_hit_ratio",
            "serve.shed",
            "server.transport_p50_us",
            "server.threads",
            "serve.p99_us",
            "telemetry.metrics_reply_bytes",
            "telemetry.scrape_p50_ms",
            "telemetry.rss_growth_mb",
            "trace.overhead_share",
            "host.steal_share",
        ],
    ),
];

/// The metrics that must repeat bit-exactly for one seed.
const DETERMINISTIC: [&str; 2] = ["models_below_target", "plan_speedup"];

/// The per-layer count metrics that must repeat bit-exactly for one seed.
const DETERMINISTIC_LAYERS: [&str; 4] = [
    "modeling.fits",
    "optimizer.solves",
    "request.candidates_tried",
    "control.replans",
];

fn assert_names(workload: &str, metrics: &Metrics, expected: &[&str]) {
    let mut got = metrics.names();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(got, want, "{workload}: metric names");
    for (name, value, _) in &metrics.0 {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_reports_every_metric_of_the_tables() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    for (workload, _) in MEASURED_LAYERS {
        let metrics = run_cheap(workload, 3, false);
        assert_names(workload, &metrics, &e2e);
        for (name, value, unit) in &metrics.0 {
            assert!(
                *value > 0.0,
                "{workload}: end-to-end {name} = {value} {unit}"
            );
        }
        assert_names(workload, &run_cheap(workload, 3, true), &layers);
    }
}

#[test]
fn every_workload_measures_the_layers_it_calls() {
    for (workload, own) in MEASURED_LAYERS {
        let mut tally = Tally::default();
        let measured = measure(&args(workload, 3, true), &cheap_apps, &mut tally);
        assert_clean(workload, true, &tally);
        assert_names(workload, &measured, &[&TRAINING_STAGES[..], own].concat());
    }
}
#[test]
fn benchmark_json_declares_every_metric_once() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert_eq!(
            json.matches(&entry).count(),
            1,
            "{name} in {unit} in BENCHMARK.json"
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + opprox_perfbench::WORKLOADS.len(),
        "BENCHMARK.json declares only the tables' metrics and the workloads"
    );
}

#[test]
fn one_seed_reproduces_every_deterministic_metric() {
    for (workload, _) in MEASURED_LAYERS {
        for (trace, names) in [
            (false, &DETERMINISTIC[..]),
            (true, &DETERMINISTIC_LAYERS[..]),
        ] {
            let first = run_cheap(workload, 11, trace);
            let second = run_cheap(workload, 11, trace);
            for name in names {
                let a = first.get(name).expect("metric present");
                let b = second.get(name).expect("metric present");
                assert_eq!(a.to_bits(), b.to_bits(), "{workload}: {name} {a} vs {b}");
            }
        }
    }
}

#[test]
fn holdout_seed_changes_the_job_and_frame_lists() {
    let shapes: Vec<AppShape> = cheap_apps()
        .iter()
        .map(|a| AppShape::of(a.as_ref()))
        .collect();
    let (seed, holdout) = (11, 12);
    assert_eq!(gen::jobs(seed, &shapes, 8), gen::jobs(seed, &shapes, 8));
    assert_ne!(gen::jobs(seed, &shapes, 8), gen::jobs(holdout, &shapes, 8));
    for conn in 0..2 {
        assert_eq!(
            gen::frames(seed, &shapes, conn, 512),
            gen::frames(seed, &shapes, conn, 512)
        );
        assert_ne!(
            gen::frames(seed, &shapes, conn, 512),
            gen::frames(holdout, &shapes, conn, 512)
        );
    }
    assert_ne!(
        gen::optimize_keys(seed, &shapes),
        gen::optimize_keys(holdout, &shapes)
    );
    assert_ne!(gen::sampling_seed(seed), gen::sampling_seed(holdout));
}

#[test]
fn jobs_are_balanced_over_apps_and_budgets() {
    let shapes: Vec<AppShape> = cheap_apps()
        .iter()
        .map(|a| AppShape::of(a.as_ref()))
        .collect();
    let jobs = gen::jobs(5, &shapes, 8);
    for app in 0..shapes.len() {
        for budget in gen::BUDGETS {
            let n = jobs
                .iter()
                .filter(|j| j.app == app && j.budget == budget)
                .count();
            assert_eq!(n, 2, "app {app} budget {budget}");
        }
    }
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |s: &str| Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    assert!(parse("--workload plan --seed 1 --seconds 10 --trace 0").is_ok());
    assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
    assert!(parse("--workload plan --seed -1 --seconds 10 --trace 0").is_err());
    assert!(parse("--workload plan --seed 1 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload plan --seed 1 --seconds 10 --trace 2").is_err());
    assert!(parse("--workload plan --seconds 10").is_err());
    assert!(parse("--workload plan --seed 1 --seconds 10 --bogus 1").is_err());
}
