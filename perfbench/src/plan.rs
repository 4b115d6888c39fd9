//! The `plan` workload: the paper's per-job optimize path.
//!
//! Set-up trains every app as `train` does, but with the default
//! `TrainingOptions` (default sampling seed) — the system `opprox train`
//! ships — so the seed varies the jobs, not the models: with per-seed
//! models the plan times and quality spread 2–3× wider from seed to
//! seed. Each job of the seeded list is then planned three ways through
//! `OptimizeRequest` — model-only, validated (`validate_on`, default
//! validation budget) and adaptive (`ControlOptions::default()`); each
//! of these requests is one operation of the workload. Validated and
//! adaptive requests each get a fresh `EvalEngine`, as `opprox run`
//! does. The list is replayed in whole passes while the next one fits
//! in the run time; the quality metrics come from the first pass, so
//! they depend on the seed alone.
//!
//! Also here: the model-only planning the `train` and `serve` workloads
//! score their trained systems with.

use crate::counting::CountingApp;
use crate::gen::{self, AppShape, Job};
use crate::report::{geomean, median, min_over_passes, quantile, Metrics, Tally};
use crate::{elapsed_s, Args, Registry};
use opprox_approx_rt::{ApproxApp, InputParams};
use opprox_core::optimizer::{optimize_with, Conservatism, OptimizationPlan};
use opprox_core::pipeline::{TrainedOpprox, TrainingOptions};
use opprox_core::request::{OptimizeOutcome, OptimizePath, OptimizeRequest};
use opprox_core::{AccuracySpec, ControlOptions, EvalEngine};
use std::time::Instant;

/// Jobs per app in the list (a multiple of the four budgets).
pub const JOBS_PER_APP: usize = 8;

/// Checks a plan's shape: one config per phase, one level per block,
/// and no level above its block's `max_level`.
pub fn check_plan(plan: &OptimizationPlan, trained: &TrainedOpprox) -> Option<String> {
    let configs = plan.schedule.configs();
    if configs.len() != trained.num_phases() {
        return Some(format!(
            "{}: plan has {} configs for {} phases",
            trained.app_name(),
            configs.len(),
            trained.num_phases()
        ));
    }
    let blocks = trained.blocks();
    for (p, config) in configs.iter().enumerate() {
        let levels = config.levels();
        if levels.len() != blocks.len() {
            return Some(format!(
                "{}: phase {p} has {} levels",
                trained.app_name(),
                levels.len()
            ));
        }
        if let Some(b) = (0..blocks.len()).find(|&b| levels[b] > blocks[b].max_level) {
            return Some(format!(
                "{}: phase {p} block {b} level {} above max {}",
                trained.app_name(),
                levels[b],
                blocks[b].max_level
            ));
        }
    }
    None
}

/// Checks a validated outcome: a valid plan whose measured QoS is within
/// budget, unless the pipeline fell back to the accurate schedule.
fn check_validated(
    outcome: &OptimizeOutcome,
    trained: &TrainedOpprox,
    budget: f64,
) -> Option<String> {
    check_plan(&outcome.plan, trained).or_else(|| match (&outcome.measured, outcome.path) {
        (_, OptimizePath::AccurateFallback) => None,
        (Some(m), _) if m.qos <= budget => None,
        (Some(m), _) => Some(format!(
            "{}: validated QoS {} over budget {budget}",
            trained.app_name(),
            m.qos
        )),
        (None, _) => Some(format!(
            "{}: validated outcome unmeasured",
            trained.app_name()
        )),
    })
}

/// Plans every job model-only through `OptimizeRequest`, as
/// `opprox run` without validation and the server's `optimize` op do,
/// and returns the geometric mean of the plans' predicted speedups.
/// Each plan's shape is checked.
pub fn predicted_speedup(
    trained: &[Option<TrainedOpprox>],
    jobs: &[Job],
    tally: &mut Tally,
) -> f64 {
    let mut speedups = Vec::with_capacity(jobs.len());
    for job in jobs {
        let Some(system) = &trained[job.app] else {
            tally.record(Some(format!("app {}: no trained system", job.app)));
            continue;
        };
        let input = InputParams::new(job.input.clone());
        let outcome = OptimizeRequest::new(input, AccuracySpec::new(job.budget)).run(system);
        tally.record(match outcome {
            Ok(outcome) => check_plan(&outcome.plan, system).or_else(|| {
                let speedup = outcome.plan.predicted_speedup;
                speedups.push(speedup);
                (!(speedup.is_finite() && speedup > 0.0))
                    .then(|| format!("{}: predicted speedup {speedup}", system.app_name()))
            }),
            Err(e) => Some(format!("{}: model-only: {e}", system.app_name())),
        });
    }
    geomean(&speedups)
}

/// Solves one job through `optimizer::optimize_with` directly and
/// returns the solve's time in milliseconds.
fn timed_solve(trained: &TrainedOpprox, job: &Job) -> Result<f64, String> {
    let input = InputParams::new(job.input.clone());
    let spec = AccuracySpec::new(job.budget);
    let expected = trained
        .estimate_golden_iters(&input)
        .map_err(|e| format!("{}: estimate iterations: {e}", trained.app_name()))?;
    let t = Instant::now();
    let solved = optimize_with(
        trained.models(),
        trained.blocks(),
        &input,
        &spec,
        expected,
        Conservatism::Band,
    );
    let ms = ms_since(t);
    match solved {
        Ok(plan) => check_plan(&plan, trained).map_or(Ok(ms), Err),
        Err(e) => Err(format!("{}: optimize_with: {e}", trained.app_name())),
    }
}

/// Puts the `core::optimizer` layer's metrics for solving every job.
pub fn put_solves(
    metrics: &mut Metrics,
    trained: &[Option<TrainedOpprox>],
    jobs: &[Job],
    tally: &mut Tally,
) {
    let mut solve_ms = Vec::with_capacity(jobs.len());
    for job in jobs {
        let Some(system) = &trained[job.app] else {
            tally.record(Some(format!("app {}: no trained system", job.app)));
            continue;
        };
        tally.record(timed_solve(system, job).map(|ms| solve_ms.push(ms)).err());
    }
    metrics.put("optimizer.solves", solve_ms.len() as f64, "count");
    metrics.put("optimizer.solve_p50_us", median(&solve_ms) * 1e3, "us");
}

/// Everything one pass over the job list measured.
#[derive(Debug, Default)]
struct Pass {
    /// Model-only latency: `OptimizeRequest::run` untraced, the
    /// `optimize_with` solve traced.
    optimize_ms: Vec<f64>,
    validated_ms: Vec<f64>,
    adaptive_ms: Vec<f64>,
    model_only_over: usize,
    adaptive_over: usize,
    model_only_speedups: Vec<f64>,
    validated_speedups: Vec<f64>,
    adaptive_speedups: Vec<f64>,
    // Traced passes only.
    candidates_tried: usize,
    fallbacks: usize,
    replans: usize,
    runs: u64,
    run_s: f64,
    executions: u64,
    cache_hits: u64,
}

impl Pass {
    /// Seconds spent inside the three timed calls of every job.
    fn op_s(&self) -> f64 {
        [&self.optimize_ms, &self.validated_ms, &self.adaptive_ms]
            .iter()
            .flat_map(|ms| ms.iter())
            .sum::<f64>()
            / 1e3
    }
}

fn ms_since(t: Instant) -> f64 {
    elapsed_s(t) * 1e3
}

/// The trained systems the jobs run against.
struct Systems<'a> {
    apps: &'a [Box<dyn ApproxApp>],
    trained: &'a [Option<TrainedOpprox>],
    /// One shared engine per app that measures model-only plans (its
    /// cache keeps goldens across jobs; it is outside every timing).
    checkers: Vec<EvalEngine>,
}

/// Runs one job the untraced way, through `OptimizeRequest` only.
fn untraced_job(sys: &Systems, job: &Job, pass: &mut Pass, tally: &mut Tally) {
    let app = sys.apps[job.app].as_ref();
    let Some(trained) = &sys.trained[job.app] else {
        tally.record(Some(format!("{}: no trained system", app.meta().name)));
        return;
    };
    let input = InputParams::new(job.input.clone());
    let spec = AccuracySpec::new(job.budget);

    let t = Instant::now();
    let model_only = OptimizeRequest::new(input.clone(), spec).run(trained);
    pass.optimize_ms.push(ms_since(t));
    tally.record(match model_only {
        Ok(outcome) => check_plan(&outcome.plan, trained).or_else(|| {
            match trained.evaluate_with(&sys.checkers[job.app], app, &input, &outcome.plan) {
                Ok(measured) => {
                    pass.model_only_over += usize::from(measured.qos > job.budget);
                    pass.model_only_speedups.push(measured.speedup);
                    None
                }
                Err(e) => Some(format!(
                    "{}: evaluate model-only plan: {e}",
                    trained.app_name()
                )),
            }
        }),
        Err(e) => Some(format!("{}: model-only: {e}", trained.app_name())),
    });

    let t = Instant::now();
    let engine = EvalEngine::default();
    let validated = OptimizeRequest::new(input.clone(), spec)
        .validate_on(app)
        .engine(&engine)
        .run(trained);
    pass.validated_ms.push(ms_since(t));
    tally.record(match validated {
        Ok(outcome) => check_validated(&outcome, trained, job.budget).or_else(|| {
            pass.validated_speedups
                .push(outcome.measured.map_or(1.0, |m| m.speedup));
            None
        }),
        Err(e) => Some(format!("{}: validated: {e}", trained.app_name())),
    });

    let t = Instant::now();
    let engine = EvalEngine::default();
    let adaptive = OptimizeRequest::new(input, spec)
        .validate_on(app)
        .adaptive(ControlOptions::default())
        .engine(&engine)
        .run(trained);
    pass.adaptive_ms.push(ms_since(t));
    tally.record(match adaptive {
        Ok(outcome) => check_plan(&outcome.plan, trained).or_else(|| match outcome.measured {
            Some(m) => {
                pass.adaptive_over += usize::from(m.qos > job.budget);
                pass.adaptive_speedups.push(m.speedup);
                None
            }
            None => Some(format!(
                "{}: adaptive outcome unmeasured",
                trained.app_name()
            )),
        }),
        Err(e) => Some(format!("{}: adaptive: {e}", trained.app_name())),
    });
}

/// Runs one job the traced way: the optimizer solve is timed directly
/// through `optimizer::optimize_with`, and the validated and adaptive
/// requests run on counting-wrapped apps so each outcome's candidates,
/// path and controller ledger, and each engine's counters, are read.
fn traced_job(sys: &Systems, job: &Job, pass: &mut Pass, tally: &mut Tally) {
    let app = sys.apps[job.app].as_ref();
    let Some(trained) = &sys.trained[job.app] else {
        tally.record(Some(format!("{}: no trained system", app.meta().name)));
        return;
    };
    let input = InputParams::new(job.input.clone());
    let spec = AccuracySpec::new(job.budget);

    tally.record(
        timed_solve(trained, job)
            .map(|ms| pass.optimize_ms.push(ms))
            .err(),
    );

    for adaptive in [false, true] {
        let counting = CountingApp::new(app);
        let t = Instant::now();
        let engine = EvalEngine::default();
        let request = OptimizeRequest::new(input.clone(), spec)
            .validate_on(&counting)
            .engine(&engine);
        let request = if adaptive {
            request.adaptive(ControlOptions::default())
        } else {
            request
        };
        let outcome = request.run(trained);
        let ms = ms_since(t);
        let m = engine.metrics();
        pass.executions += m.executions;
        pass.cache_hits += m.cache_hits;
        pass.runs += counting.runs();
        pass.run_s += counting.run_s();
        tally.record(match outcome {
            Ok(outcome) if adaptive => {
                pass.adaptive_ms.push(ms);
                pass.replans += outcome.control.as_ref().map_or(0, |c| c.replans);
                check_plan(&outcome.plan, trained)
            }
            Ok(outcome) => {
                pass.validated_ms.push(ms);
                pass.candidates_tried += outcome.candidates_tried;
                pass.fallbacks += usize::from(outcome.path == OptimizePath::AccurateFallback);
                check_validated(&outcome, trained, job.budget)
            }
            Err(e) => Some(format!("{}: traced request: {e}", trained.app_name())),
        });
    }
}

fn run_pass(sys: &Systems, jobs: &[Job], traced: bool, tally: &mut Tally) -> Pass {
    let mut pass = Pass::default();
    for job in jobs {
        if traced {
            traced_job(sys, job, &mut pass, tally);
        } else {
            untraced_job(sys, job, &mut pass, tally);
        }
    }
    pass
}

/// Runs the `plan` workload.
pub fn run(args: &Args, registry: Registry, tally: &mut Tally) -> Metrics {
    let mut metrics = Metrics::default();
    let t = Instant::now();
    let apps = registry();
    let options = TrainingOptions::default();
    let trained = if args.trace {
        let (trained, acc) = crate::train::train_traced(&apps, &options, tally);
        acc.put_stages(&mut metrics, tally);
        trained
    } else {
        crate::train::train_all(&apps, &options, tally).0
    };
    let setup_s = elapsed_s(t);
    println!(
        "# set-up {setup_s:.3} s, peak RSS {:.1} MB",
        crate::host::peak_rss_mb()
    );

    let shapes: Vec<AppShape> = apps.iter().map(|a| AppShape::of(a.as_ref())).collect();
    let jobs = gen::jobs(args.seed, &shapes, JOBS_PER_APP);
    let sys = Systems {
        apps: &apps,
        trained: &trained,
        checkers: apps.iter().map(|_| EvalEngine::default()).collect(),
    };

    let started = Instant::now();
    let mut passes = vec![run_pass(&sys, &jobs, false, tally)];
    // More whole passes while the next is expected to end in time.
    while !args.trace
        && elapsed_s(started) * (passes.len() + 1) as f64 / passes.len() as f64 <= args.seconds
    {
        passes.push(run_pass(&sys, &jobs, false, tally));
    }
    let first = &passes[0];

    if !args.trace {
        // Each request's best time over passes, for the three ways in turn.
        let series = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
            min_over_passes(&passes.iter().map(|p| f(p).as_slice()).collect::<Vec<_>>())
        };
        let request_ms = [
            series(|p| &p.optimize_ms),
            series(|p| &p.validated_ms),
            series(|p| &p.adaptive_ms),
        ];
        let requests = request_ms.concat();
        let requests_s = requests.iter().sum::<f64>() / 1e3;
        let speedups = [
            first.model_only_speedups.as_slice(),
            &first.validated_speedups,
            &first.adaptive_speedups,
        ]
        .concat();
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        metrics.put("ops_per_s", requests.len() as f64 / requests_s, "1/s");
        metrics.put("op_geomean_ms", geomean(&requests), "ms");
        metrics.put(
            "models_below_target",
            crate::train::below_target(&trained),
            "count",
        );
        metrics.put("plan_speedup", geomean(&speedups), "x");
        println!(
            "# {} jobs x {} passes (timed seconds per pass: {:?}); p90 {:.3} ms; mean ms model-only {:.3}, \
             validated {:.3}, adaptive {:.3}; geomean measured speedup model-only {:.4}, \
             validated {:.4}, adaptive {:.4}; over budget model-only {}/{}, adaptive {}/{}",
            jobs.len(),
            passes.len(),
            passes
                .iter()
                .map(|p| (p.op_s() * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            quantile(&requests, 0.9),
            crate::report::mean(&request_ms[0]),
            crate::report::mean(&request_ms[1]),
            crate::report::mean(&request_ms[2]),
            geomean(&first.model_only_speedups),
            geomean(&first.validated_speedups),
            geomean(&first.adaptive_speedups),
            first.model_only_over,
            jobs.len(),
            first.adaptive_over,
            jobs.len()
        );
        return metrics;
    }

    let traced = run_pass(&sys, &jobs, true, tally);
    let overhead = traced.op_s() / first.op_s() - 1.0;
    println!(
        "# tracing overhead: traced pass {:.3} s vs untraced {:.3} s in timed calls ({:+.2}%)",
        traced.op_s(),
        first.op_s(),
        overhead * 100.0
    );
    let validated = traced.validated_ms.len().max(1) as f64;
    crate::train::put_executions(
        &mut metrics,
        traced.runs,
        traced.run_s,
        traced.executions,
        traced.cache_hits,
    );
    metrics.put("optimizer.solves", traced.optimize_ms.len() as f64, "count");
    metrics.put(
        "optimizer.solve_p50_us",
        median(&traced.optimize_ms) * 1e3,
        "us",
    );
    metrics.put(
        "request.candidates_tried",
        traced.candidates_tried as f64 / validated,
        "count",
    );
    metrics.put(
        "request.fallback_share",
        traced.fallbacks as f64 / validated,
        "share",
    );
    metrics.put("control.replans", traced.replans as f64, "count");
    metrics.put("trace.overhead_share", overhead, "share");
    metrics
}
