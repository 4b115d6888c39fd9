//! The `train` workload and the training set-up the other two share.
//!
//! Untraced: every registered app is trained through
//! `Opprox::train_with` on a fresh `EvalEngine`, in registry order; one
//! app's training is the workload's operation. Traced: the same work is
//! split at the layer boundaries `train_with` composes — profiling
//! (`sampling::collect_training_data_with`), fitting
//! (`Opprox::train_from_data_traced`) and the golden self-check — each
//! timed from here. The traced runs of `plan` and `serve` train their
//! set-up the traced way too.

use crate::counting::CountingApp;
use crate::gen::{self, AppShape};
use crate::report::{geomean, median, Metrics, Tally};
use crate::{elapsed_s, Args, Registry};
use opprox_approx_rt::ApproxApp;
use opprox_core::pipeline::{Opprox, TrainedOpprox, TrainingOptions};
use opprox_core::sampling::{collect_training_data_with, SamplingPlan};
use opprox_core::EvalEngine;
use std::time::Instant;

/// The `train` set-up: builds the registry and checks the contract
/// training relies on — each app is deterministic, so two accurate runs
/// of each representative input agree bit for bit. (Building the
/// registry alone takes microseconds, and one input per app about 7 ms:
/// at that scale this host's timings wander 2× between processes.)
fn set_up(registry: Registry, tally: &mut Tally) -> Vec<Box<dyn ApproxApp>> {
    let apps = registry();
    for app in &apps {
        let name = &app.meta().name;
        let inputs = app.representative_inputs();
        if inputs.is_empty() {
            tally.record(Some(format!("{name}: no representative inputs")));
        }
        for input in inputs {
            tally.record(match (app.golden(&input), app.golden(&input)) {
                (Ok(a), Ok(b)) => {
                    let same_output = a.output.len() == b.output.len()
                        && a.output
                            .iter()
                            .zip(&b.output)
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                    (!same_output || a.work != b.work || a.outer_iters != b.outer_iters)
                        .then(|| format!("{name}: two accurate runs of {input:?} differ"))
                }
                (Err(e), _) | (_, Err(e)) => Some(format!("{name}: accurate run: {e}")),
            });
        }
    }
    apps
}

/// Largest gap allowed between the traced `train_s` and the sum of its
/// three timed stages: 2% of `train_s` plus 10 ms for the per-app glue
/// (engine and wrapper construction) that no stage covers.
pub fn layer_sum_tolerance_s(train_s: f64) -> f64 {
    0.02 * train_s + 0.010
}

/// Default training options with the workload seed's sampling seed.
pub fn options(seed: u64) -> TrainingOptions {
    let defaults = TrainingOptions::default();
    TrainingOptions {
        sampling: SamplingPlan {
            seed: gen::sampling_seed(seed),
            ..defaults.sampling
        },
        ..defaults
    }
}

/// Number of fitted `TargetModel`s (iteration estimators, per-block
/// locals and combined models, over every class and phase) that missed
/// the cross-validated R² target.
pub fn models_below_target(trained: &TrainedOpprox) -> u64 {
    let mut below = 0;
    for class in trained.models().classes() {
        for phase in &class.phases {
            let two_step = [&phase.speedup, &phase.qos];
            let models = std::iter::once(&phase.iters).chain(
                two_step
                    .iter()
                    .flat_map(|m| m.locals().iter().chain(std::iter::once(m.combined()))),
            );
            below += models.filter(|m| !m.reached_target()).count() as u64;
        }
    }
    below
}

/// Checks a trained system: it must pass `validate_integrity()`.
fn check_trained(trained: &TrainedOpprox) -> Option<String> {
    trained
        .validate_integrity()
        .err()
        .map(|e| format!("{}: integrity: {e}", trained.app_name()))
}

/// Number of models below target over every system that trained.
pub fn below_target(trained: &[Option<TrainedOpprox>]) -> f64 {
    trained
        .iter()
        .flatten()
        .map(models_below_target)
        .sum::<u64>() as f64
}

/// Trains every app with `train_with` on a fresh engine, in order.
/// Returns the systems that trained (a failure is tallied and skipped)
/// and each app's training time in seconds.
pub fn train_all(
    apps: &[Box<dyn ApproxApp>],
    options: &TrainingOptions,
    tally: &mut Tally,
) -> (Vec<Option<TrainedOpprox>>, Vec<f64>) {
    apps.iter()
        .map(|app| {
            let t = Instant::now();
            let engine = EvalEngine::default();
            let trained = Opprox::train_with(&engine, app.as_ref(), options);
            let wall = elapsed_s(t);
            match trained {
                Ok(trained) => {
                    tally.record(check_trained(&trained));
                    (Some(trained), wall)
                }
                Err(e) => {
                    tally.record(Some(format!("{}: train: {e}", app.meta().name)));
                    (None, wall)
                }
            }
        })
        .unzip()
}

/// Per-layer totals of one traced training of every app.
#[derive(Debug, Default)]
pub struct TracedTrain {
    train_s: f64,
    sampling_s: f64,
    modeling_s: f64,
    self_check_s: f64,
    base_fit_s: f64,
    combined_fit_s: f64,
    fits: u64,
    cv_solves: u64,
    degrees_tried: u64,
    runs: u64,
    run_s: f64,
    executions: u64,
    cache_hits: u64,
}

/// One app's training, split into its three stages.
fn traced_app(
    app: &dyn ApproxApp,
    options: &TrainingOptions,
    acc: &mut TracedTrain,
) -> Result<TrainedOpprox, String> {
    let start = Instant::now();
    let counting = CountingApp::new(app);
    let engine = EvalEngine::default();
    let num_phases = options.num_phases.unwrap_or(gen::NUM_PHASES as usize);
    let plan = SamplingPlan {
        num_phases,
        ..options.sampling
    };
    let inputs = counting.representative_inputs();
    let name = &app.meta().name;

    let t = Instant::now();
    let data = collect_training_data_with(&engine, &counting, &inputs, &plan)
        .map_err(|e| format!("{name}: sampling: {e}"))?;
    acc.sampling_s += elapsed_s(t);

    let t = Instant::now();
    let trained = engine
        .telemetry()
        .span("fit", || {
            Opprox::train_from_data_traced(
                &counting,
                &data,
                num_phases,
                &options.modeling,
                Some(engine.telemetry()),
            )
        })
        .map_err(|e| format!("{name}: fit: {e}"))?;
    acc.modeling_s += elapsed_s(t);

    let t = Instant::now();
    engine
        .stage("self-check", || {
            for input in &inputs {
                engine.golden(&counting, input)?;
                trained.estimate_golden_iters(input)?;
            }
            Ok::<(), opprox_core::OpproxError>(())
        })
        .map_err(|e| format!("{name}: self-check: {e}"))?;
    acc.self_check_s += elapsed_s(t);
    acc.train_s += elapsed_s(start);

    let m = trained.modeling_metrics();
    acc.base_fit_s += m.base_fit_wall_ms / 1e3;
    acc.combined_fit_s += m.combined_fit_wall_ms / 1e3;
    acc.fits += m.fits_attempted;
    acc.cv_solves += m.cv_solves;
    acc.degrees_tried += m.degrees_tried;
    acc.runs += counting.runs();
    acc.run_s += counting.run_s();
    let em = engine.metrics();
    acc.executions += em.executions;
    acc.cache_hits += em.cache_hits;
    Ok(trained)
}

/// Trains every app the traced way (see `traced_app`), in order.
pub fn train_traced(
    apps: &[Box<dyn ApproxApp>],
    options: &TrainingOptions,
    tally: &mut Tally,
) -> (Vec<Option<TrainedOpprox>>, TracedTrain) {
    let mut acc = TracedTrain::default();
    let trained = apps
        .iter()
        .map(|app| {
            let outcome = traced_app(app.as_ref(), options, &mut acc);
            tally.record(match &outcome {
                Ok(trained) => check_trained(trained),
                Err(e) => Some(e.clone()),
            });
            outcome.ok()
        })
        .collect();
    (trained, acc)
}

impl TracedTrain {
    /// Puts the profiling, fitting and self-check layers' metrics and
    /// checks that the three stages add up to the traced training time.
    pub fn put_stages(&self, metrics: &mut Metrics, tally: &mut Tally) {
        let stage_sum = self.sampling_s + self.modeling_s + self.self_check_s;
        let gap = self.train_s - stage_sum;
        let tolerance = layer_sum_tolerance_s(self.train_s);
        println!(
            "# layer sum: sampling {:.3} s + modeling {:.3} s + self-check {:.3} s = {:.3} s \
             vs traced train_s {:.3} s (gap {:.4} s, tolerance {:.4} s)",
            self.sampling_s,
            self.modeling_s,
            self.self_check_s,
            stage_sum,
            self.train_s,
            gap,
            tolerance
        );
        tally.record((gap.abs() > tolerance).then(|| {
            format!(
                "layer sum {stage_sum:.3} s misses traced train_s {:.3} s",
                self.train_s
            )
        }));
        metrics.put("sampling.s", self.sampling_s, "s");
        metrics.put("modeling.s", self.modeling_s, "s");
        metrics.put("modeling.base_fit_s", self.base_fit_s, "s");
        metrics.put("modeling.combined_fit_s", self.combined_fit_s, "s");
        metrics.put("modeling.fits", self.fits as f64, "count");
        metrics.put("modeling.cv_solves", self.cv_solves as f64, "count");
        metrics.put("modeling.degrees_tried", self.degrees_tried as f64, "count");
        metrics.put("train.self_check_s", self.self_check_s, "s");
        metrics.put("train.layer_gap_s", gap, "s");
    }
}

/// Puts the `apps` and `core::evaluator` layers' metrics.
pub fn put_executions(
    metrics: &mut Metrics,
    runs: u64,
    run_s: f64,
    executions: u64,
    cache_hits: u64,
) {
    metrics.put("apps.runs", runs as f64, "count");
    metrics.put("apps.run_s", run_s, "s");
    metrics.put("evaluator.executions", executions as f64, "count");
    metrics.put("evaluator.cache_hits", cache_hits as f64, "count");
    let lookups = (executions + cache_hits).max(1) as f64;
    metrics.put("evaluator.hit_ratio", cache_hits as f64 / lookups, "share");
}

/// Runs the `train` workload.
pub fn run(args: &Args, registry: Registry, tally: &mut Tally) -> Metrics {
    // `setup_s` is the median of nine set-ups: this one, and one after
    // each app's first training below. A set-up takes about 0.1 s, a
    // scale at which this host's speed swings ±30% from second to second;
    // spread over the first pass, the nine sample the host's state across
    // seconds instead of within one.
    let mut setups = Vec::with_capacity(1 + 8);
    let t = Instant::now();
    let apps = set_up(registry, tally);
    setups.push(elapsed_s(t));
    let options = options(args.seed);
    let shapes: Vec<AppShape> = apps.iter().map(|a| AppShape::of(a.as_ref())).collect();
    let jobs = gen::jobs(args.seed, &shapes, crate::plan::JOBS_PER_APP);

    let mut metrics = Metrics::default();

    // Untraced: one whole training of every app, in registry order; then,
    // untraced runs only, more trainings of single apps, cheapest first
    // and round after round, while the next is expected to end within the
    // run time. `samples[a]` holds app `a`'s training times in ms.
    let started = Instant::now();
    let mut first = Vec::with_capacity(apps.len());
    let mut walls = Vec::with_capacity(apps.len());
    for a in 0..apps.len() {
        let (trained, wall) = train_all(&apps[a..=a], &options, tally);
        first.extend(trained);
        walls.extend(wall);
        let t = Instant::now();
        set_up(registry, tally);
        setups.push(elapsed_s(t));
    }
    // Peak memory through the first training of every app: more
    // trainings of single apps would add only allocator leftovers.
    let peak_rss_mb = crate::host::peak_rss_mb();
    let mut samples: Vec<Vec<f64>> = walls.iter().map(|s| vec![s * 1e3]).collect();
    let mut cheapest_first: Vec<usize> = (0..apps.len()).collect();
    cheapest_first.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    while !args.trace && elapsed_s(started) + walls[cheapest_first[0]] <= args.seconds {
        for &a in &cheapest_first {
            if elapsed_s(started) + walls[a] > args.seconds {
                break;
            }
            let (_, wall) = train_all(&apps[a..=a], &options, tally);
            samples[a].push(wall[0] * 1e3);
        }
    }
    // Each app's best time: a host stall only ever slows a training down.
    let per_app_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let train_s = per_app_ms.iter().sum::<f64>() / 1e3;
    println!(
        "# {} apps, train_s {train_s:.3} s (sum of best); per-app ms: {:?}, trainings: {:?}",
        apps.len(),
        per_app_ms.iter().map(|ms| ms.round()).collect::<Vec<_>>(),
        samples.iter().map(Vec::len).collect::<Vec<_>>()
    );
    if !args.trace {
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put("ops_per_s", apps.len() as f64 / train_s, "1/s");
        metrics.put("op_geomean_ms", geomean(&per_app_ms), "ms");
        metrics.put("models_below_target", below_target(&first), "count");
        metrics.put(
            "plan_speedup",
            crate::plan::predicted_speedup(&first, &jobs, tally),
            "x",
        );
        return metrics;
    }

    let (trained, acc) = train_traced(&apps, &options, tally);
    acc.put_stages(&mut metrics, tally);
    let overhead = acc.train_s / train_s - 1.0;
    println!(
        "# tracing overhead: traced train_s {:.3} s vs untraced {train_s:.3} s ({:+.2}%)",
        acc.train_s,
        overhead * 100.0
    );
    put_executions(
        &mut metrics,
        acc.runs,
        acc.run_s,
        acc.executions,
        acc.cache_hits,
    );
    crate::plan::put_solves(&mut metrics, &trained, &jobs, tally);
    metrics.put("trace.overhead_share", overhead, "share");
    metrics
}
