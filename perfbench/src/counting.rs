//! The `apps` layer probe: an [`ApproxApp`] that forwards every trait
//! method to a wrapped application and counts and times its executions.
//! Used only in traced runs; untraced runs hand the program the bare app.

use opprox_approx_rt::app::AppMeta;
use opprox_approx_rt::{ApproxApp, InputParams, PhaseSchedule, RunResult, RuntimeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting wrapper around a registered application.
pub struct CountingApp<'a> {
    inner: &'a dyn ApproxApp,
    runs: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> CountingApp<'a> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a dyn ApproxApp) -> Self {
        CountingApp {
            inner,
            runs: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Executions so far.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the application so far, summed over threads.
    pub fn run_s(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: nothing else is published through these.
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        out
    }
}

impl ApproxApp for CountingApp<'_> {
    fn meta(&self) -> &AppMeta {
        self.inner.meta()
    }

    fn run(
        &self,
        input: &InputParams,
        schedule: &PhaseSchedule,
    ) -> Result<RunResult, RuntimeError> {
        self.timed(|| self.inner.run(input, schedule))
    }

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        self.inner.qos_degradation(exact, approx)
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        self.inner.representative_inputs()
    }

    fn golden(&self, input: &InputParams) -> Result<RunResult, RuntimeError> {
        self.timed(|| self.inner.golden(input))
    }
}
