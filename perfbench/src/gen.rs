//! Seeded input generation. Everything the program under test receives —
//! the sampling seed, the plan workload's job list and the serve
//! workload's frame lists — is derived here from the `--seed` argument,
//! so one seed always produces the same inputs.

use opprox_approx_rt::ApproxApp;
use opprox_core::api::{ApiRequest, OptimizeParams, PredictParams};

/// Error budgets (QoS-degradation percentages) jobs and frames draw from.
pub const BUDGETS: [f64; 4] = [2.0, 5.0, 10.0, 20.0];

/// Phases every trained model has (`TrainingOptions::default()`).
pub const NUM_PHASES: u64 = 4;

/// SplitMix64: a small, fast, well-mixed generator with no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the named stream; different streams of
    /// one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The sampling seed handed to `SamplingPlan::seed` for a workload seed.
pub fn sampling_seed(seed: u64) -> u64 {
    Rng::new(seed, 1).next_u64()
}

/// What the generators need to know about one registered application.
#[derive(Debug, Clone)]
pub struct AppShape {
    /// Registry name, as clients spell it.
    pub name: String,
    /// `representative_inputs()`, as raw values.
    pub inputs: Vec<Vec<f64>>,
    /// Each block's maximum approximation level.
    pub max_levels: Vec<u8>,
}

impl AppShape {
    /// The shape of `app`.
    pub fn of(app: &dyn ApproxApp) -> Self {
        AppShape {
            name: app.meta().name.clone(),
            inputs: app
                .representative_inputs()
                .iter()
                .map(|i| i.values().to_vec())
                .collect(),
            max_levels: app.meta().blocks.iter().map(|b| b.max_level).collect(),
        }
    }
}

/// One `plan` job: optimize `input` of app `app` for `budget`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Index into the registry.
    pub app: usize,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// QoS-degradation budget.
    pub budget: f64,
}

/// The `plan` job list: `per_app` jobs for every app, in seeded order.
///
/// Apps, inputs and budgets are each drawn uniformly, but stratified:
/// every app gets the same number of jobs, each app's inputs are dealt
/// from a seeded permutation of its representative inputs, and its
/// budgets from a seeded permutation of [`BUDGETS`]. Unstratified draws
/// let the app and input mix — whose costs differ by 10–100× — vary from
/// seed to seed, which swamps the means the workload reports.
pub fn jobs(seed: u64, apps: &[AppShape], per_app: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::with_capacity(apps.len() * per_app);
    for (a, shape) in apps.iter().enumerate() {
        let mut inputs: Vec<usize> = (0..shape.inputs.len()).collect();
        let mut budgets: Vec<usize> = (0..BUDGETS.len()).collect();
        for j in 0..per_app {
            if j % inputs.len() == 0 {
                rng.shuffle(&mut inputs);
            }
            if j % budgets.len() == 0 {
                rng.shuffle(&mut budgets);
            }
            out.push(Job {
                app: a,
                input: shape.inputs[inputs[j % inputs.len()]].clone(),
                budget: BUDGETS[budgets[j % budgets.len()]],
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

/// What a serve frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A batched `predict` frame.
    Predict,
    /// A model-only `optimize` frame (a plan-cache candidate).
    Optimize,
    /// A `metrics` scrape.
    Metrics,
}

/// One request frame of the serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The kind of request.
    pub kind: FrameKind,
    /// The app the reply must name (empty for scrapes).
    pub app: String,
    /// The wire line, newline-terminated.
    pub wire: String,
}

/// Frames between two `metrics` scrapes on connection 0.
pub const SCRAPE_EVERY: usize = 2_000;

/// Distinct `optimize` keys (app, input, budget) the frames draw from.
pub const OPTIMIZE_KEYS: usize = 256;

/// The pool of [`OPTIMIZE_KEYS`] (app, input, budget) keys the serve
/// workload's `optimize` frames draw from, as jobs.
pub fn optimize_keys(seed: u64, apps: &[AppShape]) -> Vec<Job> {
    let mut rng = Rng::new(seed, 3);
    (0..OPTIMIZE_KEYS)
        .map(|_| {
            let app = rng.below(apps.len());
            let input = apps[app].inputs[rng.below(apps[app].inputs.len())].clone();
            Job {
                app,
                input,
                budget: BUDGETS[rng.below(BUDGETS.len())],
            }
        })
        .collect()
}

/// The frame list of connection `conn`: about 7/8 `predict` frames
/// (1–4 random level vectors for a random phase of a random app and
/// input) and 1/8 model-only `optimize` frames whose keys come from
/// [`optimize_keys`], a pool shared by both connections, so most hit the
/// plan cache after first use. Connection 0 sends a `metrics` scrape
/// as every [`SCRAPE_EVERY`]th frame.
pub fn frames(seed: u64, apps: &[AppShape], conn: usize, len: usize) -> Vec<Frame> {
    let keys = optimize_keys(seed, apps);
    let mut rng = Rng::new(seed, 16 + conn as u64);
    (0..len)
        .map(|n| {
            if conn == 0 && n % SCRAPE_EVERY == SCRAPE_EVERY - 1 {
                return Frame {
                    kind: FrameKind::Metrics,
                    app: String::new(),
                    wire: format!("{}\n", ApiRequest::Metrics.to_wire()),
                };
            }
            let (kind, request, app) = if rng.below(8) == 0 {
                let key = &keys[rng.below(keys.len())];
                let params =
                    OptimizeParams::new(&apps[key.app].name, key.input.clone(), key.budget);
                (FrameKind::Optimize, ApiRequest::Optimize(params), key.app)
            } else {
                let a = rng.below(apps.len());
                let shape = &apps[a];
                let input = shape.inputs[rng.below(shape.inputs.len())].clone();
                let phase = rng.below(NUM_PHASES as usize) as u64;
                let configs = (0..1 + rng.below(4))
                    .map(|_| {
                        shape
                            .max_levels
                            .iter()
                            .map(|&m| rng.below(m as usize + 1) as u64)
                            .collect()
                    })
                    .collect();
                let params = PredictParams {
                    app: shape.name.clone(),
                    input,
                    phase,
                    configs,
                };
                (FrameKind::Predict, ApiRequest::Predict(params), a)
            };
            Frame {
                kind,
                app: apps[app].name.clone(),
                wire: format!("{}\n", request.to_wire()),
            }
        })
        .collect()
}
