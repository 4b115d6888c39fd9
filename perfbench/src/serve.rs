//! The `serve` workload: the daemon path.
//!
//! Set-up trains every app as `plan` does (default `TrainingOptions`;
//! the seed varies the frames, not the models), installs them in one
//! `ServeState` with default `ServeOptions` and starts the TCP `Server`.
//! Two generator threads each hold one persistent connection and run a
//! closed loop — the next frame goes out only after the previous reply —
//! so the load never has more runnable generator threads than the two
//! cores it was sized for. One frame is one operation of the workload.
//! Apps never execute here: predict frames are answered from the models
//! and optimize frames mostly from the plan cache.
//!
//! The traced run replays the same frames in-process against the live
//! server state through `ApiRequest::parse`, `ServeState::handle`,
//! `ApiResponse::to_wire` and `ServeState::serve_line`.

use crate::gen::{self, AppShape, Frame, FrameKind};
use crate::report::{geomean, median, quantile, Metrics, Tally};
use crate::{elapsed_s, host, Args, Registry};
use opprox_core::api::{ApiRequest, ApiResponse};
use opprox_core::pipeline::{TrainedOpprox, TrainingOptions};
use opprox_core::serve::{ServeOptions, ServeState, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator threads, one persistent connection each.
pub const CONNECTIONS: usize = 2;

/// Frames each connection's list holds. A loop ends when the first
/// connection reaches the end of its list, so the load is always two
/// connections and the telemetry the server accumulates — with it the
/// scrape sizes and the process's memory — is nearly the same on every
/// run; `--seconds` caps each loop. At about 9k frames per second per
/// connection on two cores the first list ends after about 5 s.
pub const FRAMES_PER_CONNECTION: usize = 50_000;

/// Frames the traced run replays in-process.
const REPLAY_FRAMES: usize = 20_000;

/// Width of the windows the TCP loop's throughput and p90 are taken
/// over. Each is the median over windows, so a stall confined to a few
/// windows (a host steal burst, a slow scrape) does not move it.
const WINDOW_S: f64 = 0.5;

/// Checks a reply: `status: ok`, naming the app the frame asked about.
/// (The wire field order is fixed, so `status` directly precedes `app`.)
fn check_reply(frame: &Frame, reply: &str) -> Option<String> {
    let ok = match frame.kind {
        FrameKind::Metrics => reply.contains("\"status\":\"ok\""),
        _ => reply.contains(&format!("\"status\":\"ok\",\"app\":\"{}\"", frame.app)),
    };
    (!ok).then(|| {
        let head: String = reply.chars().take(160).collect();
        format!("{:?} frame for {:?} answered {head}", frame.kind, frame.app)
    })
}

/// What one connection measured.
#[derive(Debug, Default)]
struct Connection {
    /// Completion time of every frame, seconds since the loop started.
    done_s: Vec<f64>,
    /// Latency of every non-scrape frame, with its completion time.
    frame_us: Vec<(f64, f64)>,
    scrape_ms: Vec<f64>,
    last_scrape_bytes: usize,
    /// Live threads of the process halfway through the list.
    threads: f64,
    tally: Tally,
}

/// Sends the frames in a closed loop until the list ends, another
/// connection's list ended (`stop`), or `deadline`.
fn drive(
    addr: SocketAddr,
    frames: &[Frame],
    started: Instant,
    deadline: Instant,
    stop: &AtomicBool,
) -> std::io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut out = Connection {
        done_s: Vec::with_capacity(1 << 18),
        frame_us: Vec::with_capacity(1 << 18),
        ..Connection::default()
    };
    let mut reply = String::new();
    for (n, frame) in frames.iter().enumerate() {
        if n == frames.len() / 2 {
            out.threads = host::threads();
        }
        let t = Instant::now();
        // Relaxed: the flag publishes no other data.
        if t >= deadline || stop.load(Ordering::Relaxed) {
            break;
        }
        writer.write_all(frame.wire.as_bytes())?;
        reply.clear();
        reader.read_line(&mut reply)?;
        let took = t.elapsed().as_secs_f64();
        let done = elapsed_s(started);
        out.done_s.push(done);
        if frame.kind == FrameKind::Metrics {
            out.scrape_ms.push(took * 1e3);
            out.last_scrape_bytes = reply.len();
        } else {
            out.frame_us.push((done, took * 1e6));
        }
        out.tally.record(check_reply(frame, &reply));
    }
    stop.store(true, Ordering::Relaxed);
    Ok(out)
}

/// Per-call timings of the in-process replay.
#[derive(Debug, Default)]
struct Replay {
    parse_us: Vec<f64>,
    handle_us: Vec<f64>,
    serialize_us: Vec<f64>,
    serve_line_us: Vec<f64>,
    untimed_s: f64,
    timed_s: f64,
}

fn us_since(t: Instant) -> f64 {
    elapsed_s(t) * 1e6
}

/// Passes `frames` through parse → handle → to_wire with no timers.
fn untimed_pass(state: &ServeState, frames: &[&Frame]) -> f64 {
    let t = Instant::now();
    for frame in frames {
        if let Ok(req) = ApiRequest::parse(frame.wire.trim_end()) {
            std::hint::black_box(state.handle(&req).to_wire());
        }
    }
    elapsed_s(t)
}

/// Replays `frames` (scrapes excluded) in-process: a warm-up pass, a
/// pass through parse → handle → to_wire with no timers, the same with a
/// timer around each call, and a pass through `serve_line` (which adds
/// the admission queue and the worker pool).
fn replay(state: &ServeState, frames: &[&Frame], tally: &mut Tally) -> Replay {
    let mut out = Replay::default();
    untimed_pass(state, frames);
    out.untimed_s = untimed_pass(state, frames);

    let t = Instant::now();
    for frame in frames {
        let t0 = Instant::now();
        let parsed = ApiRequest::parse(frame.wire.trim_end());
        out.parse_us.push(us_since(t0));
        let req = match parsed {
            Ok(req) => req,
            Err(e) => {
                tally.record(Some(format!("replay parse: {e}")));
                continue;
            }
        };
        let t1 = Instant::now();
        let resp: ApiResponse = state.handle(&req);
        out.handle_us.push(us_since(t1));
        let t2 = Instant::now();
        let wire = resp.to_wire();
        out.serialize_us.push(us_since(t2));
        tally.record(check_reply(frame, &wire));
    }
    out.timed_s = elapsed_s(t);

    for frame in frames {
        let t = Instant::now();
        let wire = state.serve_line(frame.wire.trim_end());
        out.serve_line_us.push(us_since(t));
        tally.record(check_reply(frame, &wire));
    }
    out
}

/// TCP loops per run, each against a fresh server: at least
/// `MIN_LOOPS`, and more while the next is expected to end within the
/// run time. Each end-to-end figure is the best of the loops' (highest
/// throughput, lowest latencies), and the fastest loop is kept for the
/// per-layer figures. On a shared VM a closed loop's wake-ups wait for a
/// host CPU whenever neighbours are busy, so a loop's figures are
/// slowed — never sped up — by the host: loops of one run differed by up
/// to 25% at under 1% stolen time.
const MIN_LOOPS: usize = 3;

/// At most this many TCP loops run.
const MAX_LOOPS: usize = 8;

/// A fresh server holding every trained system.
fn start_server(trained: &[TrainedOpprox]) -> std::io::Result<(Arc<ServeState>, Server)> {
    let state = Arc::new(ServeState::new(ServeOptions::default()));
    for system in trained {
        state.install(system.clone(), None);
    }
    let server = Server::start(Arc::clone(&state))?;
    Ok((state, server))
}

/// What one TCP loop measured.
struct Attempt {
    wall: f64,
    rss_growth: f64,
    steal: f64,
    frames_done: usize,
    /// Frames completed per second in each whole window.
    window_rps: Vec<f64>,
    /// Each window's p90 frame latency.
    window_p90: Vec<f64>,
    /// Every non-scrape frame's latency.
    frame_us: Vec<f64>,
    scrape_ms: Vec<f64>,
    scrape_bytes: usize,
    /// Live threads of the process halfway through a list.
    process_threads: f64,
}

impl Attempt {
    /// Throughput: the median window's rate.
    fn rps(&self) -> f64 {
        median(&self.window_rps)
    }

    /// Geometric mean frame latency, in milliseconds.
    fn geomean_ms(&self) -> f64 {
        geomean(&self.frame_us) / 1e3
    }

    /// p90 frame latency: the median window's, in milliseconds.
    fn p90_ms(&self) -> f64 {
        median(&self.window_p90) / 1e3
    }
}

/// Runs both connections' lists against `addr` (see [`drive`]) and
/// windows what they measured.
fn tcp_loop(addr: SocketAddr, lists: &[Vec<Frame>], seconds: f64, tally: &mut Tally) -> Attempt {
    let rss_before = host::rss_mb();
    let ticks = host::CpuTicks::now();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let stop = AtomicBool::new(false);
    let conns: Vec<Connection> = std::thread::scope(|scope| {
        let stop = &stop;
        let handles: Vec<_> = lists
            .iter()
            .map(|frames| scope.spawn(move || drive(addr, frames, started, deadline, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join().expect("generator thread panicked") {
                Ok(c) => c,
                Err(e) => {
                    let mut c = Connection::default();
                    c.tally.record(Some(format!("connection: {e}")));
                    c
                }
            })
            .collect()
    });
    let wall = elapsed_s(started);
    let rss_growth = host::rss_mb() - rss_before;
    let steal = host::CpuTicks::now().steal_share_since(ticks);

    let windows = ((wall / WINDOW_S) as usize).max(1);
    let mut per_window = vec![0usize; windows];
    let mut window_us = vec![Vec::new(); windows];
    let mut a = Attempt {
        wall,
        rss_growth,
        steal,
        frames_done: 0,
        window_rps: Vec::new(),
        window_p90: Vec::new(),
        frame_us: Vec::new(),
        scrape_ms: Vec::new(),
        scrape_bytes: 0,
        process_threads: 0.0,
    };
    for c in conns {
        a.frames_done += c.done_s.len();
        // Frames finishing in the last, partial window are not windowed.
        for w in c.done_s.iter().map(|t| (t / WINDOW_S) as usize) {
            if let Some(count) = per_window.get_mut(w) {
                *count += 1;
            }
        }
        for &(done, us) in &c.frame_us {
            if let Some(lat) = window_us.get_mut((done / WINDOW_S) as usize) {
                lat.push(us);
            }
            a.frame_us.push(us);
        }
        a.scrape_ms.extend(c.scrape_ms);
        a.scrape_bytes = a.scrape_bytes.max(c.last_scrape_bytes);
        a.process_threads = a.process_threads.max(c.threads);
        tally.absorb(c.tally);
    }
    a.window_rps = per_window.iter().map(|&n| n as f64 / WINDOW_S).collect();
    a.window_p90 = window_us
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| quantile(l, 0.9))
        .collect();
    a
}

/// Runs the `serve` workload.
pub fn run(args: &Args, registry: Registry, tally: &mut Tally) -> Metrics {
    let mut metrics = Metrics::default();
    let apps = registry();
    let shapes: Vec<AppShape> = apps.iter().map(|a| AppShape::of(a.as_ref())).collect();
    let lists: Vec<Vec<Frame>> = (0..CONNECTIONS)
        .map(|c| gen::frames(args.seed, &shapes, c, FRAMES_PER_CONNECTION))
        .collect();
    let keys = gen::optimize_keys(args.seed, &shapes);

    let t = Instant::now();
    let options = TrainingOptions::default();
    let systems = if args.trace {
        let (trained, acc) = crate::train::train_traced(&apps, &options, tally);
        acc.put_stages(&mut metrics, tally);
        trained
    } else {
        crate::train::train_all(&apps, &options, tally).0
    };
    let trained: Vec<TrainedOpprox> = systems.iter().flatten().cloned().collect();
    let mut started = start_server(&trained);
    let setup_s = elapsed_s(t);
    println!(
        "# set-up {setup_s:.3} s, peak RSS {:.1} MB",
        crate::host::peak_rss_mb()
    );

    // The kept loop's figures; the last server stays up for the traced
    // replay and its counters (every server saw the same frames).
    let mut best: Option<Attempt> = None;
    // Every loop's throughput, geometric-mean and p90 latency.
    let (mut rps, mut geomean_ms, mut p90_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempt = 0;
    let measuring = Instant::now();
    // Peak memory through the first loop: a later loop's fresh server
    // lands on heap the allocator kept from the one before.
    let mut peak_rss_mb = 0.0;
    let (state, mut server) = loop {
        attempt += 1;
        let (state, server) = match started {
            Ok(pair) => pair,
            Err(e) => {
                tally.record(Some(format!("server start: {e}")));
                return metrics;
            }
        };
        let a = tcp_loop(server.addr(), &lists, args.seconds, tally);
        if attempt == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
        println!(
            "# TCP loop {attempt}: {} frames in {:.3} s, {:.0}/s (median window), \
             host.steal_share {:.5}; per-window frames/s: {:?}",
            a.frames_done,
            a.wall,
            a.rps(),
            a.steal,
            a.window_rps
                .iter()
                .map(|r| r.round() as u64)
                .collect::<Vec<_>>()
        );
        rps.push(a.rps());
        geomean_ms.push(a.geomean_ms());
        p90_ms.push(a.p90_ms());
        if best.as_ref().is_none_or(|b| a.rps() > b.rps()) {
            best = Some(a);
        }
        let spent = elapsed_s(measuring);
        let next_ends = spent + spent / attempt as f64;
        if attempt >= MIN_LOOPS && (next_ends > args.seconds || attempt == MAX_LOOPS) {
            break (state, server);
        }
        // Stop this server before the next one starts, so two servers'
        // telemetry never share the process's memory.
        drop((state, server));
        started = start_server(&trained);
    };
    let a = best.expect("at least one TCP loop ran");
    // Server threads: the process's, minus this thread and the generators.
    let threads = a.process_threads - 1.0 - CONNECTIONS as f64;
    let tcp_p50 = median(&a.frame_us);
    println!(
        "# kept loop: {} frames over {CONNECTIONS} connections in {:.3} s, {} scrapes",
        a.frames_done,
        a.wall,
        a.scrape_ms.len()
    );

    if !args.trace {
        server.stop();
        let best = |xs: &[f64], better: fn(f64, f64) -> f64| xs.iter().copied().reduce(better);
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put("ops_per_s", best(&rps, f64::max).unwrap_or(0.0), "1/s");
        metrics.put(
            "op_geomean_ms",
            best(&geomean_ms, f64::min).unwrap_or(0.0),
            "ms",
        );
        metrics.put(
            "models_below_target",
            crate::train::below_target(&systems),
            "count",
        );
        metrics.put(
            "plan_speedup",
            crate::plan::predicted_speedup(&systems, &keys, tally),
            "x",
        );
        println!(
            "# kept loop frame p50 {tcp_p50:.1} us; best p90 {:.1} us",
            best(&p90_ms, f64::min).unwrap_or(0.0) * 1e3
        );
        return metrics;
    }

    let tele = state.telemetry();
    let hits = tele.counter_value("serve.cache.hit") as f64;
    let misses = tele.counter_value("serve.cache.miss") as f64;
    let shed = tele.counter_value("serve.shed") as f64;
    // Interleave the two connections' frames as they arrived.
    let replayed: Vec<&Frame> = (0..FRAMES_PER_CONNECTION)
        .flat_map(|i| lists.iter().map(move |l| &l[i]))
        .filter(|f| f.kind != FrameKind::Metrics)
        .take(REPLAY_FRAMES)
        .collect();
    let r = replay(&state, &replayed, tally);
    server.stop();
    crate::plan::put_solves(&mut metrics, &systems, &keys, tally);

    let parse = median(&r.parse_us);
    let handle = median(&r.handle_us);
    let serialize = median(&r.serialize_us);
    let serve_line = median(&r.serve_line_us);
    let overhead = r.timed_s / r.untimed_s - 1.0;
    println!(
        "# tracing overhead: timed replay {:.3} s vs untimed {:.3} s ({:+.2}%); \
         parse {parse:.1} + handle {handle:.1} + serialize {serialize:.1} us, \
         serve_line {serve_line:.1} us, TCP {tcp_p50:.1} us",
        r.timed_s,
        r.untimed_s,
        overhead * 100.0
    );
    metrics.put("api.parse_p50_us", parse, "us");
    metrics.put("api.serialize_p50_us", serialize, "us");
    metrics.put("serve.handler_p50_us", handle, "us");
    metrics.put(
        "serve.queue_p50_us",
        serve_line - parse - handle - serialize,
        "us",
    );
    metrics.put(
        "serve.plan_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "share",
    );
    metrics.put("serve.shed", shed, "count");
    metrics.put("server.transport_p50_us", tcp_p50 - serve_line, "us");
    metrics.put("server.threads", threads, "count");
    metrics.put("serve.p99_us", quantile(&a.frame_us, 0.99), "us");
    metrics.put(
        "telemetry.metrics_reply_bytes",
        a.scrape_bytes as f64,
        "bytes",
    );
    metrics.put("telemetry.scrape_p50_ms", median(&a.scrape_ms), "ms");
    metrics.put("telemetry.rss_growth_mb", a.rss_growth, "MB");
    metrics.put("trace.overhead_share", overhead, "share");
    metrics
}
