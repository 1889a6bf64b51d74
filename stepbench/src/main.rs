//! Run one workload of the step benchmark and print its metrics.
//!
//!     stepbench --workload <lj_strong|eam_bulk|sw_rebalance> --seed <n> \
//!               --seconds <s> --trace <0|1>
//!
//! With `--trace 0` the run is timed untraced for `--seconds`, after a
//! short untimed warm-up, and prints the end-to-end metrics; with
//! `--trace 1` it runs half that untraced and half with every rank's
//! engine wrapped in the timing shim, and prints the per-layer metrics. Either way it checks the physics (serial
//! twin energy, exact metrics at 1 and N driver threads and, where run,
//! a checkpoint round trip) and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A run that an
//! engine error aborts counts as one failed check.
//!
//! Wall times come from `Instant` around public calls only. The modeled
//! (`virtual_*`, `model.*`, `tofu.*`) numbers and the counts are read
//! over a fixed window of steps after set-up, so they repeat bit-for-bit
//! for a given seed; the run checks that against a second cluster driven
//! by one thread.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use stepbench::trace::SpanLog;
use stepbench::workload::{
    energy_error, gather, serial_twin, Exact, WindowStart, Workload, SETUP_STEPS, TWIN_TOLERANCE,
};
use stepbench::{host_fingerprint, median, peak_rss_mb};
use tofumd_core::engine::Op;
use tofumd_md::thermo::ThermoSnapshot;
use tofumd_runtime::Cluster;
use tofumd_threadpool::SpinPool;

/// Set-ups per run; `setup_s` is their median. A fixed count, because
/// later set-ups in one process run slower than earlier ones.
const SETUP_SAMPLES: usize = 15;
/// Untimed warm-up before the timed steps: this share of the run's
/// seconds, at most `WARM_UP_MAX_S`.
const WARM_UP_SHARE: f64 = 0.1;
/// See `WARM_UP_SHARE`.
const WARM_UP_MAX_S: f64 = 2.0;
/// Steps both sides of the checkpoint round trip run after the restore.
const ROUND_TRIP_STEPS: u64 = 10;
/// Traced steps whose spans are written to the span file.
const SPAN_FILE_STEPS: usize = 50;
/// Where span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Correctness checks made by one run.
#[derive(Default)]
struct Checks {
    attempted: u32,
    failed: u32,
}

impl Checks {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if ok {
            eprintln!("check {name}: ok ({detail})");
        } else {
            self.failed += 1;
            eprintln!("check {name}: FAILED ({detail})");
        }
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured
/// prints as null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced, timed part of a run.
struct Timed {
    steps: u64,
    wall: f64,
    step_ms: Vec<f64>,
    rebuild_step_ms: Vec<f64>,
    /// Steps completed in each whole second of the timed part.
    second_steps: Vec<u32>,
    exact: Exact,
    /// Thermo at the serial-twin horizon.
    thermo: ThermoSnapshot,
    /// Steps per second from the end of set-up to the twin horizon.
    horizon_rate: f64,
}

impl Timed {
    /// Mean throughput over the timed part.
    fn mean_steps_per_s(&self) -> f64 {
        self.steps as f64 / self.wall
    }

    /// Median throughput of the timed part's whole seconds: a stall of
    /// the shared host moves the mean far more than the typical second.
    /// The mean when no whole second was timed.
    fn steps_per_s(&self) -> f64 {
        if self.second_steps.is_empty() {
            return self.mean_steps_per_s();
        }
        let mut per_second: Vec<f64> = self.second_steps.iter().map(|&n| f64::from(n)).collect();
        median(&mut per_second)
    }
}

/// Step `c` for a warm-up and then at least `seconds` more, and on past
/// the exact window and the twin horizon if those come later. Only the
/// steps after the warm-up are timed; the step-counted windows start
/// with the first step either way.
fn measure(c: &mut Cluster, w: Workload, seconds: f64) -> Timed {
    let window = WindowStart::open(c);
    let window_end = c.step + w.exact_window();
    let warm_up = Duration::from_secs_f64((seconds * WARM_UP_SHARE).min(WARM_UP_MAX_S));
    let (mut exact, mut thermo) = (None, None);
    let (mut step_ms, mut rebuild_step_ms) = (Vec::new(), Vec::new());
    let mut second_steps: Vec<u32> = Vec::new();
    let (mut steps, mut all_steps) = (0, 0);
    let t0 = Instant::now();
    let mut timing_since: Option<Instant> = None;
    loop {
        let rebuilds = c.rebuild_count;
        let s0 = Instant::now();
        c.run_step();
        let dt = ms(s0.elapsed());
        all_steps += 1;
        if let Some(since) = timing_since {
            steps += 1;
            let second = since.elapsed().as_secs() as usize;
            if second >= second_steps.len() {
                second_steps.resize(second + 1, 0);
            }
            second_steps[second] += 1;
            if c.rebuild_count > rebuilds {
                rebuild_step_ms.push(dt);
            } else {
                step_ms.push(dt);
            }
        } else if t0.elapsed() >= warm_up {
            timing_since = Some(Instant::now());
        }
        if c.step == window_end {
            exact = Some(Exact::close(c, &window));
        }
        if c.step == w.twin_horizon() {
            let rate = all_steps as f64 / t0.elapsed().as_secs_f64();
            thermo = Some((c.thermo(), rate));
        }
        if let (Some(exact), Some((thermo, horizon_rate)), Some(since)) =
            (&exact, &thermo, timing_since)
        {
            let wall = since.elapsed().as_secs_f64();
            if wall >= seconds {
                // The last second is partial.
                second_steps.truncate(wall as usize);
                return Timed {
                    steps,
                    wall,
                    step_ms,
                    rebuild_step_ms,
                    second_steps,
                    exact: exact.clone(),
                    thermo: *thermo,
                    horizon_rate: *horizon_rate,
                };
            }
        }
    }
}

/// Per-layer numbers of the traced part of a run.
fn traced(
    c: &mut Cluster,
    w: Workload,
    seed: u64,
    seconds: f64,
    untraced_rate: f64,
    m: &mut Metrics,
) {
    let mut log = SpanLog::install(c);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || log.steps().len() < 2 {
        log.step(c);
    }
    let wall = t0.elapsed().as_secs_f64();
    let selfs = log.self_times();
    let n = selfs.len() as f64;
    m.put("trace.untraced_steps_per_s", untraced_rate, "1/s");
    m.put("trace.traced_steps_per_s", n / wall, "1/s");
    let total_wall: f64 = selfs.iter().map(|s| s.wall).sum();
    let step_self: f64 = selfs.iter().map(|s| s.step_self).sum();
    m.put("runtime.step_self_ms", step_self / n / 1e6, "ms");
    for op in Op::ALL {
        let name = op.label().replace('-', "_");
        for (half, label) in [(0, "post"), (1, "complete")] {
            let t: f64 = selfs.iter().map(|s| s.engine[op.index()][half]).sum();
            m.put(format!("core.{name}.{label}_ms"), t / n / 1e6, "ms");
        }
    }
    let engine: f64 = selfs.iter().map(|s| s.engine_total()).sum();
    m.put("core.engine_share", engine / total_wall, "ratio");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!("{OUT_DIR}/{}-seed{seed}.spans.json", w.name()),
            log.to_json(SPAN_FILE_STEPS),
        )
    }) {
        eprintln!("span file not written: {e}");
    }
}

/// The deterministic per-layer counts and modeled stage times.
fn exact_metrics(e: &Exact, m: &mut Metrics) {
    let steps = e.steps as f64;
    m.put("runtime.rebuilds", e.rebuilds as f64, "count");
    m.put("runtime.rebalances", e.rebalances as f64, "count");
    m.put("core.msgs_per_step", e.messages as f64 / steps, "count");
    m.put("core.bytes_per_step", e.bytes as f64 / steps, "B");
    m.put(
        "core.bytes_copied_per_step",
        e.bytes_copied as f64 / steps,
        "B",
    );
    m.put(
        "core.copied_share",
        e.bytes_copied as f64 / e.bytes as f64,
        "ratio",
    );
    m.put("core.retries", e.retries as f64, "count");
    m.put("tofu.overlapped_us", e.overlapped * 1e6, "us");
    m.put("tofu.setup_cost_us", e.setup_cost * 1e6, "us");
    m.put("tofu.registrations", e.registrations as f64, "count");
    let [pair, neigh, _comm, modify, other] = e.stages;
    m.put("model.pair_us", pair * 1e6, "us");
    m.put("model.neigh_us", neigh * 1e6, "us");
    m.put("model.modify_us", modify * 1e6, "us");
    m.put("model.other_us", other * 1e6, "us");
}

/// At the next reneighbor boundary of `live`: checkpoint, restore, step
/// both sides and require bit-identical thermo. Returns the write time
/// (ms), container size (bytes) and restore time (ms).
fn round_trip(mut live: Cluster, threads: usize, checks: &mut Checks) -> (f64, f64, f64) {
    loop {
        let rebuilds = live.rebuild_count;
        live.run_step();
        if live.rebuild_count > rebuilds {
            break;
        }
    }
    let t0 = Instant::now();
    let written = live.checkpoint_now();
    let write_ms = ms(t0.elapsed());
    let Ok(bytes) = written else {
        checks.check("checkpoint round trip", false, format!("{written:?}"));
        return (write_ms, f64::NAN, f64::NAN);
    };
    let container = live
        .last_checkpoint()
        .map(<[u8]>::to_vec)
        .unwrap_or_default();
    let t0 = Instant::now();
    let restored = Cluster::restore_from_bytes(&container);
    let restore_ms = ms(t0.elapsed());
    let mut restored = match restored {
        Ok(r) => r,
        Err(e) => {
            checks.check("checkpoint round trip", false, format!("restore: {e}"));
            return (write_ms, bytes as f64, restore_ms);
        }
    };
    restored.set_driver_threads(threads);
    live.run(ROUND_TRIP_STEPS);
    restored.run(ROUND_TRIP_STEPS);
    let (a, b) = (live.thermo(), restored.thermo());
    let same = a.step == b.step
        && [a.pe, a.ke, a.pressure]
            .iter()
            .zip([b.pe, b.ke, b.pressure])
            .all(|(x, y)| x.to_bits() == y.to_bits());
    checks.check(
        "checkpoint round trip",
        same,
        format!(
            "{bytes} bytes at step {}, then {ROUND_TRIP_STEPS} steps: pe {:e} vs {:e}",
            a.step - ROUND_TRIP_STEPS,
            a.pe,
            b.pe
        ),
    );
    (write_ms, bytes as f64, restore_ms)
}

/// Median wall time of `f` over at least `min_reps` calls and at least
/// `seconds` (ms).
fn time_calls(min_reps: usize, seconds: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        let s0 = Instant::now();
        f();
        samples.push(ms(s0.elapsed()));
    }
    median(&mut samples)
}

fn run(a: &Args, threads: usize, checks: &mut Checks, m: &mut Metrics) {
    let w = a.workload;

    // The timed cluster's own set-up is the first set-up sample. The
    // twin's atoms are read between build and stepping, outside it.
    let t0 = Instant::now();
    let mut c = w.build(a.seed, threads);
    let built = t0.elapsed();
    let rows = gather(&c);
    let t1 = Instant::now();
    c.run(SETUP_STEPS);
    let mut setup_s = vec![(built + t1.elapsed()).as_secs_f64()];
    let (cfg, global, natoms) = (c.cfg, c.global_box(), c.natoms());

    let untraced_s = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let timed = measure(&mut c, w, untraced_s);
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    checks.check(
        "atoms conserved",
        c.natoms() == natoms,
        format!("{} of {natoms}", c.natoms()),
    );
    let e = &timed.exact;
    if a.trace {
        traced(
            &mut c,
            w,
            a.seed,
            a.seconds - untraced_s,
            timed.mean_steps_per_s(),
            m,
        );
        exact_metrics(e, m);
    } else {
        m.put("steps_per_s", timed.steps_per_s(), "1/s");
        m.put("step_ms_p50", median(&mut timed.step_ms.clone()), "ms");
        m.put(
            "rebuild_step_ms_p50",
            median(&mut timed.rebuild_step_ms.clone()),
            "ms",
        );
        m.put("peak_rss_mb", rss, "MiB");
        m.put("virtual_step_us", e.step_time * 1e6, "us");
        m.put("virtual_comm_us", e.stages[2] * 1e6, "us");
    }
    eprintln!(
        "{}: {} steps in {:.2} s ({} rebuild steps), {threads} driver threads",
        w.name(),
        timed.steps,
        timed.wall,
        timed.rebuild_step_ms.len()
    );
    drop(c);

    // More set-up samples, each cluster dropped before the next: peak RSS
    // was read above, so it stays that of one cluster.
    while !a.trace && setup_s.len() < SETUP_SAMPLES {
        let t0 = Instant::now();
        let mut c = w.build(a.seed, threads);
        c.run(SETUP_STEPS);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    if !a.trace {
        m.put("setup_s", median(&mut setup_s), "s");
    }

    // The exact metrics again from a fresh cluster at one driver thread.
    let mut reference = w.build(a.seed, 1);
    reference.run(SETUP_STEPS);
    let window = WindowStart::open(&mut reference);
    reference.run(w.exact_window());
    let again = Exact::close(&reference, &window);
    checks.check(
        "exact metrics repeat at 1 and N threads",
        again.bits_equal(e),
        format!(
            "virtual step {:e} s vs {:e} s",
            again.step_time, e.step_time
        ),
    );
    if a.trace || w == Workload::SwRebalance {
        let (write_ms, bytes, restore_ms) = round_trip(reference, threads, checks);
        if a.trace {
            m.put("runtime.checkpoint_write_ms", write_ms, "ms");
            m.put("runtime.checkpoint_bytes", bytes, "B");
            m.put("runtime.restore_ms", restore_ms, "ms");
        }
    } else {
        drop(reference);
    }

    // Serial twin: same atoms, one process, no decomposition. Its steps
    // after set-up are timed against the cluster's same steps; traced runs
    // also time an extra force evaluation every few steps (it recomputes
    // the same forces, so the trajectory is unchanged).
    let mut twin = serial_twin(&cfg, global, &rows);
    twin.run(SETUP_STEPS);
    let (mut serial_wall, mut forces_ms) = (Duration::ZERO, Vec::new());
    while twin.step < w.twin_horizon() {
        let t0 = Instant::now();
        twin.run_step();
        serial_wall += t0.elapsed();
        if a.trace && twin.step.is_multiple_of(5) {
            let t0 = Instant::now();
            twin.compute_forces();
            forces_ms.push(ms(t0.elapsed()));
        }
    }
    let s = twin.snapshot();
    let err = energy_error(timed.thermo.total_energy(), s.total_energy());
    checks.check(
        "serial twin energy",
        err <= TWIN_TOLERANCE,
        format!("relative error {err:.2e} at step {}", w.twin_horizon()),
    );
    if a.trace {
        let serial_rate = (w.twin_horizon() - SETUP_STEPS) as f64 / serial_wall.as_secs_f64();
        let forces_ms = median(&mut forces_ms);
        let reneighbor_ms = time_calls(3, 0.5, || twin.reneighbor());
        m.put("md.serial_steps_per_s", serial_rate, "1/s");
        m.put("md.forces_ms", forces_ms, "ms");
        m.put("md.forces_share", forces_ms * serial_rate / 1e3, "ratio");
        m.put("md.reneighbor_ms", reneighbor_ms, "ms");
        m.put(
            "md.decomp_overhead",
            serial_rate / timed.horizon_rate,
            "ratio",
        );
        drop(twin);

        let pool = SpinPool::new(threads);
        let mut region_us = Vec::with_capacity(20_000);
        for i in 0..20_000 {
            let t0 = Instant::now();
            pool.run(&|_| {});
            if i >= 1_000 {
                region_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        m.put("threadpool.region_us", median(&mut region_us), "us");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stepbench: {e}");
            eprintln!(
                "usage: stepbench --workload <lj_strong|eam_bulk|sw_rebalance> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    println!("host {}", host_fingerprint(threads));
    let (mut checks, mut metrics) = (Checks::default(), Metrics::default());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(&args, threads, &mut checks, &mut metrics);
    }));
    if outcome.is_err() {
        checks.check("run ends without an engine error", false, "panicked".into());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
