//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path nanobench/Cargo.toml -- \
//!     --workload heat_deps --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one caller, closed loop: each solve starts when the
//! previous one returned. `--trace 0` prints the end-to-end metrics of
//! untraced solves; `--trace 1` interleaves untraced and traced solves on
//! one runtime and prints the per-layer ledger of the traced ones. Every
//! solve's output is checked against a serial loop. The human-readable
//! report goes to stdout first; the last line is one JSON object.

mod ledger;
mod oracle;
mod probe;
mod stats;
mod work;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nanotask_core::{RunOutcome, Runtime, RuntimeConfig};

use ledger::Ledger;
use probe::{Kind, Probe};
use stats::{median, quantile, ratio};
use work::{Burst, Heat, Workload};

/// The configuration users get, on a two-core host.
const WORKERS: usize = 2;
/// Fresh runtimes per end-to-end run: each is one `setup_s` sample and
/// serves an equal share of the run's time, so a run averages over
/// several runtimes (their solve-time levels differ by a few percent).
const ROUNDS: usize = 8;
/// Repetitions of the serial loop; `serial_ms` is their median.
const SERIAL_REPS: usize = 9;

const WORKLOADS: [&str; 3] = ["heat_deps", "heat_replay", "nested_burst"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

fn config() -> RuntimeConfig {
    RuntimeConfig::optimized().workers(WORKERS)
}

/// Solves attempted and failed; a failure is a run outcome that is not
/// ok or an output that misses the serial reference.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Set when the measurement itself is broken (an incomplete or
    /// non-closing ledger); the result is then not `correct`.
    invalid: Option<String>,
}

impl Tally {
    fn count(&mut self, outcome: &RunOutcome, check: Result<(), String>) {
        self.attempted += 1;
        let err = if !outcome.is_ok() || !outcome.completed {
            Some(outcome.summary())
        } else {
            check.err()
        };
        if let Some(e) = err {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Program counters read around the traced solves. The runtime's are
/// cumulative, so the ledger only ever uses differences.
#[derive(Default, Clone, Copy)]
struct Counters {
    deps_accesses: u64,
    deps_deliveries: u64,
    deps_duplicates: u64,
    adds: u64,
    batch_adds: u64,
    pops: u64,
    pop_cache_hits: u64,
    lock_acquisitions: u64,
    inline_runs: u64,
    pool_hits: u64,
    pool_misses: u64,
    tasks_recycled: u64,
    tasks_fresh: u64,
}

impl Counters {
    fn read(rt: &Runtime) -> Self {
        let r = rt.run_report();
        let (deps_accesses, deps_deliveries, deps_duplicates) = r.stats.deps_deliveries;
        Self {
            deps_accesses,
            deps_deliveries,
            deps_duplicates,
            adds: r.sched.adds,
            batch_adds: r.sched.batch_adds,
            pops: r.sched.pops,
            pop_cache_hits: r.sched.pop_cache_hits,
            lock_acquisitions: r.sched.lock_acquisitions,
            inline_runs: r.inline_runs,
            pool_hits: r.stats.alloc.pool_hits,
            pool_misses: r.stats.alloc.pool_misses,
            tasks_recycled: rt.tasks_recycled(),
            tasks_fresh: r.stats.alloc.recycle_misses,
        }
    }

    /// Accumulate `after − before` into `self`.
    fn add_delta(&mut self, before: &Self, after: &Self) {
        macro_rules! delta {
            ($($f:ident),*) => { $( self.$f += after.$f - before.$f; )* };
        }
        delta!(
            deps_accesses,
            deps_deliveries,
            deps_duplicates,
            adds,
            batch_adds,
            pops,
            pop_cache_hits,
            lock_acquisitions,
            inline_runs,
            pool_hits,
            pool_misses,
            tasks_recycled,
            tasks_fresh
        );
    }
}

/// One metric of the result line, echoed with its base on a report line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, base: String) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<36} {value:>14.4} {unit:<6} {base}");
        self.metrics.push(Metric { name, value, unit });
    }
}

fn serial_ms(w: &'static dyn Workload) -> f64 {
    let mut v: Vec<f64> = (0..SERIAL_REPS)
        .map(|_| w.serial().as_secs_f64() * 1e3)
        .collect();
    median(&mut v)
}

/// `--trace 0`: setup and solve-time distribution of untraced solves.
fn end_to_end(w: &'static dyn Workload, seconds: u64, tally: &mut Tally, out: &mut Report) {
    let serial = serial_ms(w);
    let per_round = Duration::from_secs_f64(seconds as f64 / ROUNDS as f64);
    let (mut setup, mut solve_ms) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        w.prepare();
        let t = Instant::now();
        let rt = Runtime::new(config());
        let (outcome, _) = w.solve(&rt, None);
        setup.push(t.elapsed().as_secs_f64());
        tally.count(&outcome, w.check());
        let until = Instant::now() + per_round;
        while Instant::now() < until {
            w.prepare();
            let t = Instant::now();
            let (outcome, _) = w.solve(&rt, None);
            solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.count(&outcome, w.check());
        }
    }
    let tasks = w.dag().len() as f64;
    let n = solve_ms.len();
    let p50 = quantile(&mut solve_ms, 0.5);
    let p90 = quantile(&mut solve_ms, 0.9);
    let beyond = n - (0.9 * n as f64).ceil() as usize;
    let shape: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.1}", q * 100.0, quantile(&mut solve_ms, q)))
        .collect();
    println!("# solve_ms distribution: {}", shape.join(" "));
    out.put("solve_ms_p50", p50, "ms", format!("n={n} solves"));
    out.put(
        "solve_ms_p90",
        p90,
        "ms",
        format!("n={n}, {beyond} beyond p90"),
    );
    out.put(
        "overhead_ns_per_task",
        (WORKERS as f64 * p50 - serial) * 1e6 / tasks,
        "ns",
        format!("workers={WORKERS} serial_ms={serial:.4} tasks={tasks}"),
    );
    out.put(
        "setup_s",
        median(&mut setup),
        "s",
        format!("median of {ROUNDS} cold runtimes"),
    );
    // 0 on every good run, so it cannot be a bounded metric (a bound is a
    // share of the median): the result line carries `failed`/`attempted`.
    println!(
        "{:<36} {:>14.4} {:<6} failed={} attempted={}",
        "fail_ratio",
        tally.fail_ratio(),
        "ratio",
        tally.failed,
        tally.attempted
    );
}

/// `--trace 1`: untraced and traced solves alternate on one runtime; the
/// counters are read around the traced ones only.
fn per_layer(w: &'static dyn Workload, seconds: u64, tally: &mut Tally, out: &mut Report) {
    let serial = serial_ms(w);
    let probe: &'static Probe = Box::leak(Box::new(Probe::new(WORKERS, w.spans_per_worker())));
    let rt = Runtime::new(config());
    w.prepare();
    let (outcome, _) = w.solve(&rt, None);
    tally.count(&outcome, w.check());
    let mut ledger = Ledger::default();
    let mut counters = Counters::default();
    let (mut plain_ms, mut traced_ms, mut freeze_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut iterations, mut replayed, mut cache_hits) = (0usize, 0usize, 0usize);
    let mut trace_errors = 0u64;
    let until = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < until {
        w.prepare();
        let t = Instant::now();
        let (outcome, _) = w.solve(&rt, None);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.count(&outcome, w.check());

        w.prepare();
        let before = Counters::read(&rt);
        let t0 = probe.now();
        let (outcome, report) = w.solve(&rt, Some(probe));
        let t1 = probe.now();
        counters.add_delta(&before, &Counters::read(&rt));
        tally.count(&outcome, w.check());
        traced_ms.push((t1 - t0) as f64 / 1e6);
        if let Some(r) = report {
            iterations += r.iterations;
            replayed += r.replayed;
            cache_hits += r.cache_hits;
            freeze_ms.push(r.freeze_ns as f64 / 1e6);
        }
        match probe.drain() {
            Ok(spans) => ledger.add(w.dag(), &spans, t0, t1),
            Err(e) => {
                trace_errors += 1;
                eprintln!("trace: {e}");
            }
        }
    }
    trace_errors += ledger.missing;

    let solves = ledger.solves as f64;
    let tasks = ledger.tasks as f64;
    let per_task = |k: Kind| ratio(ledger.self_ns[k as usize] as f64, tasks);
    let c = counters;
    let base_tasks = format!(
        "tasks={} over {} traced solves",
        ledger.tasks, ledger.solves
    );
    let spawns = ledger.spawn_ns.len();
    let waits = ledger.ready_wait_ns.len();

    out.put(
        "core.spawn.ns_per_task",
        per_task(Kind::Spawn),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "core.spawn.ns_p50",
        ledger.spawn_ns.quantile(0.5),
        "ns",
        format!("n={spawns} spawns"),
    );
    out.put(
        "core.spawn.ns_p99",
        ledger.spawn_ns.quantile(0.99),
        "ns",
        format!("n={spawns} spawns"),
    );
    out.put(
        "core.deps.decl_ns_per_task",
        per_task(Kind::Decl),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "core.deps.deliveries_per_access",
        ratio(c.deps_deliveries as f64, c.deps_accesses as f64),
        "ratio",
        format!(
            "deliveries={} accesses={}",
            c.deps_deliveries, c.deps_accesses
        ),
    );
    out.put(
        "core.deps.duplicate_ratio",
        ratio(c.deps_duplicates as f64, c.deps_deliveries as f64),
        "ratio",
        format!(
            "duplicates={} deliveries={}",
            c.deps_duplicates, c.deps_deliveries
        ),
    );
    out.put(
        "core.deps.accesses_per_solve",
        ratio(c.deps_accesses as f64, solves),
        "count",
        format!("solves={solves}"),
    );
    out.put(
        "core.runtime.dispatch_ns_per_task",
        ratio(ledger.dispatch_ns as f64, tasks),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "core.runtime.idle_ns_per_task",
        ratio(ledger.idle_ns as f64, tasks),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "core.runtime.ready_wait_ns_p50",
        ledger.ready_wait_ns.quantile(0.5),
        "ns",
        format!("n={waits} tasks"),
    );
    out.put(
        "core.runtime.ready_wait_ns_p99",
        ledger.ready_wait_ns.quantile(0.99),
        "ns",
        format!("n={waits} tasks"),
    );
    out.put(
        "core.taskwait.ns_per_task",
        per_task(Kind::Taskwait),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "core.sched.adds_per_task",
        ratio(c.adds as f64, tasks),
        "ratio",
        format!("adds={} {base_tasks}", c.adds),
    );
    out.put(
        "core.sched.pops_per_task",
        ratio(c.pops as f64, tasks),
        "ratio",
        format!("pops={} {base_tasks}", c.pops),
    );
    out.put(
        "core.sched.batch_adds_per_task",
        ratio(c.batch_adds as f64, tasks),
        "ratio",
        format!("batch_adds={} {base_tasks}", c.batch_adds),
    );
    out.put(
        "core.sched.pop_cache_hit_ratio",
        ratio(c.pop_cache_hits as f64, c.pops as f64),
        "ratio",
        format!("pop_cache_hits={} pops={}", c.pop_cache_hits, c.pops),
    );
    out.put(
        "core.sched.pops_per_solve",
        ratio(c.pops as f64, solves),
        "count",
        format!("solves={solves}"),
    );
    out.put(
        "core.runtime.inline_ratio",
        ratio(c.inline_runs as f64, (c.inline_runs + c.pops) as f64),
        "ratio",
        format!("inline_runs={} pops={}", c.inline_runs, c.pops),
    );
    out.put(
        "locks.pops_per_acquisition",
        ratio(c.pops as f64, c.lock_acquisitions as f64),
        "ratio",
        format!("pops={} acquisitions={}", c.pops, c.lock_acquisitions),
    );
    out.put(
        "locks.acquisitions_per_solve",
        ratio(c.lock_acquisitions as f64, solves),
        "count",
        format!("solves={solves}"),
    );
    out.put(
        "alloc.slab_reuse_ratio",
        ratio(
            c.tasks_recycled as f64,
            (c.tasks_recycled + c.tasks_fresh) as f64,
        ),
        "ratio",
        format!("recycled={} fresh={}", c.tasks_recycled, c.tasks_fresh),
    );
    out.put(
        "alloc.pool_hit_ratio",
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
        "ratio",
        format!("pool_hits={} pool_misses={}", c.pool_hits, c.pool_misses),
    );
    out.put(
        "alloc.peak_task_kb",
        rt.peak_task_bytes() as f64 / 1024.0,
        "KiB",
        "high-water mark of this runtime".into(),
    );
    let nrec = ledger.record_ns.len();
    let niter = ledger.iter_ns.len();
    let record: Vec<f64> = ledger.record_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let iter: Vec<f64> = ledger.iter_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.put(
        "replay.record_ms",
        median(&mut record.clone()),
        "ms",
        format!("n={nrec} record iterations"),
    );
    out.put(
        "replay.freeze_ms",
        median(&mut freeze_ms),
        "ms",
        format!("n={} freezes", freeze_ms.len()),
    );
    out.put(
        "replay.feed_ns_per_task",
        per_task(Kind::Feed),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "replay.iter_ms_p50",
        median(&mut iter.clone()),
        "ms",
        format!("n={niter} replayed iterations"),
    );
    out.put(
        "replay.replayed_ratio",
        ratio(replayed as f64, iterations as f64),
        "ratio",
        format!("replayed={replayed} iterations={iterations}"),
    );
    out.put(
        "replay.cache_hit_ratio",
        ratio(cache_hits as f64, iterations as f64),
        "ratio",
        format!("cache_hits={cache_hits} iterations={iterations}"),
    );
    out.put(
        "kernels.ns_per_task",
        per_task(Kind::Body),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "kernels.serial_ms",
        serial,
        "ms",
        format!("median of {SERIAL_REPS}"),
    );
    out.put(
        "ledger.creator_ns_per_task",
        ratio(
            (ledger.self_ns[Kind::Creator as usize] + ledger.self_ns[Kind::Iter as usize]) as f64,
            tasks,
        ),
        "ns",
        base_tasks.clone(),
    );
    out.put(
        "ledger.wall_ns_per_task",
        ratio(ledger.window_ns as f64, tasks),
        "ns",
        format!("workers={WORKERS} x wall / tasks"),
    );
    out.put(
        "ledger.closure_err",
        ledger.closure_err(),
        "ratio",
        format!(
            "accounted={} window={} (tolerance 0.01)",
            ledger.accounted_ns(),
            ledger.window_ns
        ),
    );
    let traced_p50 = median(&mut traced_ms);
    let plain_p50 = median(&mut plain_ms);
    out.put(
        "trace.overhead_ratio",
        ratio(traced_p50, plain_p50),
        "ratio",
        format!(
            "traced_p50={traced_p50:.4}ms untraced_p50={plain_p50:.4}ms n={} each",
            plain_ms.len()
        ),
    );
    out.put(
        "fail_ratio",
        tally.fail_ratio(),
        "ratio",
        format!("failed={} attempted={}", tally.failed, tally.attempted),
    );
    out.put("bench.traced_solves", solves, "count", String::new());
    out.put(
        "bench.trace_errors",
        trace_errors as f64,
        "count",
        "missing spans or buffer overflows".into(),
    );
    if trace_errors > 0 || ledger.closure_err() > CLOSURE_TOLERANCE {
        tally.invalid = Some(format!(
            "ledger invalid: {trace_errors} trace errors, closure_err {}",
            ledger.closure_err()
        ));
    }
}

/// Largest `ledger.closure_err` the benchmark accepts.
const CLOSURE_TOLERANCE: f64 = 0.01;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nanobench: {e}");
            return ExitCode::from(2);
        }
    };
    let w: &'static dyn Workload = match args.workload.as_str() {
        "heat_deps" => Box::leak(Box::new(Heat::new(args.seed, false))),
        "heat_replay" => Box::leak(Box::new(Heat::new(args.seed, true))),
        _ => Box::leak(Box::new(Burst::new(args.seed))),
    };
    println!(
        "# nanobench workload={} seed={} seconds={} trace={} workers={WORKERS} tasks/solve={} edges/solve={} host_cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.dag().len(),
        w.dag().edges(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut tally = Tally::default();
    let mut report = Report {
        metrics: Vec::new(),
    };
    if args.trace {
        per_layer(w, args.seconds, &mut tally, &mut report);
    } else {
        end_to_end(w, args.seconds, &mut tally, &mut report);
    }
    for e in tally.first_error.iter().chain(&tally.invalid) {
        eprintln!("nanobench: {e}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.invalid.is_none(),
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
