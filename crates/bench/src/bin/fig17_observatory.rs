//! Figure 17 (new experiment): the **observability layer proves
//! itself** — the sharded metrics registry against the legacy counter
//! structs, the exporters against their format contracts, and the whole
//! stack against a hard overhead budget.
//!
//! Three machine-checkable clauses (hard asserts — CI runs this harness
//! at smoke sizes, so a regression fails the build):
//!
//! 1. **Differential** — on a replayed heat run with metrics on, the
//!    registry snapshot must agree *field-by-field* with the legacy
//!    views: `RunReport` (task life cycle, wait-free dependency
//!    deliveries, all eight scheduler-op
//!    families, inline-successor counters, per-NUMA-node insertions) and
//!    `ReplayReport` (iteration classification, cache, partitioning).
//!    Both paths stay live — the structs are rebuilt from registry
//!    handles while the replay engine accumulates its bespoke report —
//!    so a drift in either one breaks the comparison.
//! 2. **Overhead** — turning metrics on (sampled latency histograms,
//!    ready-timestamp stamping, registry counters) must cost ≤ 5% on
//!    the fig16 chains workload — fine-granularity tasks where the
//!    per-task instrumentation is the largest relative cost. Measured
//!    interleaved with alternating within-round order and judged by the
//!    median of per-round ratios (the fig16 methodology);
//!    `NANOTASK_OBS_TOL` overrides the tolerance (default 1.05).
//! 3. **Exporters** — the Perfetto `trace.json` export parses as JSON
//!    and contains ≥ 1 complete task span per worker; the Prometheus
//!    text exposition passes line-by-line validation; the flight
//!    recorder captured ≥ 1 frame.
//!
//! CSV: `metric,registry,legacy` for the differential, then the
//! overhead summary; also writes `BENCH_fig17_observatory.json`.
//!
//! Extra knobs: `NANOTASK_WORKERS` (default 4), `NANOTASK_NUMA_NODES`
//! (default 2), `NANOTASK_ITERS` (timesteps, default 24),
//! `NANOTASK_CHAIN_LEN` (default 384), `NANOTASK_REPS` (rounds, min 5),
//! `NANOTASK_OBS_TOL` (overhead tolerance, default 1.05).

use std::time::Instant;

use nanotask_bench::Opts;
use nanotask_bench::json::{self, Json};
use nanotask_core::{Deps, Runtime, RuntimeConfig, SendPtr};
use nanotask_obs::{perfetto, prometheus};
use nanotask_replay::{ReplayReport, RunIterative};
use nanotask_workloads::iterative_workload_by_name;

/// One differential row: the same quantity read through the registry
/// snapshot and through the legacy struct view.
struct Field {
    name: String,
    registry: u64,
    legacy: u64,
}

/// Read every migrated counter family both ways on a freshly finished
/// runtime (fresh runtime → registry cumulative == this run's report).
fn differential_fields(rt: &Runtime, report: &ReplayReport) -> Vec<Field> {
    let snap = rt.metrics_snapshot();
    let rr = rt.run_report();
    let c = |name: &str| snap.counter(name).unwrap_or(u64::MAX);
    let g = |name: &str| snap.gauge(name).unwrap_or(u64::MAX);
    let mut f: Vec<Field> = Vec::new();
    let mut push = |name: &str, registry: u64, legacy: u64| {
        f.push(Field {
            name: name.to_string(),
            registry,
            legacy,
        })
    };

    // Task life cycle (RuntimeStats).
    push(
        "nanotask_tasks_created_total",
        c("nanotask_tasks_created_total"),
        rr.stats.tasks_created,
    );
    push(
        "nanotask_tasks_executed_total",
        c("nanotask_tasks_executed_total"),
        rr.stats.tasks_executed,
    );
    push(
        "nanotask_tasks_freed_total",
        c("nanotask_tasks_freed_total"),
        rr.stats.tasks_freed,
    );

    // Wait-free dependency counters (RuntimeStats::deps_deliveries).
    let (accesses, deliveries, duplicates) = rr.stats.deps_deliveries;
    push(
        "nanotask_deps_accesses_total",
        c("nanotask_deps_accesses_total"),
        accesses,
    );
    push(
        "nanotask_deps_deliveries_total",
        c("nanotask_deps_deliveries_total"),
        deliveries,
    );
    push(
        "nanotask_deps_duplicates_total",
        c("nanotask_deps_duplicates_total"),
        duplicates,
    );

    // Scheduler operations (SchedOpStats).
    push(
        "nanotask_sched_adds_total",
        c("nanotask_sched_adds_total"),
        rr.sched.adds,
    );
    push(
        "nanotask_sched_batch_adds_total",
        c("nanotask_sched_batch_adds_total"),
        rr.sched.batch_adds,
    );
    push(
        "nanotask_sched_batch_tasks_total",
        c("nanotask_sched_batch_tasks_total"),
        rr.sched.batch_tasks,
    );
    push(
        "nanotask_sched_pops_total",
        c("nanotask_sched_pops_total"),
        rr.sched.pops,
    );
    push(
        "nanotask_sched_pop_cache_hits_total",
        c("nanotask_sched_pop_cache_hits_total"),
        rr.sched.pop_cache_hits,
    );
    push(
        "nanotask_sched_lock_acquisitions_total",
        c("nanotask_sched_lock_acquisitions_total"),
        rr.sched.lock_acquisitions,
    );
    push(
        "nanotask_sched_targeted_batch_adds_total",
        c("nanotask_sched_targeted_batch_adds_total"),
        rr.sched.targeted_batch_adds,
    );
    push(
        "nanotask_sched_targeted_tasks_total",
        c("nanotask_sched_targeted_tasks_total"),
        rr.sched.targeted_tasks,
    );

    // Inline-successor counters (folded into RunReport).
    push(
        "nanotask_inline_runs_total",
        c("nanotask_inline_runs_total"),
        rr.inline_runs,
    );
    push(
        "nanotask_max_inline_depth",
        g("nanotask_max_inline_depth"),
        rr.max_inline_depth,
    );
    push(
        "nanotask_inline_routed_total",
        c("nanotask_inline_routed_total"),
        rr.sched.inline_routed,
    );

    // Per-NUMA-node insertions (labeled counters vs `node_stats`).
    for (node, ns) in rr.node_stats.iter().enumerate() {
        let label = node.to_string();
        let labels: [(&str, &str); 1] = [("node", &label)];
        push(
            &format!("nanotask_node_targeted_tasks_total{{node={node}}}"),
            snap.counter_with("nanotask_node_targeted_tasks_total", &labels)
                .unwrap_or(u64::MAX),
            ns.targeted_tasks,
        );
        push(
            &format!("nanotask_node_home_tasks_total{{node={node}}}"),
            snap.counter_with("nanotask_node_home_tasks_total", &labels)
                .unwrap_or(u64::MAX),
            ns.home_tasks,
        );
    }

    // Replay engine (registry mirror vs bespoke report).
    push(
        "nanotask_replay_iterations_total",
        c("nanotask_replay_iterations_total"),
        report.iterations as u64,
    );
    push(
        "nanotask_replay_replayed_total",
        c("nanotask_replay_replayed_total"),
        report.replayed as u64,
    );
    push(
        "nanotask_replay_rerecords_total",
        c("nanotask_replay_rerecords_total"),
        report.rerecords as u64,
    );
    push(
        "nanotask_replay_diverged_total",
        c("nanotask_replay_diverged_total"),
        report.diverged as u64,
    );
    push(
        "nanotask_replay_cache_hits_total",
        c("nanotask_replay_cache_hits_total"),
        report.cache_hits as u64,
    );
    push(
        "nanotask_replay_cache_misses_total",
        c("nanotask_replay_cache_misses_total"),
        report.cache_misses as u64,
    );
    push(
        "nanotask_replay_cache_evictions_total",
        c("nanotask_replay_cache_evictions_total"),
        report.cache_evictions,
    );
    push(
        "nanotask_replay_pinned_iterations_total",
        c("nanotask_replay_pinned_iterations_total"),
        report.pinned_iterations as u64,
    );
    push(
        "nanotask_replay_giveups_total",
        c("nanotask_replay_giveups_total"),
        report.giveups as u64,
    );
    push(
        "nanotask_replay_nested_spawns_total",
        c("nanotask_replay_nested_spawns_total"),
        report.nested_spawns,
    );
    push(
        "nanotask_replay_routed_releases_total",
        c("nanotask_replay_routed_releases_total"),
        report.routed_releases,
    );
    push(
        "nanotask_replay_heap_ops_total",
        c("nanotask_replay_heap_ops_total"),
        report.heap_ops,
    );
    push(
        "nanotask_replay_partition_seeds_total",
        c("nanotask_replay_partition_seeds_total"),
        report.partition_seeds,
    );

    // Freeze/memory accounting (million-task scaling work).
    push(
        "nanotask_replay_freeze_ns_total",
        c("nanotask_replay_freeze_ns_total"),
        report.freeze_ns,
    );
    push(
        "nanotask_replay_tasks_recycled_total",
        c("nanotask_replay_tasks_recycled_total"),
        report.tasks_recycled,
    );
    push(
        "nanotask_replay_graph_bytes",
        g("nanotask_replay_graph_bytes"),
        report.graph_bytes,
    );
    push(
        "nanotask_replay_peak_task_bytes",
        g("nanotask_replay_peak_task_bytes"),
        report.peak_task_bytes,
    );

    // Allocator gauges, published absolutely at snapshot time from the
    // same AllocStats the legacy view reads.
    let a = &rr.stats.alloc;
    push(
        "nanotask_alloc_pool_hits",
        g("nanotask_alloc_pool_hits"),
        a.pool_hits,
    );
    push(
        "nanotask_alloc_pool_misses",
        g("nanotask_alloc_pool_misses"),
        a.pool_misses,
    );
    push(
        "nanotask_alloc_slab_bytes",
        g("nanotask_alloc_slab_bytes"),
        a.slab_bytes,
    );
    push(
        "nanotask_alloc_live_blocks",
        g("nanotask_alloc_live_blocks"),
        a.live,
    );
    push(
        "nanotask_alloc_oversize",
        g("nanotask_alloc_oversize"),
        a.oversize,
    );
    push(
        "nanotask_alloc_tasks_recycled",
        g("nanotask_alloc_tasks_recycled"),
        a.recycle_hits,
    );
    push(
        "nanotask_alloc_task_recycle_misses",
        g("nanotask_alloc_task_recycle_misses"),
        a.recycle_misses,
    );
    push(
        "nanotask_alloc_peak_live_tasks",
        g("nanotask_alloc_peak_live_tasks"),
        a.peak_live_tasks,
    );
    f
}

/// Count complete (`"ph":"X"`) spans per track in a parsed Trace-Event
/// document: `(tid, spans)` pairs, plus the distinct-track count.
fn spans_per_tid(doc: &Json) -> Vec<(u64, u64)> {
    let Json::Obj(pairs) = doc else {
        return Vec::new();
    };
    let Some(Json::Arr(events)) = pairs
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
    else {
        return Vec::new();
    };
    let mut out: Vec<(u64, u64)> = Vec::new();
    for e in events {
        let Json::Obj(fields) = e else { continue };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        if !matches!(get("ph"), Some(Json::Str(s)) if s == "X") {
            continue;
        }
        let Some(Json::Num(tid)) = get("tid") else {
            continue;
        };
        let tid = *tid as u64;
        match out.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, n)) => *n += 1,
            None => out.push((tid, 1)),
        }
    }
    out.sort_unstable();
    out
}

/// The fig16 chains workload at fine granularity: `chains` independent
/// readwrite chains of `len` tiny tasks through `run_iterative`. Returns
/// per-iteration seconds.
fn run_chains(rt: &Runtime, chains: usize, len: usize, iters: usize) -> f64 {
    const CELL_STRIDE: usize = 16;
    let mut cells = vec![0.0f64; chains * CELL_STRIDE];
    let base = SendPtr::new(cells.as_mut_ptr());
    let t0 = Instant::now();
    let report = rt.run_iterative(iters, move |ctx| {
        for c in 0..chains {
            let cell = unsafe { base.add(c * CELL_STRIDE) };
            for _ in 0..len {
                ctx.spawn_labeled(
                    "link",
                    Deps::new().readwrite_addr(cell.addr()),
                    move |_| unsafe {
                        let mut x = *cell.get();
                        for _ in 0..16 {
                            x = x.mul_add(1.000_000_1, 0.125);
                        }
                        *cell.get() = x * 0.5 + 0.000_001;
                    },
                );
            }
        }
    });
    let secs = t0.elapsed().as_secs_f64() / iters as f64;
    assert_eq!(report.replayed, iters - 1, "chains body must replay");
    secs
}

/// Median of per-round `on / off` time ratios.
fn median_ratio(on: &[f64], off: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = on.iter().zip(off).map(|(a, b)| a / b).collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    if n == 0 {
        return 1.0;
    }
    if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    }
}

fn main() {
    let opts = Opts::from_env();
    let workers = opts.workers.unwrap_or(4).clamp(1, 128);
    let numa = std::env::var("NANOTASK_NUMA_NODES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2)
        .clamp(1, workers.max(1));
    let iters = std::env::var("NANOTASK_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(24)
        .max(4);
    let chain_len = std::env::var("NANOTASK_CHAIN_LEN")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(384)
        .max(4);
    let tol = std::env::var("NANOTASK_OBS_TOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.05)
        .max(1.0);
    println!(
        "# fig17_observatory: workers={workers} numa_nodes={numa} iters={iters} \
         chain_len={chain_len} scale={} reps={} tol={tol:.2}",
        opts.scale, opts.reps
    );

    // ---- 1. Differential: replayed heat run, metrics + tracing on. ----
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .workers(workers)
            .with_numa_nodes(numa)
            .with_replay_partitioning(true)
            .tracing(true)
            .with_metrics(true)
            .with_metrics_sample(1)
            .with_flight_recorder(256, 64),
    );
    let mut heat = iterative_workload_by_name("heat", opts.scale).expect("heat workload");
    heat.set_iterations(iters);
    let bs = heat.block_sizes()[0]; // finest blocks = most counter traffic
    let report = heat.run_replay_report(&rt, bs);
    heat.verify().unwrap_or_else(|e| panic!("heat: {e}"));
    report.assert_classification();

    println!("# metric,registry,legacy");
    let fields = differential_fields(&rt, &report);
    let mut mismatches: Vec<String> = Vec::new();
    for f in &fields {
        println!("{},{},{}", f.name, f.registry, f.legacy);
        if f.registry != f.legacy {
            mismatches.push(format!(
                "{}: registry={} legacy={}",
                f.name, f.registry, f.legacy
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "registry snapshot disagrees with the legacy views:\n{}",
        mismatches.join("\n")
    );
    let differential_ok = true;
    println!(
        "# differential: {} fields, registry == legacy on all: MET",
        fields.len()
    );

    // Sanity: the gated paths actually ran on this configuration.
    let snap = rt.metrics_snapshot();
    let exec_hist = snap
        .histogram("nanotask_task_exec_ns")
        .expect("exec histogram registered");
    assert!(
        exec_hist.count > 0,
        "metrics on: exec histogram must sample"
    );
    let feed_hist = snap
        .histogram("nanotask_replay_feed_ns")
        .expect("feed histogram registered");
    assert!(
        feed_hist.count > 0,
        "metrics on: feed histogram must sample"
    );

    // ---- 3a. Perfetto export: valid JSON, ≥1 span per worker. ----
    // Heat's dependence chains inline-route onto few workers; give the
    // trace a wide independent fan-out so every worker demonstrably runs
    // tasks (spinning bodies keep each batch in flight long enough for
    // idle workers to pick work up; repeat until all tracks are covered).
    let mut spans = Vec::new();
    for _attempt in 0..32 {
        rt.run(move |ctx| {
            for _ in 0..workers * 16 {
                ctx.spawn(Deps::new(), |_| {
                    let t0 = Instant::now();
                    while t0.elapsed().as_micros() < 50 {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        let perfetto_json = perfetto::trace_json(&rt.trace());
        let doc = json::parse(&perfetto_json)
            .unwrap_or_else(|e| panic!("perfetto export is not valid JSON: {e}"));
        spans = spans_per_tid(&doc);
        if (0..workers as u64).all(|w| spans.iter().any(|&(tid, n)| tid == w && n > 0)) {
            break;
        }
    }
    let total_spans: u64 = spans.iter().map(|&(_, n)| n).sum();
    for w in 0..workers as u64 {
        assert!(
            spans.iter().any(|&(tid, n)| tid == w && n > 0),
            "worker {w} has no complete span in the Perfetto export \
             (tracks: {spans:?})"
        );
    }
    let perfetto_ok = true;
    println!(
        "# perfetto: valid JSON, {total_spans} complete spans across {} tracks: MET",
        spans.len()
    );

    // ---- 3b. Prometheus exposition: line-by-line validation. ----
    let prom_text = prometheus::render(&snap);
    let prom_lines = prometheus::validate(&prom_text)
        .unwrap_or_else(|e| panic!("prometheus exposition malformed: {e}"));
    assert!(prom_lines > 0, "prometheus dump must contain sample lines");
    let prometheus_ok = true;
    println!("# prometheus: {prom_lines} sample lines validated: MET");

    // ---- 3c. Flight recorder captured frames. ----
    let frames = rt.flight_frames();
    assert!(
        !frames.is_empty(),
        "flight recorder on (every=256) must have captured frames"
    );
    let flight_frames = frames.len();
    println!("# flight recorder: {flight_frames} frames: MET");

    // ---- 2. Overhead: metrics on vs off on the chains workload. ----
    let mk = |metrics: bool| {
        Runtime::new(
            RuntimeConfig::optimized()
                .workers(workers)
                .with_numa_nodes(numa)
                .with_replay_partitioning(true)
                .fast_path(true)
                .with_metrics(metrics),
        )
    };
    // The overhead clause gets floor sizes of its own: at CI smoke
    // scales (chain_len 64, 4 iterations) a single round is microseconds
    // and the ratio is pure noise. One warmup pair is discarded (first
    // touch of the runtime's arenas lands on whichever side goes first).
    let rounds = opts.reps.max(7);
    let o_len = chain_len.clamp(256, 2048);
    let o_iters = iters.max(16);
    let chains = 4usize;
    let mut on_samples = Vec::new();
    let mut off_samples = Vec::new();
    for round in 0..rounds + 1 {
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for metrics in order {
            // Best of two back-to-back runs per side per round: the
            // minimum discards one-sided scheduler-noise spikes that a
            // single draw would fold into the round's ratio.
            let s = (0..2)
                .map(|_| run_chains(&mk(metrics), chains, o_len, o_iters))
                .fold(f64::INFINITY, f64::min);
            if round == 0 {
                continue; // warmup pair
            }
            if metrics {
                on_samples.push(s);
            } else {
                off_samples.push(s);
            }
        }
    }
    let overhead = median_ratio(&on_samples, &off_samples);
    let overhead_ok = overhead <= tol;
    println!(
        "# metrics-on overhead on chains: {overhead:.4}x (tolerance {tol:.2}x): {}",
        if overhead_ok { "MET" } else { "NOT MET" }
    );
    assert!(
        overhead_ok,
        "metrics-on overhead {overhead:.4}x exceeds the {tol:.2}x budget \
         (on: {on_samples:?}, off: {off_samples:?})"
    );

    let target_met = differential_ok && perfetto_ok && prometheus_ok && overhead_ok;
    let samples = |v: &[f64]| Json::Arr(v.iter().map(|&s| Json::from(s)).collect());
    let doc = Json::obj([
        ("figure", Json::from("fig17_observatory")),
        ("workers", Json::from(workers)),
        ("numa_nodes", Json::from(numa)),
        ("iters", Json::from(iters)),
        ("chain_len", Json::from(chain_len)),
        ("scale", Json::from(opts.scale)),
        ("reps", Json::from(rounds)),
        ("differential_fields", Json::from(fields.len())),
        ("differential_met", Json::from(differential_ok)),
        ("perfetto_spans", Json::from(total_spans)),
        ("perfetto_met", Json::from(perfetto_ok)),
        ("prometheus_lines", Json::from(prom_lines)),
        ("prometheus_met", Json::from(prometheus_ok)),
        ("flight_frames", Json::from(flight_frames)),
        ("overhead_ratio", Json::from(overhead)),
        ("overhead_tolerance", Json::from(tol)),
        ("overhead_met", Json::from(overhead_ok)),
        ("target_met", Json::from(target_met)),
        // The differential table doubles as the figure's `rows` array
        // (the common BENCH shape `validate_bench_json` checks).
        (
            "rows",
            Json::Arr(
                fields
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("metric", Json::from(f.name.clone())),
                            ("registry", Json::from(f.registry)),
                            ("legacy", Json::from(f.legacy)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics_on_samples", samples(&on_samples)),
        ("metrics_off_samples", samples(&off_samples)),
    ]);
    match json::write_bench_json("fig17_observatory", &doc) {
        Ok(Some(path)) => eprintln!("# wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("# BENCH json write failed: {e}"),
    }
}
