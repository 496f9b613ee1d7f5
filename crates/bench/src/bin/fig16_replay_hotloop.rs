//! Figure 16 (new experiment): the **steady-state replay hot loop** —
//! per-iteration time of replayed graphs on CSR-frozen graphs with
//! O(log n) partitioning and inline-successor routing.
//!
//! The replay engine already eliminates per-iteration dependency-system
//! *discovery* cost (fig12) and turns the frozen graph into a static
//! NUMA schedule (fig15); this experiment reports what the steady-state
//! *iteration itself* costs on the layers that carry it:
//!
//! * **CSR layout + memcpy reset** — successor lists, access
//!   declarations and reduction memberships live in shared
//!   compressed-sparse-row arenas built once at freeze time; the
//!   per-iteration counter reset is a single `memcpy` from a template.
//! * **Heap partitioner** — `Partitioning::compute` serves each pick
//!   from a score-indexed heap with lazy invalidation (O(log n)), and an
//!   evicted graph re-entering the cache seeds from its saved
//!   assignment instead of recomputing.
//! * **Inline-successor routing** — a routed release keeps one
//!   *same-node* successor as the releasing worker's inline next task,
//!   so dependence locality composes with partition locality instead of
//!   bypassing it.
//!
//! The speedups these layers brought over the earlier pre-CSR data path
//! (heat 1.34×, cholesky 1.24×, miniAMR 1.15×) are a historical
//! measurement recorded in the committed
//! `BENCH_fig16_replay_hotloop.json`; that data path no longer exists,
//! so this harness reports absolute per-iteration times only.
//!
//! Four workloads at the finest granularity (chains — the distilled
//! successor pattern, root-spawned through `run_iterative` — plus heat,
//! miniAMR and cholesky; heat/cholesky run one step finer than their
//! advertised `block_sizes()` sweep so the earlier figures' baselines
//! stay untouched) run across the §6.2 ablation presets with the fast
//! path and replay partitioning enabled. CSV:
//! `benchmark,variant,per_iter_s,inline_routed,heap_ops`; also writes
//! `BENCH_fig16_replay_hotloop.json`.
//!
//! **Counter guards** (hard asserts — CI runs this harness at smoke
//! sizes, so a regression fails the build):
//!
//! * every row partitioned ≥ 2 ways did > 0 heap ops;
//! * `inline_routed > 0` on the chain workload (optimized preset) when
//!   partitioned — same-node successors actually ran inline.
//!
//! Extra knobs: `NANOTASK_WORKERS` (default 4), `NANOTASK_NUMA_NODES`
//! (default 2), `NANOTASK_ITERS` (timesteps, default 48),
//! `NANOTASK_CHAIN_LEN` (default 512), `NANOTASK_REPS` (best-of,
//! default 3).

use std::time::Instant;

use nanotask_bench::Opts;
use nanotask_bench::json::{self, Json};
use nanotask_core::{Deps, RunReport, Runtime, RuntimeConfig, SendPtr};
use nanotask_replay::{ReplayReport, RunIterative};
use nanotask_workloads::iterative_workload_by_name;

/// Stride (in doubles) between chain cells: one 128-byte line each.
const CELL_STRIDE: usize = 16;

/// Dependent-flop body of one chain link (~tens of ns: fine granularity
/// where the steady-state replay overhead is a comparable cost).
#[inline]
fn link_body(cell: SendPtr<f64>) {
    unsafe {
        let mut x = *cell.get();
        for _ in 0..16 {
            x = x.mul_add(1.000_000_1, 0.125);
        }
        *cell.get() = x * 0.5 + 0.000_001;
    }
}

/// Replayed chains: `chains` independent readwrite chains of `len` tiny
/// tasks, driven through `run_iterative` — every completion wakes
/// exactly one successor, the distilled inline-routing pattern. Returns
/// (per-iteration seconds, replay report).
fn run_chains(rt: &Runtime, chains: usize, len: usize, iters: usize) -> (f64, ReplayReport) {
    let mut cells = vec![0.0f64; chains * CELL_STRIDE];
    let base = SendPtr::new(cells.as_mut_ptr());
    let t0 = Instant::now();
    let report = rt.run_iterative(iters, move |ctx| {
        for c in 0..chains {
            let cell = unsafe { base.add(c * CELL_STRIDE) };
            for _ in 0..len {
                ctx.spawn_labeled("link", Deps::new().readwrite_addr(cell.addr()), move |_| {
                    link_body(cell)
                });
            }
        }
    });
    let secs = t0.elapsed().as_secs_f64() / iters as f64;
    assert_eq!(report.replayed, iters - 1, "chains body must replay");
    for c in 0..chains {
        let got = cells[c * CELL_STRIDE];
        assert!(got > 0.0 && got.is_finite(), "chain {c} garbage: {got}");
    }
    (secs, report)
}

struct Point {
    /// Per-iteration seconds, best across reps.
    per_iter: f64,
    /// Per-iteration seconds of every rep, in run order.
    samples: Vec<f64>,
    report: ReplayReport,
    run_report: RunReport,
}

/// Run `reps` fresh runtimes and keep the best per-iteration time. The
/// point's reports come from the rep that produced the retained
/// (minimum) time, so the emitted counters and wall clock describe the
/// same run.
fn measure(
    mk: &dyn Fn() -> Runtime,
    run: &mut dyn FnMut(&Runtime) -> (f64, ReplayReport),
    reps: usize,
) -> Point {
    let mut point = Point {
        per_iter: f64::INFINITY,
        samples: Vec::new(),
        report: ReplayReport::default(),
        run_report: RunReport::default(),
    };
    for _ in 0..reps.max(1) {
        let rt = mk();
        let (s, r) = run(&rt);
        point.samples.push(s);
        if s < point.per_iter {
            point.per_iter = s;
            point.report = r;
            point.run_report = rt.run_report();
        }
    }
    point
}

struct Row {
    benchmark: String,
    variant: String,
    point: Point,
}

impl Row {
    /// The counter guards this figure's claims rest on; hard asserts so
    /// CI smoke runs catch regressions.
    fn guard(&self) {
        let r = &self.point.report;
        r.assert_classification();
        if r.partitions >= 2 {
            assert!(
                r.heap_ops > 0,
                "{}/{}: heap partitioner must have run",
                self.benchmark,
                self.variant
            );
        }
    }

    fn json(&self) -> Json {
        let p = &self.point;
        Json::obj([
            ("benchmark", Json::from(self.benchmark.clone())),
            ("variant", Json::from(self.variant.clone())),
            ("per_iter_seconds", Json::from(p.per_iter)),
            (
                "samples",
                Json::Arr(p.samples.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("iterations", Json::from(p.report.iterations)),
            ("replayed", Json::from(p.report.replayed)),
            ("tasks", Json::from(p.report.tasks)),
            ("partitions", Json::from(p.report.partitions)),
            ("routed_releases", Json::from(p.report.routed_releases)),
            (
                "inline_routed",
                Json::from(p.run_report.sched.inline_routed),
            ),
            ("heap_ops", Json::from(p.report.heap_ops)),
            ("partition_seeds", Json::from(p.report.partition_seeds)),
            ("inline_runs", Json::from(p.run_report.inline_runs)),
        ])
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
        .unwrap_or(48)
        .max(6);
    let chain_len = std::env::var("NANOTASK_CHAIN_LEN")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(512)
        .max(4);
    println!(
        "# fig16_replay_hotloop: workers={workers} numa_nodes={numa} iters={iters} \
         chain_len={chain_len} scale={} reps={}",
        opts.scale, opts.reps
    );
    println!("# benchmark,variant,per_iter_s,inline_routed,heap_ops");

    let benches = ["chains", "heat", "miniamr", "cholesky"];
    let mut rows: Vec<Row> = Vec::new();
    for preset in RuntimeConfig::ablations() {
        for bench in benches {
            // Fast path and replay partitioning on — the config where all
            // three hot-loop layers engage.
            let mk = || {
                Runtime::new(
                    preset
                        .clone()
                        .workers(workers)
                        .with_numa_nodes(numa)
                        .with_replay_partitioning(true)
                        .fast_path(true),
                )
            };

            let point = if bench == "chains" {
                let chains = 4usize;
                let mut run = |rt: &Runtime| run_chains(rt, chains, chain_len.min(2048), iters);
                measure(&mk, &mut run, opts.reps)
            } else {
                let mut w = iterative_workload_by_name(bench, opts.scale).expect("workload");
                w.set_iterations(iters);
                // One step finer than the workload's advertised sweep:
                // the steady-state overhead this figure measures only
                // dominates when bodies are this tiny, and the workloads
                // accept any divisor block size — the advertised
                // `block_sizes()` (and with them every fig04–fig15
                // baseline) stay untouched. miniAMR's finest point is a
                // semantic minimum (quarter-block reps) and is kept.
                let finest = w.block_sizes()[0];
                let bs = if bench == "miniamr" {
                    finest
                } else {
                    (finest / 2).max(1)
                };
                let mut run = |rt: &Runtime| {
                    let t0 = Instant::now();
                    let report = w.run_replay_report(rt, bs);
                    let s = t0.elapsed().as_secs_f64() / iters as f64;
                    (s, report)
                };
                let point = measure(&mk, &mut run, opts.reps);
                w.verify().unwrap_or_else(|e| panic!("{bench}: {e}"));
                point
            };

            let row = Row {
                benchmark: bench.to_string(),
                variant: preset.label.to_string(),
                point,
            };
            row.guard();
            rows.push(row);
        }
    }

    for r in &rows {
        println!(
            "{},{},{:.6},{},{}",
            r.benchmark,
            r.variant,
            r.point.per_iter,
            r.point.run_report.sched.inline_routed,
            r.point.report.heap_ops,
        );
    }

    // Inline routing composed: same-node successors of the chain
    // workload ran inline (counter-verified).
    let chains = rows
        .iter()
        .find(|r| r.variant == "optimized" && r.benchmark == "chains")
        .expect("chains row");
    let inline_routed = chains.point.run_report.sched.inline_routed;
    let inline_ok = inline_routed > 0;
    assert!(
        inline_ok || chains.point.report.partitions < 2,
        "chains must inline-route when partitioned: {:?}",
        chains.point.run_report.sched
    );
    println!(
        "# inline-routed successors on chains (optimized): {} ({inline_routed})",
        if inline_ok { "MET" } else { "NOT MET" },
    );

    let doc = Json::obj([
        ("figure", Json::from("fig16_replay_hotloop")),
        ("workers", Json::from(workers)),
        ("numa_nodes", Json::from(numa)),
        ("iters", Json::from(iters)),
        ("chain_len", Json::from(chain_len)),
        ("scale", Json::from(opts.scale)),
        ("reps", Json::from(opts.reps)),
        ("inline_routed_met", Json::from(inline_ok)),
        ("rows", Json::Arr(rows.iter().map(Row::json).collect())),
    ]);
    match json::write_bench_json("fig16_replay_hotloop", &doc) {
        Ok(Some(path)) => eprintln!("# wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("# BENCH json write failed: {e}"),
    }
}
