//! Figure 13 (new experiment): the **zero-queue hot path** —
//! immediate-successor inline execution + batched ready-task release +
//! per-worker pop cache ([`RuntimeConfig::fast_path`]) — measured on
//! chain-heavy fine-grained workloads across the §6.2 ablation presets.
//!
//! Five workloads, finest granularity first:
//!
//! * `chains` — the distilled hot path: independent `inout` chains of
//!   tiny tasks, each spawned by its own nested *driver* task so task
//!   creation is spread across the workers (a single root creator would
//!   be the critical path at this granularity and hide the scheduler
//!   cost this figure measures). Every completion wakes exactly one
//!   successor; with the fast path on, each chain runs almost entirely
//!   inline (no `add_ready` push, no SPSC traversal, no delegation-lock
//!   drain, no `get_ready` pop per link).
//! * `chains_replay` — the same chain pattern, root-spawned and driven
//!   through `run_iterative`: the replay engine's held-task releases are
//!   the path the fast path defers into inline/batch hand-offs.
//! * `heat` / `heat_replay` — the Gauss–Seidel wavefront at its finest
//!   block size: real successor chains with 1–2 wakes per completion.
//! * `dotprod` — reduction-chain spawning at the finest block size
//!   (mostly exercises batched release + the pop cache; the reduction
//!   group itself is released at spawn time, not completion time).
//!
//! Each (preset, workload) point runs with the fast path off and on
//! (`RuntimeConfig::optimized()` ships it on, so "on" is each preset's
//! default and "off" is `fast_path(false)`);
//! the claim is machine-checkable through the scheduler op counters in
//! [`nanotask_core::RunReport`], not just wall clock: the MET line
//! requires ≥ 1.2× speedup on at least one chain-heavy workload on the
//! optimized preset at 4 workers **and** ≥ 50 % of queue-or-inline task
//! activations bypassing the scheduler queue there.
//!
//! CSV: `benchmark,variant,fast,seconds,speedup,inline_runs,pops,bypass`;
//! also writes `BENCH_fig13_inline_succ.json`.
//!
//! Extra knobs: `NANOTASK_WORKERS` (default 4), `NANOTASK_REPS`
//! (best-of, default 3), `NANOTASK_CHAIN_LEN` (default 2048),
//! `NANOTASK_ITERS` (replay timesteps, default 8).

use std::time::Instant;

use nanotask_bench::Opts;
use nanotask_bench::json::{self, Json};
use nanotask_core::{Deps, RunReport, Runtime, RuntimeConfig, SendPtr};
use nanotask_replay::RunIterative;
use nanotask_workloads::{iterative_workload_by_name, workload_by_name};

/// Stride (in doubles) between chain cells: one 128-byte line each.
const CELL_STRIDE: usize = 16;

/// Dependent-flop body of one chain link (~tens of ns: fine granularity
/// where the scheduler round-trip is a comparable cost).
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

/// Spawn `chains` independent readwrite chains of `len` tasks each into
/// `ctx`. Every completion wakes exactly one successor — the distilled
/// immediate-successor pattern.
fn spawn_chains(ctx: &nanotask_core::TaskCtx, base: SendPtr<f64>, chains: usize, len: usize) {
    for c in 0..chains {
        let cell = unsafe { base.add(c * CELL_STRIDE) };
        for _ in 0..len {
            ctx.spawn_labeled("link", Deps::new().readwrite_addr(cell.addr()), move |_| {
                link_body(cell)
            });
        }
    }
}

fn check_cells(cells: &[f64], chains: usize) {
    for c in 0..chains {
        let got = cells[c * CELL_STRIDE];
        assert!(
            got > 0.0 && got.is_finite(),
            "chain {c} produced garbage: {got}"
        );
    }
}

/// Direct mode, nested creators: one *driver* task per chain spawns that
/// chain's links and task-waits. Creation is spread across the workers
/// (the single-creator root would otherwise be the critical path at this
/// granularity, hiding the scheduler cost this figure measures), so the
/// per-link queue round-trip the fast path removes shows up directly in
/// wall clock. Returns wall seconds.
fn run_chains(rt: &Runtime, chains: usize, len: usize) -> f64 {
    let mut cells = vec![0.0f64; chains * CELL_STRIDE];
    let base = SendPtr::new(cells.as_mut_ptr());
    let t0 = Instant::now();
    rt.run(move |ctx| {
        for c in 0..chains {
            let cell = unsafe { base.add(c * CELL_STRIDE) };
            ctx.spawn_labeled("driver", Deps::new(), move |d| {
                for _ in 0..len {
                    d.spawn_labeled("link", Deps::new().readwrite_addr(cell.addr()), move |_| {
                        link_body(cell)
                    });
                }
                d.taskwait();
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    check_cells(&cells, chains);
    secs
}

/// Replay mode: `iters` timesteps through `run_iterative` — iteration 0
/// records, the rest replay with held-task releases (which the fast path
/// defers into inline/batch hand-offs). Returns *per-replayed-iteration*
/// wall seconds, the fig12-style metric the fast-path claim is about.
fn run_chains_replay(rt: &Runtime, chains: usize, len: usize, iters: usize) -> f64 {
    let mut cells = vec![0.0f64; chains * CELL_STRIDE];
    let base = SendPtr::new(cells.as_mut_ptr());
    let t0 = Instant::now();
    let report = rt.run_iterative(iters, move |ctx| spawn_chains(ctx, base, chains, len));
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.replayed, iters - 1, "chains body must replay");
    check_cells(&cells, chains);
    secs / iters as f64
}

/// One measured point: best-of-`reps` seconds plus the counters of the
/// *final rep alone* (snapshot before/after, subtracted), so the emitted
/// counters and the wall clock describe the same amount of work.
struct Point {
    seconds: f64,
    report: RunReport,
}

/// Counter delta `after - before`. `max_inline_depth` is a maximum, not
/// a counter; the cumulative value is kept.
fn report_diff(before: &RunReport, after: &RunReport) -> RunReport {
    let mut d = after.clone();
    d.stats.tasks_created = after.stats.tasks_created - before.stats.tasks_created;
    d.stats.tasks_executed = after.stats.tasks_executed - before.stats.tasks_executed;
    d.stats.tasks_freed = after.stats.tasks_freed - before.stats.tasks_freed;
    d.inline_runs = after.inline_runs - before.inline_runs;
    d.sched.adds = after.sched.adds - before.sched.adds;
    d.sched.batch_adds = after.sched.batch_adds - before.sched.batch_adds;
    d.sched.batch_tasks = after.sched.batch_tasks - before.sched.batch_tasks;
    d.sched.pops = after.sched.pops - before.sched.pops;
    d.sched.pop_cache_hits = after.sched.pop_cache_hits - before.sched.pop_cache_hits;
    d.sched.lock_acquisitions = after.sched.lock_acquisitions - before.sched.lock_acquisitions;
    d
}

fn measure(cfg: RuntimeConfig, reps: usize, mut run: impl FnMut(&Runtime) -> f64) -> Point {
    let mut best = f64::INFINITY;
    let rt = Runtime::new(cfg);
    for _ in 0..reps.max(1) - 1 {
        best = best.min(run(&rt));
    }
    let before = rt.run_report();
    best = best.min(run(&rt));
    let after = rt.run_report();
    Point {
        seconds: best,
        report: report_diff(&before, &after),
    }
}

fn main() {
    let opts = Opts::from_env();
    let workers = opts.workers.unwrap_or(4).clamp(1, 128);
    let chain_len = std::env::var("NANOTASK_CHAIN_LEN")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2048)
        .max(4);
    println!(
        "# fig13_inline_succ: workers={workers} chain_len={chain_len} scale={} reps={}",
        opts.scale, opts.reps
    );
    println!("# benchmark,variant,fast,seconds,speedup,inline_runs,pops,bypass");

    let mut rows: Vec<Json> = Vec::new();
    // (benchmark, speedup, bypass) on the optimized preset — the MET set.
    let mut optimized_points: Vec<(&'static str, f64, f64)> = Vec::new();

    let iters = std::env::var("NANOTASK_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(2);

    for base in RuntimeConfig::ablations() {
        let variant = base.label;
        // benchmark name → runner closure measured off/on.
        type Runner<'a> = Box<dyn FnMut(&Runtime) -> f64 + 'a>;
        let mut heat = workload_by_name("heat", opts.scale).unwrap();
        let heat_bs = heat.block_sizes()[0];
        let mut heat_replay = iterative_workload_by_name("heat", opts.scale).unwrap();
        heat_replay.set_iterations(iters);
        let heat_replay_bs = heat_replay.block_sizes()[0];
        let mut dot = workload_by_name("dotprod", opts.scale).unwrap();
        let dot_bs = dot.block_sizes()[0];
        let heat_ref = &mut heat;
        let heat_replay_ref = &mut heat_replay;
        let dot_ref = &mut dot;
        let benches: Vec<(&'static str, Runner)> = vec![
            (
                "chains",
                Box::new(move |rt: &Runtime| run_chains(rt, 2 * workers.max(2), chain_len)),
            ),
            (
                "chains_replay",
                Box::new(move |rt: &Runtime| {
                    run_chains_replay(rt, workers.max(2), chain_len.min(512), iters)
                }),
            ),
            (
                "heat",
                Box::new(move |rt: &Runtime| {
                    let t0 = Instant::now();
                    heat_ref.run(rt, heat_bs);
                    let s = t0.elapsed().as_secs_f64();
                    heat_ref.verify().expect("heat verification");
                    s
                }),
            ),
            (
                "heat_replay",
                Box::new(move |rt: &Runtime| {
                    let t0 = Instant::now();
                    heat_replay_ref.run_replay(rt, heat_replay_bs);
                    let s = t0.elapsed().as_secs_f64() / iters as f64;
                    heat_replay_ref.verify().expect("heat replay verification");
                    s
                }),
            ),
            (
                "dotprod",
                Box::new(move |rt: &Runtime| {
                    let t0 = Instant::now();
                    dot_ref.run(rt, dot_bs);
                    let s = t0.elapsed().as_secs_f64();
                    dot_ref.verify().expect("dotprod verification");
                    s
                }),
            ),
        ];

        for (name, mut runner) in benches {
            let off = measure(
                base.clone().workers(workers).fast_path(false),
                opts.reps,
                &mut runner,
            );
            let on = measure(
                base.clone().workers(workers).fast_path(true),
                opts.reps,
                &mut runner,
            );
            let speedup = off.seconds / on.seconds;
            let bypass = on.report.queue_bypass_fraction();
            for (fast, p) in [(false, &off), (true, &on)] {
                println!(
                    "{name},{variant},{fast},{:.6},{speedup:.3},{},{},{:.3}",
                    p.seconds,
                    p.report.inline_runs,
                    p.report.sched.pops,
                    p.report.queue_bypass_fraction(),
                );
                rows.push(Json::obj([
                    ("benchmark", Json::from(name)),
                    ("variant", Json::from(variant)),
                    ("fast_path", Json::from(fast)),
                    ("seconds", Json::from(p.seconds)),
                    ("speedup_on_vs_off", Json::from(speedup)),
                    ("tasks_executed", Json::from(p.report.stats.tasks_executed)),
                    ("inline_runs", Json::from(p.report.inline_runs)),
                    ("max_inline_depth", Json::from(p.report.max_inline_depth)),
                    (
                        "queue_bypass_fraction",
                        Json::from(p.report.queue_bypass_fraction()),
                    ),
                    ("sched_adds", Json::from(p.report.sched.adds)),
                    ("sched_batch_adds", Json::from(p.report.sched.batch_adds)),
                    ("sched_batch_tasks", Json::from(p.report.sched.batch_tasks)),
                    ("sched_pops", Json::from(p.report.sched.pops)),
                    (
                        "sched_pop_cache_hits",
                        Json::from(p.report.sched.pop_cache_hits),
                    ),
                    (
                        "sched_lock_acquisitions",
                        Json::from(p.report.sched.lock_acquisitions),
                    ),
                ]));
            }
            if variant == "optimized" {
                optimized_points.push((name, speedup, bypass));
            }
        }
    }

    for (name, s, b) in &optimized_points {
        println!(
            "# optimized {name}: {s:.2}x speedup, {:.0}% queue bypass",
            b * 100.0
        );
    }
    let target_met = optimized_points
        .iter()
        .filter(|(n, _, _)| n.starts_with("chains") || n.starts_with("heat"))
        .any(|(_, s, b)| *s >= 1.2 && *b >= 0.5);
    println!(
        "# inline+batch >=1.2x with >=50% queue bypass on a chain-heavy workload \
         at {workers} workers (optimized): {}",
        if target_met { "MET" } else { "NOT MET" }
    );

    let doc = Json::obj([
        ("figure", Json::from("fig13_inline_succ")),
        ("workers", Json::from(workers)),
        ("chain_len", Json::from(chain_len)),
        ("scale", Json::from(opts.scale)),
        ("reps", Json::from(opts.reps)),
        ("target_met", Json::from(target_met)),
        ("rows", Json::Arr(rows)),
    ]);
    match json::write_bench_json("fig13_inline_succ", &doc) {
        Ok(Some(path)) => eprintln!("# wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("# BENCH json write failed: {e}"),
    }
}
