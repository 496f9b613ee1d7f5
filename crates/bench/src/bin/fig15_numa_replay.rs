//! Figure 15 (new experiment): **NUMA-aware replay partitioning** — the
//! frozen replay graph as a locality-aware static schedule.
//!
//! The replay engine (fig12/fig14) freezes a whole iteration's task
//! graph up front but, before this experiment, still fed every released
//! task through the *releasing worker's* per-node SPSC buffer — throwing
//! away the one thing replay uniquely knows: the complete future
//! schedule. With `RuntimeConfig::with_replay_partitioning(true)` the
//! frozen graph is partitioned across the runtime's NUMA nodes (greedy
//! BFS growth from the roots, weighted by granule/affinity hints from
//! the recorded access declarations) and every released batch goes
//! straight to its partition's add buffer via the scheduler's
//! node-targeted insertion.
//!
//! Three replay-capable workloads (heat, miniAMR, cholesky) run across
//! the §6.2 ablation presets with partitioning off vs on. CSV:
//! `benchmark,variant,partitioned_s,baseline_s,speedup,routed_fraction,cut_edges,partitions`;
//! also writes `BENCH_fig15_numa_replay.json`.
//!
//! Acceptance (optimized preset, 4 workers, 2 NUMA nodes), three
//! machine-checkable clauses: (1) the per-node scheduler counters in
//! `RunReport` confirm ≥ 90 % of replayed releases were routed to their
//! assigned node's buffer; (2) the static schedule performs ≥ 5× fewer
//! *global* scheduler-lock (DTLock) acquisitions than the
//! non-partitioned release path — routed work synchronizes on
//! node-local partition-queue locks instead of the machine-wide DTLock;
//! (3) partitioned replay ≥ 1.15× over non-partitioned replay on at
//! least one workload — clause 3 needs real parallel hardware (on a
//! single-hardware-thread host, workers time-share one core and
//! placement cannot change wall time; the harness prints the host's
//! parallelism next to the verdict).
//!
//! Extra knobs: `NANOTASK_NUMA_NODES` (default 2), `NANOTASK_ITERS`
//! (timesteps per run, default 16), `NANOTASK_WORKERS` (default 4),
//! `NANOTASK_REPS` (best-of, default 3).

use std::time::Instant;

use nanotask_bench::Opts;
use nanotask_bench::json::{self, Json};
use nanotask_core::{NodeOpStats, RunReport, Runtime, RuntimeConfig};
use nanotask_replay::ReplayReport;
use nanotask_workloads::{IterativeWorkload, iterative_workload_by_name};

/// One measured configuration: best wall time over `reps` fresh
/// runtimes, plus the replay report and runtime report of the last rep
/// (a fresh runtime per rep keeps the cumulative counters per-run).
fn measure(
    mk: impl Fn() -> Runtime,
    w: &mut dyn IterativeWorkload,
    bs: usize,
    reps: usize,
) -> (f64, ReplayReport, RunReport) {
    let mut best = f64::INFINITY;
    let mut report = ReplayReport::default();
    let mut run_report = RunReport::default();
    for _ in 0..reps.max(1) {
        let rt = mk();
        let t0 = Instant::now();
        report = w.run_replay_report(&rt, bs);
        best = best.min(t0.elapsed().as_secs_f64());
        run_report = rt.run_report();
    }
    (best, report, run_report)
}

struct Row {
    benchmark: String,
    variant: String,
    part_s: f64,
    base_s: f64,
    report: ReplayReport,
    run_report: RunReport,
    base_report: ReplayReport,
    base_run_report: RunReport,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.base_s / self.part_s
    }

    /// How many times fewer *global* scheduler-lock (DTLock)
    /// acquisitions the partitioned run performed. This is a
    /// serialization-domain claim, not total-lock-op elimination: routed
    /// batches take node-local partition-queue locks instead
    /// (`SchedOpStats::lock_acquisitions` deliberately excludes those —
    /// shrinking the contention domain from machine-wide to node-wide is
    /// the mechanism being measured).
    fn lock_reduction(&self) -> f64 {
        let base = self.base_run_report.sched.lock_acquisitions.max(1) as f64;
        let part = self.run_report.sched.lock_acquisitions.max(1) as f64;
        base / part
    }

    /// Every release the engine routed, as counted by the *runtime*:
    /// the fraction of `routed_releases` confirmed by node-targeted
    /// insertion counters (per-node `node_stats` where the scheduler has
    /// per-node structures, the aggregate `targeted_tasks` otherwise —
    /// Central has one queue, so only the aggregate exists) plus the
    /// releases the fast path kept inline, which run on their assigned
    /// node by construction (`inline_routed`). In [0, 1]; 1.0 means
    /// every routed release was either inserted on its node or run
    /// inline there.
    fn routed_fraction(&self) -> f64 {
        let routed = self.report.routed_releases;
        if routed == 0 {
            return 0.0;
        }
        let per_node: u64 = self
            .run_report
            .node_stats
            .iter()
            .map(|n| n.targeted_tasks)
            .sum();
        let targeted = if self.run_report.node_stats.is_empty() {
            self.run_report.sched.targeted_tasks
        } else {
            per_node
        };
        (targeted + self.run_report.sched.inline_routed).min(routed) as f64 / routed as f64
    }

    /// Releases the engine must have routed for every fully replayed
    /// iteration: tasks × replays of every cached graph. `routed_releases`
    /// can exceed this (diverged iterations route their fed prefix too);
    /// falling below it means some replayed release escaped routing.
    fn expected_replay_releases(&self) -> u64 {
        self.report
            .per_graph_replays
            .iter()
            .map(|&(_, t, r)| t as u64 * r)
            .sum()
    }

    /// Completeness: the engine routed at least every complete replay's
    /// releases.
    fn coverage_ok(&self) -> bool {
        self.report.routed_releases >= self.expected_replay_releases()
    }

    fn json(&self) -> Json {
        let nodes: Vec<Json> = self
            .run_report
            .node_stats
            .iter()
            .map(|n: &NodeOpStats| {
                Json::obj([
                    ("targeted_tasks", Json::from(n.targeted_tasks)),
                    ("home_tasks", Json::from(n.home_tasks)),
                ])
            })
            .collect();
        Json::obj([
            ("benchmark", Json::from(self.benchmark.clone())),
            ("variant", Json::from(self.variant.clone())),
            ("partitioned_seconds", Json::from(self.part_s)),
            ("baseline_seconds", Json::from(self.base_s)),
            ("speedup", Json::from(self.speedup())),
            ("iterations", Json::from(self.report.iterations)),
            ("replayed", Json::from(self.report.replayed)),
            ("rerecords", Json::from(self.report.rerecords)),
            ("partitions", Json::from(self.report.partitions)),
            ("routed_releases", Json::from(self.report.routed_releases)),
            ("cut_edges", Json::from(self.report.partition_cut_edges)),
            ("routed_fraction", Json::from(self.routed_fraction())),
            (
                "expected_replay_releases",
                Json::from(self.expected_replay_releases()),
            ),
            ("coverage_ok", Json::from(self.coverage_ok())),
            (
                "targeted_tasks",
                Json::from(self.run_report.sched.targeted_tasks),
            ),
            (
                "lock_acquisitions",
                Json::from(self.run_report.sched.lock_acquisitions),
            ),
            (
                "baseline_lock_acquisitions",
                Json::from(self.base_run_report.sched.lock_acquisitions),
            ),
            ("lock_reduction", Json::from(self.lock_reduction())),
            ("baseline_replayed", Json::from(self.base_report.replayed)),
            ("node_stats", Json::Arr(nodes)),
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
        .unwrap_or(16)
        .max(4);
    println!(
        "# fig15_numa_replay: workers={workers} numa_nodes={numa} iters={iters} scale={} reps={}",
        opts.scale, opts.reps
    );
    println!(
        "# benchmark,variant,partitioned_s,baseline_s,speedup,routed_fraction,cut_edges,partitions"
    );

    let benches = ["heat", "miniamr", "cholesky"];
    let mut rows: Vec<Row> = Vec::new();
    for preset in RuntimeConfig::ablations() {
        for bench in benches {
            let mut w = iterative_workload_by_name(bench, opts.scale).expect("known workload");
            w.set_iterations(iters);
            // Mid granularity by default (NANOTASK_BS_IDX overrides):
            // partitioning pays through iteration-to-iteration cache
            // affinity, which needs data-heavy tasks — the finest blocks
            // are pure scheduler stress instead.
            let sizes = w.block_sizes();
            let bs_idx = std::env::var("NANOTASK_BS_IDX")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(sizes.len() / 2)
                .min(sizes.len() - 1);
            let bs = sizes[bs_idx];

            let mk = |partitioned: bool| {
                let preset = preset.clone();
                move || {
                    Runtime::new(
                        preset
                            .clone()
                            .workers(workers)
                            .with_numa_nodes(numa)
                            .with_replay_partitioning(partitioned),
                    )
                }
            };

            // Partitioning ON.
            let (part_s, report, run_report) = measure(mk(true), &mut *w, bs, opts.reps);
            w.verify()
                .unwrap_or_else(|e| panic!("{bench} partitioned: {e}"));
            report.assert_classification();

            // Partitioning OFF — the baseline.
            let (base_s, base_report, base_run_report) = measure(mk(false), &mut *w, bs, opts.reps);
            w.verify()
                .unwrap_or_else(|e| panic!("{bench} baseline: {e}"));
            base_report.assert_classification();

            rows.push(Row {
                benchmark: bench.to_string(),
                variant: preset.label.to_string(),
                part_s,
                base_s,
                report,
                run_report,
                base_report,
                base_run_report,
            });
        }
    }

    for r in &rows {
        println!(
            "{},{},{:.6},{:.6},{:.3},{:.3},{},{}",
            r.benchmark,
            r.variant,
            r.part_s,
            r.base_s,
            r.speedup(),
            r.routed_fraction(),
            r.report.partition_cut_edges,
            r.report.partitions,
        );
    }

    // Acceptance, three machine-checkable clauses on the optimized rows:
    //
    // 1. Routing — ≥ 90 % of replayed releases reached their assigned
    //    node's buffer (per-node `RunReport` counters). Hardware-
    //    independent.
    // 2. Serialization-domain reduction — the static schedule performs
    //    ≥ 5× fewer *global* scheduler-lock (DTLock) acquisitions than
    //    the non-partitioned release path: routed work synchronizes on
    //    node-local partition-queue locks instead of the machine-wide
    //    DTLock. Hardware-independent.
    // 3. Wall clock — partitioned replay ≥ 1.15× on at least one
    //    workload. This one needs real parallel hardware: on a host with
    //    a single hardware thread the workers time-share one core, so
    //    *placement* cannot change wall time (the same documented
    //    substitution as the paper-scale platform profiles — the claim
    //    is about the shape, and the routing/lock evidence above is the
    //    part a serialized host can still check).
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let optimized: Vec<&Row> = rows.iter().filter(|r| r.variant == "optimized").collect();
    let best = optimized
        .iter()
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("optimized rows");
    let routed_ok = optimized
        .iter()
        .all(|r| r.routed_fraction() >= 0.9 && r.coverage_ok());
    let best_locks = optimized
        .iter()
        .map(|r| r.lock_reduction())
        .fold(0.0f64, f64::max);
    let locks_ok = best_locks >= 5.0;
    let fast_enough = best.speedup() >= 1.15;
    println!(
        "# >=90% of replayed releases routed to assigned node (all optimized rows): {}",
        if routed_ok { "MET" } else { "NOT MET" }
    );
    println!(
        "# >=5x fewer global (DTLock) acquisitions under the static schedule \
         (work moves to node-local locks): {} ({best_locks:.1}x)",
        if locks_ok { "MET" } else { "NOT MET" }
    );
    println!(
        "# partitioned replay >=1.15x on at least one workload at {workers} workers/{numa} nodes: {} ({} {:.2}x)",
        if fast_enough { "MET" } else { "NOT MET" },
        best.benchmark,
        best.speedup()
    );
    if !fast_enough && host_threads < 2 {
        println!(
            "# note: host exposes {host_threads} hardware thread(s) — workers time-share one \
             core, so NUMA placement cannot change wall time here; the routing and lock-count \
             clauses above are the machine-checkable evidence on this host"
        );
    }
    let target_met = routed_ok && locks_ok && fast_enough;

    let doc = Json::obj([
        ("figure", Json::from("fig15_numa_replay")),
        ("workers", Json::from(workers)),
        ("numa_nodes", Json::from(numa)),
        ("iters", Json::from(iters)),
        ("scale", Json::from(opts.scale)),
        ("reps", Json::from(opts.reps)),
        ("host_threads", Json::from(host_threads)),
        ("routing_met", Json::from(routed_ok)),
        ("lock_reduction_met", Json::from(locks_ok)),
        ("speedup_met", Json::from(fast_enough)),
        ("target_met", Json::from(target_met)),
        ("rows", Json::Arr(rows.iter().map(Row::json).collect())),
    ]);
    match json::write_bench_json("fig15_numa_replay", &doc) {
        Ok(Some(path)) => eprintln!("# wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("# BENCH json write failed: {e}"),
    }
}
