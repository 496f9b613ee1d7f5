//! Conformance suite of the **steady-state replay hot loop** (CSR
//! graphs + memcpy reset, word-folded signature hashing, the O(log n)
//! heap partitioner with eviction seeding, and inline-successor
//! routing):
//!
//! 1. **Cross-configuration differential**: for random task programs —
//!    including phase-alternating bodies that exercise the cache,
//!    divergence and re-record paths — every configuration of the full
//!    {Delegation, Central, WorkSteal} × {WaitFree, Locking} matrix,
//!    with the fast path + partitioning on AND off, produces the serial
//!    oracle's memory (writers apply a non-commutative update, pinning
//!    every write order), runs every task exactly once per iteration,
//!    and reports field-by-field the same [`ReplayReport`] as the
//!    Delegation × WaitFree knobs-off run (partitioner counters compared
//!    among the knobs-on runs).
//! 2. **Partitioner parity**: on randomized small graphs the heap
//!    partitioner produces the *same assignment* as the retained naive
//!    reference (exact cover + cut parity + identical placement), with
//!    zero frontier rescans.
//! 3. **Wide flat graphs**: first-replay partitioning of ≥ 4k
//!    independent tasks does O(n log n) heap ops (counter-verified
//!    through the engine report).
//! 4. **Eviction survival**: a phase cycle under cache pressure reuses
//!    ≥ 90 % of every evicted assignment on re-entry.

use proptest::prelude::*;

use nanotask::replay::{CapturedSpawn, Partitioning, ReplayGraph, ReplayReport};
use nanotask::runtime_core::sched::{LockKind, WsVariant};
use nanotask::{Deps, DepsKind, RunIterative, Runtime, RuntimeConfig, SchedKind, SendPtr};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

const ADDRS: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Acc {
    Read(usize),
    Write(usize),
    ReadWrite(usize),
}

impl Acc {
    fn addr_idx(&self) -> usize {
        match *self {
            Acc::Read(a) | Acc::Write(a) | Acc::ReadWrite(a) => a,
        }
    }

    fn mode(&self) -> nanotask::runtime_core::AccessMode {
        use nanotask::runtime_core::AccessMode;
        match self {
            Acc::Read(_) => AccessMode::Read,
            Acc::Write(_) => AccessMode::Write,
            Acc::ReadWrite(_) => AccessMode::ReadWrite,
        }
    }
}

fn acc_strategy() -> impl Strategy<Value = Acc> {
    (0usize..ADDRS, 0u8..3).prop_map(|(a, m)| match m {
        0 => Acc::Read(a),
        1 => Acc::Write(a),
        _ => Acc::ReadWrite(a),
    })
}

type Program = Vec<(Vec<Acc>, u64)>;

fn task_strategy() -> impl Strategy<Value = (Vec<Acc>, u64)> {
    (proptest::collection::vec(acc_strategy(), 1..3), 1u64..1000).prop_map(|(mut accs, seed)| {
        accs.dedup_by_key(|a| a.addr_idx());
        (accs, seed)
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    proptest::collection::vec(task_strategy(), 1..12)
}

/// Deterministic, non-commutative writer update.
fn mix(old: u64, seed: u64) -> u64 {
    old.wrapping_mul(6364136223846793005)
        .wrapping_add(seed)
        .rotate_left(13)
}

/// Serial reference over a phase-alternating run: iteration `i` executes
/// program `phases[i % phases.len()]`.
fn serial(phases: &[Program], iters: usize) -> [u64; ADDRS] {
    let mut mem = [0u64; ADDRS];
    for i in 0..iters {
        for (accs, seed) in &phases[i % phases.len()] {
            for acc in accs {
                if let Acc::Write(a) | Acc::ReadWrite(a) = *acc {
                    mem[a] = mix(mem[a], *seed);
                }
            }
        }
    }
    mem
}

/// Freeze a program's shape into a [`ReplayGraph`] directly (decl-derived
/// edges, no runtime involved) — the partitioner's input.
fn freeze(p: &Program) -> ReplayGraph {
    let base = 0x1000usize;
    let captured: Vec<CapturedSpawn> = p
        .iter()
        .map(|(accs, _)| {
            CapturedSpawn::bare(
                "t",
                0,
                accs.iter()
                    .map(|a| {
                        nanotask::runtime_core::AccessDecl::new(
                            base + 8 * a.addr_idx(),
                            8,
                            a.mode(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    ReplayGraph::build(&captured, &[])
}

/// Everything one engine run produced that the differential compares.
struct Outcome {
    report: ReplayReport,
    mem: [u64; ADDRS],
    runs: Vec<u64>,
}

/// Run a phase-alternating body (`phases[i % len]` at iteration `i`)
/// under one configuration over `mem` (zeroed first) and collect the
/// outcome. Reusing one buffer keeps the declared addresses — and with
/// them every structural hash — identical across configurations.
fn run_engine(
    mem: &mut [u64; ADDRS],
    phases: &[Program],
    iters: usize,
    sched: SchedKind,
    deps: DepsKind,
    knobs_on: bool,
) -> Outcome {
    let mut cfg = RuntimeConfig::optimized()
        .scheduler(sched)
        .dependency_system(deps)
        .workers(3);
    if knobs_on {
        cfg = cfg
            .with_numa_nodes(2)
            .with_replay_partitioning(true)
            .fast_path(true);
    }
    let rt = Runtime::new(cfg);
    *mem = [0; ADDRS];
    let base = SendPtr::new(mem.as_mut_ptr());
    let n: usize = phases.iter().map(Vec::len).max().unwrap_or(0);
    let runs: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let iter_ix = Arc::new(AtomicU64::new(0));
    let report = {
        let phases = phases.to_vec();
        let runs = Arc::clone(&runs);
        rt.run_iterative(iters, move |ctx| {
            let i = iter_ix.fetch_add(1, Ordering::Relaxed) as usize;
            for (ti, (accs, seed)) in phases[i % phases.len()].iter().enumerate() {
                let mut d = Deps::new();
                for acc in accs {
                    let addr = unsafe { base.add(acc.addr_idx()).addr() };
                    d = match acc {
                        Acc::Read(_) => d.read_addr(addr),
                        Acc::Write(_) => d.write_addr(addr),
                        Acc::ReadWrite(_) => d.readwrite_addr(addr),
                    };
                }
                let accs = accs.clone();
                let seed = *seed;
                let runs = Arc::clone(&runs);
                ctx.spawn(d, move |_| {
                    runs[ti].fetch_add(1, Ordering::Relaxed);
                    for acc in &accs {
                        if let Acc::Write(a) | Acc::ReadWrite(a) = *acc {
                            let p = unsafe { base.add(a).get() };
                            unsafe { *p = mix(*p, seed) };
                        }
                    }
                });
            }
        })
    };
    assert_eq!(rt.live_tasks(), 0, "tasks leak under {sched:?}/{deps:?}");
    Outcome {
        report,
        mem: *mem,
        runs: runs.iter().map(|r| r.load(Ordering::Relaxed)).collect(),
    }
}

/// Field-by-field equality of everything the partitioner does not
/// touch, between a reference run and another configuration: every
/// configuration hashes, records and replays the same body identically.
fn assert_reports_equivalent(base: &ReplayReport, r: &ReplayReport, what: &str) {
    r.assert_classification();
    assert_eq!(r.iterations, base.iterations, "{what}: iterations");
    assert_eq!(r.replayed, base.replayed, "{what}: replayed");
    assert_eq!(r.rerecords, base.rerecords, "{what}: rerecords");
    assert_eq!(r.diverged, base.diverged, "{what}: diverged");
    assert_eq!(r.tasks, base.tasks, "{what}: tasks");
    assert_eq!(r.edges, base.edges, "{what}: edges");
    assert_eq!(r.edge_list, base.edge_list, "{what}: edge_list");
    assert_eq!(r.foreign_edges, base.foreign_edges, "{what}: foreign");
    assert_eq!(r.cache_hits, base.cache_hits, "{what}: cache_hits");
    assert_eq!(r.cache_misses, base.cache_misses, "{what}: cache_misses");
    assert_eq!(r.cache_evictions, base.cache_evictions, "{what}: evictions");
    assert_eq!(
        r.pinned_iterations, base.pinned_iterations,
        "{what}: pinned"
    );
    assert_eq!(r.giveups, base.giveups, "{what}: giveups");
    assert_eq!(r.nested_spawns, base.nested_spawns, "{what}: nested");
    assert_eq!(r.pinned_nested, base.pinned_nested, "{what}: pinned_nested");
    assert_eq!(
        r.per_graph_replays, base.per_graph_replays,
        "{what}: per-graph replays (hashes included)"
    );
}

/// Partitioner-side equality among runs with partitioning on (the
/// partitioner is deterministic, so scheduler and dependency system
/// must not change its counters), or its absence when off.
fn assert_partitioning_equivalent(base: &ReplayReport, r: &ReplayReport, what: &str) {
    assert_eq!(r.partitions, base.partitions, "{what}: partitions");
    assert_eq!(
        r.routed_releases, base.routed_releases,
        "{what}: routed_releases"
    );
    assert_eq!(
        r.partition_cut_edges, base.partition_cut_edges,
        "{what}: cut edges"
    );
    assert_eq!(r.heap_ops, base.heap_ops, "{what}: heap_ops");
    assert_eq!(r.partition_seeds, base.partition_seeds, "{what}: seeds");
    if r.partitions > 0 && r.tasks > 1 {
        assert!(r.heap_ops > 0, "{what}: heap partitioner ran");
    }
}

/// Per-task execution counts the serial schedule implies: task `ti`
/// runs once in every iteration whose phase has at least `ti + 1` tasks.
fn expected_runs(phases: &[Program], iters: usize) -> Vec<u64> {
    let n = phases.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|ti| {
            (0..iters)
                .filter(|i| phases[i % phases.len()].len() > ti)
                .count() as u64
        })
        .collect()
}

const SCHEDS: [SchedKind; 3] = [
    SchedKind::Delegation,
    SchedKind::Central(LockKind::PtLock),
    SchedKind::WorkSteal(WsVariant::LifoLocal),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1: every scheduler × deps × knobs configuration replays
    /// phase-alternating random bodies to the serial oracle, runs each
    /// task exactly once per iteration, and reports the same as the
    /// Delegation × WaitFree knobs-off reference.
    #[test]
    fn hotloop_identical_across_configurations(
        a in program_strategy(),
        b in program_strategy(),
    ) {
        let phases = [a, b];
        let iters = 6;
        let want = serial(&phases, iters);
        let want_runs = expected_runs(&phases, iters);
        let mut mem = [0u64; ADDRS];
        let base = run_engine(&mut mem, &phases, iters, SchedKind::Delegation, DepsKind::WaitFree, false);
        let base_on = run_engine(&mut mem, &phases, iters, SchedKind::Delegation, DepsKind::WaitFree, true);
        for sched in SCHEDS {
            for deps in [DepsKind::WaitFree, DepsKind::Locking] {
                for knobs_on in [true, false] {
                    let what = format!("{sched:?}/{deps:?}/knobs={knobs_on}");
                    let out = run_engine(&mut mem, &phases, iters, sched, deps, knobs_on);
                    prop_assert_eq!(out.mem, want, "memory differs from serial ({})", &what);
                    prop_assert_eq!(&out.runs, &want_runs, "run counts ({})", &what);
                    assert_reports_equivalent(&base.report, &out.report, &what);
                    let part_base = if knobs_on { &base_on } else { &base };
                    assert_partitioning_equivalent(&part_base.report, &out.report, &what);
                }
            }
        }
    }

    /// Property 2: the heap partitioner and the retained naive reference
    /// place every node identically on randomized graphs (exact cover +
    /// cut parity are implied by full assignment equality, and asserted
    /// anyway).
    #[test]
    fn heap_partitioner_matches_naive_reference(p in program_strategy()) {
        let g = freeze(&p);
        for parts in 1..=4usize {
            let heap = Partitioning::compute(&g, parts);
            let naive = Partitioning::compute_naive(&g, parts);
            prop_assert_eq!(&heap, &naive, "assignment parity, parts={}", parts);
            prop_assert_eq!(heap.stats().frontier_rescans, 0);
            prop_assert_eq!(naive.stats().heap_ops, 0);
            // Exact cover.
            let mut counts = vec![0usize; heap.parts()];
            for i in 0..g.len() {
                prop_assert!(heap.node_of(i) < heap.parts());
                counts[heap.node_of(i)] += 1;
            }
            prop_assert_eq!(counts.iter().sum::<usize>(), g.len());
            // Cut parity against a recount.
            let recount = g
                .edge_pairs()
                .iter()
                .filter(|&&(x, y)| heap.node_of(x as usize) != heap.node_of(y as usize))
                .count();
            prop_assert_eq!(heap.cut_edges(), recount);
            prop_assert_eq!(naive.cut_edges(), recount);
        }
    }
}

/// Property 3: a wide flat graph (≥ 4k independent tasks) partitions on
/// first replay in O(n log n) heap ops — counter-verified end to end
/// through the engine report.
#[test]
fn wide_flat_graph_first_replay_partitions_in_n_log_n() {
    const N: usize = 4096;
    let cells = Box::leak(vec![0u64; N].into_boxed_slice());
    let base = SendPtr::new(cells.as_mut_ptr());
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .workers(4)
            .with_numa_nodes(2)
            .with_replay_partitioning(true),
    );
    let report = rt.run_iterative(3, move |ctx| {
        for i in 0..N {
            let p = unsafe { base.add(i) };
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        }
    });
    assert_eq!(report.tasks, N);
    assert_eq!(report.replayed, 2);
    let bound = 8 * (N as u64) * (usize::BITS - N.leading_zeros()) as u64;
    assert!(
        report.heap_ops > 0 && report.heap_ops <= bound,
        "heap ops {} within the O(n log n) bound {bound}",
        report.heap_ops
    );
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(*c, 3, "cell {i} ran in all three iterations");
    }
    unsafe { drop(Box::from_raw(cells as *mut [u64])) };
}

/// Property 4: under cache pressure (period-3 phase cycle, 2-entry
/// cache) every evicted graph re-enters with its partitioning seeded
/// from the evicted assignment, reusing ≥ 90 % of it (100 % here — the
/// graphs re-enter unchanged).
#[test]
fn eviction_reentry_reuses_at_least_ninety_percent() {
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .workers(2)
            .with_numa_nodes(2)
            .with_replay_partitioning(true)
            .with_replay_cache_size(2)
            .with_replay_giveup_after(0),
    );
    let slots = Box::leak(vec![0u64; 3].into_boxed_slice());
    let base = SendPtr::new(slots.as_mut_ptr());
    let iter = Arc::new(AtomicU64::new(0));
    let report = rt.run_iterative(15, move |ctx| {
        let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
        let p = unsafe { base.add(i % 3) };
        for _ in 0..6 {
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        }
    });
    assert!(report.cache_evictions > 0, "{report:?}");
    assert!(report.partition_seeds > 0, "{report}");
    assert!(
        report.partition_seed_reused as f64 >= 0.9 * report.partition_seed_total as f64,
        "seed reuse below 90%: {report}"
    );
    report.assert_classification();
    unsafe { drop(Box::from_raw(slots as *mut [u64])) };
}
