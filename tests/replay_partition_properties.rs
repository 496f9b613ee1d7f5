//! Property suite for **NUMA-aware replay partitioning**: the graph
//! partitioner's structural invariants, and end-to-end conformance of
//! partition-routed replay across the scheduler × dependency-system
//! matrix.
//!
//! Checked properties:
//!
//! 1. **Exact cover** — the partitioner assigns every node of a frozen
//!    graph to exactly one partition in `0..parts`, and its per-part
//!    bookkeeping (task counts, weights) sums back to the whole graph;
//! 2. **Cut accounting** — the reported cut-edge count equals an
//!    independent recount over the graph's edge list;
//! 3. **Serial equivalence + exec exactly once** with partitioning *on*
//!    across {Delegation, Central, WorkSteal} × {WaitFree, Locking}:
//!    routing releases to other nodes' buffers must change *where* tasks
//!    run, never *what* runs or how often;
//! 4. **Off = PR 3 behavior** — with the knob off the engine's
//!    classification counters are identical to the partitioned run's
//!    (partitioning changes placement only), the node-targeted scheduler
//!    counters stay at zero, and the report carries no partition info.

use proptest::prelude::*;

use nanotask::replay::{CapturedSpawn, Partitioning, ReplayGraph};
use nanotask::runtime_core::sched::LockKind;
use nanotask::{Deps, DepsKind, RunIterative, Runtime, RuntimeConfig, SchedKind, SendPtr};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

const ADDRS: usize = 5;

/// One randomly-generated access of a synthetic task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    proptest::collection::vec(task_strategy(), 1..20)
}

/// Freeze a program's shape into a [`ReplayGraph`] directly (decl-derived
/// edges, no runtime involved) — the partitioner's input.
fn freeze(p: &Program) -> ReplayGraph {
    // A stable fake address base: the graph builder only compares
    // addresses for equality.
    let base = 0x1000usize;
    let captured: Vec<CapturedSpawn> = p
        .iter()
        .map(|(accs, _)| {
            CapturedSpawn::bare(
                "t",
                0,
                accs.iter()
                    .map(|a| {
                        let addr = base + 8 * a.addr_idx();
                        let mode = match a {
                            Acc::Read(_) => nanotask::runtime_core::AccessMode::Read,
                            Acc::Write(_) => nanotask::runtime_core::AccessMode::Write,
                            Acc::ReadWrite(_) => nanotask::runtime_core::AccessMode::ReadWrite,
                        };
                        nanotask::runtime_core::AccessDecl::new(addr, 8, mode)
                    })
                    .collect(),
            )
        })
        .collect();
    ReplayGraph::build(&captured, &[])
}

/// Deterministic update applied by writers.
fn mix(old: u64, seed: u64) -> u64 {
    old.wrapping_mul(6364136223846793005)
        .wrapping_add(seed)
        .rotate_left(13)
}

/// Serial execution of `iters` repetitions of the program.
fn serial(p: &Program, iters: usize) -> [u64; ADDRS] {
    let mut mem = [0u64; ADDRS];
    for _ in 0..iters {
        for (accs, seed) in p {
            for acc in accs {
                if let Acc::Write(x) | Acc::ReadWrite(x) = *acc {
                    mem[x] = mix(mem[x], *seed);
                }
            }
        }
    }
    mem
}

/// Spawn one iteration of the program, bumping per-task exec counters.
fn spawn_program(
    ctx: &nanotask::TaskCtx,
    program: &Program,
    base: SendPtr<u64>,
    execs: &Arc<Vec<AtomicU64>>,
) {
    for (ti, (accs, seed)) in program.iter().enumerate() {
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
        let execs = Arc::clone(execs);
        ctx.spawn(d, move |_| {
            execs[ti].fetch_add(1, Ordering::Relaxed);
            for acc in &accs {
                if let Acc::Write(x) | Acc::ReadWrite(x) = *acc {
                    let p = unsafe { base.add(x).get() };
                    unsafe { *p = mix(*p, seed) };
                }
            }
        });
    }
}

/// Run `iters` iterations with partitioning on and check conformance;
/// returns the report for cross-variant comparisons.
fn check_partitioned(
    p: &Program,
    sched: SchedKind,
    deps: DepsKind,
    iters: usize,
    partitioned: bool,
) -> (nanotask::ReplayReport, nanotask::RunReport) {
    check_partitioned_cfg(
        p,
        sched,
        deps,
        iters,
        partitioned,
        RuntimeConfig::optimized(),
    )
}

/// [`check_partitioned`] on top of an explicit base configuration.
fn check_partitioned_cfg(
    p: &Program,
    sched: SchedKind,
    deps: DepsKind,
    iters: usize,
    partitioned: bool,
    base: RuntimeConfig,
) -> (nanotask::ReplayReport, nanotask::RunReport) {
    let want = serial(p, iters);
    let rt = Runtime::new(
        base.scheduler(sched)
            .dependency_system(deps)
            .workers(4)
            .with_numa_nodes(2)
            .with_replay_partitioning(partitioned),
    );
    let mut mem = Box::new([0u64; ADDRS]);
    let execs: Arc<Vec<AtomicU64>> = Arc::new((0..p.len()).map(|_| AtomicU64::new(0)).collect());
    let report = {
        let base = SendPtr::new(mem.as_mut_ptr());
        let p = p.clone();
        let execs = Arc::clone(&execs);
        rt.run_iterative(iters, move |ctx| spawn_program(ctx, &p, base, &execs))
    };
    let label = format!("{sched:?}/{deps:?} partitioned={partitioned}");
    assert_eq!(*mem, want, "{label}: serial equivalence");
    for (ti, c) in execs.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            iters as u64,
            "{label}: task {ti} exactly once per iteration"
        );
    }
    report.assert_classification();
    assert_eq!(report.iterations, iters, "{label}");
    assert_eq!(report.rerecords, 1, "{label}: identical shape each iter");
    assert_eq!(report.replayed, iters - 1, "{label}");
    (report, rt.run_report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Partitioner structural invariants on random decl-derived graphs:
    /// exact cover + bookkeeping + cut recount, for 1..=4 parts.
    #[test]
    fn partitions_cover_exactly_and_count_cuts(p in program_strategy()) {
        let g = freeze(&p);
        for parts in 1..=4usize {
            let part = Partitioning::compute(&g, parts);
            // Exact cover of the node set.
            prop_assert_eq!(part.assignments().len(), g.len());
            let mut counts = vec![0usize; part.parts()];
            let mut weights = vec![0u64; part.parts()];
            for i in 0..g.len() {
                let n = part.node_of(i);
                prop_assert!(n < part.parts(), "assignment in range");
                counts[n] += 1;
                let w: u64 = g.decls_of(i).iter().map(|d| d.len as u64).sum();
                weights[n] += w.max(1);
            }
            for n in 0..part.parts() {
                prop_assert_eq!(counts[n], part.tasks_in(n), "task bookkeeping");
                prop_assert_eq!(weights[n], part.weight_of(n), "weight bookkeeping");
            }
            prop_assert_eq!(counts.iter().sum::<usize>(), g.len());
            // Cut recount over the edge list.
            let recount = g
                .edge_pairs()
                .iter()
                .filter(|&&(a, b)| part.node_of(a as usize) != part.node_of(b as usize))
                .count();
            prop_assert_eq!(part.cut_edges(), recount, "cut accounting");
        }
    }

    #[test]
    fn partitioned_replay_conforms_delegation_waitfree(p in program_strategy()) {
        check_partitioned(&p, SchedKind::Delegation, DepsKind::WaitFree, 6, true);
    }

    #[test]
    fn partitioned_replay_conforms_delegation_locking(p in program_strategy()) {
        check_partitioned(&p, SchedKind::Delegation, DepsKind::Locking, 6, true);
    }

    #[test]
    fn partitioned_replay_conforms_central_waitfree(p in program_strategy()) {
        check_partitioned(&p, SchedKind::Central(LockKind::PtLock), DepsKind::WaitFree, 6, true);
    }

    #[test]
    fn partitioned_replay_conforms_central_locking(p in program_strategy()) {
        check_partitioned(&p, SchedKind::Central(LockKind::PtLock), DepsKind::Locking, 6, true);
    }

    #[test]
    fn partitioned_replay_conforms_worksteal_waitfree(p in program_strategy()) {
        check_partitioned(
            &p,
            SchedKind::WorkSteal(nanotask::runtime_core::sched::WsVariant::LifoLocal),
            DepsKind::WaitFree,
            6,
            true,
        );
    }

    #[test]
    fn partitioned_replay_conforms_worksteal_locking(p in program_strategy()) {
        check_partitioned(
            &p,
            SchedKind::WorkSteal(nanotask::runtime_core::sched::WsVariant::LifoLocal),
            DepsKind::Locking,
            6,
            true,
        );
    }

    /// Partitioning must change *placement only*: the engine's
    /// classification counters are identical with the knob on and off,
    /// the off-run never touches the node-targeted scheduler path, and
    /// the on-run routes every replayed release — into a node queue, or
    /// inline on its own node when the fast path is on.
    #[test]
    fn partitioning_off_is_pr3_behavior(p in program_strategy()) {
        for fast in [false, true] {
            let base = RuntimeConfig::optimized().fast_path(fast);
            let (on, on_rr) = check_partitioned_cfg(&p, SchedKind::Delegation, DepsKind::WaitFree, 6, true, base.clone());
            let (off, off_rr) = check_partitioned_cfg(&p, SchedKind::Delegation, DepsKind::WaitFree, 6, false, base);
            // Same classification, shape and cache behavior.
            prop_assert_eq!(off.iterations, on.iterations);
            prop_assert_eq!(off.replayed, on.replayed);
            prop_assert_eq!(off.rerecords, on.rerecords);
            prop_assert_eq!(off.diverged, on.diverged);
            prop_assert_eq!(off.cache_hits, on.cache_hits);
            prop_assert_eq!(off.cache_misses, on.cache_misses);
            prop_assert_eq!(off.tasks, on.tasks);
            prop_assert_eq!(off.edges, on.edges);
            // Off: no partition info, no targeted scheduler traffic.
            prop_assert_eq!(off.partitions, 0);
            prop_assert_eq!(off.routed_releases, 0);
            prop_assert_eq!(off_rr.sched.targeted_batch_adds, 0);
            prop_assert_eq!(off_rr.sched.targeted_tasks, 0);
            prop_assert_eq!(off_rr.sched.inline_routed, 0);
            // On: every replayed release routed, scheduler agrees.
            prop_assert_eq!(on.partitions, 2);
            let expected = (on.tasks * on.replayed) as u64;
            prop_assert_eq!(on.routed_releases, expected, "all replay releases routed");
            prop_assert_eq!(on_rr.sched.targeted_tasks + on_rr.sched.inline_routed, on.routed_releases);
            if !fast {
                prop_assert_eq!(on_rr.sched.inline_routed, 0);
            }
            let targeted: u64 = on_rr.node_stats.iter().map(|n| n.targeted_tasks).sum();
            prop_assert_eq!(targeted, on_rr.sched.targeted_tasks, "per-node counters agree");
        }
    }
}

/// The partitioned release path composes with the zero-queue fast path
/// and with priority scheduling — a deterministic spot-check outside the
/// proptest matrix.
#[test]
fn partitioning_composes_with_fast_path_and_priority() {
    for (fast, policy) in [
        (true, nanotask::runtime_core::sched::Policy::Fifo),
        (false, nanotask::runtime_core::sched::Policy::Priority),
        (true, nanotask::runtime_core::sched::Policy::Priority),
    ] {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(4)
                .with_numa_nodes(2)
                .with_replay_partitioning(true)
                .fast_path(fast)
                .with_policy(policy),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let report = rt.run_iterative(5, move |ctx| {
            for i in 0..12 {
                ctx.spawn_prioritized(
                    "t",
                    i % 3,
                    Deps::new().readwrite_addr(p.addr()),
                    move |_| {
                        unsafe { *p.get() += 1 };
                    },
                );
            }
        });
        assert_eq!(unsafe { *data }, 60, "fast={fast} policy={policy:?}");
        report.assert_classification();
        assert_eq!(report.partitions, 2);
        assert!(report.routed_releases > 0);
        assert_eq!(rt.live_tasks(), 0);
        unsafe { drop(Box::from_raw(data)) };
    }
}

/// Reduction groups replay correctly when their members span partitions.
#[test]
fn partitioned_reductions_span_nodes_correctly() {
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .workers(4)
            .with_numa_nodes(2)
            .with_replay_partitioning(true),
    );
    let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
    let pa = SendPtr::new(acc);
    let iters = 6u64;
    let members = 16u64;
    rt.run_iterative(iters as usize, move |ctx| {
        for i in 0..members {
            ctx.spawn(
                Deps::new().reduce_addr(pa.addr(), 8, nanotask::RedOp::SumF64),
                move |c| unsafe {
                    *c.red_slot(&*(pa.addr() as *const f64)) += (i + 1) as f64;
                },
            );
        }
        ctx.spawn(Deps::new().read_addr(pa.addr()), move |_| {});
    });
    let per_iter = (members * (members + 1) / 2) as f64;
    assert_eq!(unsafe { *acc }, per_iter * iters as f64);
    unsafe { drop(Box::from_raw(acc)) };
}
