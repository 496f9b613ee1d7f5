//! Counter conservation under sharding and batching: the dependency
//! system tallies per operation and flushes onto per-worker registry
//! shards, and the pool allocator counts per magazine. Run a heat-like
//! DAG on 4 workers and check that no update is lost — every figure is
//! compared with an exact count derived from the program itself.

use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use nanotask::runtime_core::deps::flags::FLAG_COUNT;
use nanotask::{Deps, RedOp, Runtime, RuntimeConfig, SendPtr};

const NB: usize = 8;
const STEPS: usize = 10;
/// One cache line per block value, so neighbouring blocks are distinct
/// addresses 64 B apart.
const PAD: usize = 8;

fn neighbours(i: usize, j: usize) -> impl Iterator<Item = (usize, usize)> {
    [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)]
        .into_iter()
        .map(move |(di, dj)| (i as i64 + di, j as i64 + dj))
        .filter(|&(a, b)| a >= 0 && b >= 0 && a < NB as i64 && b < NB as i64)
        .map(|(a, b)| (a as usize, b as usize))
}

/// The serial sweep: block row-major order per step, the DAG's
/// sequential semantics.
fn serial(grid: &mut [f64]) -> f64 {
    let mut residual = 0.0;
    for _ in 0..STEPS {
        for i in 0..NB {
            for j in 0..NB {
                let own = grid[(i * NB + j) * PAD];
                let (mut sum, mut k) = (own, 1.0);
                for (a, b) in neighbours(i, j) {
                    sum += grid[(a * NB + b) * PAD];
                    k += 1.0;
                }
                let new = sum / k;
                residual += (new - own).abs();
                grid[(i * NB + j) * PAD] = new;
            }
        }
    }
    residual
}

fn initial() -> Vec<f64> {
    (0..NB * NB * PAD)
        .map(|x| ((x * 37) % 101) as f64)
        .collect()
}

/// Dependencies of the block task at (i, j): `inout` on the own block,
/// `in` on its neighbours, `reduction(+)` on the residual.
fn block_deps(g: usize, r: usize, i: usize, j: usize) -> Deps {
    let mut deps = Deps::new().readwrite_addr(g + (i * NB + j) * PAD * 8);
    for (a, b) in neighbours(i, j) {
        deps = deps.read_addr(g + (a * NB + b) * PAD * 8);
    }
    deps.reduce_addr(r, 8, RedOp::SumF64)
}

/// Dependencies of the row task that creates row `i`'s block tasks: the
/// union of its children's accesses, so rows order like their blocks.
fn row_deps(g: usize, r: usize, i: usize) -> Deps {
    let mut deps = Deps::new();
    for j in 0..NB {
        deps = deps.readwrite_addr(g + (i * NB + j) * PAD * 8);
    }
    for a in [i.wrapping_sub(1), i + 1] {
        if a < NB {
            for j in 0..NB {
                deps = deps.read_addr(g + (a * NB + j) * PAD * 8);
            }
        }
    }
    deps.reduce_addr(r, 8, RedOp::SumF64)
}

#[test]
fn batched_sharded_counters_lose_no_updates() {
    let rt = Runtime::new(RuntimeConfig::optimized().workers(4));
    let mut expect = initial();
    let expect_residual = serial(&mut expect);

    let mut messages = None;
    for run in 0..3 {
        // Both outlive the run, which returns only once every task is done.
        let mut grid = initial();
        let mut residual = Box::new(0.0f64);
        let g = SendPtr::new(grid.as_mut_ptr());
        let r = SendPtr::new(&mut *residual as *mut f64);
        let declared = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&declared);
        let before = rt.run_report().stats;

        // Row tasks spawn their blocks, so registrations, allocations
        // and frees happen on every worker, not just the root's.
        rt.run(move |ctx| {
            for _ in 0..STEPS {
                for i in 0..NB {
                    let deps = row_deps(g.addr(), r.addr(), i);
                    counted.fetch_add(deps.len() as u64, Ordering::Relaxed);
                    let counted = Arc::clone(&counted);
                    ctx.spawn(deps, move |ctx| {
                        for j in 0..NB {
                            let deps = block_deps(g.addr(), r.addr(), i, j);
                            counted.fetch_add(deps.len() as u64, Ordering::Relaxed);
                            ctx.spawn(deps, move |c| {
                                let grid = g.get();
                                let own = (i * NB + j) * PAD;
                                // SAFETY: `inout` on the own block and `in`
                                // on its neighbours order every access to
                                // them; `red_slot` is this worker's private
                                // slot of the declared residual reduction.
                                unsafe {
                                    let old = *grid.add(own);
                                    let (mut sum, mut k) = (old, 1.0);
                                    for (a, b) in neighbours(i, j) {
                                        sum += *grid.add((a * NB + b) * PAD);
                                        k += 1.0;
                                    }
                                    *grid.add(own) = sum / k;
                                    *c.red_slot(&*r.get()) += (sum / k - old).abs();
                                }
                            });
                        }
                    });
                }
            }
        });

        let after = rt.run_report().stats;
        assert_eq!(grid, expect, "run {run}: grid differs from serial");
        let rel = (*residual - expect_residual).abs() / expect_residual;
        assert!(
            rel < 1e-9,
            "run {run}: residual {} vs {expect_residual}",
            *residual
        );

        let (acc0, del0, dup0) = before.deps_deliveries;
        let (acc1, del1, dup1) = after.deps_deliveries;
        let accesses = acc1 - acc0;
        let deliveries = del1 - del0;
        let declared = declared.load(Ordering::Relaxed);
        assert_eq!(accesses, declared, "run {run}: accesses == declared");
        assert!(deliveries > 0, "run {run}: deliveries happened");
        // Lemma 2.3: each non-duplicate delivery sets a fresh flag bit.
        // A fault-free run never delivers POISON, so |F| − 1 bounds it.
        assert!(
            deliveries <= u64::from(FLAG_COUNT - 1) * accesses,
            "run {run}: {deliveries} deliveries for {accesses} accesses"
        );
        // Every message is sent by the unique delivery that crosses a
        // rule's guard, so the message total is a property of the DAG,
        // not of the interleaving: a lost flush shows up here.
        let sent = deliveries + (dup1 - dup0);
        assert_eq!(*messages.get_or_insert(sent), sent, "run {run}: messages");

        // Every pooled allocation is one access array per spawned task
        // plus one fresh task shell per slab miss — counted exactly once
        // as a magazine hit or miss.
        let tasks = (STEPS * NB * (NB + 1)) as u64;
        let pooled = |s: &nanotask::alloc::AllocStats| s.pool_hits + s.pool_misses;
        let fresh_shells = after.alloc.recycle_misses - before.alloc.recycle_misses;
        assert_eq!(after.alloc.oversize, before.alloc.oversize, "run {run}");
        assert_eq!(
            pooled(&after.alloc) - pooled(&before.alloc),
            tasks + fresh_shells,
            "run {run}: pool hits + misses == pooled allocations"
        );
        // Quiescent: every access array came back (frees land on other
        // workers' magazines); only the slab's task shells stay out.
        assert_eq!(
            after.alloc.live, after.alloc.recycle_misses,
            "run {run}: live blocks == retained task shells"
        );
    }
}
