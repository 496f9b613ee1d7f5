//! Global-allocator calls per task on the spawn and replay-feed paths.
//!
//! A counting `#[global_allocator]` (this test binary only) tallies every
//! `alloc`, `alloc_zeroed` and `realloc` made by any thread. After a
//! warmup pass of the same shape on a 2-worker optimized runtime, each
//! test counts the calls made while a known number of tasks is spawned,
//! run and freed, and hard-asserts the per-task figure:
//!
//! * access-free spawns of small closures allocate nothing: the body is
//!   stored inline in the recycled task shell;
//! * heat-stencil spawns with 6 declarations allocate only the caller's
//!   `Deps` buffer (one reservation on the first push);
//! * a replayed heat iteration allocates about that same one buffer per
//!   task: held tasks carry no declarations and their bodies are inline.
//!
//! The tests serialize on one lock so that no other test's runtime
//! allocates inside a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use nanotask::{Deps, RedOp, RunIterative, Runtime, RuntimeConfig, SendPtr, TaskCtx};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Take the serializing lock. A failed test poisons it; the guarded
/// data is `()`, so the next test proceeds.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

fn runtime() -> Runtime {
    Runtime::new(RuntimeConfig::optimized().workers(2))
}

/// Blocks per side of the heat grid (a torus, so every block has four
/// neighbours and every task exactly 6 declarations).
const NB: usize = 16;
/// One cache line per block.
const PAD: usize = 8;

struct Heat {
    grid: SendPtr<u64>,
    residual: SendPtr<f64>,
}

impl Heat {
    fn new() -> &'static Self {
        let grid = Box::leak(vec![0u64; NB * NB * PAD].into_boxed_slice()).as_mut_ptr();
        let residual = Box::leak(Box::new(0.0f64)) as *mut f64;
        Box::leak(Box::new(Self {
            grid: SendPtr::new(grid),
            residual: SendPtr::new(residual),
        }))
    }

    fn block(&self, i: usize, j: usize) -> usize {
        self.grid.addr() + ((i % NB) * NB + j % NB) * PAD * size_of::<u64>()
    }

    /// Spawn one timestep: `inout(block) in(4 neighbours)
    /// reduction(+: residual)` per block.
    fn spawn_step(&'static self, ctx: &TaskCtx) {
        for i in 0..NB {
            for j in 0..NB {
                let deps = Deps::new()
                    .readwrite_addr(self.block(i, j))
                    .read_addr(self.block(i + NB - 1, j))
                    .read_addr(self.block(i + 1, j))
                    .read_addr(self.block(i, j + NB - 1))
                    .read_addr(self.block(i, j + 1))
                    .reduce_addr(self.residual.addr(), size_of::<f64>(), RedOp::SumF64);
                assert_eq!(deps.len(), 6);
                ctx.spawn(deps, move |c| unsafe {
                    *(self.block(i, j) as *mut u64) += 1;
                    *c.red_slot(&*self.residual.get()) += 1.0;
                });
            }
        }
    }
}

#[test]
fn access_free_spawns_allocate_nothing() {
    let _serial = serial();
    const TASKS: u64 = 20_000;
    static HITS: AtomicU64 = AtomicU64::new(0);
    let rt = runtime();
    let window = std::sync::Arc::new(AtomicU64::new(0));
    for _ in 0..2 {
        let w = std::sync::Arc::clone(&window);
        rt.run(move |ctx| {
            let a0 = allocs();
            for k in 0..TASKS {
                // 24 bytes of capture: inline.
                let (hits, a, b) = (&HITS, k, k ^ 0x5a);
                ctx.spawn(Deps::new(), move |_| {
                    hits.fetch_add(a.wrapping_add(b) & 1, Ordering::Relaxed);
                });
            }
            ctx.taskwait();
            w.store(allocs() - a0, Ordering::SeqCst);
        });
    }
    let per_task = window.load(Ordering::SeqCst) as f64 / TASKS as f64;
    println!("access-free spawn: {per_task:.4} allocations/task");
    assert!(
        per_task < 0.01,
        "{per_task:.4} allocations per access-free spawn"
    );
}

#[test]
fn heat_stencil_spawns_allocate_only_the_deps_buffer() {
    let _serial = serial();
    const STEPS: u64 = 20;
    let heat = Heat::new();
    let rt = runtime();
    let window = std::sync::Arc::new(AtomicU64::new(0));
    for _ in 0..2 {
        let w = std::sync::Arc::clone(&window);
        rt.run(move |ctx| {
            let a0 = allocs();
            for _ in 0..STEPS {
                heat.spawn_step(ctx);
            }
            ctx.taskwait();
            w.store(allocs() - a0, Ordering::SeqCst);
        });
    }
    let tasks = STEPS * (NB * NB) as u64;
    let per_task = window.load(Ordering::SeqCst) as f64 / tasks as f64;
    println!("heat-stencil spawn: {per_task:.4} allocations/task");
    assert!(
        per_task < 1.05,
        "{per_task:.4} allocations per stencil spawn"
    );
}

#[test]
fn replayed_heat_iteration_allocates_about_one_buffer_per_task() {
    let _serial = serial();
    const ITERS: u64 = 24;
    // Measured from the start of iteration FIRST's body to the start of
    // iteration LAST's body: every task of iterations FIRST..LAST has
    // been fed, run and freed in between, and all of them are replays.
    const FIRST: u64 = 3;
    const LAST: u64 = ITERS - 1;
    let heat = Heat::new();
    let rt = runtime();
    let window = std::sync::Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    for _ in 0..2 {
        let iter = AtomicU64::new(0);
        let w = std::sync::Arc::clone(&window);
        let report = rt.run_iterative(ITERS as usize, move |ctx| {
            let k = iter.fetch_add(1, Ordering::Relaxed);
            if k == FIRST {
                w.0.store(allocs(), Ordering::SeqCst);
            }
            if k == LAST {
                w.1.store(allocs(), Ordering::SeqCst);
            }
            heat.spawn_step(ctx);
        });
        assert_eq!(report.replayed as u64, ITERS - 1, "{report:?}");
    }
    let tasks = (LAST - FIRST) * (NB * NB) as u64;
    let delta = window.1.load(Ordering::SeqCst) - window.0.load(Ordering::SeqCst);
    let per_task = delta as f64 / tasks as f64;
    println!("replayed heat task: {per_task:.4} allocations/task");
    assert!(
        per_task < 1.2,
        "{per_task:.4} allocations per replayed task"
    );
}
