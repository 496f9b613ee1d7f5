//! The three workloads. Task spawning lives here, driven only through the
//! runtime's public API; the task bodies call `nanotask_workloads::kernels`
//! and nothing else from the repository's workloads crate, so edits there
//! cannot change what this benchmark measures.
//!
//! Workload objects are leaked once per process: task bodies must be
//! `'static`, and a borrowed `&'static` keeps every captured closure a
//! few words wide (the spawn path copies it into the task).

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nanotask_core::{AccessMode, Deps, RedOp, RunOutcome, Runtime, SendPtr, TaskCtx};
use nanotask_replay::{ReplayReport, RunIterative};
use nanotask_workloads::kernels::{dot_block, gauss_seidel_block};

use crate::oracle::{Access, Dag};
use crate::probe::{Kind, Probe, ROOT};
use crate::stats::Rng;

pub trait Workload: Sync {
    /// The task DAG of one solve, in spawn order (the root excluded).
    fn dag(&self) -> &Dag;
    /// Span buffer size per worker that holds one traced solve.
    fn spans_per_worker(&self) -> usize;
    /// Reset the outputs to the seeded inputs (outside the timed solve).
    fn prepare(&self);
    /// One solve; the report is present for the replay workload.
    fn solve(
        &'static self,
        rt: &Runtime,
        probe: Option<&'static Probe>,
    ) -> (RunOutcome, Option<ReplayReport>);
    /// Compare the last solve's outputs with the serial reference.
    fn check(&self) -> Result<(), String>;
    /// Time of one plain single-threaded loop over the same kernels and
    /// inputs.
    fn serial(&self) -> Duration;
}

/// Record a span if tracing; `start` came from the same probe.
#[inline]
fn span(probe: Option<&Probe>, worker: usize, kind: Kind, task: u32, start: u64) {
    if let Some(p) = probe {
        p.record(worker, kind, task, start, p.now());
    }
}

#[inline]
fn now(probe: Option<&Probe>) -> u64 {
    probe.map_or(0, Probe::now)
}

/// Blocked Gauss–Seidel heat: one task per block and timestep with
/// `inout(block) in(4 neighbours) reduction(+: residual)`.
pub struct Heat {
    replay: bool,
    bs: usize,
    nb: usize,
    steps: usize,
    stride: usize,
    init: Vec<f64>,
    grid: SendPtr<f64>,
    residual: SendPtr<f64>,
    want_grid: Vec<f64>,
    want_residual: f64,
    dag: Dag,
}

impl Heat {
    pub const N: usize = 256;
    pub const BS: usize = 8;
    pub const STEPS: usize = 20;

    /// `replay`: drive the same DAG through `run_iterative_outcome`, one
    /// timestep per iteration, instead of one pipelined `run_outcome`.
    pub fn new(seed: u64, replay: bool) -> Self {
        let (n, bs, steps) = (Self::N, Self::BS, Self::STEPS);
        let stride = n + 2;
        let mut rng = Rng::new(seed);
        let init: Vec<f64> = (0..stride * stride).map(|_| rng.unit()).collect();
        let grid = Box::leak(init.clone().into_boxed_slice()).as_mut_ptr();
        let residual = Box::leak(Box::new(0.0f64)) as *mut f64;
        let mut me = Self {
            replay,
            bs,
            nb: n / bs,
            steps,
            stride,
            init,
            grid: SendPtr::new(grid),
            residual: SendPtr::new(residual),
            want_grid: Vec::new(),
            want_residual: 0.0,
            dag: Dag::independent(0),
        };
        let mut want = me.init.clone();
        me.want_residual = me.sweep(&mut want);
        me.want_grid = want;
        let tasks = steps * me.nb * me.nb;
        me.dag = Dag::from_accesses((0..tasks).map(|i| {
            let (bi, bj) = me.block_of(i as u32);
            me.block_deps(bi, bj)
                .decls()
                .iter()
                .map(|d| {
                    let access = match d.mode {
                        AccessMode::Read => Access::Read,
                        AccessMode::Write => Access::Write,
                        AccessMode::ReadWrite => Access::ReadWrite,
                        AccessMode::Reduction(op) => Access::Reduce(op as u8),
                    };
                    (d.addr, access)
                })
                .collect::<Vec<_>>()
        }));
        me
    }

    fn block_of(&self, task: u32) -> (usize, usize) {
        let b = task as usize % (self.nb * self.nb);
        (b / self.nb, b % self.nb)
    }

    /// Offset of block `(bi, bj)`'s first interior cell.
    fn block_offset(&self, bi: usize, bj: usize) -> usize {
        (1 + bi * self.bs) * self.stride + 1 + bj * self.bs
    }

    fn block_addr(&self, bi: usize, bj: usize) -> usize {
        self.grid.addr() + self.block_offset(bi, bj) * size_of::<f64>()
    }

    fn block_deps(&self, bi: usize, bj: usize) -> Deps {
        let mut deps = Deps::new()
            .readwrite_addr(self.block_addr(bi, bj))
            .reduce_addr(self.residual.addr(), size_of::<f64>(), RedOp::SumF64);
        if bi > 0 {
            deps = deps.read_addr(self.block_addr(bi - 1, bj));
        }
        if bi + 1 < self.nb {
            deps = deps.read_addr(self.block_addr(bi + 1, bj));
        }
        if bj > 0 {
            deps = deps.read_addr(self.block_addr(bi, bj - 1));
        }
        if bj + 1 < self.nb {
            deps = deps.read_addr(self.block_addr(bi, bj + 1));
        }
        deps
    }

    /// The serial loop: every timestep, every block in row-major order —
    /// the order the DAG's sequential semantics prescribe, so the grid
    /// matches the tasked solve bit for bit.
    fn sweep(&self, grid: &mut [f64]) -> f64 {
        assert_eq!(grid.len(), self.stride * self.stride);
        let mut residual = 0.0;
        for _ in 0..self.steps {
            for bi in 0..self.nb {
                for bj in 0..self.nb {
                    // SAFETY: the block plus its one-cell halo lies inside
                    // the (n+2)² grid checked above.
                    residual += unsafe {
                        gauss_seidel_block(
                            grid.as_mut_ptr().add(self.block_offset(bi, bj)),
                            self.bs,
                            self.bs,
                            self.stride,
                        )
                    };
                }
            }
        }
        residual
    }

    fn spawn_block(
        &'static self,
        ctx: &TaskCtx,
        task: u32,
        kind: Kind,
        probe: Option<&'static Probe>,
    ) {
        let worker = ctx.worker_id();
        let t0 = now(probe);
        let (bi, bj) = self.block_of(task);
        let deps = self.block_deps(bi, bj);
        span(probe, worker, Kind::Decl, task, t0);
        let t1 = now(probe);
        ctx.spawn(deps, move |c| {
            let t = now(probe);
            let (bi, bj) = self.block_of(task);
            // SAFETY: the task holds `inout` on this block and `in` on its
            // neighbours, so no other task touches the cells it reads or
            // writes; the grid outlives the process.
            let r = unsafe {
                gauss_seidel_block(
                    self.grid.get().add(self.block_offset(bi, bj)),
                    self.bs,
                    self.bs,
                    self.stride,
                )
            };
            // SAFETY: the task declared a SumF64 reduction on `residual`;
            // `red_slot` hands back this worker's private slot for it.
            unsafe { *c.red_slot(&*self.residual.get()) += r };
            span(probe, c.worker_id(), Kind::Body, task, t);
        });
        span(probe, worker, kind, task, t1);
    }
}

impl Workload for Heat {
    fn dag(&self) -> &Dag {
        &self.dag
    }

    fn spans_per_worker(&self) -> usize {
        3 * self.dag.len() + self.steps + 16
    }

    fn prepare(&self) {
        // SAFETY: no solve is running; the grid has `init.len()` cells.
        unsafe {
            std::ptr::copy_nonoverlapping(self.init.as_ptr(), self.grid.get(), self.init.len());
            *self.residual.get() = 0.0;
        }
    }

    fn solve(
        &'static self,
        rt: &Runtime,
        probe: Option<&'static Probe>,
    ) -> (RunOutcome, Option<ReplayReport>) {
        let blocks = (self.nb * self.nb) as u32;
        if self.replay {
            let iteration = AtomicU32::new(0);
            let (report, outcome) = rt.run_iterative_outcome(self.steps, move |ctx| {
                let k = iteration.fetch_add(1, Ordering::Relaxed);
                let t = now(probe);
                let kind = if k == 0 { Kind::Spawn } else { Kind::Feed };
                for b in 0..blocks {
                    self.spawn_block(ctx, k * blocks + b, kind, probe);
                }
                span(probe, ctx.worker_id(), Kind::Iter, k, t);
            });
            (outcome, Some(report))
        } else {
            let tasks = self.steps as u32 * blocks;
            let outcome = rt.run_outcome(move |ctx| {
                let t = now(probe);
                for task in 0..tasks {
                    self.spawn_block(ctx, task, Kind::Spawn, probe);
                }
                span(probe, ctx.worker_id(), Kind::Creator, ROOT, t);
            });
            (outcome, None)
        }
    }

    fn check(&self) -> Result<(), String> {
        // SAFETY: no solve is running; the grid has `init.len()` cells.
        let grid = unsafe { std::slice::from_raw_parts(self.grid.get(), self.init.len()) };
        for (i, (got, want)) in grid.iter().zip(&self.want_grid).enumerate() {
            if (got - want).abs() > 1e-9 {
                return Err(format!("grid[{i}] = {got}, serial sweep gives {want}"));
            }
        }
        // SAFETY: as above.
        let got = unsafe { *self.residual.get() };
        let want = self.want_residual;
        if (got - want).abs() > 1e-9 * want.abs().max(1.0) {
            return Err(format!("residual {got}, serial sweep gives {want}"));
        }
        Ok(())
    }

    fn serial(&self) -> Duration {
        let mut grid = self.init.clone();
        let t = Instant::now();
        black_box(self.sweep(black_box(&mut grid)));
        t.elapsed()
    }
}

/// Nested burst: the root spawns creators; each spawns a seeded number of
/// independent leaves, then waits for them. Leaves dot a seeded chunk.
pub struct Burst {
    /// Leaf index range of each creator.
    ranges: Vec<(u32, u32)>,
    /// `(offset, length)` of each leaf's chunk of `x` and `y`.
    chunks: Vec<(u32, u32)>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// Each leaf's dot product, as bits.
    out: Vec<AtomicU64>,
    want: Vec<u64>,
    dag: Dag,
}

impl Burst {
    pub const CREATORS: usize = 64;
    pub const LEAVES: usize = 16_320;
    const INPUT: usize = 4096;
    const CHUNK: (usize, usize) = (16, 256);

    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // Irregular fan-out with a fixed total: weights in [0.2, 1.8).
        let weights: Vec<f64> = (0..Self::CREATORS)
            .map(|_| 0.2 + 1.6 * rng.unit())
            .collect();
        let total: f64 = weights.iter().sum();
        let spare = Self::LEAVES - Self::CREATORS;
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| 1 + (spare as f64 * w / total) as usize)
            .collect();
        while counts.iter().sum::<usize>() < Self::LEAVES {
            counts[rng.range(0, Self::CREATORS)] += 1;
        }
        let mut ranges = Vec::with_capacity(Self::CREATORS);
        let mut next = 0u32;
        for c in counts {
            ranges.push((next, next + c as u32));
            next += c as u32;
        }
        let chunks: Vec<(u32, u32)> = (0..Self::LEAVES)
            .map(|_| {
                let len = rng.range(Self::CHUNK.0, Self::CHUNK.1);
                (rng.range(0, Self::INPUT - len) as u32, len as u32)
            })
            .collect();
        let x: Vec<f64> = (0..Self::INPUT).map(|_| rng.unit() - 0.5).collect();
        let y: Vec<f64> = (0..Self::INPUT).map(|_| rng.unit() - 0.5).collect();
        let mut me = Self {
            ranges,
            chunks,
            x,
            y,
            out: (0..Self::LEAVES).map(|_| AtomicU64::new(0)).collect(),
            want: Vec::new(),
            dag: Dag::independent(Self::CREATORS + Self::LEAVES),
        };
        me.want = (0..Self::LEAVES).map(|j| me.leaf(j).to_bits()).collect();
        me
    }

    fn leaf(&self, j: usize) -> f64 {
        let (off, len) = self.chunks[j];
        let r = off as usize..(off + len) as usize;
        dot_block(&self.x[r.clone()], &self.y[r])
    }

    fn creator(&'static self, ctx: &TaskCtx, c: usize, probe: Option<&'static Probe>) {
        let worker = ctx.worker_id();
        let t = now(probe);
        let (lo, hi) = self.ranges[c];
        for j in lo..hi {
            let task = (Self::CREATORS as u32) + j;
            let t0 = now(probe);
            let deps = Deps::new();
            span(probe, worker, Kind::Decl, task, t0);
            let t1 = now(probe);
            ctx.spawn(deps, move |leaf| {
                let t = now(probe);
                let v = self.leaf(j as usize);
                self.out[j as usize].store(v.to_bits(), Ordering::Relaxed);
                span(probe, leaf.worker_id(), Kind::Body, task, t);
            });
            span(probe, worker, Kind::Spawn, task, t1);
        }
        let tw = now(probe);
        ctx.taskwait();
        span(probe, worker, Kind::Taskwait, c as u32, tw);
        span(probe, worker, Kind::Creator, c as u32, t);
    }
}

impl Workload for Burst {
    fn dag(&self) -> &Dag {
        &self.dag
    }

    fn spans_per_worker(&self) -> usize {
        3 * self.dag.len() + Self::CREATORS + 16
    }

    fn prepare(&self) {
        for o in &self.out {
            o.store(u64::MAX, Ordering::Relaxed);
        }
    }

    fn solve(
        &'static self,
        rt: &Runtime,
        probe: Option<&'static Probe>,
    ) -> (RunOutcome, Option<ReplayReport>) {
        let outcome = rt.run_outcome(move |ctx| {
            let worker = ctx.worker_id();
            let t = now(probe);
            for c in 0..Self::CREATORS {
                let t0 = now(probe);
                let deps = Deps::new();
                span(probe, worker, Kind::Decl, c as u32, t0);
                let t1 = now(probe);
                ctx.spawn(deps, move |cc| self.creator(cc, c, probe));
                span(probe, worker, Kind::Spawn, c as u32, t1);
            }
            span(probe, worker, Kind::Creator, ROOT, t);
        });
        (outcome, None)
    }

    fn check(&self) -> Result<(), String> {
        for (j, (got, want)) in self.out.iter().zip(&self.want).enumerate() {
            let got = got.load(Ordering::Relaxed);
            if got != *want {
                return Err(format!(
                    "leaf {j}: checksum {:?}, serial loop gives {:?}",
                    f64::from_bits(got),
                    f64::from_bits(*want)
                ));
            }
        }
        Ok(())
    }

    fn serial(&self) -> Duration {
        let t = Instant::now();
        for j in 0..Self::LEAVES {
            black_box(self.leaf(black_box(j)));
        }
        t.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_inputs_not_task_counts() {
        let (a, b) = (Burst::new(1), Burst::new(2));
        assert_ne!(a.ranges, b.ranges);
        assert_ne!(a.chunks, b.chunks);
        assert_eq!(a.ranges.last().unwrap().1 as usize, Burst::LEAVES);
        assert_eq!(b.ranges.last().unwrap().1 as usize, Burst::LEAVES);
        assert!(a.ranges.iter().all(|r| r.1 > r.0));
        let (h1, h2) = (Heat::new(1, false), Heat::new(2, false));
        assert_ne!(h1.init, h2.init);
        assert_eq!(h1.dag.len(), Heat::STEPS * (Heat::N / Heat::BS).pow(2));
        assert_eq!(h1.dag.len(), h2.dag.len());
    }

    #[test]
    fn heat_dag_orders_neighbours_and_timesteps() {
        let h = Heat::new(3, false);
        let nb = Heat::N / Heat::BS;
        // Block (0,0) of step 0 has no predecessor; block (0,1) reads
        // (0,0) and (0,0) is rewritten in step 1 after both ran.
        assert!(h.dag.preds(0).is_empty());
        assert_eq!(h.dag.preds(1), &[0]);
        let step1 = (nb * nb) as u32;
        assert_eq!(h.dag.preds(step1 as usize), &[0, 1, nb as u32]);
    }
}
