//! Outside-in spans: the benchmark times every call it makes into a
//! runtime layer and stores the span in a per-worker buffer that is
//! allocated before the solve and drained after it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// What a span covers. Self time of each kind is one row of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A leaf task body (the kernel call).
    Body = 0,
    /// A task body that spawns others (the root, a burst creator); its
    /// self time is creator bookkeeping between the calls it makes.
    Creator = 1,
    /// `TaskCtx::spawn` through the dependency system.
    Spawn = 2,
    /// Building the task's `Deps`.
    Decl = 3,
    /// `TaskCtx::taskwait`; bodies it runs while waiting are children.
    Taskwait = 4,
    /// `TaskCtx::spawn` inside a replayed iteration: the replay feed.
    Feed = 5,
    /// One call of the iterative body by the replay engine.
    Iter = 6,
}

pub const KINDS: usize = 7;

impl Kind {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Kind::Body,
            1 => Kind::Creator,
            2 => Kind::Spawn,
            3 => Kind::Decl,
            4 => Kind::Taskwait,
            5 => Kind::Feed,
            _ => Kind::Iter,
        }
    }
}

/// Task index of the root body's span (not a node of the oracle DAG).
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    /// Task index in spawn order (or iteration number for `Iter`).
    pub task: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn new(kind: Kind, task: u32, start: u64, end: u64) -> Self {
        Self {
            kind,
            task,
            start,
            end,
        }
    }
}

const WORDS: usize = 3;

/// One worker's buffer. Only the thread that runs worker `w` writes
/// buffer `w`, so the cursor needs no read-modify-write; the reader
/// drains after the solve has returned.
#[repr(align(128))]
struct Buf {
    words: Box<[AtomicU64]>,
    len: AtomicUsize,
}

pub struct Probe {
    base: Instant,
    bufs: Vec<Buf>,
    overflowed: AtomicBool,
}

impl Probe {
    pub fn new(workers: usize, spans_per_worker: usize) -> Self {
        let bufs = (0..workers)
            .map(|_| Buf {
                words: (0..spans_per_worker * WORDS)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                len: AtomicUsize::new(0),
            })
            .collect();
        Self {
            base: Instant::now(),
            bufs,
            overflowed: AtomicBool::new(false),
        }
    }

    /// Nanoseconds since the probe was built; one clock for all workers.
    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn record(&self, worker: usize, kind: Kind, task: u32, start: u64, end: u64) {
        let b = &self.bufs[worker];
        let i = b.len.load(Ordering::Relaxed);
        let Some(slot) = b.words.get(i * WORDS..(i + 1) * WORDS) else {
            self.overflowed.store(true, Ordering::Relaxed);
            return;
        };
        slot[0].store(((kind as u64) << 32) | u64::from(task), Ordering::Relaxed);
        slot[1].store(start, Ordering::Relaxed);
        slot[2].store(end, Ordering::Relaxed);
        b.len.store(i + 1, Ordering::Release);
    }

    /// Take every worker's spans and empty the buffers. Call only while
    /// no solve is running. Errors if a buffer overflowed since the last
    /// drain (the solve's ledger would be incomplete).
    pub fn drain(&self) -> Result<Vec<Vec<Span>>, String> {
        let spans = self
            .bufs
            .iter()
            .map(|b| {
                let n = b.len.swap(0, Ordering::Acquire);
                b.words[..n * WORDS]
                    .chunks_exact(WORDS)
                    .map(|w| {
                        let head = w[0].load(Ordering::Relaxed);
                        Span::new(
                            Kind::from_u8((head >> 32) as u8),
                            head as u32,
                            w[1].load(Ordering::Relaxed),
                            w[2].load(Ordering::Relaxed),
                        )
                    })
                    .collect()
            })
            .collect();
        if self.overflowed.swap(false, Ordering::Relaxed) {
            return Err("span buffer overflowed".into());
        }
        Ok(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain_per_worker() {
        let p = Probe::new(2, 2);
        p.record(1, Kind::Spawn, 7, 10, 20);
        p.record(0, Kind::Body, ROOT, 1, 2);
        let spans = p.drain().unwrap();
        assert_eq!(spans[0], vec![Span::new(Kind::Body, ROOT, 1, 2)]);
        assert_eq!(spans[1], vec![Span::new(Kind::Spawn, 7, 10, 20)]);
        assert!(p.drain().unwrap().iter().all(Vec::is_empty));
        for _ in 0..3 {
            p.record(0, Kind::Decl, 0, 0, 1);
        }
        assert!(p.drain().is_err(), "third span overflows a 2-span buffer");
    }
}
