//! A task-based runtime with a wait-free dependency system and a
//! delegation-based scheduler.
//!
//! This crate is the core of the reproduction of *Advanced
//! Synchronization Techniques for Task-based Runtime Systems* (PPoPP '21):
//! a Nanos6/OmpSs-2-style runtime in which tasks declare *data accesses*
//! (read / write / readwrite / reduction on memory addresses), the runtime
//! derives the dependency graph (including across nesting levels, the
//! OmpSs-2 extension OpenMP lacks — Figure 1 of the paper), and ready
//! tasks flow through a pluggable scheduler to a pool of workers.
//!
//! The three optimization axes of the paper are configuration switches:
//!
//! * **Dependency system** ([`DepsKind`]): the novel wait-free Atomic
//!   State Machine implementation (§2, [`deps::wait_free`]) or the
//!   fine-grained-locking baseline it replaced ([`deps::locking`]).
//! * **Scheduler** ([`SchedKind`]): the delegation scheduler built on SPSC
//!   ready-buffers + the Delegation Ticket Lock (§3, [`sched::sync_sched`]),
//!   a central lock-protected scheduler (the "w/o DTLock" ablation,
//!   [`sched::central`]), or a work-stealing scheduler standing in for the
//!   OpenMP comparators of §6.3 ([`sched::worksteal`]).
//! * **Allocator** ([`nanotask_alloc::AllocatorKind`]): pooled (jemalloc
//!   stand-in), plain system, or lock-serialized system (§4 ablation).
//!
//! ```
//! use nanotask_core::{Runtime, RuntimeConfig, Deps};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let rt = Runtime::new(RuntimeConfig::default().workers(2));
//! static SUM: AtomicU64 = AtomicU64::new(0);
//! rt.run(|ctx| {
//!     for i in 0..10u64 {
//!         ctx.spawn(Deps::new(), move |_| {
//!             SUM.fetch_add(i, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(SUM.load(Ordering::Relaxed), 45);
//! ```

pub mod deps;
pub mod graph;
pub mod hash;
pub mod platform;
pub mod runtime;
pub mod sched;
pub mod task;

pub use deps::reduction::RedOp;
pub use deps::{AccessDecl, AccessMode, Deps, DepsKind};
pub use platform::{Platform, Topology};
pub use runtime::{
    FAULT_PANIC_PREFIX, FailureKind, FaultPlan, HeldTask, RunOutcome, RunReport, Runtime,
    RuntimeConfig, RuntimeStats, SpawnCapture, TaskCtx, TaskEpilogue, TaskFailure,
};
pub use sched::{NodeOpStats, SchedKind, SchedOpStats};
pub use task::{TaskBody, TaskId};

/// A raw pointer that asserts `Send`/`Sync`, for moving addresses of user
/// data into task bodies (the runtime equivalent of what an OpenMP
/// compiler does when it outlines a task region).
///
/// Dereferencing remains `unsafe`: correctness comes from declaring the
/// matching [`Deps`] accesses, exactly as in OmpSs-2/OpenMP.
#[derive(Debug)]
pub struct SendPtr<T>(pub *mut T);

impl<T> SendPtr<T> {
    /// Wrap a raw pointer.
    pub fn new(p: *mut T) -> Self {
        Self(p)
    }

    /// The wrapped pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }

    /// Address of the wrapped pointer (for use as a dependency key).
    pub fn addr(&self) -> usize {
        self.0 as usize
    }

    /// Offset like `ptr::add`.
    ///
    /// # Safety
    /// Same contract as [`pointer::add`].
    pub unsafe fn add(&self, n: usize) -> SendPtr<T> {
        SendPtr(unsafe { self.0.add(n) })
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sendptr_roundtrip() {
        let mut x = 5u32;
        let p = SendPtr::new(&mut x as *mut u32);
        assert_eq!(p.addr(), &x as *const u32 as usize);
        unsafe { *p.get() = 7 };
        assert_eq!(x, 7);
    }

    #[test]
    fn sendptr_add_offsets() {
        let mut v = [1u64, 2, 3];
        let p = SendPtr::new(v.as_mut_ptr());
        unsafe {
            assert_eq!(*p.add(2).get(), 3);
        }
    }
}
