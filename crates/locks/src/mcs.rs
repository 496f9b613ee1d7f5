//! MCS queue lock (Mellor-Crummey & Scott, 1991).
//!
//! The classic scalable queue lock the paper cites as the design PTLocks
//! "perform as well as" (§3.2) while PTLock needs more memory. Each waiter
//! spins on a flag inside its *own* queue node, so releases touch exactly
//! one remote cache line.
//!
//! The textbook algorithm threads a node through the `lock`/`unlock` call
//! pair. To also offer the crate-wide [`RawLock`] interface (which the
//! scheduler ablations need), the lock records the holder's node pointer
//! internally and recycles nodes through a small thread-local pool, so
//! `lock()`/`unlock()` work without explicit node management. The pool
//! owns its nodes and frees them when the thread exits.

use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::cell::RefCell;

use crate::{Backoff, RawLock};

/// A queue node; one per in-flight acquisition.
pub struct McsNode {
    locked: AtomicBool,
    next: AtomicPtr<McsNode>,
}

impl Default for McsNode {
    fn default() -> Self {
        Self {
            locked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

#[cfg(test)]
static FREED: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());

#[cfg(test)]
impl Drop for McsNode {
    fn drop(&mut self) {
        FREED.lock().unwrap().push(self as *mut McsNode as usize);
    }
}

thread_local! {
    /// Recycled queue nodes, owned by the thread and freed when it
    /// exits. A thread needs one node per lock it holds simultaneously,
    /// so the pool size is bounded by the deepest lock nesting the thread
    /// reaches. Boxed: a node's address must not move while another
    /// thread's queue links to it.
    #[allow(clippy::vec_box)]
    static NODE_POOL: RefCell<Vec<Box<McsNode>>> = const { RefCell::new(Vec::new()) };
}

/// Take a node for one acquisition. Ownership travels with the raw
/// pointer (through [`McsLock::holder`]) until [`recycle_node`] takes it
/// back. A lock taken during thread-local teardown, after the pool is
/// gone, gets a fresh node.
fn take_node() -> *mut McsNode {
    let node = NODE_POOL
        .try_with(|p| p.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    Box::into_raw(node)
}

/// Return a node from [`take_node`] to the calling thread's pool, or
/// free it when the pool is already torn down.
///
/// # Safety
/// `node` came from [`take_node`] and no other thread references it.
unsafe fn recycle_node(node: *mut McsNode) {
    // SAFETY: per the contract, `node` is an exclusively owned box.
    let node = unsafe { Box::from_raw(node) };
    // A torn-down pool never runs the closure, which drops `node`.
    let _ = NODE_POOL.try_with(move |p| p.borrow_mut().push(node));
}

/// MCS list-based queue lock.
pub struct McsLock {
    tail: AtomicPtr<McsNode>,
    /// Node of the current holder, stored after acquisition so that
    /// `unlock(&self)` does not need the node threaded through the API.
    holder: AtomicPtr<McsNode>,
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl McsLock {
    /// Create an unlocked MCS lock.
    pub const fn new() -> Self {
        Self {
            tail: AtomicPtr::new(ptr::null_mut()),
            holder: AtomicPtr::new(ptr::null_mut()),
        }
    }

    fn lock_node(&self, node: &McsNode) {
        node.locked.store(true, Ordering::Relaxed);
        node.next.store(ptr::null_mut(), Ordering::Relaxed);
        let node_ptr = node as *const McsNode as *mut McsNode;
        let prev = self.tail.swap(node_ptr, Ordering::AcqRel);
        if !prev.is_null() {
            // Link behind the previous waiter and spin on our own flag.
            unsafe { (*prev).next.store(node_ptr, Ordering::Release) };
            let mut backoff = Backoff::new();
            while node.locked.load(Ordering::Acquire) {
                backoff.snooze();
            }
        }
    }

    fn unlock_node(&self, node: &McsNode) {
        let node_ptr = node as *const McsNode as *mut McsNode;
        let mut next = node.next.load(Ordering::Acquire);
        if next.is_null() {
            // Possibly no successor: try to swing the tail back to null.
            if self
                .tail
                .compare_exchange(
                    node_ptr,
                    ptr::null_mut(),
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
            // A successor is in the middle of linking; wait for it.
            let mut backoff = Backoff::new();
            loop {
                next = node.next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                backoff.snooze();
            }
        }
        unsafe { (*next).locked.store(false, Ordering::Release) };
    }
}

impl RawLock for McsLock {
    fn lock(&self) {
        let node = take_node();
        // SAFETY: a live box owned by this acquisition.
        self.lock_node(unsafe { &*node });
        self.holder.store(node, Ordering::Relaxed);
    }

    fn unlock(&self) {
        let node = self.holder.load(Ordering::Relaxed);
        debug_assert!(!node.is_null(), "unlock without holder");
        self.holder.store(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: the holder's node stays live until recycled below.
        self.unlock_node(unsafe { &*node });
        // SAFETY: once `unlock_node` returns, no successor references
        // the node any more (it either swung the tail back or handed the
        // lock to a linked successor).
        unsafe { recycle_node(node) };
    }

    fn try_lock(&self) -> bool {
        // Uncontended fast path: tail is null → install our node.
        let node = take_node();
        // SAFETY: a live box owned by this acquisition.
        let n = unsafe { &*node };
        n.locked.store(true, Ordering::Relaxed);
        n.next.store(ptr::null_mut(), Ordering::Relaxed);
        match self
            .tail
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => {
                self.holder.store(node, Ordering::Relaxed);
                true
            }
            Err(_) => {
                // SAFETY: never published; still exclusively ours.
                unsafe { recycle_node(node) };
                false
            }
        }
    }
}

unsafe impl Send for McsLock {}
unsafe impl Sync for McsLock {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutual_exclusion() {
        crate::tests::mutual_exclusion::<McsLock>(4, 2_000);
    }

    #[test]
    fn try_lock_behaviour() {
        let l = McsLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn reacquire_many_times() {
        let l = McsLock::new();
        for _ in 0..10_000 {
            l.lock();
            l.unlock();
        }
    }

    #[test]
    fn nested_distinct_locks() {
        // A thread may hold several MCS locks at once; each acquisition
        // uses its own pooled node.
        let a = McsLock::new();
        let b = McsLock::new();
        a.lock();
        b.lock();
        b.unlock();
        a.unlock();
        // Non-LIFO release order must also work.
        a.lock();
        b.lock();
        a.unlock();
        b.unlock();
    }

    #[test]
    fn exiting_thread_frees_its_nodes() {
        // Three nested acquisitions leave three nodes in the spawned
        // thread's pool; its exit must free exactly those nodes.
        let nodes = std::thread::spawn(|| {
            let locks = [McsLock::new(), McsLock::new(), McsLock::new()];
            let mut nodes = Vec::new();
            for l in &locks {
                l.lock();
                nodes.push(l.holder.load(Ordering::Relaxed) as usize);
            }
            for l in &locks {
                l.unlock();
            }
            nodes
        })
        .join()
        .unwrap();
        let freed = FREED.lock().unwrap();
        for n in nodes {
            assert!(freed.contains(&n), "node {n:#x} outlived its thread");
        }
    }

    #[test]
    fn handoff_between_threads() {
        use std::sync::Arc;
        use std::sync::atomic::AtomicUsize;
        let l = Arc::new(McsLock::new());
        let c = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        l.lock();
                        c.fetch_add(1, Ordering::Relaxed);
                        l.unlock();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 3_000);
    }
}
