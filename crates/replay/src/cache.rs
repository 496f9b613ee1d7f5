//! The [`GraphCache`]: an LRU of frozen [`ReplayGraph`]s keyed by
//! structural hash, plus the one-step phase predictor the engine uses to
//! pick the graph an alternating body will spawn *next*.
//!
//! With only one frozen graph, a body alternating between two shapes
//! (miniAMR-style refine/coarsen phases) re-records every iteration and
//! never replays. With room for every shape of the cycle, a diverging
//! iteration first probes for an already-frozen graph that matches
//! (by the first spawn's signature hash mid-switch, or by the full
//! structural hash after the fact) and only re-records on a miss. Each
//! entry also remembers the structural hash of the iteration that
//! *followed* it last time — for any stable phase cycle that fits in the
//! cache, predicting `next_of(current)` converges to full replay of
//! every phase.

use std::sync::Arc;

use crate::graph::ReplayGraph;
use crate::partition::Partitioning;

/// One cached frozen graph.
struct Entry {
    graph: Arc<ReplayGraph>,
    /// LRU stamp (monotonic use tick).
    last_used: u64,
    /// Iterations fully replayed from this graph.
    replays: u64,
    /// Structural hash of the iteration observed right after one of this
    /// graph's iterations — the phase predictor.
    next: Option<u64>,
    /// NUMA partitioning of the graph, computed once at first use and
    /// cached with the entry (freeze-time analysis, reused by every
    /// replay of the graph), keyed by the *requested* part count so a
    /// changed request recomputes regardless of how
    /// [`Partitioning::compute`] clamps internally.
    part: Option<(usize, Arc<Partitioning>)>,
}

/// A bounded LRU of frozen replay graphs, keyed by structural hash.
pub struct GraphCache {
    cap: usize,
    tick: u64,
    entries: Vec<Entry>,
    evictions: u64,
    /// Partitionings that survived their entry's eviction, FIFO-bounded:
    /// `(structural hash, requested part count, assignment)`. A graph
    /// re-entering the cache seeds its partitioning from here
    /// ([`Partitioning::compute_seeded`]) instead of recomputing from
    /// scratch, so worker caches stay warm across evictions.
    evicted_parts: Vec<(u64, usize, Arc<Partitioning>)>,
    /// Partitionings seeded from an evicted assignment.
    part_seeds: u64,
    /// Nodes adopted from seeds / total nodes of seeded computations.
    part_seed_reused: u64,
    part_seed_total: u64,
    /// Accumulated partitioner operation counters across every
    /// computation this cache performed (cached entries recompute once,
    /// so these measure exactly the first-replay partitioning cost).
    part_heap_ops: u64,
}

impl GraphCache {
    /// Evicted assignments kept per cache slot (the stash is
    /// `cap * EVICTED_PART_KEEP` entries, oldest dropped first).
    const EVICTED_PART_KEEP: usize = 2;

    /// An empty cache holding at most `cap` graphs (min 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
            evictions: 0,
            evicted_parts: Vec::new(),
            part_seeds: 0,
            part_seed_reused: 0,
            part_seed_total: 0,
            part_heap_ops: 0,
        }
    }

    /// Maximum number of graphs kept.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Graphs currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Graphs evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.entries[idx].last_used = self.tick;
    }

    fn position(&self, hash: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.graph.structural_hash() == hash)
    }

    /// Whether a graph with this structural hash is cached.
    pub fn contains(&self, hash: u64) -> bool {
        self.position(hash).is_some()
    }

    /// Look up a graph by structural hash (refreshes its LRU position).
    pub fn get(&mut self, hash: u64) -> Option<Arc<ReplayGraph>> {
        let idx = self.position(hash)?;
        self.touch(idx);
        Some(Arc::clone(&self.entries[idx].graph))
    }

    /// Look up a graph whose *first spawn* has signature hash `sig`,
    /// preferring the most recently used on ties (refreshes LRU). This
    /// is the mid-iteration phase-switch probe: when the first spawn of
    /// an iteration does not match the current graph, a cached graph
    /// starting with that spawn can be fed instead — before anything was
    /// committed to the wrong graph.
    pub fn get_by_first_sig(&mut self, sig: u64) -> Option<Arc<ReplayGraph>> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.graph.first_sig() == Some(sig))
            .max_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)?;
        self.touch(idx);
        Some(Arc::clone(&self.entries[idx].graph))
    }

    /// Insert a frozen graph, evicting the least recently used entry if
    /// the cache is full. Re-inserting an already-cached hash just
    /// refreshes it (replay counts survive).
    pub fn insert(&mut self, graph: Arc<ReplayGraph>) {
        if let Some(idx) = self.position(graph.structural_hash()) {
            self.entries[idx].graph = graph;
            self.touch(idx);
            return;
        }
        if self.entries.len() >= self.cap {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache is non-empty when full");
            let victim = self.entries.swap_remove(lru);
            // Eviction survival: stash the victim's partitioning so a
            // re-entering graph seeds from it instead of recomputing.
            if let Some((parts, p)) = victim.part {
                let hash = victim.graph.structural_hash();
                self.evicted_parts
                    .retain(|&(h, n, _)| (h, n) != (hash, parts));
                if self.evicted_parts.len() >= self.cap * Self::EVICTED_PART_KEEP {
                    self.evicted_parts.remove(0);
                }
                self.evicted_parts.push((hash, parts, p));
            }
            self.evictions += 1;
        }
        self.tick += 1;
        self.entries.push(Entry {
            graph,
            last_used: self.tick,
            replays: 0,
            next: None,
            part: None,
        });
    }

    /// The NUMA partitioning of `graph` into `parts` parts: returned from
    /// the entry cache when already computed (with a matching part
    /// count), computed and cached otherwise. Graphs not in the cache
    /// (e.g. nested-pinned shapes) are partitioned without caching.
    ///
    /// A fresh computation first checks the eviction stash: a graph that
    /// re-enters after being evicted seeds from its saved assignment
    /// ([`Partitioning::compute_seeded`], 100 % reuse on an unchanged
    /// graph). Operation counters of every computation accumulate on
    /// the cache ([`GraphCache::partition_stats`]).
    pub fn partitioning(&mut self, graph: &Arc<ReplayGraph>, parts: usize) -> Arc<Partitioning> {
        let hash = graph.structural_hash();
        if let Some(idx) = self.position(hash)
            && let Some((requested, p)) = &self.entries[idx].part
            && *requested == parts
        {
            return Arc::clone(p);
        }
        let seed = self
            .evicted_parts
            .iter()
            .position(|&(h, n, _)| (h, n) == (hash, parts))
            .map(|pos| self.evicted_parts.remove(pos).2);
        let p = Arc::new(match seed {
            Some(seed) => Partitioning::compute_seeded(graph, parts, &seed),
            None => Partitioning::compute(graph, parts),
        });
        let st = p.stats();
        self.part_heap_ops += st.heap_ops;
        if st.seeded {
            self.part_seeds += 1;
            self.part_seed_reused += st.seed_reused as u64;
            self.part_seed_total += graph.len() as u64;
        }
        if let Some(idx) = self.position(hash) {
            self.entries[idx].part = Some((parts, Arc::clone(&p)));
        }
        p
    }

    /// Accumulated partitioner counters: `(heap_ops, seeds,
    /// seed_reused_nodes, seed_total_nodes)` across every partitioning
    /// this cache computed.
    pub fn partition_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.part_heap_ops,
            self.part_seeds,
            self.part_seed_reused,
            self.part_seed_total,
        )
    }

    /// Drop the graph with this structural hash (no eviction-stash
    /// entry — an invalidated graph must not seed anything). The engine
    /// calls this when an iteration of the graph faulted: a cancellation
    /// wave ran a subset of the recorded bodies, so the frozen schedule
    /// is no longer trusted and the next occurrence of the shape
    /// re-records from the dependency system. Dangling predictor edges
    /// pointing at the removed graph are harmless —
    /// [`GraphCache::predict_next`] resolves through `get`, which misses.
    pub fn invalidate(&mut self, hash: u64) {
        if let Some(idx) = self.position(hash) {
            self.entries.swap_remove(idx);
        }
    }

    /// Count one fully-replayed iteration against the graph with this
    /// structural hash.
    pub fn note_replay(&mut self, hash: u64) {
        if let Some(idx) = self.position(hash) {
            self.entries[idx].replays += 1;
            self.touch(idx);
        }
    }

    /// Teach the predictor that an iteration with hash `next` followed
    /// one with hash `prev` (no-op if `prev` is not cached — predictor
    /// state lives and dies with the cache entries, so it stays bounded).
    pub fn note_transition(&mut self, prev: u64, next: u64) {
        if let Some(idx) = self.position(prev) {
            self.entries[idx].next = Some(next);
        }
    }

    /// The graph predicted to follow an iteration with hash `hash`, if
    /// both the transition and the successor graph are cached.
    pub fn predict_next(&mut self, hash: u64) -> Option<Arc<ReplayGraph>> {
        let next = self.position(hash).and_then(|i| self.entries[i].next)?;
        self.get(next)
    }

    /// Per-graph replay counts for the currently cached graphs:
    /// `(structural_hash, tasks, replays)`, most recently used first.
    pub fn per_graph_replays(&self) -> Vec<(u64, usize, u64)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .map(|e| {
                (
                    e.last_used,
                    e.graph.structural_hash(),
                    e.graph.len(),
                    e.replays,
                )
            })
            .collect();
        v.sort_unstable_by_key(|&(used, ..)| core::cmp::Reverse(used));
        v.into_iter().map(|(_, h, n, r)| (h, n, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::CapturedSpawn;
    use nanotask_core::{AccessDecl, AccessMode};

    fn graph(addr: usize) -> Arc<ReplayGraph> {
        let captured = vec![CapturedSpawn::bare(
            "t",
            0,
            vec![AccessDecl::new(addr, 8, AccessMode::ReadWrite)],
        )];
        Arc::new(ReplayGraph::build(&captured, &[]))
    }

    /// A two-independent-task graph (so a 2-way split is possible).
    fn graph2(a: usize, b: usize) -> Arc<ReplayGraph> {
        let captured = vec![
            CapturedSpawn::bare("a", 0, vec![AccessDecl::new(a, 8, AccessMode::ReadWrite)]),
            CapturedSpawn::bare("b", 0, vec![AccessDecl::new(b, 8, AccessMode::ReadWrite)]),
        ];
        Arc::new(ReplayGraph::build(&captured, &[]))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = GraphCache::new(2);
        let g = graph(0x10);
        let h = g.structural_hash();
        c.insert(Arc::clone(&g));
        assert!(c.contains(h));
        assert_eq!(c.get(h).unwrap().structural_hash(), h);
        assert!(c.get(h ^ 1).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = GraphCache::new(2);
        let (a, b, d) = (graph(0x10), graph(0x20), graph(0x30));
        let (ha, hb, hd) = (
            a.structural_hash(),
            b.structural_hash(),
            d.structural_hash(),
        );
        c.insert(a);
        c.insert(b);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(c.get(ha).is_some());
        c.insert(d);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.contains(ha) && c.contains(hd) && !c.contains(hb));
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = GraphCache::new(1);
        let g = graph(0x10);
        let h = g.structural_hash();
        c.insert(Arc::clone(&g));
        c.note_replay(h);
        c.insert(g);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.per_graph_replays(), vec![(h, 1, 1)]);
    }

    #[test]
    fn first_sig_lookup_prefers_most_recent() {
        let mut c = GraphCache::new(4);
        let (a, b) = (graph(0x10), graph(0x20));
        let sig_a = a.first_sig().unwrap();
        c.insert(Arc::clone(&a));
        c.insert(b);
        assert_eq!(
            c.get_by_first_sig(sig_a).unwrap().structural_hash(),
            a.structural_hash()
        );
        assert!(c.get_by_first_sig(sig_a ^ 1).is_none());
    }

    #[test]
    fn partitioning_computed_once_and_cached() {
        let mut c = GraphCache::new(2);
        let g = graph2(0x10, 0x20);
        c.insert(Arc::clone(&g));
        let p1 = c.partitioning(&g, 2);
        let p2 = c.partitioning(&g, 2);
        assert!(Arc::ptr_eq(&p1, &p2), "second call served from the entry");
        // A different part count recomputes.
        let p3 = c.partitioning(&g, 1);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(p3.parts(), 1);
        // Uncached graphs still get a (fresh) partitioning.
        let foreign = graph(0x999);
        let pf = c.partitioning(&foreign, 2);
        assert_eq!(pf.assignments().len(), 1);
    }

    #[test]
    fn evicted_partitioning_seeds_reentry() {
        // Cache of 1: inserting a second graph evicts the first along
        // with its partitioning; when the first graph re-enters, its
        // partitioning must be seeded from the stash (full reuse), not
        // recomputed from scratch.
        let mut c = GraphCache::new(1);
        let g = graph2(0x10, 0x20);
        c.insert(Arc::clone(&g));
        let original = c.partitioning(&g, 2);
        c.insert(graph2(0x30, 0x40));
        assert_eq!(c.evictions(), 1);
        c.insert(Arc::clone(&g));
        let reseeded = c.partitioning(&g, 2);
        assert_eq!(*reseeded, *original, "identical placement after eviction");
        assert!(reseeded.stats().seeded);
        assert_eq!(reseeded.stats().seed_reused, 2);
        let (_, seeds, reused, total) = c.partition_stats();
        assert_eq!(seeds, 1);
        assert_eq!((reused, total), (2, 2), "100% of the assignment reused");
    }

    #[test]
    fn invalidate_drops_entry_and_dangling_predictions() {
        let mut c = GraphCache::new(4);
        let (a, b) = (graph(0x10), graph(0x20));
        let (ha, hb) = (a.structural_hash(), b.structural_hash());
        c.insert(a);
        c.insert(b);
        c.note_transition(ha, hb);
        c.invalidate(hb);
        assert!(!c.contains(hb));
        assert!(c.contains(ha));
        assert_eq!(c.evictions(), 0, "invalidation is not an eviction");
        assert!(
            c.predict_next(ha).is_none(),
            "dangling prediction resolves to a miss"
        );
        // Invalidating a missing hash is a no-op.
        c.invalidate(hb);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn predictor_follows_cached_transitions() {
        let mut c = GraphCache::new(4);
        let (a, b) = (graph(0x10), graph(0x20));
        let (ha, hb) = (a.structural_hash(), b.structural_hash());
        c.insert(a);
        c.insert(b);
        c.note_transition(ha, hb);
        c.note_transition(hb, ha);
        assert_eq!(c.predict_next(ha).unwrap().structural_hash(), hb);
        assert_eq!(c.predict_next(hb).unwrap().structural_hash(), ha);
        // Unknown transition or evicted successor: no prediction.
        assert!(c.predict_next(hb ^ 1).is_none());
    }
}
