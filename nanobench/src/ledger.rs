//! The per-task layer ledger of traced solves.
//!
//! Every worker-nanosecond of a solve window is given to exactly one row:
//! the self time of a span kind (span length minus the spans nested in
//! it), or, outside every span, *dispatch* when the oracle says some task
//! was ready but not started and *idle* otherwise. The rows therefore add
//! up to `workers × wall` whenever the spans nest properly and lie inside
//! the window; [`Ledger::closure_err`] measures how far they miss.

use crate::oracle::Dag;
use crate::probe::{KINDS, Kind, Span};
use crate::stats::Hist;

const NONE: u64 = u64::MAX;

#[derive(Default)]
pub struct Ledger {
    pub solves: u64,
    /// DAG tasks summed over solves (the ns/task divisor).
    pub tasks: u64,
    /// Σ workers × wall of the traced solves.
    pub window_ns: u64,
    /// Self time per [`Kind`].
    pub self_ns: [u64; KINDS],
    pub dispatch_ns: u64,
    pub idle_ns: u64,
    /// Length of every `Spawn` span (the dependency-system spawn path).
    pub spawn_ns: Hist,
    /// Body start minus oracle ready time, per task.
    pub ready_wait_ns: Hist,
    /// Replay: iteration 0 (record) and replayed-iteration lengths.
    pub record_ns: Vec<u64>,
    pub iter_ns: Vec<u64>,
    /// DAG tasks with no spawn or no body span (a broken trace).
    pub missing: u64,
}

impl Ledger {
    /// Fold one traced solve: `spans[w]` are worker `w`'s spans and
    /// `[t0, t1]` is the solve's wall window on the probe clock.
    pub fn add(&mut self, dag: &Dag, spans: &[Vec<Span>], t0: u64, t1: u64) {
        let n = dag.len();
        let (mut spawn_end, mut start, mut end) = (vec![NONE; n], vec![NONE; n], vec![NONE; n]);
        let mut iters: Vec<(u32, u64)> = Vec::new();
        for s in spans.iter().flatten() {
            let t = s.task as usize;
            match s.kind {
                Kind::Spawn | Kind::Feed if t < n => spawn_end[t] = s.end,
                Kind::Body | Kind::Creator if t < n => (start[t], end[t]) = (s.start, s.end),
                Kind::Iter => iters.push((s.task, s.start)),
                _ => {}
            }
            if s.kind == Kind::Spawn {
                self.spawn_ns.add(s.end - s.start);
            }
        }
        self.missing += (0..n)
            .filter(|&t| spawn_end[t] == NONE || start[t] == NONE)
            .count() as u64;
        let ready = dag.ready_times(&spawn_end, &end);

        // Intervals during which at least one task was ready, not started.
        let mut events: Vec<(u64, i32)> = Vec::with_capacity(2 * n);
        for t in 0..n {
            if start[t] == NONE || ready[t] == NONE {
                continue;
            }
            self.ready_wait_ns.add(start[t].saturating_sub(ready[t]));
            if ready[t] < start[t] {
                events.push((ready[t], 1));
                events.push((start[t], -1));
            }
        }
        events.sort_unstable();
        let mut ready_iv: Vec<(u64, u64)> = Vec::new();
        let (mut depth, mut open) = (0, 0);
        for (at, d) in events {
            if depth == 0 && d > 0 {
                open = at;
            }
            depth += d;
            if depth == 0 {
                match ready_iv.last_mut() {
                    Some(last) if last.1 >= open => last.1 = at,
                    _ => ready_iv.push((open, at)),
                }
            }
        }

        for worker in spans {
            self.add_worker(worker, &ready_iv, t0, t1);
        }

        iters.sort_unstable();
        for (k, &(_, at)) in iters.iter().enumerate() {
            let next = iters.get(k + 1).map_or(t1, |&(_, s)| s);
            if k == 0 {
                self.record_ns.push(next - at);
            } else {
                self.iter_ns.push(next - at);
            }
        }
        self.solves += 1;
        self.tasks += n as u64;
        self.window_ns += spans.len() as u64 * (t1 - t0);
    }

    /// Self times by a stack sweep over one worker's (properly nested)
    /// spans; the uncovered gaps split into dispatch and idle.
    fn add_worker(&mut self, spans: &[Span], ready_iv: &[(u64, u64)], t0: u64, t1: u64) {
        let mut sorted = spans.to_vec();
        sorted.sort_unstable_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        // (end, kind, length, length of direct children)
        let mut stack: Vec<(u64, Kind, u64, u64)> = Vec::new();
        let mut covered = t0;
        let gap = |ledger: &mut Self, a: u64, b: u64| {
            let (a, b) = (a.max(t0), b.min(t1));
            if a < b {
                let busy = overlap(ready_iv, a, b);
                ledger.dispatch_ns += busy;
                ledger.idle_ns += (b - a) - busy;
            }
        };
        let finish = |ledger: &mut Self, stack: &mut Vec<(u64, Kind, u64, u64)>| {
            let (_, kind, len, children) = stack.pop().expect("non-empty stack");
            ledger.self_ns[kind as usize] += len.saturating_sub(children);
            if let Some(parent) = stack.last_mut() {
                parent.3 += len;
            }
        };
        for s in sorted {
            while stack.last().is_some_and(|top| top.0 <= s.start) {
                finish(self, &mut stack);
            }
            if stack.is_empty() {
                gap(self, covered, s.start);
            }
            covered = covered.max(s.end);
            stack.push((s.end, s.kind, s.end - s.start, 0));
        }
        while !stack.is_empty() {
            finish(self, &mut stack);
        }
        gap(self, covered, t1);
    }

    /// Worker-nanoseconds the rows account for.
    pub fn accounted_ns(&self) -> u64 {
        self.self_ns.iter().sum::<u64>() + self.dispatch_ns + self.idle_ns
    }

    /// `|rows − workers × wall| / (workers × wall)`.
    pub fn closure_err(&self) -> f64 {
        if self.window_ns == 0 {
            return 0.0;
        }
        (self.accounted_ns() as f64 - self.window_ns as f64).abs() / self.window_ns as f64
    }
}

/// Length of `[a, b)` covered by sorted, disjoint `intervals`.
fn overlap(intervals: &[(u64, u64)], a: u64, b: u64) -> u64 {
    let first = intervals.partition_point(|iv| iv.1 <= a);
    intervals[first..]
        .iter()
        .take_while(|iv| iv.0 < b)
        .map(|iv| iv.1.min(b) - iv.0.max(a))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Access;
    use crate::probe::ROOT;

    /// Task 0 writes `a`, task 1 reads it, task 2 is independent. The
    /// root (worker 0) spawns all three, then waits; worker 1 runs 0
    /// and 1, and worker 0 runs 2 inside its taskwait.
    fn solve(body1: (u64, u64)) -> (Dag, Vec<Vec<Span>>) {
        let dag = Dag::from_accesses(vec![
            vec![(1, Access::Write)],
            vec![(1, Access::Read)],
            vec![],
        ]);
        let w0 = vec![
            Span::new(Kind::Creator, ROOT, 0, 40),
            Span::new(Kind::Decl, 0, 1, 2),
            Span::new(Kind::Spawn, 0, 2, 5),
            Span::new(Kind::Decl, 1, 5, 6),
            Span::new(Kind::Spawn, 1, 6, 10),
            Span::new(Kind::Decl, 2, 10, 11),
            Span::new(Kind::Spawn, 2, 11, 15),
            Span::new(Kind::Taskwait, ROOT, 40, 62),
            Span::new(Kind::Body, 2, 50, 60),
        ];
        let w1 = vec![
            Span::new(Kind::Body, 0, 20, 30),
            Span::new(Kind::Body, 1, body1.0, body1.1),
        ];
        (dag, vec![w0, w1])
    }

    #[test]
    fn rows_close_on_a_hand_built_solve() {
        let (dag, spans) = solve((35, 45));
        let mut l = Ledger::default();
        l.add(&dag, &spans, 0, 100);
        let row = |k: Kind| l.self_ns[k as usize];
        assert_eq!(row(Kind::Creator), 40 - 14);
        assert_eq!(row(Kind::Decl), 3);
        assert_eq!(row(Kind::Spawn), 11);
        assert_eq!(row(Kind::Taskwait), 22 - 10);
        assert_eq!(row(Kind::Body), 30);
        // Ready-not-started: task 0 [5,20], task 2 [15,50], task 1
        // [30,35] — one busy interval [5,50]. Worker 1's gaps [0,20],
        // [30,35], [45,100] hold 15 + 5 + 5 of it; worker 0's gap
        // [62,100] is all idle.
        assert_eq!(l.dispatch_ns, 25);
        assert_eq!(l.idle_ns, 38 + 5 + 50);
        assert_eq!(l.window_ns, 200);
        assert_eq!(l.accounted_ns(), 200);
        assert_eq!(l.closure_err(), 0.0);
        assert_eq!(l.missing, 0);
        assert_eq!(l.tasks, 3);
        // Waits are 5, 15 and 35; spawns take 3, 4 and 4.
        assert_eq!(l.ready_wait_ns.len(), 3);
        let waits: Vec<f64> = [0.3, 0.6, 1.0].map(|q| l.ready_wait_ns.quantile(q)).into();
        assert_eq!(waits, vec![5.0, 15.0, 35.0]);
        assert_eq!(l.spawn_ns.len(), 3);
        assert_eq!(l.spawn_ns.quantile(0.3), 3.0);
        assert_eq!(l.spawn_ns.quantile(0.5), 4.0);
    }

    #[test]
    fn overlapping_spans_break_closure() {
        // Task 1's body overlaps task 0's on the same worker: impossible
        // for one thread, so the rows no longer add up.
        let (dag, spans) = solve((25, 45));
        let mut l = Ledger::default();
        l.add(&dag, &spans, 0, 100);
        assert!(l.closure_err() > 0.01, "{}", l.closure_err());
    }

    #[test]
    fn missing_spans_are_counted() {
        let (dag, mut spans) = solve((35, 45));
        spans[1].pop();
        let mut l = Ledger::default();
        l.add(&dag, &spans, 0, 100);
        assert_eq!(l.missing, 1);
    }

    #[test]
    fn replay_iterations_split_record_from_replayed() {
        let dag = Dag::independent(0);
        let w0 = vec![
            Span::new(Kind::Iter, 0, 0, 10),
            Span::new(Kind::Iter, 1, 30, 35),
            Span::new(Kind::Iter, 2, 50, 55),
        ];
        let mut l = Ledger::default();
        l.add(&dag, &[w0], 0, 70);
        assert_eq!(l.record_ns, vec![30]);
        assert_eq!(l.iter_ns, vec![20, 20]);
        assert_eq!(l.closure_err(), 0.0);
    }

    #[test]
    fn overlap_of_disjoint_intervals() {
        let iv = [(5, 10), (20, 30)];
        assert_eq!(overlap(&iv, 0, 100), 15);
        assert_eq!(overlap(&iv, 7, 25), 8);
        assert_eq!(overlap(&iv, 10, 20), 0);
    }
}
