//! Ready-time oracle: each task's predecessors under sequential
//! semantics, derived only from the benchmark's own spawn order and
//! declared accesses (never from the runtime's internal state).
//!
//! A task waits for the last writer of each address it touches and, if
//! it writes, for the readers since that writer. Reductions with the same
//! operator form a group ordered only against accesses that are not
//! reductions: the group waits like a writer, and the next non-reduction
//! access waits for every member.

use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
    ReadWrite,
    /// Reduction with an operator id; equal ids commute.
    Reduce(u8),
}

#[derive(Default)]
struct AddrState {
    /// What the next access must wait for as "the last writer": one
    /// writer, or every member of the last closed reduction group.
    writers: Vec<u32>,
    /// Readers since `writers`.
    readers: Vec<u32>,
    /// The open reduction group: operator, members, and the predecessors
    /// every member shares.
    group: Option<(u8, Vec<u32>, Vec<u32>)>,
}

impl AddrState {
    fn close_group(&mut self) {
        if let Some((_, members, _)) = self.group.take() {
            self.writers = members;
            self.readers.clear();
        }
    }
}

/// The task DAG in compressed rows: `preds[offsets[t]..offsets[t + 1]]`.
pub struct Dag {
    offsets: Vec<usize>,
    preds: Vec<u32>,
}

impl Dag {
    /// Build from each task's accesses, given in spawn order.
    pub fn from_accesses<I, A>(tasks: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: IntoIterator<Item = (usize, Access)>,
    {
        let mut state: HashMap<usize, AddrState> = HashMap::new();
        let mut offsets = vec![0];
        let mut preds = Vec::new();
        for (t, accesses) in tasks.into_iter().enumerate() {
            let t = u32::try_from(t).expect("task count fits u32");
            let row = preds.len();
            for (addr, access) in accesses {
                let s = state.entry(addr).or_default();
                match access {
                    Access::Read => {
                        s.close_group();
                        preds.extend_from_slice(&s.writers);
                        s.readers.push(t);
                    }
                    Access::Write | Access::ReadWrite => {
                        s.close_group();
                        preds.extend_from_slice(&s.writers);
                        preds.extend_from_slice(&s.readers);
                        s.writers = vec![t];
                        s.readers.clear();
                    }
                    Access::Reduce(op) => {
                        if !matches!(&s.group, Some((g, _, _)) if *g == op) {
                            s.close_group();
                            let mut shared = s.writers.clone();
                            shared.extend_from_slice(&s.readers);
                            s.group = Some((op, Vec::new(), shared));
                        }
                        let (_, members, shared) = s.group.as_mut().expect("group opened above");
                        preds.extend_from_slice(shared);
                        members.push(t);
                    }
                }
            }
            let mine = &mut preds[row..];
            mine.sort_unstable();
            let mut keep = row;
            for i in row..preds.len() {
                let p = preds[i];
                if p != t && (keep == row || preds[keep - 1] != p) {
                    preds[keep] = p;
                    keep += 1;
                }
            }
            preds.truncate(keep);
            offsets.push(preds.len());
        }
        Self { offsets, preds }
    }

    /// A DAG of `n` tasks without accesses (every task independent).
    pub fn independent(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            preds: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn preds(&self, t: usize) -> &[u32] {
        &self.preds[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Predecessor links summed over all tasks (the DAG's edge count).
    pub fn edges(&self) -> usize {
        self.preds.len()
    }

    /// Ready time of every task: the later of its spawn return and its
    /// predecessors' body ends.
    pub fn ready_times(&self, spawn_end: &[u64], body_end: &[u64]) -> Vec<u64> {
        (0..self.len())
            .map(|t| {
                self.preds(t)
                    .iter()
                    .map(|&p| body_end[p as usize])
                    .fold(spawn_end[t], u64::max)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Access::*;

    /// Spawn order and accesses on two addresses `a` (1) and `b` (2):
    ///  0 W(a)  1 R(a)  2 R(a)  3 RW(a)  4 Red+(a)  5 Red+(a)
    ///  6 R(a)  7 Red+(b)  8 Redmax(a)  9 RW(a) R(b)
    fn dag() -> Dag {
        Dag::from_accesses(vec![
            vec![(1, Write)],
            vec![(1, Read)],
            vec![(1, Read)],
            vec![(1, ReadWrite)],
            vec![(1, Reduce(0))],
            vec![(1, Reduce(0))],
            vec![(1, Read)],
            vec![(2, Reduce(0))],
            vec![(1, Reduce(1))],
            vec![(1, ReadWrite), (2, Read)],
        ])
    }

    #[test]
    fn sequential_semantics_predecessors() {
        let d = dag();
        let want: [&[u32]; 10] = [
            &[],
            &[0],
            &[0],
            &[0, 1, 2],
            &[3],
            &[3],
            &[4, 5],
            &[],
            &[4, 5, 6],
            &[7, 8],
        ];
        for (t, w) in want.iter().enumerate() {
            assert_eq!(d.preds(t), *w, "task {t}");
        }
        assert_eq!(d.edges(), 14);
    }

    #[test]
    fn known_ready_times() {
        let d = dag();
        // Task t's spawn returns at 10 + t; bodies end as listed.
        let spawn_end: Vec<u64> = (0..10).map(|t| 10 + t).collect();
        let body_end = [30, 40, 45, 60, 70, 65, 80, 5, 90, 100];
        let ready = d.ready_times(&spawn_end, &body_end);
        assert_eq!(ready, vec![10, 30, 30, 45, 60, 60, 70, 17, 80, 90]);
    }

    #[test]
    fn independent_tasks_are_ready_at_spawn() {
        let d = Dag::independent(3);
        assert_eq!(d.ready_times(&[5, 6, 7], &[0, 0, 0]), vec![5, 6, 7]);
    }
}
