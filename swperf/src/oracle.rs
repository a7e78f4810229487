//! The benchmark's independent checker.
//!
//! Everything here is built from the generated edge list alone: its own
//! adjacency, its own sequential BFS, its own component labelling. It
//! shares no code with the program's `Csr`, baseline BFS or validators,
//! so a fault in those cannot hide a fault in the runtime.

use std::collections::VecDeque;

/// Level of a vertex the root does not reach.
pub const UNREACHED: u32 = u32::MAX;
/// Parent of a vertex the BFS did not reach (the runtime's convention).
pub const NO_PARENT: u64 = u64::MAX;

/// Symmetric adjacency without self-loops or duplicate neighbours,
/// each row sorted so edge membership is a binary search.
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<u64>,
    /// Component label of every vertex.
    comp: Vec<u32>,
    /// Input edge tuples (self-loops and duplicates included, as the
    /// Graph500 TEPS numerator counts them) per component.
    comp_edges: Vec<u64>,
}

impl Graph {
    /// Builds the adjacency of the undirected graph `edges` over
    /// `0..n`.
    pub fn new(n: u64, edges: &[(u64, u64)]) -> Graph {
        let n = n as usize;
        let mut deg = vec![0usize; n + 1];
        for &(u, v) in edges {
            if u != v {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut fill = offsets.clone();
        let mut adj = vec![0u64; offsets[n]];
        for &(u, v) in edges {
            if u != v {
                adj[fill[u as usize]] = v;
                fill[u as usize] += 1;
                adj[fill[v as usize]] = u;
                fill[v as usize] += 1;
            }
        }
        // Sort and deduplicate each row in place, then compact.
        let mut w = 0usize;
        let mut compact = vec![0usize; n + 1];
        for v in 0..n {
            let row = &mut adj[offsets[v]..offsets[v + 1]];
            row.sort_unstable();
            let mut last = None;
            let start = w;
            for i in offsets[v]..offsets[v + 1] {
                let x = adj[i];
                if last != Some(x) {
                    adj[w] = x;
                    w += 1;
                    last = Some(x);
                }
            }
            compact[v] = start;
        }
        compact[n] = w;
        adj.truncate(w);
        adj.shrink_to_fit();
        let mut g = Graph {
            offsets: compact,
            adj,
            comp: Vec::new(),
            comp_edges: Vec::new(),
        };
        g.label_components(edges);
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Bytes the oracle holds on the heap: its share of the
    /// benchmark's peak resident set.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.adj.len() * 8
            + self.comp.len() * 4
            + self.comp_edges.len() * 8
    }

    /// Distinct neighbours of `v`, self excluded.
    pub fn degree(&self, v: u64) -> usize {
        self.neighbors(v as usize).len()
    }

    fn neighbors(&self, v: usize) -> &[u64] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Is `{u, v}` an input edge (`u != v`)?
    pub fn has_edge(&self, u: u64, v: u64) -> bool {
        self.neighbors(u as usize).binary_search(&v).is_ok()
    }

    /// Sequential BFS levels from `root` ([`UNREACHED`] elsewhere).
    pub fn levels(&self, root: u64) -> Vec<u32> {
        let mut level = vec![UNREACHED; self.num_vertices()];
        let mut queue = VecDeque::new();
        level[root as usize] = 0;
        queue.push_back(root as usize);
        while let Some(u) = queue.pop_front() {
            let next = level[u] + 1;
            for &w in self.neighbors(u) {
                let w = w as usize;
                if level[w] == UNREACHED {
                    level[w] = next;
                    queue.push_back(w);
                }
            }
        }
        level
    }

    fn label_components(&mut self, edges: &[(u64, u64)]) {
        let n = self.num_vertices();
        let mut comp = vec![u32::MAX; n];
        let mut count = 0u32;
        let mut stack = Vec::new();
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            comp[s] = count;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = count;
                        stack.push(w as usize);
                    }
                }
            }
            count += 1;
        }
        let mut comp_edges = vec![0u64; count as usize];
        for &(u, _) in edges {
            comp_edges[comp[u as usize] as usize] += 1;
        }
        self.comp = comp;
        self.comp_edges = comp_edges;
    }

    /// Input edge tuples in `root`'s component: the edges a BFS from
    /// `root` traverses in the Graph500 sense (the TEPS numerator).
    pub fn traversed_edges(&self, root: u64) -> u64 {
        self.comp_edges[self.comp[root as usize] as usize]
    }
}

/// Checks a BFS parent array against the oracle's levels for its root:
/// the root is its own parent, every tree edge is an input edge, each
/// parent sits exactly one level above its child, and the reached set
/// equals the oracle's.
pub fn check_tree(g: &Graph, root: u64, level: &[u32], parents: &[u64]) -> Result<(), String> {
    let n = g.num_vertices();
    if parents.len() != n {
        return Err(format!(
            "parent array has {} entries, graph has {n}",
            parents.len()
        ));
    }
    if parents[root as usize] != root {
        return Err(format!("root {root} is not its own parent"));
    }
    for (v, &p) in parents.iter().enumerate() {
        let reached = level[v] != UNREACHED;
        if p == NO_PARENT {
            if reached {
                return Err(format!(
                    "vertex {v} reachable at level {} but unreached",
                    level[v]
                ));
            }
            continue;
        }
        if !reached {
            return Err(format!(
                "vertex {v} unreachable from {root} but has parent {p}"
            ));
        }
        if v as u64 == root {
            continue;
        }
        if p as usize >= n || !g.has_edge(p, v as u64) {
            return Err(format!("tree edge {p}-{v} is not an input edge"));
        }
        if level[p as usize] == UNREACHED || level[p as usize] + 1 != level[v] {
            return Err(format!(
                "parent {p} of {v} at level {} but child at level {}",
                level[p as usize], level[v]
            ));
        }
    }
    Ok(())
}

/// A 64-bit FNV-1a fingerprint of a parent array, so repeated outputs
/// can be matched against one already checked in full.
pub fn fingerprint(parents: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in parents {
        h ^= p;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A query the service answers from the root's level array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Distance,
    Reachable,
    KHop(u32),
}

/// The answer the service must give, derived from the oracle's levels.
pub fn expected_answer(op: Op, target: u64, level: &[u32]) -> u64 {
    match op {
        Op::Distance => match level[target as usize] {
            UNREACHED => u64::MAX,
            l => u64::from(l),
        },
        Op::Reachable => u64::from(level[target as usize] != UNREACHED),
        Op::KHop(h) => level.iter().filter(|&&l| l != UNREACHED && l <= h).count() as u64,
    }
}

/// How one benchmark operation ended.
pub enum Outcome {
    /// Checked and correct.
    Ok,
    /// Answered, but the answer disagrees with the oracle.
    Wrong(String),
    /// Shed by admission control.
    Busy,
    /// Answered with a timeout status.
    Timeout,
    /// Any other error the program returned.
    Error(String),
}

/// Attempted / failed accounting. A failure is counted, never a panic;
/// the first few are kept for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// The result line's `correct`: no operation that the program
    /// answered disagreed with the oracle. An operation that got no
    /// answer (BUSY, Timeout, error) is counted in `failed` only, so
    /// `correct` speaks of the answers given and `failed` of all
    /// failures; the run exits non-zero on either.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    pub fn record(&mut self, what: &str, outcome: Outcome) {
        self.attempted += 1;
        let note = match outcome {
            Outcome::Ok => return,
            Outcome::Wrong(m) => {
                self.wrong += 1;
                format!("{what}: wrong answer: {m}")
            }
            Outcome::Busy => format!("{what}: shed (BUSY)"),
            Outcome::Timeout => format!("{what}: timed out"),
            Outcome::Error(m) => format!("{what}: error: {m}"),
        };
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// Feeds the checker one corrupted BFS tree and one wrong service
/// answer, beside their correct versions, and expects exactly the two
/// corrupted ones to be counted as failed and to clear `correct`. A
/// shed query on a fresh tally must count as failed but not as wrong.
pub fn self_test() -> Result<(), String> {
    // A path 0-1-2-3, a triangle 4-5-6 hanging off 3, vertex 7 isolated.
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 4),
        (2, 2),
    ];
    let g = Graph::new(8, &edges);
    let level = g.levels(0);
    let good = vec![0, 0, 1, 2, 3, 4, 4, NO_PARENT];
    let mut tally = Tally::default();
    let tree = |p: &[u64]| match check_tree(&g, 0, &level, p) {
        Ok(()) => Outcome::Ok,
        Err(m) => Outcome::Wrong(m),
    };
    tally.record("good tree", tree(&good));
    // 6's parent moved to 3: not an input edge.
    let mut bad = good.clone();
    bad[6] = 3;
    tally.record("corrupted tree", tree(&bad));
    let answer = |op, target, got| {
        let want = expected_answer(op, target, &level);
        if got == want {
            Outcome::Ok
        } else {
            Outcome::Wrong(format!("{op:?} to {target}: got {got}, want {want}"))
        }
    };
    tally.record("good answer", answer(Op::KHop(2), 0, 3));
    tally.record("wrong answer", answer(Op::Distance, 6, 4));
    if g.traversed_edges(0) != 8 || g.traversed_edges(7) != 0 {
        return Err("component edge counts are wrong".into());
    }
    if tally.attempted != 4 || tally.failed != 2 || tally.wrong != 2 || tally.correct() {
        return Err(format!(
            "checker counted {} of {} failed, expected 2 of 4: {:?}",
            tally.failed, tally.attempted, tally.notes
        ));
    }
    let mut shed = Tally::default();
    shed.record("shed query", Outcome::Busy);
    shed.record("timed-out query", Outcome::Timeout);
    if shed.failed != 2 || !shed.correct() {
        return Err(format!(
            "BUSY and Timeout: {} of {} failed, correct {}; expected 2 failed and correct",
            shed.failed,
            shed.attempted,
            shed.correct()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_counts_both_corruptions() {
        self_test().unwrap();
    }

    #[test]
    fn wrong_level_parent_is_caught() {
        // Square 0-1-2-3-0: 2's parent 3 is an input edge, one level
        // too deep only if 3 sits at level 2.
        let g = Graph::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let level = g.levels(0);
        assert!(check_tree(&g, 0, &level, &[0, 0, 1, 0]).is_ok());
        assert!(
            check_tree(&g, 0, &level, &[0, 3, 1, 0]).is_err(),
            "sibling as parent"
        );
        assert!(
            check_tree(&g, 0, &level, &[1, 0, 1, 0]).is_err(),
            "root not its own parent"
        );
        assert!(
            check_tree(&g, 0, &level, &[0, 0, NO_PARENT, 0]).is_err(),
            "missed vertex"
        );
    }
}
