//! The pending-node queue driving constraint adding: FIFO (chaotic
//! iteration) or the taint-locality priority scheme of §6.1.
//!
//! Priorities: a freshly created node gets `π = 0` if its method is a taint
//! source, else `π = maxNodes`. When a node `n` is processed, its
//! neighborhood `Tn` receives `π(t) := min(π(t), π(n)+1)`, propagated to a
//! fixpoint (the solver drives that part). Lower `π` pops first, so the
//! analysis explores code near taint sources before anything else.
//!
//! The solver derives `Tn` from two structures it fills as the call graph
//! grows: an undirected adjacency list per node (both ends of every call
//! edge) and a method → nodes index (for the heap part of `Tn`: nodes of
//! methods that load a field `n`'s method stores). It propagates
//! breadth-first along the adjacency, so one update costs the number of
//! nodes and adjacency entries it reaches, never a scan of the whole call
//! graph. Decreases only happen through [`NodeQueue::lower_priority`], and
//! the fixpoint is the same whatever order they arrive in. Stale heap
//! entries are skipped, and ties pop by node id, so the pop order is a
//! function of the final π values alone.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::callgraph::CGNodeId;

/// Pending-node queue (see module docs).
#[derive(Debug)]
pub struct NodeQueue {
    priority_mode: bool,
    default_priority: usize,
    pi: Vec<usize>,
    heap: BinaryHeap<Reverse<(usize, u32)>>,
    fifo: VecDeque<CGNodeId>,
    popped: Vec<bool>,
}

impl NodeQueue {
    /// Creates a queue. `max_nodes` is the initial priority of non-source
    /// nodes in priority mode.
    pub fn new(priority_mode: bool, max_nodes: usize) -> Self {
        NodeQueue {
            priority_mode,
            default_priority: max_nodes,
            pi: Vec::new(),
            heap: BinaryHeap::new(),
            fifo: VecDeque::new(),
            popped: Vec::new(),
        }
    }

    /// Registers a new node and enqueues it. `is_source` seeds π = 0.
    pub fn push(&mut self, node: CGNodeId, is_source: bool) {
        let idx = node.index();
        if idx >= self.pi.len() {
            self.pi.resize(idx + 1, self.default_priority);
            self.popped.resize(idx + 1, false);
        }
        self.pi[idx] = if is_source { 0 } else { self.default_priority };
        if self.priority_mode {
            self.heap.push(Reverse((self.pi[idx], node.0)));
        } else {
            self.fifo.push_back(node);
        }
    }

    /// Dequeues the next node to process, or `None` when drained.
    pub fn pop(&mut self) -> Option<CGNodeId> {
        if self.priority_mode {
            while let Some(Reverse((p, raw))) = self.heap.pop() {
                let node = CGNodeId(raw);
                if self.popped[node.index()] {
                    continue; // stale duplicate
                }
                if p != self.pi[node.index()] {
                    continue; // superseded by a lower priority entry
                }
                self.popped[node.index()] = true;
                return Some(node);
            }
            None
        } else {
            let node = self.fifo.pop_front()?;
            self.popped[node.index()] = true;
            Some(node)
        }
    }

    /// Current priority of `node`.
    pub fn priority_of(&self, node: CGNodeId) -> usize {
        self.pi.get(node.index()).copied().unwrap_or(self.default_priority)
    }

    /// Applies `π(node) := min(π(node), p)`; returns whether it decreased.
    /// Re-enqueues pending nodes whose priority improved.
    pub fn lower_priority(&mut self, node: CGNodeId, p: usize) -> bool {
        let idx = node.index();
        if idx >= self.pi.len() {
            return false; // unknown node (dropped by budget)
        }
        if p < self.pi[idx] {
            self.pi[idx] = p;
            if self.priority_mode && !self.popped[idx] {
                self.heap.push(Reverse((p, node.0)));
            }
            true
        } else {
            false
        }
    }

    /// Applies `π(t) := min(π(t), p)` to every queued `(t, p)` and, for
    /// each decrease, queues `t`'s neighbours at `p + 1`, until `work`
    /// drains: the fixpoint step of §6.1.
    ///
    /// The rule is monotone, so the result is its greatest fixpoint below
    /// the current π whatever order `work` is processed in. When every
    /// seed has the same `p`, this breadth-first order lowers each node at
    /// most once, so the cost is the nodes and adjacency entries reached.
    pub fn propagate(
        &mut self,
        work: &mut VecDeque<(CGNodeId, usize)>,
        neighbors: &[Vec<CGNodeId>],
    ) {
        while let Some((t, p)) = work.pop_front() {
            if self.lower_priority(t, p) {
                let p = p.saturating_add(1);
                work.extend(neighbors[t.index()].iter().map(|&u| (u, p)));
            }
        }
    }

    /// Number of nodes ever registered.
    pub fn len(&self) -> usize {
        self.pi.len()
    }

    /// Whether no node was ever registered.
    pub fn is_empty(&self) -> bool {
        self.pi.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = NodeQueue::new(false, 100);
        q.push(CGNodeId(0), false);
        q.push(CGNodeId(1), true);
        assert_eq!(q.pop(), Some(CGNodeId(0)));
        assert_eq!(q.pop(), Some(CGNodeId(1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sources_pop_first_in_priority_mode() {
        let mut q = NodeQueue::new(true, 100);
        q.push(CGNodeId(0), false);
        q.push(CGNodeId(1), true);
        q.push(CGNodeId(2), false);
        assert_eq!(q.pop(), Some(CGNodeId(1)), "source has π=0");
    }

    #[test]
    fn lowering_priority_reorders() {
        let mut q = NodeQueue::new(true, 100);
        q.push(CGNodeId(0), false);
        q.push(CGNodeId(1), false);
        assert!(q.lower_priority(CGNodeId(1), 5));
        assert!(!q.lower_priority(CGNodeId(1), 7), "only decreases");
        assert_eq!(q.pop(), Some(CGNodeId(1)));
        assert_eq!(q.pop(), Some(CGNodeId(0)));
    }

    #[test]
    fn stale_entries_skipped() {
        let mut q = NodeQueue::new(true, 100);
        q.push(CGNodeId(0), false);
        q.lower_priority(CGNodeId(0), 3);
        q.lower_priority(CGNodeId(0), 1);
        assert_eq!(q.pop(), Some(CGNodeId(0)));
        assert_eq!(q.pop(), None, "duplicates are skipped");
    }

    /// The propagation the solver used before it kept an adjacency list:
    /// depth-first, rescanning every call edge for each decrease.
    fn propagate_by_edge_scan(
        q: &mut NodeQueue,
        seeds: &[(CGNodeId, usize)],
        edges: &[(CGNodeId, CGNodeId)],
    ) {
        let mut work = seeds.to_vec();
        while let Some((t, p)) = work.pop() {
            if q.lower_priority(t, p) {
                for &(a, b) in edges {
                    if a == t {
                        work.push((b, p + 1));
                    }
                    if b == t {
                        work.push((a, p + 1));
                    }
                }
            }
        }
    }

    /// Drives two queues through the same random §6.1 run — a call graph
    /// that grows between pops, and after each pop an update seeded with
    /// the popped node's neighbours plus a few arbitrary nodes (the heap
    /// part of `Tn`) — one with [`NodeQueue::propagate`] and one with the
    /// edge-scan reference. Every π and the whole pop order must agree.
    #[test]
    fn propagation_matches_edge_scan_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..300 {
            let n = 2 + below(40);
            let mut fast = NodeQueue::new(true, 1000);
            let mut reference = NodeQueue::new(true, 1000);
            for id in 0..n {
                let is_source = below(6) == 0;
                fast.push(CGNodeId(id as u32), is_source);
                reference.push(CGNodeId(id as u32), is_source);
            }
            let mut edges = Vec::new();
            let mut neighbors = vec![Vec::new(); n];
            let mut work = VecDeque::new();
            loop {
                for _ in 0..below(4) {
                    let (a, b) = (CGNodeId(below(n) as u32), CGNodeId(below(n) as u32));
                    edges.push((a, b));
                    neighbors[a.index()].push(b);
                    neighbors[b.index()].push(a);
                }
                let popped = fast.pop();
                assert_eq!(popped, reference.pop(), "pop order diverged");
                let Some(node) = popped else { break };
                let next = fast.priority_of(node) + 1;
                let mut seeds: Vec<(CGNodeId, usize)> =
                    neighbors[node.index()].iter().map(|&t| (t, next)).collect();
                seeds.extend((0..below(3)).map(|_| (CGNodeId(below(n) as u32), next)));
                work.extend(seeds.iter().copied());
                fast.propagate(&mut work, &neighbors);
                propagate_by_edge_scan(&mut reference, &seeds, &edges);
                assert_eq!(fast.pi, reference.pi, "π diverged after updating {node:?}");
            }
        }
    }

    #[test]
    fn priority_of_unknown_node_is_default() {
        let q = NodeQueue::new(true, 42);
        assert_eq!(q.priority_of(CGNodeId(9)), 42);
    }
}
