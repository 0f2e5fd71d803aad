use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// A (possibly partial) multicast tree over dense peer indices.
///
/// Produced by the §2 space-partitioning construction, the §3 stability
/// construction, and the baselines — all analyses (Fig. 1b/1d/1e) run on
/// this one representation.
///
/// A peer is *reached* if it received the construction request (the root
/// always is). On a complete run the tree is spanning; partial trees
/// arise under message loss or partial knowledge and are first-class so
/// experiments can measure coverage.
///
/// # Memory
///
/// Only reached peers are stored (sorted by id, one slot each, the
/// children lists packed into one array), so a 20-member group tree over
/// a 20 000-peer overlay costs 20 slots, not 20 000: the many trees of
/// [`crate::groups`] are `O(reached)` each, in a fixed number of
/// allocations.
/// The peer universe survives as a number ([`MulticastTree::len`], the
/// population the tree was built over). Every per-peer accessor answers
/// for *any* index — a peer outside the stored set, including one that
/// joined the overlay after the tree was built, is simply unreached —
/// so a cached tree never has to be padded when the population grows.
///
/// For the same reason **equality is structural**: two trees are equal
/// iff they have the same root and connect the same reached peers the
/// same way. The size of the universe around them is not compared — a
/// cached group tree and its from-scratch rebuild over a since-grown
/// population are the same tree.
#[derive(Debug, Clone)]
pub struct MulticastTree {
    root: usize,
    /// Peers the tree was built over (reached or not).
    len: usize,
    /// Reached peers, ascending; `parent` is parallel.
    nodes: Vec<usize>,
    /// Each reached peer's parent as a **slot** of `nodes`, so walks
    /// towards the root cost one index per hop, not one search.
    parent: Vec<Option<usize>>,
    /// The children of the peer stored at slot `s`, as sorted peer ids,
    /// are `child_ids[child_start[s]..child_start[s + 1]]`.
    child_start: Vec<u32>,
    child_ids: Vec<usize>,
}

impl PartialEq for MulticastTree {
    fn eq(&self, other: &Self) -> bool {
        // Children lists are derived from the parent links, and equal
        // node lists make equal parent slots equal parents.
        self.root == other.root && self.nodes == other.nodes && self.parent == other.parent
    }
}

impl Eq for MulticastTree {}

/// Structural defects detected by [`MulticastTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A node's parent does not list it as a child.
    ParentChildMismatch {
        /// The child node.
        node: usize,
    },
    /// Walking parents from `node` exceeded the peer count (a cycle).
    Cycle {
        /// The starting node of the walk.
        node: usize,
    },
    /// A reached non-root node has no parent.
    OrphanReached {
        /// The offending node.
        node: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::ParentChildMismatch { node } => {
                write!(f, "node {node} is not listed among its parent's children")
            }
            TreeError::Cycle { node } => write!(f, "parent chain from node {node} cycles"),
            TreeError::OrphanReached { node } => {
                write!(f, "reached non-root node {node} has no parent")
            }
        }
    }
}

impl Error for TreeError {}

impl MulticastTree {
    /// Assembles a tree from parent pointers.
    ///
    /// `parent[i] == None` marks both the root and unreached peers;
    /// `reached` disambiguates. Children lists are derived.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range, `parent.len() != reached.len()`,
    /// the root is marked unreached, or an unreached peer has a parent.
    #[must_use]
    pub fn from_parents(root: usize, parent: Vec<Option<usize>>, reached: Vec<bool>) -> Self {
        assert_eq!(
            parent.len(),
            reached.len(),
            "parent/reached length mismatch"
        );
        assert!(root < parent.len(), "root out of range");
        assert!(reached[root], "root must be reached");
        assert!(
            parent.iter().zip(&reached).all(|(p, &r)| r || p.is_none()),
            "only reached peers have parents"
        );
        let nodes: Vec<usize> = (0..parent.len()).filter(|&i| reached[i]).collect();
        let parents = nodes.iter().map(|&i| parent[i]).collect();
        Self::assemble(root, parent.len(), nodes, parents)
    }

    /// Assembles a tree over a universe of `len` peers from its links:
    /// one `(child, parent)` pair per reached non-root peer, in any
    /// order. Costs `O(links · log links)` whatever `len` is.
    ///
    /// # Panics
    ///
    /// Panics if `root` or a link endpoint is out of range, a child is
    /// linked twice or is the root, or a parent is not itself reached.
    #[must_use]
    pub fn from_links(root: usize, len: usize, mut links: Vec<(usize, usize)>) -> Self {
        assert!(root < len, "root out of range");
        links.sort_unstable();
        let mut nodes: Vec<usize> = links.iter().map(|&(child, _)| child).collect();
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "a peer has one parent"
        );
        assert!(nodes.last().is_none_or(|&c| c < len), "child out of range");
        let at = nodes.partition_point(|&c| c < root);
        assert!(nodes.get(at) != Some(&root), "the root has no parent");
        nodes.insert(at, root);
        let mut parents: Vec<Option<usize>> = links.iter().map(|&(_, p)| Some(p)).collect();
        parents.insert(at, None);
        Self::assemble(root, len, nodes, parents)
    }

    /// Resolves parent ids to slots and derives the children lists of
    /// the sorted `nodes`.
    fn assemble(root: usize, len: usize, nodes: Vec<usize>, parent: Vec<Option<usize>>) -> Self {
        let parent = parent
            .into_iter()
            .map(|p| Some(nodes.binary_search(&p?).expect("parents are reached peers")))
            .collect();
        let mut tree = MulticastTree {
            root,
            len,
            nodes,
            parent,
            child_start: Vec::new(),
            child_ids: Vec::new(),
        };
        tree.index_children();
        tree
    }

    /// Derives the packed children lists from the parent slots: a
    /// counting sort by parent slot, stable over the ascending `nodes`,
    /// so every list comes out sorted.
    fn index_children(&mut self) {
        let n = self.nodes.len();
        assert!(u32::try_from(n).is_ok(), "child offsets are u32");
        // `start[s + 2]` counts the children of slot `s`; summed up,
        // `start[s + 1]` is where that list begins. Filling a list
        // advances its cursor to where the next one begins, which shifts
        // every offset into its final place, one entry earlier.
        let mut start = vec![0u32; n + 2];
        for &up in self.parent.iter().flatten() {
            start[up + 2] += 1;
        }
        for s in 2..n + 2 {
            start[s] += start[s - 1];
        }
        let mut ids = vec![0usize; start[n + 1] as usize];
        for (&child, &up) in self.nodes.iter().zip(&self.parent) {
            if let Some(up) = up {
                ids[start[up + 1] as usize] = child;
                start[up + 1] += 1;
            }
        }
        start.pop();
        self.child_start = start;
        self.child_ids = ids;
    }

    /// The children of the reached peer stored at `slot`.
    pub(crate) fn children_of(&self, slot: usize) -> &[usize] {
        &self.child_ids[self.child_start[slot] as usize..self.child_start[slot + 1] as usize]
    }

    /// The storage slot of reached peer `i`.
    pub(crate) fn slot(&self, i: usize) -> Option<usize> {
        self.nodes.binary_search(&i).ok()
    }

    /// The slot of the parent of the reached peer stored at `slot`.
    pub(crate) fn parent_slot(&self, slot: usize) -> Option<usize> {
        self.parent[slot]
    }

    /// Grafts unreached peers into the tree, one `(child, parent)` link
    /// each, in any order — the relay-join primitive behind
    /// `crate::graft`, which attaches every hop of every discovered
    /// relay path in one call. A parent may itself be one of the new
    /// children. One merge pass ([`MulticastTree::patched`] keeping
    /// every node): `O(reached + links · log)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, a child is already reached
    /// or linked twice, or a parent is neither reached nor a new child.
    pub(crate) fn attach_all(&mut self, links: Vec<(usize, usize)>) {
        if !links.is_empty() {
            *self = self.patched(self.len, |_| true, links);
        }
    }

    /// The tree over a universe of `len` peers that keeps this tree's
    /// nodes at the slots `keep` accepts, each with the parent it has
    /// here, and adds one node per `(child, parent)` link, in any
    /// order — the one merge behind relay grafting (keep everything,
    /// add the paths) and behind replaying a §2 construction
    /// (`crate::builder`: keep what the change cannot have moved, add
    /// what was re-delegated). A link's parent may be a kept node or
    /// another link's child; a link's child may be a node that is not
    /// kept, and is then still the parent of the nodes kept below it.
    /// Old slots are remapped, not searched for:
    /// `O(reached + links · log)`.
    ///
    /// # Panics
    ///
    /// Panics if the root is not kept, a kept node's parent is not, an
    /// index is out of range, a child is a kept node or linked twice,
    /// or a link's parent is neither.
    pub(crate) fn patched(
        &self,
        len: usize,
        keep: impl Fn(usize) -> bool,
        mut links: Vec<(usize, usize)>,
    ) -> MulticastTree {
        const DROPPED: usize = usize::MAX;
        links.sort_unstable();
        assert!(
            links.last().is_none_or(|&(c, _)| c < len),
            "child out of range"
        );
        let total = self.nodes.len() + links.len();
        let mut nodes: Vec<usize> = Vec::with_capacity(total);
        // Merge the sorted newcomers in; remember where the kept slots
        // went and where each link's child landed.
        let mut moved = vec![DROPPED; self.nodes.len()];
        let mut landed = Vec::with_capacity(links.len());
        let mut fresh = links.iter().map(|&(c, _)| c).peekable();
        let push = |nodes: &mut Vec<usize>, node: usize| {
            assert!(
                nodes.last().is_none_or(|&last| last < node),
                "a peer has one parent"
            );
            nodes.push(node);
            nodes.len() - 1
        };
        for (slot, &node) in self.nodes.iter().enumerate() {
            while let Some(c) = fresh.next_if(|&c| c < node) {
                landed.push(push(&mut nodes, c));
            }
            if keep(slot) {
                assert!(
                    fresh.peek() != Some(&node),
                    "child {node} already in the tree"
                );
                moved[slot] = push(&mut nodes, node);
            } else if fresh.next_if_eq(&node).is_some() {
                // Linked anew: what is kept below it stays below it.
                moved[slot] = push(&mut nodes, node);
                landed.push(moved[slot]);
            }
        }
        for c in fresh {
            landed.push(push(&mut nodes, c));
        }
        let mut parent = vec![None; nodes.len()];
        for (slot, &up) in self
            .parent
            .iter()
            .enumerate()
            .filter(|&(slot, _)| keep(slot))
        {
            assert!(
                up.is_none_or(|up| moved[up] != DROPPED),
                "a kept node lost its parent"
            );
            parent[moved[slot]] = up.map(|up| moved[up]);
        }
        for (&at, &(_, up)) in landed.iter().zip(&links) {
            let up = nodes
                .binary_search(&up)
                .unwrap_or_else(|_| panic!("parent {up} not in the tree"));
            parent[at] = Some(up);
        }
        assert!(
            self.slot(self.root).is_some_and(|s| moved[s] != DROPPED),
            "the root stays"
        );
        let mut tree = MulticastTree {
            root: self.root,
            len,
            nodes,
            parent,
            child_start: Vec::new(),
            child_ids: Vec::new(),
        };
        tree.index_children();
        tree
    }

    /// The session initiator.
    #[must_use]
    pub fn root(&self) -> usize {
        self.root
    }

    /// Total peers (reached or not) of the population the tree was
    /// built over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree covers no peers (impossible once constructed —
    /// the root is always reached — but required by convention).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Parent of `i` (`None` for the root and for unreached peers).
    #[must_use]
    pub fn parent(&self, i: usize) -> Option<usize> {
        let up = self.parent[self.slot(i)?]?;
        Some(self.nodes[up])
    }

    /// Tree children of `i` (sorted; empty for unreached peers).
    #[must_use]
    pub fn children(&self, i: usize) -> &[usize] {
        self.slot(i).map_or(&[], |s| self.children_of(s))
    }

    /// `true` if peer `i` received the construction request.
    #[must_use]
    pub fn is_reached(&self, i: usize) -> bool {
        self.slot(i).is_some()
    }

    /// The reached peers, ascending.
    #[must_use]
    pub fn reached(&self) -> &[usize] {
        &self.nodes
    }

    /// Number of reached peers.
    #[must_use]
    pub fn reached_count(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if every peer was reached.
    #[must_use]
    pub fn is_spanning(&self) -> bool {
        self.nodes.len() == self.len
    }

    /// Indices of unreached peers (empty when spanning).
    #[must_use]
    pub fn unreached(&self) -> Vec<usize> {
        let mut reached = self.nodes.iter().copied().peekable();
        (0..self.len)
            .filter(|&i| reached.next_if_eq(&i).is_none())
            .collect()
    }

    /// Depth of every reached peer by storage slot (root = 0).
    fn slot_depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut queue = VecDeque::from([self.root]);
        while let Some(u) = queue.pop_front() {
            let su = self.slot(u).expect("queued nodes are reached");
            for &c in self.children_of(su) {
                let sc = self.slot(c).expect("children are reached");
                depth[sc] = depth[su] + 1;
                queue.push_back(c);
            }
        }
        depth
    }

    /// Depth of every reached peer (root = 0); `None` for unreached.
    #[must_use]
    // lint:allow(D006, reason = "how baseline's tests see that bfs_tree depths are the overlay's hop distances: the per-peer depths that longest_root_to_leaf, the Fig. 1b metric, reduces")
    pub fn depths(&self) -> Vec<Option<usize>> {
        let mut depth = vec![None; self.len];
        for (&i, d) in self.nodes.iter().zip(self.slot_depths()) {
            depth[i] = Some(d);
        }
        depth
    }

    /// Length (in hops) of the longest root-to-leaf path — the Fig. 1b
    /// metric.
    #[must_use]
    pub fn longest_root_to_leaf(&self) -> usize {
        self.slot_depths().into_iter().max().unwrap_or(0)
    }

    /// Undirected tree degree of every peer (children + parent link) —
    /// the Fig. 1e metric.
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        let mut degree = vec![0usize; self.len];
        for (s, &i) in self.nodes.iter().enumerate() {
            degree[i] = self.children_of(s).len() + usize::from(self.parent[s].is_some());
        }
        degree
    }

    /// Largest number of children of any peer (the §2 "maximum tree
    /// degree ≤ 2^D" claim is asserted on this).
    #[must_use]
    pub fn max_children(&self) -> usize {
        self.child_start
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Diameter of the reached component in hops (longest path between
    /// any two reached peers) — the Fig. 1d metric. Computed by double
    /// BFS, exact on trees.
    #[must_use]
    pub fn diameter(&self) -> usize {
        if self.reached_count() <= 1 {
            return 0;
        }
        let (far, _) = self.farthest_from(self.root);
        let (_, dist) = self.farthest_from(far);
        dist
    }

    fn farthest_from(&self, start: usize) -> (usize, usize) {
        let mut dist: Vec<Option<usize>> = vec![None; self.nodes.len()];
        dist[self.slot(start).expect("walks start on the tree")] = Some(0);
        let mut queue = VecDeque::from([(start, 0usize)]);
        let mut best = (start, 0);
        while let Some((u, du)) = queue.pop_front() {
            if du > best.1 {
                best = (u, du);
            }
            let su = self.slot(u).expect("queued nodes are reached");
            let up = self.parent[su].map(|slot| self.nodes[slot]);
            let neighbors = self.children_of(su).iter().copied().chain(up);
            for v in neighbors {
                let sv = self.slot(v).expect("tree links join reached peers");
                if dist[sv].is_none() {
                    dist[sv] = Some(du + 1);
                    queue.push_back((v, du + 1));
                }
            }
        }
        best
    }

    /// Data messages needed to deliver one payload from the root to
    /// every peer in `targets`: the number of edges in the union of the
    /// root-to-target tree paths. Each edge on some delivery path
    /// carries the payload exactly once, so this counts every node on a
    /// delivery path except the root — **including non-target interior
    /// nodes** such as relay grafts, which the old
    /// `delivered − 1` accounting silently omitted.
    ///
    /// Unreached targets (and the root itself) contribute no path.
    #[must_use]
    pub fn delivery_messages<I: IntoIterator<Item = usize>>(&self, targets: I) -> usize {
        let mut on_path = vec![false; self.nodes.len()];
        let mut messages = 0usize;
        for t in targets {
            // Walk up until the root or an already-counted node; every
            // newly marked node is one payload-carrying edge.
            let mut cur = self.slot(t);
            while let Some(s) = cur {
                if self.nodes[s] == self.root || on_path[s] {
                    break;
                }
                on_path[s] = true;
                messages += 1;
                cur = Some(self.parent[s].expect("reached non-root nodes have parents"));
            }
        }
        messages
    }

    /// Checks structural consistency: parent/child agreement, no cycles,
    /// no reached orphans.
    ///
    /// # Errors
    ///
    /// Returns the first [`TreeError`] found.
    pub fn validate(&self) -> Result<(), TreeError> {
        for (s, &i) in self.nodes.iter().enumerate() {
            if let Some(up) = self.parent[s] {
                if self.children_of(up).binary_search(&i).is_err() {
                    return Err(TreeError::ParentChildMismatch { node: i });
                }
            } else if i != self.root {
                return Err(TreeError::OrphanReached { node: i });
            }
            // Walk to the root; more steps than nodes means a cycle.
            let mut cur = s;
            let mut steps = 0;
            while let Some(up) = self.parent[cur] {
                cur = up;
                steps += 1;
                if steps > self.nodes.len() {
                    return Err(TreeError::Cycle { node: i });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for MulticastTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tree(root={}, reached {}/{}, height={})",
            self.root,
            self.reached_count(),
            self.len(),
            self.longest_root_to_leaf()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 6-peer tree:
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///     / \
    ///    3   4      (5 unreached)
    /// ```
    fn sample() -> MulticastTree {
        MulticastTree::from_parents(
            0,
            vec![None, Some(0), Some(0), Some(1), Some(1), None],
            vec![true, true, true, true, true, false],
        )
    }

    #[test]
    fn children_are_derived_from_parents() {
        let t = sample();
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.children(1), &[3, 4]);
        assert!(t.children(3).is_empty());
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn reach_accounting() {
        let t = sample();
        assert_eq!(t.reached_count(), 5);
        assert!(!t.is_spanning());
        assert_eq!(t.unreached(), vec![5]);
        assert!(t.is_reached(4));
        assert!(!t.is_reached(5));
    }

    #[test]
    fn depths_and_longest_path() {
        let t = sample();
        let d = t.depths();
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[3], Some(2));
        assert_eq!(d[5], None);
        assert_eq!(t.longest_root_to_leaf(), 2);
    }

    #[test]
    fn degrees_count_parent_and_children() {
        let t = sample();
        assert_eq!(t.degrees(), vec![2, 3, 1, 1, 1, 0]);
        assert_eq!(t.max_children(), 2);
    }

    #[test]
    fn diameter_of_sample_is_three() {
        // 3 -> 1 -> 0 -> 2 (or 4 -> 1 -> 0 -> 2).
        assert_eq!(sample().diameter(), 3);
    }

    #[test]
    fn diameter_of_singleton_is_zero() {
        let t = MulticastTree::from_parents(0, vec![None], vec![true]);
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.longest_root_to_leaf(), 0);
        assert!(t.is_spanning());
    }

    #[test]
    fn path_tree_diameter_equals_length() {
        let t =
            MulticastTree::from_parents(0, vec![None, Some(0), Some(1), Some(2)], vec![true; 4]);
        assert_eq!(t.diameter(), 3);
        assert_eq!(t.longest_root_to_leaf(), 3);
    }

    #[test]
    fn validate_accepts_sample() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn validate_detects_cycle() {
        // 1 <-> 2 cycle hand-built with *consistent* children lists so
        // the parent/child check passes and the walk must find the cycle.
        let mut t = sample();
        t.parent[1] = Some(2);
        t.parent[2] = Some(1);
        t.index_children();
        assert!(t.children(0).is_empty());
        assert_eq!(t.children(1), &[2, 3, 4]);
        assert_eq!(t.children(2), &[1]);
        assert!(matches!(t.validate(), Err(TreeError::Cycle { .. })));
    }

    #[test]
    fn validate_detects_mismatch() {
        let mut t = sample();
        assert_eq!(t.children(0), &[1, 2]);
        t.child_ids[0] = 2; // break derived invariant: the root lists [2, 2]
        assert_eq!(
            t.validate(),
            Err(TreeError::ParentChildMismatch { node: 1 })
        );
    }

    #[test]
    fn validate_detects_reached_orphan() {
        let t = MulticastTree::from_parents(
            0,
            vec![None, None],
            vec![true, true], // peer 1 reached but parentless
        );
        assert_eq!(t.validate(), Err(TreeError::OrphanReached { node: 1 }));
    }

    #[test]
    #[should_panic(expected = "root must be reached")]
    fn unreached_root_rejected() {
        let _ = MulticastTree::from_parents(0, vec![None], vec![false]);
    }

    #[test]
    fn attach_grafts_and_keeps_children_sorted() {
        let mut t = sample();
        t.attach_all(vec![(5, 1)]);
        assert!(t.is_reached(5));
        assert_eq!(t.parent(5), Some(1));
        assert_eq!(t.children(1), &[3, 4, 5]);
        assert_eq!(t.validate(), Ok(()));
        assert!(t.is_spanning());
    }

    #[test]
    #[should_panic(expected = "already in the tree")]
    fn attach_rejects_reached_children() {
        sample().attach_all(vec![(3, 0)]);
    }

    #[test]
    #[should_panic(expected = "not in the tree")]
    fn attach_rejects_unreached_parents() {
        let mut t =
            MulticastTree::from_parents(0, vec![None, None, None], vec![true, false, false]);
        t.attach_all(vec![(2, 1)]);
    }

    /// The satellite regression: a hand-built tree with relay interior
    /// nodes must count every payload-carrying edge, not `targets − 1`.
    ///
    /// ```text
    ///        0 (root, member)
    ///        |
    ///        1 (relay)
    ///        |
    ///        2 (relay)
    ///       / \
    ///      3   4   (members)     5: member reached directly under 0
    /// ```
    #[test]
    fn delivery_messages_count_relay_edges() {
        let t = MulticastTree::from_parents(
            0,
            vec![None, Some(0), Some(1), Some(2), Some(2), Some(0)],
            vec![true; 6],
        );
        // Members are {0, 3, 4, 5}; relays {1, 2} sit on the paths.
        // Edges traversed: 0-1, 1-2, 2-3, 2-4, 0-5 = 5, while the old
        // `delivered - 1` accounting would claim 3.
        assert_eq!(t.delivery_messages([0, 3, 4, 5]), 5);
        // Shared prefixes are counted once.
        assert_eq!(t.delivery_messages([3, 4]), 4);
        assert_eq!(t.delivery_messages([3]), 3);
        // The root alone needs no messages; so does an empty target set.
        assert_eq!(t.delivery_messages([0]), 0);
        assert_eq!(t.delivery_messages([]), 0);
        // Duplicate targets do not double-count.
        assert_eq!(t.delivery_messages([5, 5, 5]), 1);
    }

    #[test]
    fn delivery_messages_skip_unreached_targets() {
        let t = sample();
        assert_eq!(t.delivery_messages([5]), 0, "unreached target");
        // Full membership on a relay-free tree reduces to reached − 1.
        assert_eq!(t.delivery_messages(0..6), t.reached_count() - 1);
    }

    /// A 3-node tree over a 10 000-peer universe whose last id is
    /// reached: `9999 ← 17 ← 4000`.
    fn sparse() -> MulticastTree {
        MulticastTree::from_links(17, 10_000, vec![(4000, 17), (9999, 4000)])
    }

    #[test]
    fn sparse_trees_store_only_reached_peers() {
        let t = sparse();
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.reached(), &[17, 4000, 9999]);
        assert_eq!(t.reached_count(), 3);
        assert!(!t.is_spanning());
        assert_eq!(t.unreached().len(), 9_997);
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.longest_root_to_leaf(), 2);
        assert_eq!(t.diameter(), 2);
        assert_eq!(t.max_children(), 1);
    }

    #[test]
    fn sparse_accessors_answer_for_unreached_and_last_id_peers() {
        let t = sparse();
        // The last id of the universe is an ordinary reached leaf.
        assert!(t.is_reached(9999));
        assert_eq!(t.parent(9999), Some(4000));
        assert!(t.children(9999).is_empty());
        assert_eq!(t.children(4000), &[9999]);
        assert_eq!(t.depths()[9999], Some(2));
        assert_eq!(t.degrees()[4000], 2);
        // Unreached peers — below, between and beyond the stored ids,
        // including ones that joined after the tree was built.
        for i in [0usize, 18, 5000, 9998, 10_000, 123_456] {
            assert!(!t.is_reached(i), "peer {i}");
            assert_eq!(t.parent(i), None, "peer {i}");
            assert!(t.children(i).is_empty(), "peer {i}");
        }
        assert_eq!(t.depths()[5000], None);
        assert_eq!(t.degrees()[0], 0);
    }

    #[test]
    fn sparse_attach_merges_in_id_order() {
        let mut t = sparse();
        // A relay chain 9998 → 3 → 4000 (its parent is a fellow
        // newcomer) and a lone graft under the root, in one call.
        t.attach_all(vec![(9998, 3), (5, 17), (3, 4000)]);
        assert_eq!(t.reached(), &[3, 5, 17, 4000, 9998, 9999]);
        assert_eq!(t.children(4000), &[3, 9999]);
        assert_eq!(t.children(17), &[5, 4000]);
        assert_eq!(t.children(3), &[9998]);
        assert_eq!(t.parent(9998), Some(3));
        assert_eq!(t.parent(9999), Some(4000), "old links survive the merge");
        assert_eq!(t.validate(), Ok(()));
        // Grafting equals building from all links at once.
        let whole = MulticastTree::from_links(
            17,
            10_000,
            vec![(9999, 4000), (3, 4000), (4000, 17), (9998, 3), (5, 17)],
        );
        assert_eq!(t, whole);
        t.attach_all(Vec::new());
        assert_eq!(t, whole, "an empty graft changes nothing");
    }

    /// The merge behind a replayed construction: nodes that are not
    /// kept vanish, a node linked anew keeps the kept nodes below it,
    /// and the result is the tree its links define.
    #[test]
    fn patched_keeps_remaps_and_relinks() {
        //        0                      0
        //       / \                    / \
        //      1   2        →         5   2
        //     / \   \                 |    \
        //    3   4   5                1     6
        //                             |
        //                             3
        let old = MulticastTree::from_links(0, 8, vec![(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]);
        // 3 stays under 1; 1 and 5 are linked anew; 4 is gone; 6 is new.
        let keep = |slot: usize| [0, 2, 3].contains(&old.reached()[slot]);
        let new = old.patched(9, keep, vec![(6, 2), (1, 5), (5, 0)]);
        let whole = MulticastTree::from_links(0, 9, vec![(5, 0), (2, 0), (1, 5), (3, 1), (6, 2)]);
        assert_eq!(new, whole);
        assert_eq!(new.len(), 9);
        assert_eq!(new.children(1), &[3]);
        assert_eq!(new.children(0), &[2, 5]);
        assert!(!new.is_reached(4));
        assert_eq!(new.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "a kept node lost its parent")]
    fn patched_rejects_a_kept_node_under_a_dropped_one() {
        let old = MulticastTree::from_links(0, 4, vec![(1, 0), (2, 1)]);
        let _ = old.patched(4, |slot| slot != 1, Vec::new());
    }

    #[test]
    fn sparse_delivery_messages_walk_stored_paths_only() {
        let t = sparse();
        assert_eq!(t.delivery_messages([9999]), 2);
        assert_eq!(t.delivery_messages([4000, 9999]), 2, "shared prefix");
        assert_eq!(t.delivery_messages([17]), 0, "the root needs no message");
        assert_eq!(t.delivery_messages([5, 9998, 20_000]), 0, "unreached");
    }

    #[test]
    fn equality_is_structural_across_universe_sizes() {
        // The same links over a grown population are the same tree.
        let grown = MulticastTree::from_links(17, 12_345, vec![(4000, 17), (9999, 4000)]);
        assert_eq!(sparse(), grown);
        assert_ne!(
            sparse(),
            MulticastTree::from_links(17, 10_000, vec![(4000, 17), (9999, 17)])
        );
        // Dense and sparse construction agree.
        let dense = MulticastTree::from_parents(
            0,
            vec![None, Some(0), Some(0), Some(1), Some(1), None],
            vec![true, true, true, true, true, false],
        );
        let links = MulticastTree::from_links(0, 6, vec![(4, 1), (1, 0), (3, 1), (2, 0)]);
        assert_eq!(dense, links);
        assert_eq!(links.children(1), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "one parent")]
    fn from_links_rejects_duplicate_children() {
        let _ = MulticastTree::from_links(0, 5, vec![(2, 0), (2, 1), (1, 0)]);
    }

    #[test]
    fn display_summarizes() {
        assert_eq!(sample().to_string(), "tree(root=0, reached 5/6, height=2)");
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            TreeError::ParentChildMismatch { node: 1 },
            TreeError::Cycle { node: 2 },
            TreeError::OrphanReached { node: 3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
