use std::collections::VecDeque;
use std::fmt;

/// The topology of a converged overlay: a directed graph over dense peer
/// indices, where the out-list of peer `i` holds the peers that `i`
/// selected as its overlay neighbours.
///
/// Adjacency is stored in CSR form — one offset table plus one flat,
/// sorted neighbour array — so a topology is two allocations regardless
/// of peer count, cloning it (the K-sweep holds one per `K`) is two
/// `memcpy`s, and per-peer neighbour scans are cache-linear. See
/// `docs/PERFORMANCE.md`.
///
/// The paper's degree measurements (Fig. 1a/1c) are taken over the
/// *undirected closure* ([`OverlayGraph::undirected_closure`]): a link
/// counts for both endpoints whether or not the selection was mutual.
/// (Under the empty-rectangle rule at equilibrium the relation is
/// symmetric anyway — the spanned rectangle does not depend on direction
/// — which [`OverlayGraph::is_symmetric`] lets tests assert.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayGraph {
    /// `offsets.len() == len() + 1`; the out-neighbours of peer `i` are
    /// `targets[offsets[i]..offsets[i + 1]]`, sorted and deduplicated.
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl OverlayGraph {
    /// Builds a graph from per-peer out-neighbour lists.
    ///
    /// Neighbour lists are sorted and deduplicated; self-loops are
    /// removed.
    ///
    /// # Panics
    ///
    /// Panics if any neighbour index is out of range.
    #[must_use]
    pub fn from_out_neighbors(mut out: Vec<Vec<usize>>) -> Self {
        let n = out.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut total = 0usize;
        for (i, nbrs) in out.iter_mut().enumerate() {
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs.retain(|&j| j != i);
            if let Some(&max) = nbrs.last() {
                assert!(max < n, "neighbour index {max} out of range for {n} peers");
            }
            total += nbrs.len();
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total);
        for nbrs in &out {
            targets.extend_from_slice(nbrs);
        }
        OverlayGraph { offsets, targets }
    }

    /// Builds a graph directly from validated CSR parts: `offsets` must
    /// be monotone with `offsets[0] == 0`, and every per-peer segment
    /// sorted, deduplicated, self-loop-free and in range. Used by
    /// [`OverlayGraph::undirected_closure`], which produces exactly that
    /// shape; debug builds re-check the invariants.
    #[must_use]
    pub(crate) fn from_csr(offsets: Vec<usize>, targets: Vec<usize>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().expect("non-empty"), targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!({
            let n = offsets.len() - 1;
            (0..n).all(|i| {
                let seg = &targets[offsets[i]..offsets[i + 1]];
                seg.windows(2).all(|w| w[0] < w[1]) && seg.iter().all(|&j| j < n && j != i)
            })
        });
        OverlayGraph { offsets, targets }
    }

    /// Number of peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the graph has no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The out-neighbours peer `i` selected (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn out_neighbors(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of directed edges.
    #[must_use]
    pub fn directed_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The undirected closure as a graph: peer `i` links `j` iff `i`
    /// selected `j` or `j` selected `i`. Symmetric by construction,
    /// stored in the same CSR layout (no per-peer allocations).
    #[must_use]
    pub fn undirected_closure(&self) -> OverlayGraph {
        let n = self.len();
        // Degree counting pass: each directed edge contributes to both
        // endpoints; mutual pairs are then deduplicated in the fill.
        let mut counts = vec![0usize; n + 1];
        for i in 0..n {
            for &j in self.out_neighbors(i) {
                counts[i + 1] += 1;
                counts[j + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut targets = vec![0usize; *counts.last().unwrap_or(&0)];
        for i in 0..n {
            for &j in self.out_neighbors(i) {
                targets[cursor[i]] = j;
                cursor[i] += 1;
                targets[cursor[j]] = i;
                cursor[j] += 1;
            }
        }
        // Sort and dedup each segment in place, then compact.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut write = 0usize;
        for i in 0..n {
            let (start, end) = (counts[i], counts[i + 1]);
            targets[start..end].sort_unstable();
            let mut prev = usize::MAX;
            for r in start..end {
                let v = targets[r];
                if v != prev {
                    targets[write] = v;
                    write += 1;
                    prev = v;
                }
            }
            offsets.push(write);
        }
        targets.truncate(write);
        OverlayGraph::from_csr(offsets, targets)
    }

    /// Undirected degree of every peer (the paper's "degree of a peer
    /// within the obtained P2P topology").
    #[must_use]
    pub fn undirected_degrees(&self) -> Vec<usize> {
        let closure = self.undirected_closure();
        (0..closure.len())
            .map(|i| closure.out_neighbors(i).len())
            .collect()
    }

    /// `true` if every selected link is mutual (`i → j` implies `j → i`).
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        (0..self.len()).all(|i| {
            self.out_neighbors(i)
                .iter()
                .all(|&j| self.out_neighbors(j).binary_search(&i).is_ok())
        })
    }

    /// BFS hop distances from `start` over the undirected closure;
    /// `None` marks unreachable peers.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    #[must_use]
    pub fn bfs_distances(&self, start: usize) -> Vec<Option<usize>> {
        let adj = self.undirected_closure();
        let mut dist = vec![None; self.len()];
        dist[start] = Some(0);
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &v in adj.out_neighbors(u) {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// `true` if the undirected closure connects all peers. The empty
    /// graph is connected.
    #[must_use]
    pub fn is_connected_undirected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.bfs_distances(0).iter().all(Option::is_some)
    }
}

impl fmt::Display for OverlayGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overlay({} peers, {} directed edges)",
            self.len(),
            self.directed_edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> OverlayGraph {
        // 0 -> 1, 1 -> 2 (directed path).
        OverlayGraph::from_out_neighbors(vec![vec![1], vec![2], vec![]])
    }

    #[test]
    fn construction_sorts_dedups_and_strips_self_loops() {
        let g = OverlayGraph::from_out_neighbors(vec![vec![2, 1, 1, 0], vec![], vec![]]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.directed_edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn construction_rejects_bad_indices() {
        let _ = OverlayGraph::from_out_neighbors(vec![vec![3], vec![], vec![]]);
    }

    #[test]
    fn undirected_closure_symmetrizes() {
        let g = path3();
        let adj = g.undirected_closure();
        assert_eq!(adj.out_neighbors(0), [1]);
        assert_eq!(adj.out_neighbors(1), [0, 2]);
        assert_eq!(adj.out_neighbors(2), [1]);
        assert_eq!(g.undirected_degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn symmetry_detection() {
        assert!(!path3().is_symmetric());
        let sym = OverlayGraph::from_out_neighbors(vec![vec![1], vec![0, 2], vec![1]]);
        assert!(sym.is_symmetric());
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path3();
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn connectivity_detects_isolated_peer() {
        let g = OverlayGraph::from_out_neighbors(vec![vec![1], vec![], vec![]]);
        assert!(!g.is_connected_undirected());
        assert!(path3().is_connected_undirected());
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = OverlayGraph::from_out_neighbors(vec![]);
        assert!(g.is_connected_undirected());
        assert!(g.is_empty());
    }

    #[test]
    fn csr_fast_path_equals_validated_construction() {
        let lists = vec![vec![1, 2], vec![0], vec![]];
        let via_lists = OverlayGraph::from_out_neighbors(lists);
        let via_csr = OverlayGraph::from_csr(vec![0, 2, 3, 3], vec![1, 2, 0]);
        assert_eq!(via_lists, via_csr);
    }

    #[test]
    fn display_summarizes() {
        assert_eq!(path3().to_string(), "overlay(3 peers, 2 directed edges)");
    }
}
