//! The closed forms of a membership event: the join's dominance update,
//! the leave's pair kernel and the top-`K` saturation prune. They read
//! rows and coordinates only — no tile, no index — and are argued in
//! `crate::store`, "Why the incremental path is exact".

use geocast_geom::dominance::rect_dominates_coords;
use geocast_geom::index::MAX_INDEX_DIM;
use geocast_geom::{Metric, MetricKind, Point};

use crate::peer::PeerInfo;

/// Join recheck prune for per-orthant top-`K` rules: peer `i`'s
/// selection can only change if the newcomer `q` enters it, which
/// requires `q`'s region (w.r.t. `i`) to be unsaturated or `q` to be
/// strictly closer than the region's current `K`-th member — `q` has
/// the largest id, so it loses every distance tie. `out[i]` restricted
/// to an orthant *is* that region's full top-`K` (at equilibrium), so
/// the `K`-th distance is just the max over those members: `O(degree)`
/// arithmetic, no selection call.
pub(crate) fn topk_join_recheck(
    peers: &[PeerInfo],
    out: &[Vec<usize>],
    i: usize,
    q: usize,
    k: usize,
    metric: MetricKind,
) -> bool {
    let pc = peers[i].point().coords();
    let qc = peers[q].point().coords();
    if pc.len() > MAX_INDEX_DIM {
        return true; // no orthant bit tables out here: recheck
    }
    let mut bits = 0u32;
    for d in 0..pc.len() {
        if qc[d] > pc[d] {
            bits |= 1 << d;
        } else if qc[d] == pc[d] {
            // On-hyperplane region: no saturation info, recheck.
            return true;
        }
    }
    let mut count = 0usize;
    let mut kth = f64::NEG_INFINITY;
    'nbr: for &j in &out[i] {
        let jc = peers[j].point().coords();
        let mut jb = 0u32;
        for d in 0..pc.len() {
            if jc[d] > pc[d] {
                jb |= 1 << d;
            } else if jc[d] == pc[d] {
                continue 'nbr; // different region
            }
        }
        if jb == bits {
            count += 1;
            kth = kth.max(metric.dist(peers[i].point(), peers[j].point()));
        }
    }
    count < k || metric.dist(peers[i].point(), peers[q].point()) < kth
}

/// Every peer's coordinates in one flat `id * dim` table. The two
/// empty-rectangle closed forms below make a few thousand
/// strict-interior tests per event and read their operands here, not
/// through `PeerInfo → Point → Vec<f64>`.
#[derive(Debug, Default)]
pub(crate) struct CoordTable {
    dim: usize,
    flat: Vec<f64>,
}

impl CoordTable {
    pub(crate) fn from_peers(peers: &[PeerInfo]) -> Self {
        let mut table = CoordTable::default();
        for p in peers {
            table.push(p.point());
        }
        table
    }

    /// Appends the next id's coordinates (the store fixes one
    /// dimensionality per population).
    pub(crate) fn push(&mut self, point: &Point) {
        self.dim = point.dim();
        self.flat.extend_from_slice(point.coords());
    }

    fn of(&self, id: usize) -> &[f64] {
        &self.flat[id * self.dim..][..self.dim]
    }
}

/// The neighbours peer `i` drops when newcomer `q` enters its row,
/// under the empty-rectangle rule: exactly the old neighbours whose
/// rectangle with `i` the newcomer now sits in (`q` itself joins the
/// row — it selected `i`, and the spanned rectangle is the same from
/// both ends). `O(degree)` [`rect_dominates_coords`] tests — the
/// definitional strict-interior test, so this is the rule itself
/// restricted to the one new candidate and needs no collision fallback
/// (`crate::store`, "Why the incremental path is exact").
pub(crate) fn join_dominance_update(
    coords: &CoordTable,
    old_row: &[usize],
    i: usize,
    q: usize,
) -> Vec<usize> {
    let (p, newcomer) = (coords.of(i), coords.of(q));
    old_row
        .iter()
        .copied()
        .filter(|&r| rect_dominates_coords(p, newcomer, coords.of(r)))
        .collect()
}

/// The links the departure of `x` makes, under the empty-rectangle
/// rule, from `row`, the row `x` had: every pair `(i, w)` of it, in row
/// order, whose open rectangle holds `x` and no other member of the
/// row. Only such pairs can link, and blockers outside the row need no
/// look (`crate::store`, "Why the incremental path is exact"), so no
/// selector's row is read. `O(degree²)` pair tests plus an early-exit
/// blocker scan over one contiguous gather of the row's coordinates —
/// raw coordinates, not offsets from `x`: a subtraction would round the
/// strict tests. The rule's own test, so collisions and any
/// dimensionality take the same path: no index, no shard, no decline.
pub(crate) fn unblocked_pairs(coords: &CoordTable, x: usize, row: &[usize]) -> Vec<(usize, usize)> {
    let dim = coords.dim;
    let at = coords.of(x);
    let mut near = Vec::with_capacity(row.len() * dim);
    for &r in row {
        near.extend_from_slice(coords.of(r));
    }
    let of = |k: usize| &near[k * dim..][..dim];
    let mut pairs = Vec::new();
    for a in 0..row.len() {
        for b in a + 1..row.len() {
            let (p, q) = (of(a), of(b));
            // A corner of the rectangle is strictly inside it in no
            // dimension, so the scan need not step around `a` and `b`.
            if rect_dominates_coords(p, at, q)
                && !(0..row.len()).any(|c| rect_dominates_coords(p, of(c), q))
            {
                pairs.push((row[a], row[b]));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::oracle;
    use crate::peer::PeerId;
    use crate::select::{EmptyRectSelection, NeighborSelection};
    use crate::store::TopologyStore;
    use geocast_geom::gen::uniform_points;

    fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
        PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
    }

    /// Populations for the closed-form tests: uniform 1-D to 4-D, and
    /// 36 points of the 6 × 7 integer lattice, which share coordinates
    /// constantly.
    fn closed_form_populations() -> Vec<Vec<PeerInfo>> {
        let lattice: Vec<PeerInfo> = (0..36u64)
            .map(|i| {
                let (x, y) = ((i * 7) % 6, (i * 5) % 7);
                PeerInfo::new(PeerId(i), Point::new(vec![x as f64, y as f64]).unwrap())
            })
            .collect();
        vec![
            peers(40, 2, 61),
            peers(30, 3, 62),
            peers(20, 1, 63),
            peers(30, 4, 64),
            lattice,
        ]
    }

    #[test]
    fn join_dominance_update_is_the_rule_on_the_old_row_plus_the_newcomer() {
        // The last peer of each population plays the newcomer (it has
        // the largest id of the slice): for each peer it selects, the
        // old row minus the evictions plus the newcomer must equal
        // re-running the rule on `old row ∪ {newcomer}` — collisions
        // included.
        for population in closed_form_populations() {
            let coords = CoordTable::from_peers(&population);
            let q = population.len() - 1;
            let before =
                TopologyStore::from_peers(population[..q].to_vec(), Arc::new(EmptyRectSelection));
            let after = TopologyStore::from_peers(population.clone(), Arc::new(EmptyRectSelection));
            for &i in after.out_neighbors(q) {
                let old = before.out_neighbors(i);
                let mut cand_ids = old.to_vec();
                cand_ids.push(q);
                let refs: Vec<&PeerInfo> = cand_ids.iter().map(|&j| &population[j]).collect();
                let want: Vec<usize> = EmptyRectSelection
                    .select(&population[i], &refs)
                    .into_iter()
                    .map(|ci| cand_ids[ci])
                    .collect();
                let evicted = join_dominance_update(&coords, old, i, q);
                let mut got: Vec<usize> = old
                    .iter()
                    .copied()
                    .filter(|r| !evicted.contains(r))
                    .collect();
                got.push(q);
                assert_eq!(got, want, "peer {i}");
                assert_eq!(
                    after.out_neighbors(i),
                    &want[..],
                    "peer {i} vs from scratch"
                );
            }
        }
    }

    #[test]
    fn unblocked_pairs_are_the_links_a_departure_makes() {
        // Every peer of a population in turn plays the departed one:
        // the pairs the kernel returns from its row alone must be, as a
        // set, the links of the topology the survivors define — from
        // scratch, with no index — that were absent before.
        for population in closed_form_populations() {
            let coords = CoordTable::from_peers(&population);
            let n = population.len();
            let full = TopologyStore::from_peers(population.clone(), Arc::new(EmptyRectSelection));
            for v in 0..n {
                let mut departed = vec![false; n];
                departed[v] = true;
                let after = oracle::equilibrium_live(&population, &departed, &EmptyRectSelection);
                let mut want = Vec::new();
                for i in 0..n {
                    for &w in after.out_neighbors(i) {
                        if i < w && !full.out_neighbors(i).contains(&w) {
                            want.push((i, w));
                        }
                    }
                }
                // Both lists ascend: the kernel emits pairs in row order.
                assert_eq!(
                    unblocked_pairs(&coords, v, full.out_neighbors(v)),
                    want,
                    "dim {}: {v} departs",
                    population[0].point().dim()
                );
            }
        }
    }
}
