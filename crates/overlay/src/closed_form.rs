//! The closed forms of a membership event: the links an empty-rectangle
//! join cuts, the links an empty-rectangle leave makes, and the top-`K`
//! saturation prune. They read rows and coordinates only — no tile, no
//! index — and are argued in `crate::store`, "Why the incremental path
//! is exact".

use geocast_geom::dominance::rect_dominates_coords;
use geocast_geom::index::MAX_INDEX_DIM;
use geocast_geom::{Metric, MetricKind, Point, MAX_ORTHANT_DIM};

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
/// empty-rectangle closed forms below gather a row's coordinates from
/// here once per event, not through `PeerInfo → Point → Vec<f64>`.
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

/// `member`'s orthant around `at` as bits — bit `d` set iff it lies
/// above `at` in dimension `d` — from raw comparisons, with no
/// subtraction to round them; `None` on a tie, which puts it in no
/// orthant.
fn orthant_code(at: &[f64], member: &[f64]) -> Option<u32> {
    let mut code = 0u32;
    for (d, (&x, &m)) in at.iter().zip(member).enumerate() {
        if m > x {
            code |= 1 << d;
        } else if m == x {
            return None;
        }
    }
    Some(code)
}

/// The orthant code with all `dim` bits set: two codes are
/// complementary iff they XOR to it. Written as a right shift because
/// `1 << dim` overflows at `dim = MAX_ORTHANT_DIM`.
fn full_code(dim: usize) -> u32 {
    debug_assert!((1..=MAX_ORTHANT_DIM).contains(&dim), "{dim} dimensions");
    u32::MAX >> (MAX_ORTHANT_DIM - dim)
}

/// A row gathered around the peer `x` that joins or leaves: each
/// member's coordinates in one contiguous buffer, and its orthant code
/// around `x`. Both empty-rectangle closed forms read only this.
struct RowAround {
    dim: usize,
    near: Vec<f64>,
    codes: Vec<Option<u32>>,
    full: u32,
}

impl RowAround {
    fn gather(coords: &CoordTable, x: usize, row: &[usize]) -> Self {
        let (dim, at) = (coords.dim, coords.of(x));
        let mut near = Vec::with_capacity(row.len() * dim);
        let codes = row
            .iter()
            .map(|&r| {
                let member = coords.of(r);
                near.extend_from_slice(member);
                orthant_code(at, member)
            })
            .collect();
        RowAround {
            dim,
            near,
            codes,
            full: full_code(dim),
        }
    }

    fn of(&self, k: usize) -> &[f64] {
        &self.near[k * self.dim..][..self.dim]
    }

    /// Every pair `(a, b)`, `a < b`, of row positions whose open
    /// rectangle holds `x`, in row order: `x` is strictly between them
    /// in every dimension iff neither ties it anywhere and their codes
    /// differ in every bit.
    fn straddling(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let codes = &self.codes;
        codes
            .iter()
            .enumerate()
            .filter_map(|(a, code)| code.map(|c| (a, Some(c ^ self.full))))
            .flat_map(move |(a, opposite)| {
                (a + 1..codes.len())
                    .filter(move |&b| codes[b] == opposite)
                    .map(move |b| (a, b))
            })
    }

    /// `true` if another member sits strictly inside the open rectangle
    /// of the straddling pair `(a, b)`. Members in `a`'s or `b`'s own
    /// orthant are skipped: such a member would sit strictly inside
    /// `rect(x, a)` or `rect(x, b)`, and then `a` or `b` would not be in
    /// `x`'s row. A tied member has no orthant and is always tested.
    fn blocked(&self, a: usize, b: usize) -> bool {
        let (ca, cb) = (self.codes[a], self.codes[b]);
        let (p, q) = (self.of(a), self.of(b));
        self.codes
            .iter()
            .enumerate()
            .any(|(c, &cc)| cc != ca && cc != cb && rect_dominates_coords(p, self.of(c), q))
    }
}

/// The links the join of `q` cuts, under the empty-rectangle rule, from
/// `row`, the row `q` got, and `out`, the adjacency before the join:
/// every linked pair of `row` whose open rectangle `q` now sits in. An
/// evicted neighbour is always in `row` (`crate::store`, "Why the
/// incremental path is exact"), so the pairs that straddle `q` are the
/// only candidates, and each is found once, not from both ends. A
/// binary search in `out` per straddling pair; no rectangle test.
pub(crate) fn straddled_links(
    coords: &CoordTable,
    out: &[Vec<usize>],
    q: usize,
    row: &[usize],
) -> Vec<(usize, usize)> {
    RowAround::gather(coords, q, row)
        .straddling()
        .map(|(a, b)| (row[a], row[b]))
        .filter(|&(i, r)| out[i].binary_search(&r).is_ok())
        .collect()
}

/// The links the departure of `x` makes, under the empty-rectangle
/// rule, from `row`, the row `x` had: every pair `(i, w)` of it, in row
/// order, whose open rectangle holds `x` and no other member of the
/// row. Only such pairs can link, and blockers outside the row need no
/// look (`crate::store`, "Why the incremental path is exact"), so no
/// selector's row is read. Only the straddling pairs are tested, each
/// against the members outside its own two orthants, over raw
/// coordinates, not offsets from `x`: a subtraction would round the
/// strict tests. The rule's own test, so collisions and any
/// dimensionality take the same path: no index, no shard, no decline.
pub(crate) fn unblocked_pairs(coords: &CoordTable, x: usize, row: &[usize]) -> Vec<(usize, usize)> {
    let around = RowAround::gather(coords, x, row);
    around
        .straddling()
        .filter(|&(a, b)| !around.blocked(a, b))
        .map(|(a, b)| (row[a], row[b]))
        .collect()
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
    fn straddling_pairs_are_the_pairs_whose_open_rectangle_holds_the_peer() {
        // The orthant-code predicate against the rule's strict test, on
        // every pair around every peer: uniform 1-D to 4-D, the lattice
        // (ties everywhere), and `MAX_ORTHANT_DIM` dimensions, where a
        // code uses all 32 bits — each point there has its mirror image
        // through the centre, so that pairs straddle the centre.
        let mut populations = closed_form_populations();
        let mut wide = vec![Point::new(vec![500.0; MAX_ORTHANT_DIM]).unwrap()];
        for p in uniform_points(8, MAX_ORTHANT_DIM, 1000.0, 65).into_points() {
            let mirror = p.coords().iter().map(|&c| 1000.0 - c).collect();
            wide.extend([p, Point::new(mirror).unwrap()]);
        }
        let wide: Vec<PeerInfo> = (0..wide.len() as u64)
            .zip(wide)
            .map(|(i, p)| PeerInfo::new(PeerId(i), p))
            .collect();
        populations.push(wide);
        for population in populations {
            let dim = population[0].point().dim();
            let coords = CoordTable::from_peers(&population);
            let n = population.len();
            let mut straddles = 0;
            for x in 0..n {
                let row: Vec<usize> = (0..n).filter(|&r| r != x).collect();
                let got: Vec<(usize, usize)> = RowAround::gather(&coords, x, &row)
                    .straddling()
                    .map(|(a, b)| (row[a], row[b]))
                    .collect();
                let row = &row[..];
                let want: Vec<(usize, usize)> = (0..row.len())
                    .flat_map(|a| (a + 1..row.len()).map(move |b| (row[a], row[b])))
                    .filter(|&(a, b)| {
                        rect_dominates_coords(coords.of(a), coords.of(x), coords.of(b))
                    })
                    .collect();
                assert_eq!(got, want, "dim {dim}: around {x}");
                straddles += got.len();
            }
            if dim == MAX_ORTHANT_DIM {
                assert!(straddles >= 8, "the eight mirror pairs straddle the centre");
            }
        }
    }

    #[test]
    fn straddled_links_are_the_links_a_join_cuts() {
        // Every peer of a population in turn plays the newcomer, joining
        // the peers before it (it has the largest id of the slice). For
        // each peer it selects, the old row minus the cuts plus the
        // newcomer must equal re-running the rule on `old row ∪
        // {newcomer}`, and every row after the cuts must equal the
        // from-scratch one — collisions included.
        for population in closed_form_populations() {
            let coords = CoordTable::from_peers(&population);
            let store = |n: usize| {
                TopologyStore::from_peers(population[..n].to_vec(), Arc::new(EmptyRectSelection))
            };
            for q in 1..population.len() {
                let (before, after) = (store(q), store(q + 1));
                let row = after.out_neighbors(q);
                let cuts = straddled_links(&coords, &before.out, q, row);
                for i in 0..q {
                    let old = before.out_neighbors(i);
                    let mut got: Vec<usize> = old
                        .iter()
                        .copied()
                        .filter(|&r| !cuts.contains(&(i.min(r), i.max(r))))
                        .collect();
                    if row.contains(&i) {
                        got.push(q);
                        let mut cand_ids = old.to_vec();
                        cand_ids.push(q);
                        let refs: Vec<&PeerInfo> =
                            cand_ids.iter().map(|&j| &population[j]).collect();
                        let want: Vec<usize> = EmptyRectSelection
                            .select(&population[i], &refs)
                            .into_iter()
                            .map(|ci| cand_ids[ci])
                            .collect();
                        assert_eq!(got, want, "{q} joins: peer {i}");
                    }
                    assert_eq!(
                        after.out_neighbors(i),
                        &got[..],
                        "{q} joins: peer {i} vs from scratch"
                    );
                }
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
