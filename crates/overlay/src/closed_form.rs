//! The closed forms of a membership event: the links an empty-rectangle
//! join cuts, the links an empty-rectangle leave makes, and the top-`K`
//! saturation prune — and the walk that finds an empty-rectangle
//! newcomer's own row. They read rows and coordinates only — no index —
//! and are argued in `crate::store`, "Why the incremental path is
//! exact".

use std::ops::Range;

use geocast_geom::dominance::{rect_dominates_coords, ParetoSet};
use geocast_geom::index::MAX_INDEX_DIM;
use geocast_geom::{l1, Point, MAX_ORTHANT_DIM};

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
            kth = kth.max(l1(pc, jc));
        }
    }
    count < k || l1(pc, qc) < kth
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

/// A row gathered around the peer `x` that joins or leaves, in runs: the
/// members of each orthant code around `x`, codes ascending and row
/// order inside a run, from one sort. Every member of a run carries its
/// keys — its coordinates with the sign flipped on the orthant's
/// negative sides — so a smaller key is nearer `x`, and strictly
/// smaller is the rule's strict test with no subtraction to round it.
/// A member tied with `x` in some coordinate is in no orthant and no
/// run. Both empty-rectangle closed forms read only this.
struct RowRuns<'a> {
    coords: &'a CoordTable,
    row: &'a [usize],
    dim: usize,
    /// `(orthant code, row position)` of every untied member, ascending.
    members: Vec<(u32, usize)>,
    /// `dim` keys per entry of `members`.
    keys: Vec<f64>,
    /// Each run's code and its range of `members`, ascending by code.
    runs: Vec<(u32, Range<usize>)>,
    /// Row positions of the members tied with `x`.
    tied: Vec<usize>,
}

impl<'a> RowRuns<'a> {
    fn gather(coords: &'a CoordTable, x: usize, row: &'a [usize]) -> Self {
        let (dim, at) = (coords.dim, coords.of(x));
        let mut members = Vec::with_capacity(row.len());
        let mut tied = Vec::new();
        for (k, &r) in row.iter().enumerate() {
            match orthant_code(at, coords.of(r)) {
                Some(code) => members.push((code, k)),
                None => tied.push(k),
            }
        }
        members.sort_unstable();
        let mut keys = Vec::with_capacity(members.len() * dim);
        for &(code, k) in &members {
            let member = coords.of(row[k]).iter().enumerate();
            keys.extend(member.map(|(d, &c)| if code >> d & 1 == 1 { c } else { -c }));
        }
        let mut runs = Vec::new();
        let mut start = 0;
        for run in members.chunk_by(|a, b| a.0 == b.0) {
            runs.push((run[0].0, start..start + run.len()));
            start += run.len();
        }
        RowRuns {
            coords,
            row,
            dim,
            members,
            keys,
            runs,
            tied,
        }
    }

    fn key(&self, m: usize) -> &[f64] {
        &self.keys[m * self.dim..][..self.dim]
    }

    /// Member `m`'s peer id.
    fn id(&self, m: usize) -> usize {
        self.row[self.members[m].1]
    }

    /// The pair of members `a` and `b` as peer ids, smaller first.
    fn ids(&self, a: usize, b: usize) -> (usize, usize) {
        let (i, w) = (self.id(a), self.id(b));
        (i.min(w), i.max(w))
    }

    /// Every pair of runs `(r, s)`, by index, whose codes differ in
    /// every bit, `r`'s code the smaller. `x` is strictly inside the open
    /// rectangle of two members iff neither ties it anywhere and they
    /// are in such a pair of runs, so the pairs that straddle `x` are
    /// exactly the cross products of these.
    fn opposite_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let full = full_code(self.dim);
        self.runs
            .iter()
            .enumerate()
            .filter(move |(_, (code, _))| *code < code ^ full)
            .filter_map(move |(r, (code, _))| {
                let opposite = self.runs.binary_search_by_key(&(code ^ full), |run| run.0);
                opposite.ok().map(|s| (r, s))
            })
    }

    /// Every pair that straddles `x`, as peer ids, smaller first, in no
    /// particular order.
    fn straddling_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.opposite_runs().flat_map(move |(r, s)| {
            let across = self.runs[s].1.clone();
            (self.runs[r].1.clone()).flat_map(move |a| across.clone().map(move |b| self.ids(a, b)))
        })
    }

    /// The pairs that straddle `x` and whose open rectangle holds no
    /// other member, as peer ids, ascending. A member `y` of another run
    /// sits strictly inside the open rectangle of `a` and `b` iff it is
    /// strictly nearer `x` than `a` in every coordinate where its run
    /// lies on `a`'s side, and than `b` in the others; there `y` shares
    /// that end's sign flip, so each test is a key against a key. For
    /// each pair of opposite runs — `a` from the first, `b` from the
    /// second — a run on each end's side in one coordinate (every
    /// blocker run at `D = 2`) is reduced once into thresholds: in `b`'s
    /// coordinate `j`, `a`'s threshold is the least key `j` among the
    /// run's members nearer than `a` in `a`'s coordinate, and the run
    /// blocks `(a, b)` iff that threshold is below `b`'s key `j`. Every
    /// other run is scanned per pair. So at `D = 2` a pair costs one
    /// comparison per blocker run; the tied members take the rule's
    /// strict test.
    fn unblocked_pairs(&self) -> Vec<(usize, usize)> {
        let (dim, full) = (self.dim, full_code(self.dim));
        let mut links = Vec::new();
        let (mut thresholds, mut barred, mut scans) = (Vec::new(), Vec::new(), Vec::new());
        for (r, s) in self.opposite_runs() {
            let (code, ends_a) = (self.runs[r].0, self.runs[r].1.clone());
            let ends_b = self.runs[s].1.clone();
            thresholds.clear();
            thresholds.resize(ends_a.len() * dim, f64::INFINITY);
            barred.clear();
            scans.clear();
            for (o, (blocker, run)) in self.runs.iter().enumerate() {
                let toward_b = code ^ blocker;
                let toward_a = full & !toward_b;
                if o == r || o == s {
                    continue;
                } else if toward_b.count_ones() == 1 && toward_a.count_ones() == 1 {
                    let (d, j) = (
                        toward_a.trailing_zeros() as usize,
                        toward_b.trailing_zeros() as usize,
                    );
                    self.lower(&mut thresholds, ends_a.clone(), d, j, run);
                    barred.push(j);
                } else {
                    scans.push((toward_b, run.clone()));
                }
            }
            for (a, below) in ends_a.zip(thresholds.chunks_exact(dim)) {
                let key_a = self.key(a);
                for b in ends_b.clone() {
                    let key_b = self.key(b);
                    let blocked = barred.iter().any(|&j| below[j] < key_b[j])
                        || (scans.iter())
                            .any(|(toward_b, run)| self.scan(*toward_b, run.clone(), key_a, key_b))
                        || self.tie_blocks(a, b);
                    if !blocked {
                        links.push(self.ids(a, b));
                    }
                }
            }
        }
        links.sort_unstable();
        links
    }

    /// Lowers each end's threshold in coordinate `j` to the least key
    /// `j` among the members of `run` strictly nearer `x` than the end
    /// in coordinate `d`: the run is sorted by key `d` once, with prefix
    /// minima of key `j`, and each end takes a binary search.
    fn lower(
        &self,
        thresholds: &mut [f64],
        ends: Range<usize>,
        d: usize,
        j: usize,
        run: &Range<usize>,
    ) {
        let mut sorted: Vec<(f64, f64)> = run
            .clone()
            .map(|y| (self.key(y)[d], self.key(y)[j]))
            .collect();
        sorted.sort_unstable_by(|p, q| p.0.total_cmp(&q.0));
        let mut least = f64::INFINITY;
        for entry in &mut sorted {
            least = least.min(entry.1);
            entry.1 = least;
        }
        for (e, threshold) in ends.zip(thresholds.chunks_exact_mut(self.dim)) {
            let nearer = sorted.partition_point(|&(key, _)| key < self.key(e)[d]);
            if let Some(&(_, least)) = nearer.checked_sub(1).map(|last| &sorted[last]) {
                threshold[j] = threshold[j].min(least);
            }
        }
    }

    /// `true` if a member of `run` — on `b`'s side of `x` in the
    /// coordinates of `toward_b`, on `a`'s in the others — is strictly
    /// nearer `x` than `a` on `a`'s sides and than `b` on `b`'s.
    fn scan(&self, toward_b: u32, run: Range<usize>, key_a: &[f64], key_b: &[f64]) -> bool {
        run.into_iter().any(|y| {
            let key = self.key(y);
            (0..self.dim).all(|d| {
                let end = if toward_b >> d & 1 == 1 { key_b } else { key_a };
                key[d] < end[d]
            })
        })
    }

    /// `true` if a tied member sits strictly inside the open rectangle
    /// of members `a` and `b`.
    fn tie_blocks(&self, a: usize, b: usize) -> bool {
        if self.tied.is_empty() {
            return false;
        }
        let (p, q) = (self.coords.of(self.id(a)), self.coords.of(self.id(b)));
        (self.tied.iter()).any(|&t| rect_dominates_coords(p, self.coords.of(self.row[t]), q))
    }
}

/// The links the join of `q` cuts, under the empty-rectangle rule, from
/// `row`, the row `q` got, and `out`, the adjacency before the join:
/// every linked pair of `row` whose open rectangle `q` now sits in,
/// ascending. An evicted neighbour is always in `row` (`crate::store`,
/// "Why the incremental path is exact"), so the pairs that straddle `q`
/// — the cross products of opposite runs — are the only candidates,
/// and each is found once, not from both ends. A binary search in `out`
/// per straddling pair; no rectangle test.
pub(crate) fn straddled_links(
    coords: &CoordTable,
    out: &[Vec<usize>],
    q: usize,
    row: &[usize],
) -> Vec<(usize, usize)> {
    let mut cuts: Vec<(usize, usize)> = RowRuns::gather(coords, q, row)
        .straddling_pairs()
        .filter(|&(i, r)| out[i].binary_search(&r).is_ok())
        .collect();
    cuts.sort_unstable();
    cuts
}

/// The links the departure of `x` makes, under the empty-rectangle
/// rule, from `row`, the row `x` had: every pair `(i, w)` of it,
/// ascending, whose open rectangle holds `x` and no other member of the
/// row. Only such pairs can link, and blockers outside the row need no
/// look (`crate::store`, "Why the incremental path is exact"), so no
/// selector's row is read. The pairs that hold `x` are the cross
/// products of opposite runs, and each is tested against the other runs
/// through their thresholds, over raw coordinates, not offsets from `x`:
/// a subtraction would round the strict tests. The rule's own test, so
/// collisions and any dimensionality take the same path: no index, no
/// decline.
pub(crate) fn unblocked_pairs(coords: &CoordTable, x: usize, row: &[usize]) -> Vec<(usize, usize)> {
    RowRuns::gather(coords, x, row).unblocked_pairs()
}

/// What the empty-rectangle join walk did since the store was built:
/// plain counts, always on, read through
/// [`crate::TopologyStore::join_walk_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinWalkStats {
    /// Joins whose row the walk found (every empty-rectangle join with
    /// another live peer to start from).
    pub joins: u64,
    /// Steps the descent took towards the newcomers.
    pub descent_hops: u64,
    /// Store rows read: one per descent step and one per peer the grow
    /// expanded.
    pub rows_read: u64,
    /// Peers offered to the fronts, each at most once per join.
    pub offered: u64,
}

/// The slot of a tied member in [`JoinWalk`]'s queue: in no front.
const TIED: usize = usize::MAX;

/// The empty-rectangle newcomer's own row, found over the rows the store
/// already holds, with the buffers it reuses from join to join: a
/// seen-stamp per peer, one [`ParetoSet`] per orthant code met (no `2^D`
/// table, so any dimensionality up to `MAX_ORTHANT_DIM` takes this
/// path), the tied members and the expansion queue. The steps and their
/// proofs are in `crate::store`, "The newcomer's own row".
#[derive(Debug, Default)]
pub(crate) struct JoinWalk {
    /// `seen[p] == stamp`: `p` was offered during this join.
    seen: Vec<u32>,
    stamp: u32,
    /// `(orthant code, front slot)` of every orthant met in this join,
    /// ascending by code.
    slots: Vec<(u32, usize)>,
    /// The fronts by slot; those past `slots.len()` are spare buffers.
    fronts: Vec<ParetoSet>,
    /// Members tied with the newcomer: in no orthant, always in its row.
    tied: Vec<usize>,
    /// Every peer pushed, with its front slot ([`TIED`] if tied), in
    /// the order the grow pops them.
    queue: Vec<(usize, usize)>,
    stats: JoinWalkStats,
}

impl JoinWalk {
    pub(crate) fn stats(&self) -> JoinWalkStats {
        self.stats
    }

    /// The row of `x` among the peers that `out`'s rows link — every
    /// live peer but `x` — walked from the live peer `start`: descend to
    /// a neighbour of `x`, then grow the fronts over rows until no
    /// member is left to expand. Sorted ascending.
    pub(crate) fn row(
        &mut self,
        coords: &CoordTable,
        out: &[Vec<usize>],
        x: usize,
        start: usize,
    ) -> Vec<usize> {
        if self.seen.len() < out.len() {
            self.seen.resize(out.len(), 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.slots.clear();
        self.tied.clear();
        self.queue.clear();

        let at = coords.of(x);
        let first = self.descend(coords, out, at, start);
        self.seen[first] = self.stamp;
        self.offer(coords, at, first);
        let mut head = 0;
        while let Some(&(v, slot)) = self.queue.get(head) {
            head += 1;
            // Evicted since it was pushed: dominated, not a neighbour.
            if slot != TIED && !self.fronts[slot].ids().contains(&v) {
                continue;
            }
            self.stats.rows_read += 1;
            for &w in &out[v] {
                if self.seen[w] != self.stamp {
                    self.seen[w] = self.stamp;
                    self.offer(coords, at, w);
                }
            }
        }
        let mut row = self.tied.clone();
        for &(_, slot) in &self.slots {
            row.extend_from_slice(self.fronts[slot].ids());
        }
        row.sort_unstable();
        self.stats.joins += 1;
        row
    }

    /// From `p`, steps to the member of `row(p)` in the closed box of
    /// `p` and `at` that is not at `p`'s corner and leaves the smallest
    /// box (least L1 offset from `at`), until `row(p)` has none: then
    /// `p` is a neighbour of the newcomer at `at`. Each step shrinks the
    /// box strictly, so no peer is visited twice.
    fn descend(
        &mut self,
        coords: &CoordTable,
        out: &[Vec<usize>],
        at: &[f64],
        mut p: usize,
    ) -> usize {
        loop {
            let pc = coords.of(p);
            let mut next: Option<(f64, usize)> = None;
            for &m in &out[p] {
                let mc = coords.of(m);
                let in_box = (at.iter().zip(pc).zip(mc))
                    .all(|((&a, &b), &c)| a.min(b) <= c && c <= a.max(b));
                if in_box && mc != pc {
                    let size: f64 = mc.iter().zip(at).map(|(c, a)| (c - a).abs()).sum();
                    if next.is_none_or(|smallest| (size, m) < smallest) {
                        next = Some((size, m));
                    }
                }
            }
            let Some((_, m)) = next else {
                return p;
            };
            self.stats.descent_hops += 1;
            self.stats.rows_read += 1;
            p = m;
        }
    }

    /// Offers `w` to the front of its orthant around `at`, keyed by its
    /// coordinates with the sign flipped on the orthant's negative
    /// sides — strictly smaller in every key is strictly inside the
    /// rectangle, with no subtraction to round the test — or to the tied
    /// set; pushes it if it joined.
    fn offer(&mut self, coords: &CoordTable, at: &[f64], w: usize) {
        self.stats.offered += 1;
        let wc = coords.of(w);
        let Some(code) = orthant_code(at, wc) else {
            self.tied.push(w);
            self.queue.push((w, TIED));
            return;
        };
        let mut keys = [0.0f64; MAX_ORTHANT_DIM];
        for (d, (key, &c)) in keys.iter_mut().zip(wc).enumerate() {
            *key = if code >> d & 1 == 1 { c } else { -c };
        }
        let slot = match self.slots.binary_search_by_key(&code, |&(c, _)| c) {
            Ok(i) => self.slots[i].1,
            Err(i) => {
                let slot = self.slots.len();
                if slot == self.fronts.len() {
                    self.fronts.push(ParetoSet::default());
                }
                self.fronts[slot].reset(wc.len());
                self.slots.insert(i, (code, slot));
                slot
            }
        };
        if self.fronts[slot].offer(&keys[..wc.len()], w) {
            self.queue.push((w, slot));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::oracle;
    use crate::peer::PeerId;
    use crate::select::{EmptyRectSelection, NeighborSelection};
    use crate::store::TopologyStore;
    use geocast_geom::gen::{cross, hub, uniform_points};

    fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
        PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
    }

    /// Populations for the closed-form tests, each with the stride of its
    /// movers (1 unless said): uniform 1-D to 6-D; 36
    /// points of the 6 × 7 integer lattice, and 40 of a 5 × 6 × 7 and of
    /// a 3 × 4 × 5 × 7 one, which share coordinates constantly;
    /// `MAX_ORTHANT_DIM` dimensions, where a code uses all 32 bits — a
    /// centre and eight points each with its mirror image through it, so
    /// that pairs straddle the centre; a hub whose row of
    /// 400 lies in one orthant, stride 50; and a cross, whose centre's row is two
    /// opposite arms with blockers in the other two orthants.
    fn closed_form_populations() -> Vec<(Vec<PeerInfo>, usize)> {
        // Point `i` has coordinate `i · step mod modulus` on each axis.
        let lattice = |n: u64, axes: &[(u64, u64)]| -> Vec<PeerInfo> {
            (0..n)
                .map(|i| {
                    let coords = axes.iter().map(|&(step, m)| (i * step % m) as f64);
                    PeerInfo::new(PeerId(i), Point::new(coords.collect()).unwrap())
                })
                .collect()
        };
        let mut wide = vec![Point::new(vec![500.0; MAX_ORTHANT_DIM]).unwrap()];
        for p in uniform_points(8, MAX_ORTHANT_DIM, 1000.0, 65).into_points() {
            let mirror = p.coords().iter().map(|&c| 1000.0 - c).collect();
            wide.extend([p, Point::new(mirror).unwrap()]);
        }
        let wide: Vec<PeerInfo> = (0..wide.len() as u64)
            .zip(wide)
            .map(|(i, p)| PeerInfo::new(PeerId(i), p))
            .collect();
        vec![
            (peers(40, 2, 61), 1),
            (peers(30, 3, 62), 1),
            (peers(20, 1, 63), 1),
            (peers(30, 4, 64), 1),
            (peers(24, 5, 66), 1),
            (peers(24, 6, 67), 1),
            (lattice(36, &[(7, 6), (5, 7)]), 1),
            (lattice(40, &[(7, 5), (5, 6), (3, 7)]), 1),
            (lattice(40, &[(7, 3), (5, 4), (3, 5), (1, 7)]), 1),
            (wide, 1),
            (PeerInfo::from_point_set(&hub(400)), 50),
            (PeerInfo::from_point_set(&cross(24, 4)), 1),
        ]
    }

    /// The peers that take turns to move in a population of `n`: every
    /// `stride`-th and the last (the hub's hub).
    fn movers(n: usize, stride: usize) -> impl Iterator<Item = usize> {
        (0..n).filter(move |&x| x % stride == 0 || x == n - 1)
    }

    #[test]
    fn straddling_pairs_are_the_pairs_whose_open_rectangle_holds_the_peer() {
        // The run enumeration against the rule's strict test, on every
        // pair around each mover of every population.
        for (population, stride) in closed_form_populations() {
            let dim = population[0].point().dim();
            let coords = CoordTable::from_peers(&population);
            let n = population.len();
            let mut straddles = 0;
            for x in movers(n, stride) {
                let row: Vec<usize> = (0..n).filter(|&r| r != x).collect();
                let mut got: Vec<(usize, usize)> = RowRuns::gather(&coords, x, &row)
                    .straddling_pairs()
                    .collect();
                got.sort_unstable();
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
        // Each mover of a population in turn plays the newcomer, joining
        // the peers before it (it has the largest id of the slice). For
        // each peer it selects, the old row minus the cuts plus the
        // newcomer must equal re-running the rule on `old row ∪
        // {newcomer}`, and every row after the cuts must equal the
        // from-scratch one — collisions included.
        for (population, stride) in closed_form_populations() {
            let coords = CoordTable::from_peers(&population);
            let store = |n: usize| {
                TopologyStore::from_peers(population[..n].to_vec(), Arc::new(EmptyRectSelection))
            };
            for q in movers(population.len(), stride).filter(|&q| q > 0) {
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
    fn the_join_walk_finds_the_newcomers_row_from_any_start() {
        // Each mover of a population in turn plays the newcomer, joining
        // the peers before it, and each of those in turn is the start: the walk must hand back the row the from-scratch
        // store gives the newcomer — ties included — and count one join
        // per walk.
        let (mut walk, mut descent) = (JoinWalk::default(), JoinWalk::default());
        let mut walks = 0;
        for (population, stride) in closed_form_populations() {
            let coords = CoordTable::from_peers(&population);
            let store = |n: usize| {
                TopologyStore::from_peers(population[..n].to_vec(), Arc::new(EmptyRectSelection))
            };
            for q in movers(population.len(), stride).filter(|&q| q > 0) {
                let (before, after) = (store(q), store(q + 1));
                for start in 0..q {
                    let row = walk.row(&coords, &before.out, q, start);
                    assert_eq!(row, after.out_neighbors(q), "{q} joins from {start}");
                    walks += 1;
                    // The descent's own contract: it stops at a neighbour.
                    let stop = descent.descend(&coords, &before.out, coords.of(q), start);
                    assert!(row.contains(&stop), "{q} joins: descent from {start}");
                }
            }
        }
        let stats = walk.stats();
        assert_eq!(stats.joins, walks);
        assert!(stats.descent_hops > 0, "far starts descend before growing");
    }

    #[test]
    fn unblocked_pairs_are_the_links_a_departure_makes() {
        // Each mover of a population in turn plays the departed one:
        // the pairs the kernel returns from its row alone must be, as a
        // set, the links of the topology the survivors define — from
        // scratch, with no index — that were absent before.
        for (population, stride) in closed_form_populations() {
            let coords = CoordTable::from_peers(&population);
            let n = population.len();
            let full = TopologyStore::from_peers(population.clone(), Arc::new(EmptyRectSelection));
            for v in movers(n, stride) {
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
                // Both lists ascend: the kernel sorts its pairs.
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
