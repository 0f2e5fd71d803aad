//! The closed forms of a membership event: the links an empty-rectangle
//! join cuts, the links an empty-rectangle leave makes, and the top-`K`
//! saturation prune — and the walk that finds an empty-rectangle
//! newcomer's own row. They read rows, and coordinates from the store's
//! [`GridIndex`] (which keeps a departed peer's too), but put no query
//! to the index; they are argued in `crate::store`, "Why the
//! incremental path is exact".
//!
//! # The plane sweep
//!
//! Beside them sits the one closed form of a whole population:
//! [`sweep_rows`], every empty-rectangle row of a bulk build at `D = 2`
//! in `O((N + E) log N)` for `E` links, where one selection per peer
//! would walk the index `N` times. It declines (`None`) off the plane
//! only: it orders each axis by `(coordinate, id)`, the tie rule of
//! [`geocast_geom::above`], so shared coordinates take the selection's
//! own semantics with no second path.
//!
//! In that order no two peers share a coordinate: a point lies strictly
//! between two others along an axis unless it *is* one of them there, so
//! `p` and `q` are neighbours iff no third peer lies strictly between
//! them along both axes. Below, `x` and `y` are those orders. Sweep the
//! peers by ascending `x`. Each link `p – q` with `x_p < x_q` is met
//! once, when `q` is swept: `p` lies below-left or above-left of `q`.
//! Take below-left (above-left is the same with `y` reversed). There `p`
//! is a neighbour iff no swept peer lies in the quadrant to the right of
//! and above `p`: the neighbours are the maximal points of the quadrant,
//! its *staircase*. Ordered by descending `y` they ascend in `x`, and
//! each is the highest peer below the last one found that lies to its
//! right. Concretely, a max tree over `y`-ranks holds each swept peer's
//! sweep position. From `bound = rank(q)` and `last = −1`, one query
//! finds the highest rank `r < bound` whose position exceeds `last`;
//! that peer is linked, and `last` and `bound` become its position and
//! `r`. The first hit is the highest swept peer below `q`, and nothing
//! dominates it. Every rank skipped on the way, between `r` and `bound`,
//! holds a position at most `last`: that peer lies left of the previous
//! hit and below it, so it is dominated. And nothing above dominates a
//! hit `p`: by induction every swept peer with a rank between `r` and
//! `rank(q)` lies left of the previous hit, and so left of `p`. So the
//! hits are exactly the staircase, one query each, and one more query
//! ends it. Then `q`'s position goes in at `rank(q)` (Güting, Nurmi &
//! Ottmann, *J. Algorithms* 1989, direct dominance).
//!
//! One sweep drives two such trees, the below-left one over `y`-ranks
//! and the above-left one over reversed ranks, so each link is found
//! once. Each tree is 16-ary: a node is sixteen `u32` maxima, one cache
//! line, so `N = 20 000` ranks take four levels. A query scans, right to
//! left, the entries of its bound's own node that lie left of the bound;
//! the entries before that node are covered by the next level up, left
//! of the node's own entry there, so it climbs with that as the bound
//! until a scan hits, then descends through the rightmost child above
//! `last` at each level. The levels partition the ranks below the bound
//! into runs of whole subtrees, scanned nearest first, so the first hit
//! holds the highest such rank: the query's answer is the one the
//! argument above reads, whatever the tree's width. Positions only grow,
//! so an insert overwrites one entry per level with no comparison.
//!
//! The sweep appends each peer's left neighbours to one flat list of
//! `u32` ids, with a start offset per sweep position, and counts both
//! ends' degrees as it goes. Then every row is allocated once at exact
//! capacity and filled from the list: row `q` takes its left list, and
//! each `p` in it takes `q`. The list — one id per link, no list of
//! pairs — is dropped and the rows are sorted. `tests/prop_store.rs`
//! holds the rows, and the store's fingerprint, to one selection per
//! peer on uniform, clustered, chain, hub and cross populations up to
//! N = 20 000.

use std::ops::Range;

use geocast_geom::dominance::{rect_dominates, ParetoSet};
use geocast_geom::{above, key, key_cmp, key_lt, l1, GridIndex, Key, MAX_ORTHANT_DIM};

use crate::peer::PeerInfo;

/// Join recheck prune for per-orthant top-`K` rules: peer `i`'s
/// selection can only change if the newcomer `q` enters it, which
/// requires `q`'s region (w.r.t. `i`) to be unsaturated or `q` to be
/// strictly closer than the region's current `K`-th member — `q` has
/// the largest id, so it loses every distance tie. `out[i]` restricted
/// to an orthant *is* that region's full top-`K` (at equilibrium), so
/// the `K`-th distance is just the max over those members: `O(degree)`
/// arithmetic, no selection call. Regions are the rule's own half-open
/// orthants: a coordinate on a plane counts as positive, as
/// `Arrangement::classify` puts it and the index ranks it. A region is
/// a `u32` fold of those comparisons, which holds up to
/// [`MAX_ORTHANT_DIM`], the store's own ceiling: every dimensionality
/// prunes, none needs the index.
pub(crate) fn topk_join_recheck(
    peers: &[PeerInfo],
    out: &[Vec<u32>],
    i: usize,
    q: usize,
    k: usize,
) -> bool {
    let pc = peers[i].point().coords();
    let qc = peers[q].point().coords();
    let region =
        |c: &[f64]| (0..pc.len()).fold(0u32, |bits, d| bits | u32::from(c[d] >= pc[d]) << d);
    let bits = region(qc);
    let mut count = 0usize;
    let mut kth = f64::NEG_INFINITY;
    for &j in &out[i] {
        let jc = peers[j as usize].point().coords();
        if region(jc) == bits {
            count += 1;
            kth = kth.max(l1(pc, jc));
        }
    }
    count < k || l1(pc, qc) < kth
}

/// The orthant code of the peer `m` at `member` around the peer `x` at
/// `at` — bit `d` set iff `m` lies [`above`] `x` in dimension `d` — from
/// raw comparisons, with no subtraction to round them.
fn orthant_code(at: &[f64], x: usize, member: &[f64], m: usize) -> u32 {
    let mut code = 0u32;
    for (d, (&a, &c)) in at.iter().zip(member).enumerate() {
        if above(c, m, a, x) {
            code |= 1 << d;
        }
    }
    code
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
/// order inside a run, from one sort. For the leave's blocker tests
/// ([`RowRuns::with_keys`]) every member of a run carries its [`Key`]s —
/// its coordinates and id, flipped on the orthant's negative sides — so
/// a smaller key is nearer `x`, and strictly smaller is the rule's
/// strict test, with no subtraction to round it and the id read only on
/// equal coordinates. Both empty-rectangle closed forms read only this.
struct RowRuns<'a> {
    row: &'a [u32],
    dim: usize,
    /// `(orthant code, row position)` of every member, ascending.
    members: Vec<(u32, usize)>,
    /// `dim` keys per entry of `members`; empty until
    /// [`RowRuns::with_keys`].
    keys: Vec<Key>,
    /// Each run's code and its range of `members`, ascending by code.
    runs: Vec<(u32, Range<usize>)>,
}

impl<'a> RowRuns<'a> {
    fn gather(index: &GridIndex, x: usize, row: &'a [u32]) -> Self {
        let (dim, at) = (index.dim(), index.point_coords(x));
        let code = |r: usize| orthant_code(at, x, index.point_coords(r), r);
        let mut members: Vec<(u32, usize)> = (row.iter().enumerate())
            .map(|(k, &r)| (code(r as usize), k))
            .collect();
        members.sort_unstable();
        let mut runs = Vec::new();
        let mut start = 0;
        for run in members.chunk_by(|a, b| a.0 == b.0) {
            runs.push((run[0].0, start..start + run.len()));
            start += run.len();
        }
        RowRuns {
            row,
            dim,
            members,
            keys: Vec::new(),
            runs,
        }
    }

    /// Fills every member's keys, which only the blocker tests of
    /// [`RowRuns::unblocked_pairs`] read.
    fn with_keys(mut self, index: &GridIndex) -> Self {
        self.keys.reserve_exact(self.members.len() * self.dim);
        for &(code, k) in &self.members {
            let id = self.row[k] as usize;
            let member = index.point_coords(id).iter().enumerate();
            (self.keys).extend(member.map(|(d, &c)| key(c, id, code >> d & 1 == 1)));
        }
        self
    }

    fn key(&self, m: usize) -> &[Key] {
        &self.keys[m * self.dim..][..self.dim]
    }

    /// Member `m`'s peer id.
    fn id(&self, m: usize) -> usize {
        self.row[self.members[m].1] as usize
    }

    /// The pair of members `a` and `b` as peer ids, smaller first.
    fn ids(&self, a: usize, b: usize) -> (usize, usize) {
        let (i, w) = (self.id(a), self.id(b));
        (i.min(w), i.max(w))
    }

    /// Every pair of runs `(r, s)`, by index, whose codes differ in
    /// every bit, `r`'s code the smaller. `x` is strictly inside the open
    /// rectangle of two members iff they are in such a pair of runs, so
    /// the pairs that straddle `x` are exactly the cross products of
    /// these.
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
    /// comparison per blocker run.
    fn unblocked_pairs(&self) -> Vec<(usize, usize)> {
        let (dim, full) = (self.dim, full_code(self.dim));
        let mut links = Vec::new();
        let (mut thresholds, mut barred, mut scans) = (Vec::new(), Vec::new(), Vec::new());
        for (r, s) in self.opposite_runs() {
            let (code, ends_a) = (self.runs[r].0, self.runs[r].1.clone());
            let ends_b = self.runs[s].1.clone();
            thresholds.clear();
            thresholds.resize(ends_a.len() * dim, NO_KEY);
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
                    let blocked = barred.iter().any(|&j| key_lt(&below[j], &key_b[j]))
                        || (scans.iter())
                            .any(|(toward_b, run)| self.scan(*toward_b, run.clone(), key_a, key_b));
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
        thresholds: &mut [Key],
        ends: Range<usize>,
        d: usize,
        j: usize,
        run: &Range<usize>,
    ) {
        let mut sorted: Vec<(Key, Key)> = run
            .clone()
            .map(|y| (self.key(y)[d], self.key(y)[j]))
            .collect();
        sorted.sort_unstable_by(|p, q| key_cmp(&p.0, &q.0));
        let mut least = NO_KEY;
        for entry in &mut sorted {
            least = lesser(least, entry.1);
            entry.1 = least;
        }
        for (e, threshold) in ends.zip(thresholds.chunks_exact_mut(self.dim)) {
            let nearer = sorted.partition_point(|(key, _)| key_lt(key, &self.key(e)[d]));
            if let Some(&(_, least)) = nearer.checked_sub(1).map(|last| &sorted[last]) {
                threshold[j] = lesser(threshold[j], least);
            }
        }
    }

    /// `true` if a member of `run` — on `b`'s side of `x` in the
    /// coordinates of `toward_b`, on `a`'s in the others — is strictly
    /// nearer `x` than `a` on `a`'s sides and than `b` on `b`'s.
    fn scan(&self, toward_b: u32, run: Range<usize>, key_a: &[Key], key_b: &[Key]) -> bool {
        run.into_iter().any(|y| {
            let key = self.key(y);
            (0..self.dim).all(|d| {
                let end = if toward_b >> d & 1 == 1 { key_b } else { key_a };
                key_lt(&key[d], &end[d])
            })
        })
    }
}

/// A key beyond every peer's: the threshold of no blocker.
const NO_KEY: Key = (f64::INFINITY, usize::MAX);

/// The smaller of two keys.
fn lesser(a: Key, b: Key) -> Key {
    if key_lt(&b, &a) {
        b
    } else {
        a
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
    index: &GridIndex,
    out: &[Vec<u32>],
    q: usize,
    row: &[u32],
) -> Vec<(usize, usize)> {
    let mut cuts: Vec<(usize, usize)> = RowRuns::gather(index, q, row)
        .straddling_pairs()
        .filter(|&(i, r)| out[i].binary_search(&(r as u32)).is_ok())
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
/// shared coordinates and any dimensionality take the same path: no
/// index query, no decline.
pub(crate) fn unblocked_pairs(index: &GridIndex, x: usize, row: &[u32]) -> Vec<(usize, usize)> {
    RowRuns::gather(index, x, row)
        .with_keys(index)
        .unblocked_pairs()
}

/// Every empty-rectangle row of the points of `index`, by the plane sweep
/// of the module docs: sorted ascending, each allocated at exact
/// capacity. `None` — the caller selects row by row — unless the points
/// are 2-D. Each axis is sorted as `(coordinate, id)` keys, the tie
/// rule's order. `index` must be fresh, with no point removed: the bulk
/// build's, whose population the store has already checked to fit `u32`
/// ids.
pub(crate) fn sweep_rows(index: &GridIndex) -> Option<Vec<Vec<u32>>> {
    if index.dim() != 2 {
        return None;
    }
    debug_assert_eq!(
        index.live_count(),
        index.len(),
        "a bulk build removes no one"
    );
    let n = index.len();
    let sorted_by = |d: usize| {
        let mut keys: Vec<Key> = (0..n).map(|i| (index.point_coords(i)[d], i)).collect();
        keys.sort_unstable_by(key_cmp);
        keys
    };
    let mut rank = vec![0u32; n];
    for (r, &(_, i)) in sorted_by(1).iter().enumerate() {
        rank[i] = r as u32;
    }
    let by_x = sorted_by(0);

    // Every peer but the first in `x` has at least one left neighbour,
    // the peer just before it, so `left` holds at least `n - 1` ids.
    let mut left: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));
    // Where each sweep position's left list starts in `left`, and its end.
    let mut starts: Vec<usize> = Vec::with_capacity(n + 1);
    let mut degree = vec![0u32; n];
    let (mut below, mut above) = (Staircase::new(n), Staircase::new(n));
    let top = n.saturating_sub(1);
    for (pos, &(_, q)) in (1..).zip(&by_x) {
        let start = left.len();
        starts.push(start);
        let r = rank[q] as usize;
        for (tree, at) in [(&mut below, r), (&mut above, top - r)] {
            tree.staircase(at, |hit| {
                let p = by_x[hit as usize - 1].1;
                left.push(p as u32);
                degree[p] += 1;
            });
            tree.insert(at, pos);
        }
        degree[q] += (left.len() - start) as u32;
    }
    starts.push(left.len());
    drop((rank, below, above));

    let mut rows: Vec<Vec<u32>> = (degree.iter())
        .map(|&k| Vec::with_capacity(k as usize))
        .collect();
    for (&(_, q), ends) in by_x.iter().zip(starts.windows(2)) {
        let list = &left[ends[0]..ends[1]];
        rows[q].extend_from_slice(list);
        for &p in list {
            rows[p as usize].push(q as u32);
        }
    }
    drop(left);
    for row in &mut rows {
        row.sort_unstable();
    }
    Some(rows)
}

/// Children per node of a [`Staircase`]: sixteen `u32` maxima fill one
/// 64-byte cache line.
const FANOUT: usize = 16;

/// Levels of a [`Staircase`] over at most `u32::MAX` ranks: `levels`
/// of them suffice once `FANOUT^levels` reaches the rank count, and
/// `16^8 = 2^32`.
const MAX_LEVELS: usize = 8;

/// One node of a [`Staircase`]: its children's maxima, in one cache line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Node([u32; FANOUT]);

impl Node {
    /// Bit `k` set iff entry `k` holds more than `last`: the node's
    /// scan, in one pass with no branch.
    fn above(&self, last: u32) -> u32 {
        (self.0.iter().enumerate()).fold(0, |bits, (k, &v)| bits | u32::from(v > last) << k)
    }
}

/// The highest set bit of a non-zero `bits`.
fn highest_bit(bits: u32) -> usize {
    31 - bits.leading_zeros() as usize
}

/// A max tree of [`sweep_rows`], `FANOUT`-ary: over `y`-ranks (or their
/// reverse), each leaf holds its peer's sweep position plus one, `0`
/// while unswept, so the "−1" of the module docs is `0` here. Level `0`
/// holds the leaves, entry `i` of level `l + 1` the maximum of entries
/// `FANOUT·i ..` of level `l`, and the top level fits one node.
struct Staircase {
    /// Every level's nodes, leaves first.
    nodes: Vec<Node>,
    /// Where each level starts in `nodes`; `levels` of them are used.
    starts: [usize; MAX_LEVELS],
    levels: usize,
}

impl Staircase {
    fn new(n: usize) -> Self {
        let (mut starts, mut levels, mut total, mut len) = ([0; MAX_LEVELS], 0, 0, n);
        loop {
            starts[levels] = total;
            levels += 1;
            total += len.div_ceil(FANOUT).max(1);
            if len <= FANOUT {
                break;
            }
            len = len.div_ceil(FANOUT);
        }
        Staircase {
            nodes: vec![Node([0; FANOUT]); total],
            starts,
            levels,
        }
    }

    fn node(&self, level: usize, i: usize) -> &Node {
        &self.nodes[self.starts[level] + i]
    }

    /// Calls `hit(position)` for every peer of the staircase below the
    /// leaf `at`, from the highest down: from `bound = at` and `last =
    /// 0`, each hit is the highest leaf below `bound` holding more than
    /// `last`, and becomes the next `bound` and `last`.
    fn staircase(&self, at: usize, mut hit: impl FnMut(u32)) {
        let (mut bound, mut last) = (at, 0);
        while let Some(r) = self.highest_below(bound, last) {
            last = self.node(0, r / FANOUT).0[r % FANOUT];
            hit(last);
            bound = r;
        }
    }

    /// The highest leaf `r < bound` holding more than `last`. Each level
    /// scans the entries left of its bound in the bound's own node (the
    /// whole top node at the top), right to left; the entries before
    /// that node are the next level's, left of the node's own entry
    /// there. The first level with a hit descends from it, through the
    /// rightmost child above `last` each time.
    fn highest_below(&self, bound: usize, last: u32) -> Option<usize> {
        let mut at = bound;
        for level in 0..self.levels {
            let (node, count) = if level + 1 == self.levels {
                (0, at)
            } else {
                (at / FANOUT, at % FANOUT)
            };
            if count > 0 {
                let hits = self.node(level, node).above(last) & ((1 << count) - 1);
                if hits != 0 {
                    return Some(self.descend(level, FANOUT * node + highest_bit(hits), last));
                }
            }
            at /= FANOUT;
        }
        None
    }

    /// The highest leaf under entry `i` of `level` holding more than
    /// `last`, which entry `i` does.
    fn descend(&self, level: usize, mut i: usize, last: u32) -> usize {
        for level in (0..level).rev() {
            let hits = self.node(level, i).above(last);
            debug_assert_ne!(hits, 0, "an entry holds its children's maximum");
            i = FANOUT * i + highest_bit(hits);
        }
        i
    }

    /// Stores `value` at leaf `at`. Values only grow along a sweep, so
    /// `value` is the new maximum of every entry above the leaf: one
    /// write per level, no comparison.
    fn insert(&mut self, mut at: usize, value: u32) {
        for level in 0..self.levels {
            self.nodes[self.starts[level] + at / FANOUT].0[at % FANOUT] = value;
            at /= FANOUT;
        }
    }
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
    /// Front members the offers were tested against: each offer adds
    /// the size its orthant's front had when the peer came, every member
    /// an accepted peer is tested against (a rejected one may stop at
    /// its first dominator). Whatever order a front keeps its members
    /// in, the count is the same.
    pub front_tests: u64,
}

/// The empty-rectangle newcomer's own row, found over the rows the store
/// already holds, with the buffers it reuses from join to join: a
/// seen-stamp per peer, the expansion queue, and the per-orthant fronts
/// — [`OrthantFronts`] at each of the paper's `D = 2–5`, fixed at
/// compile time, and [`ParetoFronts`] at any other dimensionality up to
/// `MAX_ORTHANT_DIM`. The instance is picked once per join; both hold
/// the same members after the same offers, so the walk visits, pops and
/// offers in one order whichever runs. The steps and their proofs are in
/// `crate::store`, "The newcomer's own row".
#[derive(Debug, Default)]
pub(crate) struct JoinWalk {
    walk: Walk,
    d2: OrthantFronts<2>,
    d3: OrthantFronts<3>,
    d4: OrthantFronts<4>,
    d5: OrthantFronts<5>,
    any: ParetoFronts,
}

impl JoinWalk {
    pub(crate) fn stats(&self) -> JoinWalkStats {
        self.walk.stats
    }

    /// The row of `x` among the peers that `out`'s rows link — every
    /// live peer but `x` — walked from the live peer `start` over the
    /// fronts of `index`'s dimensionality ([`Walk::row`]). Sorted
    /// ascending, at the store's row width.
    pub(crate) fn row(
        &mut self,
        index: &GridIndex,
        out: &[Vec<u32>],
        x: usize,
        start: usize,
    ) -> Vec<u32> {
        let walk = &mut self.walk;
        match index.dim() {
            2 => walk.row(&mut self.d2, index, out, x, start),
            3 => walk.row(&mut self.d3, index, out, x, start),
            4 => walk.row(&mut self.d4, index, out, x, start),
            5 => walk.row(&mut self.d5, index, out, x, start),
            _ => walk.row(&mut self.any, index, out, x, start),
        }
    }
}

/// The join walk's visit state, whatever its fronts: the seen-stamps,
/// the expansion queue and the counts.
#[derive(Debug, Default)]
struct Walk {
    /// `seen[p] == stamp`: `p` was offered during this join.
    seen: Vec<u32>,
    stamp: u32,
    /// Every peer pushed, with its front's slot, in the order the grow
    /// pops them.
    queue: Vec<(usize, usize)>,
    stats: JoinWalkStats,
}

impl Walk {
    /// Descends from `start` to a neighbour of `x`, then grows `fronts`
    /// over rows until no member is left to expand.
    fn row<F: Fronts>(
        &mut self,
        fronts: &mut F,
        index: &GridIndex,
        out: &[Vec<u32>],
        x: usize,
        start: usize,
    ) -> Vec<u32> {
        if self.seen.len() < out.len() {
            self.seen.resize(out.len(), 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        fronts.clear();
        self.queue.clear();

        let first = self.descend(index, out, x, start);
        self.seen[first] = self.stamp;
        self.offer(fronts, index, x, first);
        let mut head = 0;
        while let Some(&(v, slot)) = self.queue.get(head) {
            head += 1;
            // Evicted since it was pushed: dominated, not a neighbour.
            if !fronts.holds(slot, v) {
                continue;
            }
            self.stats.rows_read += 1;
            for &w in &out[v] {
                let w = w as usize;
                if self.seen[w] != self.stamp {
                    self.seen[w] = self.stamp;
                    self.offer(fronts, index, x, w);
                }
            }
        }
        self.stats.joins += 1;
        // Sized once: the row becomes the newcomer's stored row.
        let mut row = Vec::with_capacity(fronts.ids().count());
        row.extend(fronts.ids().map(|id| id as u32));
        row.sort_unstable();
        row
    }

    /// From `p`, steps to the member of `row(p)` strictly inside the
    /// open rectangle of `p` and the newcomer `x` (the tie rule's
    /// [`rect_dominates`]) that leaves the smallest box (least L1 offset
    /// from `x`), until `row(p)` has none: then `p` is a neighbour of
    /// `x`. Each step shrinks the rectangle strictly, so no peer is
    /// visited twice.
    fn descend(&mut self, index: &GridIndex, out: &[Vec<u32>], x: usize, mut p: usize) -> usize {
        let at = index.point_coords(x);
        loop {
            let pc = index.point_coords(p);
            let mut next: Option<(f64, usize)> = None;
            for &m in &out[p] {
                let m = m as usize;
                let mc = index.point_coords(m);
                if rect_dominates((pc, p), (mc, m), (at, x)) {
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

    /// Offers `w` to `fronts` around the newcomer `x`; pushes it if it
    /// joined.
    fn offer<F: Fronts>(&mut self, fronts: &mut F, index: &GridIndex, x: usize, w: usize) {
        self.stats.offered += 1;
        let (at, wc) = (index.point_coords(x), index.point_coords(w));
        if let Some(slot) = fronts.offer(at, x, wc, w, &mut self.stats.front_tests) {
            self.queue.push((w, slot));
        }
    }
}

/// One join walk's Pareto fronts, one per orthant code around the
/// newcomer `x`. A member's keys are its [`Key`]s — coordinates and id,
/// flipped on the orthant's negative sides — so strictly smaller in
/// every key is strictly inside the rectangle, with no subtraction to
/// round the test.
trait Fronts {
    /// Empties every front, keeping the buffers.
    fn clear(&mut self);

    /// Offers the peer `w` at `wc` to the front of its orthant around
    /// `x` at `at`: dropped if a member dominates it, else it evicts the
    /// members it dominates and joins. Adds the front's size to `tests`.
    /// Returns the front's slot if `w` joined.
    fn offer(
        &mut self,
        at: &[f64],
        x: usize,
        wc: &[f64],
        w: usize,
        tests: &mut u64,
    ) -> Option<usize>;

    /// `true` if `w` is still a member of the front at `slot`.
    fn holds(&self, slot: usize, w: usize) -> bool;

    /// Every member's id, front by front.
    fn ids(&self) -> impl Iterator<Item = usize> + '_;
}

/// The fronts at `D` dimensions fixed at compile time: one per orthant
/// code, indexed by it, each member one `([Key; D], id)` entry. An offer
/// builds its code and keys on the stack, and its member tests unroll.
#[derive(Debug, Default)]
struct OrthantFronts<const D: usize> {
    fronts: Vec<Vec<([Key; D], usize)>>,
}

impl<const D: usize> Fronts for OrthantFronts<D> {
    fn clear(&mut self) {
        self.fronts.resize_with(1 << D, Vec::new);
        self.fronts.iter_mut().for_each(Vec::clear);
    }

    fn offer(
        &mut self,
        at: &[f64],
        x: usize,
        wc: &[f64],
        w: usize,
        tests: &mut u64,
    ) -> Option<usize> {
        let at: &[f64; D] = at.try_into().expect("the newcomer has D coordinates");
        let wc: &[f64; D] = wc.try_into().expect("an offered peer has D coordinates");
        let code = (0..D).fold(0, |code, d| {
            code | usize::from(above(wc[d], w, at[d], x)) << d
        });
        let keys: [Key; D] = std::array::from_fn(|d| key(wc[d], w, code >> d & 1 == 1));
        let front = &mut self.fronts[code];
        *tests += front.len() as u64;
        // Two peers' keys are never equal (their ids differ), so in each
        // coordinate exactly one is nearer `x`: one comparison per
        // coordinate tells both which member dominates `w` (nearer in
        // none) and which `w` dominates (nearer in all). Members do not
        // dominate one another, so once a member dominates `w`, `w` has
        // evicted no one before it.
        let mut m = 0;
        while m < front.len() {
            let member = &front[m].0;
            let nearer = (0..D).filter(|&d| key_lt(&keys[d], &member[d])).count();
            if nearer == 0 {
                return None;
            } else if nearer == D {
                front.swap_remove(m);
            } else {
                m += 1;
            }
        }
        front.push((keys, w));
        Some(code)
    }

    fn holds(&self, slot: usize, w: usize) -> bool {
        self.fronts[slot].iter().any(|&(_, id)| id == w)
    }

    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.fronts.iter().flatten().map(|&(_, id)| id)
    }
}

/// The fronts at any dimensionality: one [`ParetoSet`] per orthant code
/// met (no `2^D` table, so any dimensionality up to `MAX_ORTHANT_DIM`
/// takes this path).
#[derive(Debug, Default)]
struct ParetoFronts {
    /// `(orthant code, front slot)` of every orthant met in this join,
    /// ascending by code.
    slots: Vec<(u32, usize)>,
    /// The fronts by slot; those past `slots.len()` are spare buffers.
    fronts: Vec<ParetoSet>,
    /// The keys of the peer being offered.
    keys: Vec<Key>,
}

impl Fronts for ParetoFronts {
    fn clear(&mut self) {
        self.slots.clear();
    }

    fn offer(
        &mut self,
        at: &[f64],
        x: usize,
        wc: &[f64],
        w: usize,
        tests: &mut u64,
    ) -> Option<usize> {
        let code = orthant_code(at, x, wc, w);
        self.keys.clear();
        let keys = wc
            .iter()
            .enumerate()
            .map(|(d, &c)| key(c, w, code >> d & 1 == 1));
        self.keys.extend(keys);
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
        *tests += self.fronts[slot].ids().len() as u64;
        self.fronts[slot].offer(&self.keys, w).then_some(slot)
    }

    fn holds(&self, slot: usize, w: usize) -> bool {
        self.fronts[slot].ids().contains(&w)
    }

    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        let fronts = self.slots.iter().map(|&(_, slot)| self.fronts[slot].ids());
        fronts.flatten().copied()
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
    use geocast_geom::gen::{clustered_points, cross, hub, uniform_points};
    use geocast_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let index = GridIndex::build(&population);
            let of = |i| index.point_coords(i);
            let n = population.len();
            let mut straddles = 0;
            for x in movers(n, stride) {
                let row: Vec<u32> = (0..n as u32).filter(|&r| r as usize != x).collect();
                let mut got: Vec<(usize, usize)> = RowRuns::gather(&index, x, &row)
                    .straddling_pairs()
                    .collect();
                got.sort_unstable();
                let ids: Vec<usize> = row.iter().map(|&r| r as usize).collect();
                let row = &ids[..];
                let want: Vec<(usize, usize)> = (0..row.len())
                    .flat_map(|a| (a + 1..row.len()).map(move |b| (row[a], row[b])))
                    .filter(|&(a, b)| rect_dominates((of(a), a), (of(x), x), (of(b), b)))
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
            let index = GridIndex::build(&population);
            let store = |n: usize| {
                TopologyStore::from_peers(population[..n].to_vec(), Arc::new(EmptyRectSelection))
            };
            for q in movers(population.len(), stride).filter(|&q| q > 0) {
                let (before, after) = (store(q), store(q + 1));
                let row = after.out_neighbors(q);
                let cuts = straddled_links(&index, &before.out, q, after.row(q));
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
            let index = GridIndex::build(&population);
            let store = |n: usize| {
                TopologyStore::from_peers(population[..n].to_vec(), Arc::new(EmptyRectSelection))
            };
            for q in movers(population.len(), stride).filter(|&q| q > 0) {
                let (before, after) = (store(q), store(q + 1));
                for start in 0..q {
                    let row = walk.row(&index, &before.out, q, start);
                    assert_eq!(row, after.row(q), "{q} joins from {start}");
                    walks += 1;
                    // The descent's own contract: it stops at a neighbour.
                    let stop = descent.walk.descend(&index, &before.out, q, start);
                    assert!(
                        row.contains(&(stop as u32)),
                        "{q} joins: descent from {start}"
                    );
                }
            }
        }
        let stats = walk.stats();
        assert_eq!(stats.joins, walks);
        assert!(stats.descent_hops > 0, "far starts descend before growing");
    }

    #[test]
    fn every_instantiated_dimensionality_walks_as_the_runtime_path() {
        // Uniform, clustered and shuffled-lattice (tied) populations at
        // D = 1–6: each third peer in turn joins the peers before it,
        // from three starts, once over the fronts the walk picks for D
        // and once over the runtime-D fronts. Rows and every count,
        // front tests included, must be equal: at D = 2–5 that holds the
        // const-D fronts to `ParetoSet`, at D = 1 and 6 both are it.
        for dim in 1..=6 {
            // The full lattice of side `side`, cell `7i mod side^D` for
            // point `i`: 7 is prime to every side, so each cell once.
            let side = [60, 8, 4, 3, 2, 2][dim - 1];
            let cells = (side as u64).pow(dim as u32);
            let lattice: Vec<Point> = (0..cells)
                .map(|i| {
                    let mut cell = i * 7 % cells;
                    let coords = (0..dim).map(|_| {
                        let c = cell % side as u64;
                        cell /= side as u64;
                        c as f64
                    });
                    Point::new(coords.collect()).unwrap()
                })
                .collect();
            for (what, points) in [
                ("uniform", uniform_points(60, dim, 1000.0, 71).into_points()),
                (
                    "clustered",
                    clustered_points(60, dim, 1000.0, 3, 25.0, 72).into_points(),
                ),
                ("lattice", lattice),
            ] {
                let population: Vec<PeerInfo> = (0..points.len() as u64)
                    .zip(points)
                    .map(|(i, p)| PeerInfo::new(PeerId(i), p))
                    .collect();
                let index = GridIndex::build(&population);
                let (mut picked, mut runtime) = (JoinWalk::default(), JoinWalk::default());
                for q in (1..population.len()).step_by(3) {
                    let before = TopologyStore::from_peers(
                        population[..q].to_vec(),
                        Arc::new(EmptyRectSelection),
                    );
                    for start in [0, q / 2, q - 1] {
                        let row = picked.row(&index, &before.out, q, start);
                        let (walk, any) = (&mut runtime.walk, &mut runtime.any);
                        let want = walk.row(any, &index, &before.out, q, start);
                        assert_eq!(row, want, "D = {dim}, {what}: {q} joins from {start}");
                    }
                }
                assert_eq!(picked.stats(), runtime.stats(), "D = {dim}, {what}");
                assert!(picked.stats().front_tests > 0, "D = {dim}, {what}");
            }
        }
    }

    #[test]
    fn the_sweep_answers_shared_coordinates_and_declines_off_the_plane() {
        // One shared x, one shared y, the 6 × 7 lattice: the sweep
        // answers. D = 1 and D = 3: it declines. Either way the bulk
        // build is the definition's.
        let plane = peers(60, 2, 68);
        let sharing = |d: usize| {
            let mut population = plane.clone();
            let mut coords = population[41].point().coords().to_vec();
            coords[d] = population[7].point().coords()[d];
            population[41] = PeerInfo::new(PeerId(41), Point::new(coords).unwrap());
            population
        };
        let lattice = closed_form_populations().swap_remove(6).0;
        for (what, population, swept) in [
            ("distinct", plane.clone(), true),
            ("a shared x", sharing(0), true),
            ("a shared y", sharing(1), true),
            ("a lattice", lattice, true),
            ("D = 1", peers(60, 1, 69), false),
            ("D = 3", peers(60, 3, 70), false),
        ] {
            assert_eq!(
                sweep_rows(&GridIndex::build(&population)).is_some(),
                swept,
                "{what}"
            );
            let n = population.len();
            let store = TopologyStore::from_peers(population.clone(), Arc::new(EmptyRectSelection));
            let want = oracle::equilibrium_live(&population, &vec![false; n], &EmptyRectSelection);
            assert_eq!(store.graph(), want, "{what}: adjacency");
            assert_eq!(store.fingerprint(), oracle::fingerprint(&want), "{what}");
        }
    }

    #[test]
    fn the_wide_tree_finds_the_highest_leaf_a_linear_scan_finds() {
        // Trees of one level, several levels and partial nodes take
        // inserts at their leaves in random order, with increasing
        // values, as a sweep makes them. Every so often each bound at a
        // node edge, and a few at random, is probed at several `last`s:
        // `highest_below` must answer as a linear scan of the leaves.
        let mut rng = StdRng::seed_from_u64(73);
        for n in [0, 1, 15, 16, 17, 255, 256, 257, 4_097] {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let (mut tree, mut leaves) = (Staircase::new(n), vec![0u32; n]);
            let edges = [0, 1, 15, 16, 17, 255, 256, 257, 4_095, 4_096, 4_097];
            let stride = (n / 64).max(1);
            for (inserted, at) in (1..=n).zip(order) {
                let value = inserted as u32;
                tree.insert(at, value);
                leaves[at] = value;
                if !(inserted.is_multiple_of(stride) || inserted == n) {
                    continue;
                }
                let random: [usize; 4] = std::array::from_fn(|_| rng.random_range(0..=n));
                let bounds = edges.into_iter().filter(|&b| b <= n).chain(random);
                for bound in bounds {
                    for last in [0, value / 2, rng.random_range(0..=value), value] {
                        let want = (0..bound).rev().find(|&r| leaves[r] > last);
                        assert_eq!(
                            tree.highest_below(bound, last),
                            want,
                            "{n} leaves, {value} inserted: below {bound} above {last}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unblocked_pairs_are_the_links_a_departure_makes() {
        // Each mover of a population in turn plays the departed one:
        // the pairs the kernel returns from its row alone must be, as a
        // set, the links of the topology the survivors define — from
        // scratch, with no index — that were absent before.
        for (population, stride) in closed_form_populations() {
            let index = GridIndex::build(&population);
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
                    unblocked_pairs(&index, v, full.row(v)),
                    want,
                    "dim {}: {v} departs",
                    population[0].point().dim()
                );
            }
        }
    }
}
