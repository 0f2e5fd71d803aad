//! A uniform-grid spatial index over a mutable point population.
//!
//! [`GridIndex`] is the engine behind figure-scale overlay construction
//! and the incremental churn engine: it answers the two geometric
//! queries every neighbour-selection rule reduces to, **exactly**
//! (bit-for-bit the same answers as the brute-force formulations, which
//! property tests assert):
//!
//! * [`GridIndex::empty_rect_neighbors`] — the §2 empty-rectangle rule,
//!   i.e. the per-orthant Pareto frontier around a point
//!   (see [`crate::dominance`]), and
//! * [`GridIndex::k_nearest_per_orthant`] — the per-orthant `K` closest
//!   points, the kernel of the *Orthogonal Hyperplanes* method.
//!
//! Two more need no orthant: [`GridIndex::locate`] hands back some live
//! point near a position, the start of the store's empty-rectangle join
//! walk, and [`GridIndex::nearest`] the nearest one exactly, the target
//! of a graft walk. None assumes coordinates distinct per dimension; the
//! two orthant queries decline only beyond [`MAX_INDEX_DIM`].
//!
//! Unlike a build-once index, the population is **mutable**:
//! [`GridIndex::insert`] and [`GridIndex::remove`] apply membership
//! churn in `O(1)` amortized time. Removed points keep their id (so
//! callers' dense id spaces stay stable) but stop contributing to every
//! query; the grid re-buckets itself automatically when the live
//! population outgrows or outshrinks the geometry it was built for.
//!
//! # How pruning works
//!
//! Points are bucketed into a `side^D` uniform grid (`side ≈ N^(1/D)`,
//! so cells hold `O(1)` points on uniform workloads). Both orthant
//! queries are **one walk** (`OrthantWalk`) per orthant around the
//! reference point `p`: it steps through the orthant's cells outwards,
//! innermost dimension last, offers every point of a scanned cell to a
//! running set, and asks the set, at each step, whether to cut the
//! column there. The cut reads the *pruning corner*: per walked
//! dimension, the coordinate on the orthant's side of `p` nearest to it
//! in the layer the walk is in — `p`'s own in its own layer, else the
//! layer's face towards `p`. The corner only moves away from `p` along
//! the column, so what is cut at one step stays cut for the rest of it.
//! The two queries differ only in their running set (`RunningSet`):
//!
//! * The empty-rectangle query ([`GridIndex::empty_rect_neighbors`])
//!   keeps the exact Pareto frontier of every point scanned so far
//!   ([`crate::dominance::ParetoSet`]). A scanned point that some member
//!   strictly dominates ([`crate::dominance::rect_dominates`], as
//!   [`crate::Key`]s: coordinates and ids, flipped on the orthant's
//!   negative sides) is dropped; otherwise it evicts the members it
//!   dominates and joins. Domination is a strict partial order, so
//!   whatever a dropped or evicted point could have dominated, a
//!   surviving member dominates too: the running set never needs a
//!   second look, and when the walk ends it **is** the answer — there
//!   is no candidate list and no final sort-and-filter pass. Its cut:
//!   when a member's coordinate is strictly nearer `p` than the corner's
//!   in **every** dimension, every point of the cell and of the cells
//!   behind it is dominated, whatever its id. It is asked at the
//!   innermost depth only: an outer corner sits at `p`'s own coordinate
//!   in the dimensions still to be walked, which no point of the
//!   orthant is strictly nearer than.
//! * The `K`-nearest query ([`GridIndex::k_nearest_per_orthant`]) keeps
//!   the `K` best points by `(L1 distance, id)`. Its cut, asked at every
//!   depth: the corner's L1 offset from `p` (the dimensions still to be
//!   walked at zero) bounds every point of the column from below, and
//!   the column ends once it exceeds (strictly) the `K`-th best distance
//!   — a tie at equal distance is *not* cut, so the `(distance, id)`
//!   order of the brute-force selection is reproduced exactly.
//!
//! A point sharing a coordinate with `p` is ordered by id
//! ([`crate::above`]): it lies in exactly one orthant of `p`, and
//! walks there like any other point. It sits in `p`'s own layer of
//! that dimension, whose corner is at `p`'s coordinate, which no
//! point is strictly nearer than, so the frontier's cut never cuts it.
//! A query position that is no point of the index ranks after every
//! id. The `K`-nearest walk is the *Orthogonal Hyperplanes* rule's,
//! whose regions are half-open: it ranks a shared coordinate on the
//! positive side, as the rule's arrangement puts a point on a
//! plane.
//!
//! Points inserted outside the built bounding box land in clamped edge
//! cells; the corner bound stays a valid *lower* bound for them, so
//! answers remain exact and only locality degrades until the next
//! re-bucketing.
//!
//! On uniform workloads each query touches `O(side)` cells per orthant
//! instead of all `N` points, which turns the `O(N²)`-per-topology
//! equilibrium construction into roughly `O(N^1.5)` in 2-D.
//!
use crate::dominance::ParetoSet;
use crate::{above, key, l1, Point};

/// Orthant walks keep one frontier per orthant; beyond this many
/// dimensions the `2^D` tables would dwarf the point set and a linear
/// scan wins anyway, so queries decline (return `None`).
pub const MAX_INDEX_DIM: usize = 16;

/// The end of a cell's chain of ids.
const END: u32 = u32::MAX;

/// `true` if an offset `delta` along dimension `d` lies on orthant
/// `o`'s side of the *Orthogonal Hyperplanes* arrangement: a zero offset
/// counts as positive.
fn on_side(delta: f64, o: usize, d: usize) -> bool {
    (delta >= 0.0) == (o >> d & 1 == 1)
}

/// A uniform grid over a mutable point population, supporting exact
/// per-orthant nearest-neighbour and empty-rectangle queries plus
/// incremental [`GridIndex::insert`] / [`GridIndex::remove`].
///
/// The index copies coordinates into a flat, cache-friendly layout; it
/// does not borrow the source points. Ids are dense insertion indices:
/// the `i`-th point of the build slice (and then each inserted point in
/// order) gets id `i`, and removal never reuses ids.
///
/// # Example
///
/// ```
/// use geocast_geom::gen::uniform_points;
/// use geocast_geom::index::GridIndex;
/// use geocast_geom::dominance::empty_rect_neighbors;
///
/// let points = uniform_points(200, 2, 1000.0, 7).into_points();
/// let index = GridIndex::build(&points);
///
/// // Exactly the brute-force empty-rectangle neighbours of point 3.
/// let fast = index.empty_rect_neighbors(3).expect("at most MAX_INDEX_DIM dimensions");
/// let candidates: Vec<_> =
///     points.iter().enumerate().filter(|&(j, _)| j != 3).map(|(_, p)| p).collect();
/// let id = |ci: usize| if ci < 3 { ci } else { ci + 1 };
/// let slow: Vec<usize> =
///     empty_rect_neighbors(&points[3], 3, &candidates, id).into_iter().map(id).collect();
/// assert_eq!(fast, slow);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    dim: usize,
    side: usize,
    lo: Vec<f64>,
    cell_size: Vec<f64>,
    /// Per cell (row-major, dimension 0 outermost): the first live id of
    /// its bucket, a chain threaded through `next`; [`END`] when empty.
    head: Vec<u32>,
    /// Per id: the next live id of its bucket, [`END`] at the chain's
    /// end (stale for removed ids). No cell owns an allocation.
    next: Vec<u32>,
    /// Flattened coordinates, `coords[id * dim..][..dim]`; kept for
    /// removed ids too so id arithmetic never shifts.
    coords: Vec<f64>,
    /// Tombstones: `removed[id]` points contribute to no query.
    removed: Vec<bool>,
    /// Live point count (`removed` false entries).
    live: usize,
    /// Live count when the grid geometry was last computed; drifting a
    /// factor of 2 away from it triggers a re-bucketing.
    built_live: usize,
}

impl GridIndex {
    /// Builds the index over `points`.
    ///
    /// Accepts anything that dereferences to [`Point`] (e.g. peer
    /// records), so overlay code can index peers without copying them
    /// into a `PointSet` first.
    ///
    /// # Panics
    ///
    /// Panics if the points disagree on dimensionality or `points` is
    /// non-empty with zero-dimensional points (impossible for validated
    /// [`Point`]s).
    #[must_use]
    pub fn build<P: AsRef<Point>>(points: &[P]) -> Self {
        let n = points.len();
        let dim = points.first().map_or(1, |p| p.as_ref().dim());
        let mut coords = Vec::with_capacity(n * dim);
        for p in points {
            let p = p.as_ref();
            assert_eq!(p.dim(), dim, "index requires uniform dimensionality");
            coords.extend_from_slice(p.coords());
        }

        let mut index = GridIndex {
            dim,
            side: 1,
            lo: vec![0.0; dim],
            cell_size: vec![1.0; dim],
            head: Vec::new(),
            next: vec![END; n],
            coords,
            removed: vec![false; n],
            live: n,
            built_live: n,
        };
        index.regrid();
        index
    }

    /// Recomputes the grid geometry from the live population and
    /// re-buckets every live point. Ids, coordinates and tombstones are
    /// untouched.
    fn regrid(&mut self) {
        let n = self.live;
        let dim = self.dim;
        // ~1 point per cell on uniform data, capped so the cell table
        // never dwarfs the point set.
        let mut side = if n == 0 {
            1
        } else {
            (n as f64).powf(1.0 / dim as f64).floor() as usize
        }
        .max(1);
        while side > 1 && Self::cell_count(side, dim) > 4 * n.max(16) {
            side -= 1;
        }

        // In place: a growing grid re-buckets often, and allocates for
        // nothing but its cell table.
        self.lo.resize(dim, 0.0);
        self.cell_size.resize(dim, 1.0);
        for d in 0..dim {
            let mut mn = f64::INFINITY;
            let mut mx = f64::NEG_INFINITY;
            for id in 0..self.removed.len() {
                if self.removed[id] {
                    continue;
                }
                let v = self.coords[id * dim + d];
                mn = mn.min(v);
                mx = mx.max(v);
            }
            let (lo, hi) = if mn.is_finite() { (mn, mx) } else { (0.0, 0.0) };
            let span = hi - lo;
            self.lo[d] = lo;
            self.cell_size[d] = if span > 0.0 { span / side as f64 } else { 1.0 };
        }

        self.side = side;
        self.built_live = n;
        self.head.clear();
        self.head.resize(Self::cell_count(side, dim), END);
        // Backwards, so that each chain reads its ids ascending.
        for id in (0..self.removed.len()).rev() {
            if !self.removed[id] {
                self.link(id);
            }
        }
    }

    /// Puts live point `id` at the front of its cell's chain.
    fn link(&mut self, id: usize) {
        let c = self.cell_of(id);
        self.next[id] = self.head[c];
        self.head[c] = id as u32;
    }

    /// The live ids of cell `flat`, along its chain.
    fn bucket(&self, flat: usize) -> impl Iterator<Item = usize> + '_ {
        let live = |id: u32| (id != END).then_some(id as usize);
        std::iter::successors(live(self.head[flat]), move |&id| live(self.next[id]))
    }

    /// Adds a point to the population, returning its id (the next dense
    /// insertion index). Amortized `O(1)`: the grid re-buckets itself
    /// when the live population doubles past the built geometry or a
    /// point escapes the bounding box after meaningful growth.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch with the existing population
    /// (an empty index adopts the first point's dimensionality).
    pub fn insert(&mut self, point: &Point) -> usize {
        let adopting = self.coords.is_empty();
        if adopting {
            self.dim = point.dim();
        }
        assert_eq!(
            point.dim(),
            self.dim,
            "index requires uniform dimensionality"
        );
        let id = self.removed.len();
        self.coords.extend_from_slice(point.coords());
        self.removed.push(false);
        self.next.push(END);
        self.live += 1;

        if adopting {
            // The empty-built geometry (lo/cell_size) may not even have
            // this dimensionality yet; rebuild it around the first point.
            self.regrid();
            return id;
        }
        let escaped = (0..self.dim).any(|d| {
            let x = point[d];
            x < self.lo[d] || x > self.lo[d] + self.side as f64 * self.cell_size[d]
        });
        let grown = self.live > 2 * self.built_live.max(8);
        if grown || (escaped && self.live > self.built_live + self.built_live / 8) {
            self.regrid();
        } else {
            self.link(id);
        }
        id
    }

    /// Removes a point: it keeps its id (no other id shifts) but stops
    /// contributing to every query.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already removed.
    pub fn remove(&mut self, id: usize) {
        assert!(id < self.removed.len(), "point id out of range");
        assert!(!self.removed[id], "point {id} already removed");
        self.removed[id] = true;
        self.live -= 1;
        let c = self.cell_of(id);
        if self.head[c] as usize == id {
            self.head[c] = self.next[id];
        } else {
            let mut at = self.head[c] as usize;
            while self.next[at] as usize != id {
                at = self.next[at] as usize;
                assert!(at != END as usize, "live point bucketed");
            }
            self.next[at] = self.next[id];
        }
        if self.live * 2 < self.built_live && self.built_live > 32 {
            self.regrid();
        }
    }

    fn cell_count(side: usize, dim: usize) -> usize {
        let mut cells = 1usize;
        for _ in 0..dim {
            cells = cells.saturating_mul(side);
        }
        cells
    }

    fn layer_raw(x: f64, lo: f64, cell_size: f64, side: usize) -> usize {
        let c = ((x - lo) / cell_size).floor();
        if c < 0.0 {
            0
        } else {
            (c as usize).min(side - 1)
        }
    }

    fn cell_of(&self, id: usize) -> usize {
        let mut cell = 0usize;
        for d in 0..self.dim {
            let c = self.layer_of(d, self.coords[id * self.dim + d]);
            cell = cell * self.side + c;
        }
        cell
    }

    /// Number of ids ever issued (removed points included); the valid
    /// query range is `0..len()`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.removed.len()
    }

    /// `true` if no points were ever indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty()
    }

    /// Dimensionality of the indexed space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Cells per axis.
    #[must_use]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of live (not removed) points.
    #[must_use]
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// The tombstones, indexable by id: `removed()[id]` is `true` once
    /// [`GridIndex::remove`] took point `id` out of every query.
    #[must_use]
    #[inline]
    pub fn removed(&self) -> &[bool] {
        &self.removed
    }

    /// Point `id`'s coordinates, removed points' included: the table
    /// keeps every id's row, so id arithmetic never shifts.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    #[inline]
    pub fn point_coords(&self, id: usize) -> &[f64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }

    fn layer_of(&self, d: usize, x: f64) -> usize {
        Self::layer_raw(x, self.lo[d], self.cell_size[d], self.side)
    }

    /// The indices of the exact empty-rectangle neighbours of point `i`
    /// among all other live indexed points, sorted ascending. Ids are the
    /// ranks of the tie rule ([`crate::above`]).
    ///
    /// Returns `None` only when the dimensionality exceeds
    /// [`MAX_INDEX_DIM`]; callers then fall back to
    /// [`crate::dominance::empty_rect_neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or removed.
    #[must_use]
    pub fn empty_rect_neighbors(&self, i: usize) -> Option<Vec<usize>> {
        assert!(i < self.len(), "point index out of range");
        assert!(!self.removed[i], "query point {i} was removed");
        if self.dim > MAX_INDEX_DIM {
            return None;
        }
        Some(self.empty_rect_walk(self.point_coords(i), i, i))
    }

    /// [`GridIndex::empty_rect_neighbors`] for an **external** query
    /// position: the exact empty-rectangle neighbours of `q` among all
    /// live indexed points except `skip`, sorted ascending — a position
    /// asks an index it is not (or not yet) a point of. The position
    /// ranks after every id, as a newcomer's next id would.
    ///
    /// Returns `None` only when the dimensionality exceeds
    /// [`MAX_INDEX_DIM`]; callers fall back to their brute-force paths.
    ///
    /// # Panics
    ///
    /// Panics if the index is non-empty and `q`'s dimensionality
    /// disagrees, or `skip` is out of range.
    #[must_use]
    pub fn empty_rect_neighbors_at(&self, q: &Point, skip: Option<usize>) -> Option<Vec<usize>> {
        if self.live == 0 {
            return Some(Vec::new());
        }
        assert_eq!(q.dim(), self.dim, "query dimensionality mismatch");
        if let Some(s) = skip {
            assert!(s < self.len(), "skip id out of range");
        }
        if self.dim > MAX_INDEX_DIM {
            return None;
        }
        Some(self.empty_rect_walk(q.coords(), usize::MAX, skip.unwrap_or(usize::MAX)))
    }

    /// Some live point near the position `q`, other than `skip`: of the
    /// points in `q`'s cell — or, when it holds none, in the nearest
    /// Chebyshev ring of cells around it that does — the one closest to
    /// `q` in L1 (ties to the smaller id). `None` when no other live
    /// point exists. It reads buckets only and classifies no point into
    /// an orthant, so it never declines, not even beyond
    /// [`MAX_INDEX_DIM`]. The start of the store's join walk,
    /// whose answer does not depend on which point this is.
    ///
    /// # Panics
    ///
    /// Panics if `q`'s dimensionality disagrees with a non-empty index,
    /// or `skip` is out of range.
    #[must_use]
    pub fn locate(&self, q: &Point, skip: Option<usize>) -> Option<usize> {
        let skip_live = skip.is_some_and(|s| {
            assert!(s < self.len(), "skip id out of range");
            !self.removed[s]
        });
        if self.live == usize::from(skip_live) {
            return None;
        }
        assert_eq!(q.dim(), self.dim, "query dimensionality mismatch");
        let skip = skip.unwrap_or(usize::MAX);
        self.ring_walk(q.coords(), skip, |id| id, |_, _, _| true)
    }

    /// The live point nearest to the position `q` in L1, ties to the
    /// least `rank(id)` (give distinct ids distinct ranks). Exact: the
    /// ring walk of [`GridIndex::locate`] goes on until the best point
    /// is nearer than every face of the scanned block that has cells
    /// beyond it — every unscanned point lies beyond such a face, and an
    /// L1 distance is at least the offset along one axis — so a point
    /// tied with the answer is never left unscanned. `None` when no
    /// point is live; like `locate`, it never declines.
    ///
    /// # Panics
    ///
    /// Panics if `q`'s dimensionality disagrees with a non-empty index.
    #[must_use]
    pub fn nearest(&self, q: &Point, rank: impl Fn(usize) -> usize) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        assert_eq!(q.dim(), self.dim, "query dimensionality mismatch");
        let q = q.coords();
        // A cell is found by dividing where a face is found by
        // multiplying, so the two can disagree by a few ulps of the
        // coordinates' magnitude: the face bound keeps that much slack.
        let magnitude = (0..self.dim)
            .map(|d| self.lo[d].abs() + self.side as f64 * self.cell_size[d])
            .fold(1.0, f64::max);
        let slack = magnitude * 1e-9;
        self.ring_walk(q, usize::MAX, rank, |ring, centre, best| {
            let clearance = self.clearance(q, centre, ring);
            clearance == f64::INFINITY || best < clearance - slack
        })
    }

    /// Distance from `q` to the nearest face of the block of cells within
    /// `ring` rings of its cell `centre`, among the faces with cells
    /// beyond them: a lower bound on the distance of every point in a
    /// farther ring. Infinite once the block covers the grid.
    fn clearance(&self, q: &[f64], centre: &[usize], ring: usize) -> f64 {
        let mut nearest = f64::INFINITY;
        for (d, (&x, &c)) in q.iter().zip(centre).enumerate() {
            if c > ring {
                nearest = nearest.min(x - (self.lo[d] + (c - ring) as f64 * self.cell_size[d]));
            }
            if c + ring + 1 < self.side {
                nearest = nearest.min(self.lo[d] + (c + ring + 1) as f64 * self.cell_size[d] - x);
            }
        }
        nearest
    }

    /// The walk behind [`GridIndex::locate`] and [`GridIndex::nearest`]:
    /// the Chebyshev rings of cells around `q`'s cell, outwards, keeping
    /// the live point other than `skip` least by `(L1 distance,
    /// rank)`. After each ring that leaves a best point, `stop(ring,
    /// centre, distance)` decides whether the walk ends there; it ends
    /// anyway once the rings cover the grid. The caller makes sure some
    /// point other than `skip` is live.
    fn ring_walk(
        &self,
        q: &[f64],
        skip: usize,
        rank: impl Fn(usize) -> usize,
        stop: impl Fn(usize, &[usize], f64) -> bool,
    ) -> Option<usize> {
        let (dim, side) = (self.dim, self.side);
        // Four layer vectors — centre, cell, and the ring's cube — on the
        // stack up to `MAX_INDEX_DIM` dimensions, so a join's start
        // allocates nothing; one buffer beyond.
        let mut stack = [0usize; 4 * MAX_INDEX_DIM];
        let mut heap = Vec::new();
        let layers = if dim <= MAX_INDEX_DIM {
            &mut stack[..4 * dim]
        } else {
            heap.resize(4 * dim, 0);
            &mut heap[..]
        };
        let (centre, layers) = layers.split_at_mut(dim);
        let (cell, layers) = layers.split_at_mut(dim);
        let (lo, hi) = layers.split_at_mut(dim);
        for (d, c) in centre.iter_mut().enumerate() {
            *c = self.layer_of(d, q[d]);
        }
        let mut best: Option<(f64, usize, usize)> = None;
        for r in 0..side {
            // The cube of cells within `r` of the centre, clipped to the
            // grid; its cells at distance exactly `r` are the ring.
            for ((l, h), &c) in lo.iter_mut().zip(hi.iter_mut()).zip(&*centre) {
                (*l, *h) = (c.saturating_sub(r), (c + r).min(side - 1));
            }
            cell.copy_from_slice(lo);
            'ring: loop {
                if (0..dim).any(|d| cell[d].abs_diff(centre[d]) == r) {
                    let flat = cell.iter().fold(0usize, |flat, &c| flat * side + c);
                    for id in self.bucket(flat) {
                        if id == skip {
                            continue;
                        }
                        let dist = l1(self.point_coords(id), q);
                        if best.is_none_or(|(bd, br, _)| (dist, rank(id)) < (bd, br)) {
                            best = Some((dist, rank(id), id));
                        }
                    }
                }
                // The next cell of the cube, innermost dimension last.
                // Where every outer dimension is inside the ring, the
                // innermost cells strictly between `lo` and `hi` are too:
                // it jumps over them.
                let mut d = dim;
                loop {
                    if d == 0 {
                        break 'ring;
                    }
                    d -= 1;
                    if cell[d] < hi[d] {
                        let inside = (0..d).all(|e| cell[e].abs_diff(centre[e]) < r);
                        cell[d] = if d + 1 == dim && inside {
                            hi[d]
                        } else {
                            cell[d] + 1
                        };
                        break;
                    }
                    cell[d] = lo[d];
                }
            }
            if let Some((dist, _, id)) = best {
                if stop(r, centre, dist) {
                    return Some(id);
                }
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// The full query behind both empty-rectangle entry points: the
    /// orthant walk (module docs, "How pruning works") once per orthant
    /// around `p`, ranked as id `p_id`, over live points excluding `skip`
    /// (`usize::MAX` excludes nobody), keeping the Pareto frontier.
    fn empty_rect_walk(&self, p: &[f64], p_id: usize, skip: usize) -> Vec<usize> {
        let mut walk = OrthantWalk::new(self, p, p_id, skip);
        let mut frontier = ParetoSet::default();
        let mut kept = Vec::new();
        for o in 0..1usize << self.dim {
            frontier.reset(self.dim);
            walk.run(o, &mut frontier);
            kept.extend_from_slice(frontier.ids());
        }
        kept.sort_unstable();
        kept
    }

    /// The `k` nearest live indexed points to point `i` within each
    /// orthant around it, under the L1 distance, each orthant sorted by
    /// `(distance, index)` ascending — exactly the per-orthant ranking
    /// of the *Orthogonal Hyperplanes* selection when point indices are
    /// the tie-break key. A point sharing a coordinate with point `i`
    /// ranks on the positive side of that dimension, as the rule's
    /// arrangement puts a point on a plane.
    ///
    /// Returns `None` only when the dimensionality exceeds
    /// [`MAX_INDEX_DIM`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, removed, or `k == 0`.
    #[must_use]
    pub fn k_nearest_per_orthant(&self, i: usize, k: usize) -> Option<Vec<Vec<usize>>> {
        assert!(i < self.len(), "point index out of range");
        assert!(!self.removed[i], "query point {i} was removed");
        assert!(k > 0, "K must be at least 1");
        if self.dim > MAX_INDEX_DIM {
            return None;
        }
        let mut walk = OrthantWalk::new(self, self.point_coords(i), i, i);
        let mut nearest = Nearest {
            k,
            best: Vec::new(),
        };
        let per_orthant = (0..1usize << self.dim)
            .map(|o| {
                nearest.best.clear();
                walk.run(o, &mut nearest);
                nearest.best.iter().map(|&(_, id)| id).collect()
            })
            .collect();
        Some(per_orthant)
    }
}

/// What an orthant walk keeps as it scans: the walk only enumerates
/// cells, and its running set decides where a column ends and what a
/// scanned point does to it.
trait RunningSet {
    /// `true` if no point at or beyond the corner the walk just stepped
    /// to along dimension `depth` can enter the set: the walk leaves the
    /// column there.
    fn cuts(&self, walk: &OrthantWalk<'_>, depth: usize) -> bool;

    /// Offers the live point `id` of the cell the walk is scanning.
    fn consider(&mut self, walk: &OrthantWalk<'_>, id: usize);
}

/// The empty-rectangle rule's running set: the exact Pareto frontier of
/// the points of the orthant scanned so far, as [`crate::Key`]s.
impl RunningSet for ParetoSet {
    /// Only at the innermost depth: an outer corner sits at `p`'s own
    /// coordinate in the dimensions still to be walked, which no point
    /// of the orthant is strictly nearer than. The corner's keys carry an
    /// id below every key's, so that only a strictly nearer coordinate is
    /// below one.
    fn cuts(&self, walk: &OrthantWalk<'_>, depth: usize) -> bool {
        let dim = walk.index.dim;
        if depth + 1 < dim {
            return false;
        }
        let mut corner = [(0.0, 0); MAX_INDEX_DIM];
        for (d, c) in corner[..dim].iter_mut().enumerate() {
            let near = walk.near[d];
            *c = (if walk.positive(d) { near } else { -near }, 0);
        }
        self.dominates(&corner[..dim])
    }

    fn consider(&mut self, walk: &OrthantWalk<'_>, id: usize) {
        let dim = walk.index.dim;
        let q = walk.index.point_coords(id);
        let mut keys = [(0.0, 0); MAX_INDEX_DIM];
        for d in 0..dim {
            let positive = walk.positive(d);
            if above(q[d], id, walk.p[d], walk.p_id) != positive {
                return;
            }
            keys[d] = key(q[d], id, positive);
        }
        self.offer(&keys[..dim], id);
    }
}

/// The *Orthogonal Hyperplanes* rule's running set: the `k` nearest
/// points of the orthant scanned so far, by `(L1 distance, id)`
/// ascending.
struct Nearest {
    k: usize,
    best: Vec<(f64, usize)>,
}

impl RunningSet for Nearest {
    /// At every depth: the corner's L1 offset from `p`, the dimensions
    /// still to be walked at zero, is a lower bound on the distance of
    /// every point in the column. A tie with the `k`-th best distance is
    /// not cut.
    fn cuts(&self, walk: &OrthantWalk<'_>, depth: usize) -> bool {
        let Some(&(kth, _)) = self.best.get(self.k - 1) else {
            return false;
        };
        let bound: f64 = (0..=depth).map(|d| (walk.near[d] - walk.p[d]).abs()).sum();
        bound > kth
    }

    fn consider(&mut self, walk: &OrthantWalk<'_>, id: usize) {
        let q = walk.index.point_coords(id);
        if !(0..walk.index.dim).all(|d| on_side(q[d] - walk.p[d], walk.orthant, d)) {
            return;
        }
        let entry = (l1(walk.p, q), id);
        if self.best.len() == self.k {
            if entry >= self.best[self.k - 1] {
                return;
            }
            self.best.pop();
        }
        let at = self.best.partition_point(|&e| e < entry);
        self.best.insert(at, entry);
    }
}

/// One query's walk of the orthants around `p`, one at a time: the cells
/// of an orthant outwards, innermost dimension last, each column cut
/// where its running set says. Everything but the running set lives on
/// the stack.
struct OrthantWalk<'a> {
    index: &'a GridIndex,
    p: &'a [f64],
    /// `p`'s id under the tie rule: `usize::MAX` for a position.
    p_id: usize,
    skip: usize,
    orthant: usize,
    p_layer: [usize; MAX_INDEX_DIM],
    cell: [usize; MAX_INDEX_DIM],
    /// The pruning corner: per walked dimension, the coordinate on the
    /// orthant's side of `p` nearest to it in the layer the walk is in.
    near: [f64; MAX_INDEX_DIM],
}

impl<'a> OrthantWalk<'a> {
    fn new(index: &'a GridIndex, p: &'a [f64], p_id: usize, skip: usize) -> Self {
        let mut p_layer = [0; MAX_INDEX_DIM];
        for (d, &x) in p.iter().enumerate() {
            p_layer[d] = index.layer_of(d, x);
        }
        OrthantWalk {
            index,
            p,
            p_id,
            skip,
            orthant: 0,
            p_layer,
            cell: [0; MAX_INDEX_DIM],
            near: [0.0; MAX_INDEX_DIM],
        }
    }

    fn positive(&self, d: usize) -> bool {
        self.orthant >> d & 1 == 1
    }

    /// Walks orthant `o` into `set`.
    fn run(&mut self, o: usize, set: &mut impl RunningSet) {
        self.orthant = o;
        self.descend(set, 0);
    }

    fn descend(&mut self, set: &mut impl RunningSet, depth: usize) {
        let index = self.index;
        let innermost = depth + 1 == index.dim;
        for t in 0.. {
            let Some((cell, near)) = self.step(depth, t) else {
                break;
            };
            self.cell[depth] = cell;
            self.near[depth] = near;
            // The corner only moves away from `p` as `t` grows: what is
            // cut here stays cut for the rest of the column.
            if set.cuts(self, depth) {
                break;
            }
            if !innermost {
                self.descend(set, depth + 1);
                continue;
            }
            let flat = self.cell[..index.dim]
                .iter()
                .fold(0usize, |flat, &c| flat * index.side + c);
            for id in index.bucket(flat) {
                if id != self.skip {
                    debug_assert!(!index.removed[id], "buckets hold live points only");
                    set.consider(self, id);
                }
            }
        }
    }

    /// The cell layer `t` steps from `p`'s layer along `d`, towards the
    /// orthant's side, paired with the coordinate on that side of `p`
    /// nearest to it in the layer: `p`'s own in its own layer, else the
    /// layer's face towards `p`. `None` once the grid edge is passed.
    fn step(&self, d: usize, t: usize) -> Option<(usize, f64)> {
        let (index, base) = (self.index, self.p_layer[d]);
        let positive = self.positive(d);
        let cell = if positive {
            Some(base + t).filter(|&c| c < index.side)?
        } else {
            base.checked_sub(t)?
        };
        let near = if t == 0 {
            self.p[d]
        } else if positive {
            (index.lo[d] + cell as f64 * index.cell_size[d]).max(self.p[d])
        } else {
            (index.lo[d] + (cell + 1) as f64 * index.cell_size[d]).min(self.p[d])
        };
        Some((cell, near))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{empty_rect_neighbors, empty_rect_neighbors_naive};
    use crate::gen::uniform_points;
    use crate::Orthant;

    /// The definition's row of position `q`, ranked as id `q_id`, over
    /// the points `ids`, by the naive rectangle test: on tied inputs the
    /// walk under test is held against the rule itself, not a second
    /// fast path.
    fn naive_row(points: &[Point], q: &Point, q_id: usize, ids: &[usize]) -> Vec<usize> {
        let candidates: Vec<&Point> = ids.iter().map(|&j| &points[j]).collect();
        empty_rect_neighbors_naive(q, q_id, &candidates, |c| ids[c])
            .into_iter()
            .map(|ci| ids[ci])
            .collect()
    }

    fn reindexed_brute(points: &[Point], i: usize) -> Vec<usize> {
        let candidates: Vec<&Point> = points
            .iter()
            .enumerate()
            .filter_map(|(j, p)| (j != i).then_some(p))
            .collect();
        let id = |ci: usize| if ci < i { ci } else { ci + 1 };
        empty_rect_neighbors(&points[i], i, &candidates, id)
            .into_iter()
            .map(id)
            .collect()
    }

    #[test]
    fn empty_rect_matches_brute_force_across_dims_and_sizes() {
        for &(n, dim, seed) in &[
            (2usize, 1usize, 1u64),
            (40, 1, 2),
            (60, 2, 3),
            (120, 2, 4),
            (50, 3, 5),
            (40, 4, 6),
            (30, 5, 7),
        ] {
            let points = uniform_points(n, dim, 1000.0, seed).into_points();
            let index = GridIndex::build(&points);
            for i in 0..n {
                assert_eq!(
                    index.empty_rect_neighbors(i).expect("distinct workload"),
                    reindexed_brute(&points, i),
                    "n={n} dim={dim} seed={seed} i={i}"
                );
            }
        }
    }

    #[test]
    fn empty_rect_answers_a_shared_coordinate() {
        // Point 1 shares y with point 0 and lies above it there (its id
        // is larger), where it hides point 2: the index answers with the
        // definition's row.
        let points = vec![
            Point::new(vec![0.0, 0.0]).unwrap(),
            Point::new(vec![1.0, 0.0]).unwrap(), // shares y with point 0
            Point::new(vec![2.0, 3.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        assert_eq!(
            index.empty_rect_neighbors(0),
            Some(naive_row(&points, &points[0], 0, &[1, 2]))
        );
        assert_eq!(index.empty_rect_neighbors(0), Some(vec![1]));
        assert_eq!(index.empty_rect_neighbors(2), Some(vec![1]));
    }

    #[test]
    fn knn_matches_brute_force_ranking() {
        for &(n, dim, seed) in &[
            (80usize, 2usize, 11u64),
            (60, 3, 12),
            (30, 4, 13),
            (50, 1, 14),
        ] {
            let points = uniform_points(n, dim, 1000.0, seed).into_points();
            let index = GridIndex::build(&points);
            for k in [1usize, 2, 5, 64] {
                for i in 0..n.min(12) {
                    let got = index.k_nearest_per_orthant(i, k).unwrap();
                    // Reference: group all others by orthant, sort by
                    // (distance, index), truncate to k.
                    let mut want: Vec<Vec<(f64, usize)>> = vec![Vec::new(); Orthant::count(dim)];
                    for (j, q) in points.iter().enumerate() {
                        if j == i {
                            continue;
                        }
                        let o = Orthant::classify(&points[i], i, q, j).unwrap();
                        want[o.index()].push((l1(points[i].coords(), q.coords()), j));
                    }
                    for group in &mut want {
                        group.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        group.truncate(k);
                    }
                    let want: Vec<Vec<usize>> = want
                        .into_iter()
                        .map(|g| g.into_iter().map(|(_, j)| j).collect())
                        .collect();
                    assert_eq!(got, want, "n={n} dim={dim} k={k} i={i}");
                }
            }
        }
    }

    #[test]
    fn knn_ranks_a_shared_coordinate_on_the_positive_side() {
        // A shared y ranks on the positive side: point 1 is in (+, +).
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 5.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        assert_eq!(
            index.k_nearest_per_orthant(0, 1),
            Some(vec![vec![], vec![], vec![], vec![1]])
        );
    }

    /// Both orthant queries above D = 5: at D = 6, where the grid has two
    /// cells per axis, and at `MAX_INDEX_DIM`, the deepest walk, on
    /// integer coordinates spread over 0-999, or over 0-5 where many
    /// share values. Rows equal
    /// the naive rectangle test, by id and at external positions with a
    /// point skipped or not; each orthant's `k` nearest equal the
    /// `>=`-sided ranking.
    #[test]
    fn orthant_queries_match_the_definitions_up_to_max_index_dim() {
        for &(n, dim, queries) in &[(200usize, 6usize, 6usize), (24, MAX_INDEX_DIM, 2)] {
            for (seed, scale) in [(81u64, 1000.0), (82, 6.0)] {
                let floor = |p: Point| Point::new(p.coords().iter().map(|x| x.floor()).collect());
                let points: Vec<Point> = uniform_points(n, dim, scale, seed)
                    .into_points()
                    .into_iter()
                    .map(|p| floor(p).unwrap())
                    .collect();
                let index = GridIndex::build(&points);
                let all: Vec<usize> = (0..n).collect();
                let others = |i: usize| -> Vec<usize> { (0..n).filter(|&j| j != i).collect() };
                for i in 0..queries {
                    let case = format!("dim={dim} seed={seed} i={i}");
                    let row = index.empty_rect_neighbors(i);
                    assert_eq!(
                        row,
                        Some(naive_row(&points, &points[i], i, &others(i))),
                        "{case}"
                    );
                    for k in [1usize, 3] {
                        let mut want = vec![Vec::new(); 1 << dim];
                        for j in others(i) {
                            let o = (0..dim)
                                .fold(0, |o, d| o | usize::from(points[j][d] >= points[i][d]) << d);
                            want[o].push((l1(points[i].coords(), points[j].coords()), j));
                        }
                        let want: Vec<Vec<usize>> = want
                            .into_iter()
                            .map(|mut group| {
                                group.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                                group.into_iter().take(k).map(|(_, j)| j).collect()
                            })
                            .collect();
                        assert_eq!(
                            index.k_nearest_per_orthant(i, k),
                            Some(want),
                            "{case} k={k}"
                        );
                    }
                }
                let positions = uniform_points(queries, dim, scale * 1.2, seed ^ 0x6d);
                for (s, q) in positions.into_points().into_iter().map(floor).enumerate() {
                    let q = q.unwrap();
                    assert_eq!(
                        index.empty_rect_neighbors_at(&q, None),
                        Some(naive_row(&points, &q, usize::MAX, &all)),
                        "dim={dim} seed={seed} q={q:?}"
                    );
                    assert_eq!(
                        index.empty_rect_neighbors_at(&q, Some(s)),
                        Some(naive_row(&points, &q, usize::MAX, &others(s))),
                        "dim={dim} seed={seed} q={q:?} skip={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_handles_tiny_and_empty_sets() {
        let empty: [Point; 0] = [];
        let index = GridIndex::build(&empty);
        assert!(index.is_empty());

        let one = [Point::new(vec![3.0, 4.0]).unwrap()];
        let index = GridIndex::build(&one);
        assert_eq!(index.len(), 1);
        assert_eq!(index.empty_rect_neighbors(0), Some(vec![]));
        assert_eq!(index.k_nearest_per_orthant(0, 3), Some(vec![vec![]; 4]));
    }

    #[test]
    fn grid_side_scales_with_population() {
        let small = GridIndex::build(&uniform_points(16, 2, 1000.0, 1).into_points());
        let large = GridIndex::build(&uniform_points(4096, 2, 1000.0, 1).into_points());
        assert!(large.side() > small.side());
        assert_eq!(large.dim(), 2);
    }

    #[test]
    fn clustered_degenerate_extents_still_exact() {
        // All points on a narrow band: grid degenerates in one dimension
        // but answers must stay exact.
        let points: Vec<Point> = (0..50)
            .map(|i| {
                Point::new(vec![f64::from(i) * 7.0 + 0.13, 500.0 + f64::from(i) * 1e-6]).unwrap()
            })
            .collect();
        let index = GridIndex::build(&points);
        for i in 0..points.len() {
            assert_eq!(
                index.empty_rect_neighbors(i).unwrap(),
                reindexed_brute(&points, i),
                "i={i}"
            );
        }
    }

    #[test]
    fn empty_built_index_adopts_first_point_dimensionality() {
        // Regression: build(&[]) defaults to dim 1; the first insert of a
        // higher-dimensional point must rebuild the geometry instead of
        // indexing stale 1-D bounds (this used to panic whenever the
        // first coordinate happened to land inside the default bounds).
        let mut index = GridIndex::build::<Point>(&[]);
        let id = index.insert(&Point::new(vec![0.5, 0.5]).unwrap());
        assert_eq!(id, 0);
        assert_eq!(index.dim(), 2);
        index.insert(&Point::new(vec![0.25, 0.75]).unwrap());
        assert_eq!(index.empty_rect_neighbors(0), Some(vec![1]));
    }

    #[test]
    fn incremental_inserts_match_fresh_build() {
        // Insert one point at a time starting from an empty index; after
        // every insertion the answers equal a from-scratch build's.
        let points = uniform_points(120, 2, 1000.0, 41).into_points();
        let mut index = GridIndex::build(&points[..0]);
        for (next, point) in points.iter().enumerate() {
            assert_eq!(index.insert(point), next);
            let fresh = GridIndex::build(&points[..=next]);
            for i in [0, next / 2, next] {
                assert_eq!(
                    index.empty_rect_neighbors(i),
                    fresh.empty_rect_neighbors(i),
                    "after inserting {next}, query {i}"
                );
                assert_eq!(
                    index.k_nearest_per_orthant(i, 2),
                    fresh.k_nearest_per_orthant(i, 2),
                    "after inserting {next}, query {i}"
                );
            }
        }
        assert_eq!(index.live, points.len());
    }

    #[test]
    fn removal_expires_points_from_answers() {
        let points = uniform_points(80, 2, 1000.0, 43).into_points();
        let mut index = GridIndex::build(&points);
        // Remove every third point; answers must equal the brute force
        // over the survivors (in original ids).
        let victims: Vec<usize> = (0..points.len()).step_by(3).collect();
        for &v in &victims {
            index.remove(v);
        }
        assert_eq!(index.live, points.len() - victims.len());
        let live: Vec<usize> = (0..points.len()).filter(|i| !victims.contains(i)).collect();
        for &i in live.iter().take(10) {
            let got = index.empty_rect_neighbors(i).expect("distinct workload");
            let cand_ids: Vec<usize> = live.iter().copied().filter(|&j| j != i).collect();
            let candidates: Vec<&Point> = cand_ids.iter().map(|&j| &points[j]).collect();
            let want: Vec<usize> =
                empty_rect_neighbors(&points[i], i, &candidates, |c| cand_ids[c])
                    .into_iter()
                    .map(|ci| cand_ids[ci])
                    .collect();
            assert_eq!(got, want, "query {i}");
            assert!(got.iter().all(|n| !victims.contains(n)));

            for k in [1usize, 3] {
                let got = index.k_nearest_per_orthant(i, k).unwrap();
                let mut want: Vec<Vec<(f64, usize)>> = vec![Vec::new(); Orthant::count(2)];
                for &j in &cand_ids {
                    let o = Orthant::classify(&points[i], i, &points[j], j).unwrap();
                    want[o.index()].push((l1(points[i].coords(), points[j].coords()), j));
                }
                for group in &mut want {
                    group.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    group.truncate(k);
                }
                let want: Vec<Vec<usize>> = want
                    .into_iter()
                    .map(|g| g.into_iter().map(|(_, j)| j).collect())
                    .collect();
                assert_eq!(got, want, "query {i} k={k}");
            }
        }
    }

    #[test]
    fn heavy_removal_triggers_shrink_and_stays_exact() {
        let points = uniform_points(200, 2, 1000.0, 47).into_points();
        let mut index = GridIndex::build(&points);
        let side_before = index.side();
        for v in 40..200 {
            index.remove(v);
        }
        assert!(index.side() < side_before, "grid must re-bucket smaller");
        let fresh = GridIndex::build(&points[..40]);
        for i in 0..40 {
            assert_eq!(
                index.empty_rect_neighbors(i),
                fresh.empty_rect_neighbors(i),
                "query {i}"
            );
        }
    }

    #[test]
    fn removing_a_colliding_point_restores_index_answers() {
        // Points 0 and 1 share y, so point 1 lies above point 0 there;
        // point 0's row holds both others. Once point 1 is removed it
        // holds point 2 alone.
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![90.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 8.0]).unwrap(),
        ];
        let mut index = GridIndex::build(&points);
        assert_eq!(
            index.empty_rect_neighbors(0),
            Some(naive_row(&points, &points[0], 0, &[1, 2]))
        );
        index.remove(1);
        assert_eq!(index.empty_rect_neighbors(0), Some(vec![2]));
        assert_eq!(
            index.k_nearest_per_orthant(0, 1),
            Some(vec![vec![], vec![], vec![], vec![2]])
        );
    }

    #[test]
    fn insert_outside_built_bounds_stays_exact() {
        // Clamped edge cells keep the corner bound a valid lower bound.
        let mut points = uniform_points(60, 2, 100.0, 51).into_points();
        let mut index = GridIndex::build(&points);
        let far = Point::new(vec![5000.5, -3000.25]).unwrap();
        index.insert(&far);
        points.push(far);
        for i in 0..points.len() {
            assert_eq!(
                index.empty_rect_neighbors(i).expect("distinct workload"),
                reindexed_brute(&points, i),
                "query {i}"
            );
        }
    }

    #[test]
    fn at_queries_match_brute_force_for_external_points() {
        for &(n, dim, seed) in &[(80usize, 2usize, 71u64), (50, 3, 72), (40, 1, 73)] {
            let points = uniform_points(n, dim, 1000.0, seed).into_points();
            let mut index = GridIndex::build(&points);
            for &gone in &[5usize, 9] {
                index.remove(gone);
            }
            let live: Vec<usize> = (0..n).filter(|i| ![5, 9].contains(i)).collect();
            // External query positions, some outside the built box.
            let queries = uniform_points(10, dim, 1700.0, seed ^ 0xb2).into_points();
            for q in &queries {
                let got = index
                    .empty_rect_neighbors_at(q, None)
                    .expect("distinct workload");
                let candidates: Vec<&Point> = live.iter().map(|&j| &points[j]).collect();
                let want: Vec<usize> =
                    empty_rect_neighbors(q, usize::MAX, &candidates, |c| live[c])
                        .into_iter()
                        .map(|ci| live[ci])
                        .collect();
                assert_eq!(got, want, "n={n} dim={dim} q={q:?}");
            }
        }
    }

    #[test]
    fn at_queries_with_skip_match_id_based_queries() {
        let points = uniform_points(60, 2, 1000.0, 77).into_points();
        let index = GridIndex::build(&points);
        for (i, p) in points.iter().enumerate().take(10) {
            assert_eq!(
                index.empty_rect_neighbors_at(p, Some(i)),
                index.empty_rect_neighbors(i),
                "query {i}"
            );
        }
    }

    #[test]
    fn at_queries_answer_an_external_collision_skipped_or_not() {
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 8.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        // Shares y with live point 0, which ranks below the position
        // there and is a neighbour…
        let q = Point::new(vec![7.0, 5.0]).unwrap();
        assert_eq!(
            index.empty_rect_neighbors_at(&q, None),
            Some(naive_row(&points, &q, usize::MAX, &[0, 1]))
        );
        assert_eq!(index.empty_rect_neighbors_at(&q, None), Some(vec![0, 1]));
        // …unless point 0 is the one being excluded (the query's own slot).
        assert_eq!(
            index.empty_rect_neighbors_at(&q, Some(0)),
            Some(naive_row(&points, &q, usize::MAX, &[1]))
        );
        // A clean external point answers.
        let q = Point::new(vec![7.0, 6.0]).unwrap();
        assert_eq!(index.empty_rect_neighbors_at(&q, None), Some(vec![0, 1]));
    }

    /// The cell layers of a position, per dimension.
    fn layers(index: &GridIndex, q: &[f64]) -> Vec<usize> {
        (0..index.dim()).map(|d| index.layer_of(d, q[d])).collect()
    }

    #[test]
    fn locate_answers_from_the_nearest_non_empty_ring() {
        for &(n, dim, seed) in &[(300usize, 2usize, 81u64), (200, 3, 82), (60, 1, 83)] {
            let points = uniform_points(n, dim, 1000.0, seed).into_points();
            let mut index = GridIndex::build(&points);
            for gone in (0..n).step_by(4) {
                index.remove(gone);
            }
            let queries = uniform_points(20, dim, 1400.0, seed ^ 0x10c).into_points();
            for (k, q) in queries.iter().enumerate() {
                let skip = (k % 2 == 1).then_some((k * 4 + 1) % n);
                let got = index.locate(q, skip).expect("live points remain");
                assert!(!index.removed[got] && Some(got) != skip, "query {k}");
                let centre = layers(&index, q.coords());
                let ring = |id: usize| {
                    let at = layers(&index, index.point_coords(id));
                    (0..dim).map(|d| at[d].abs_diff(centre[d])).max().unwrap()
                };
                let nearest = (0..n)
                    .filter(|&id| !index.removed[id] && Some(id) != skip)
                    .map(ring)
                    .min()
                    .unwrap();
                assert_eq!(ring(got), nearest, "n={n} dim={dim} query {k}");
            }
        }
    }

    #[test]
    fn locate_never_declines() {
        // A shared coordinate, which the orthant queries answer, and more
        // dimensions than they serve, where they decline: the locator
        // answers both.
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 8.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        let tied = Point::new(vec![7.0, 5.0]).unwrap();
        assert_eq!(
            index.empty_rect_neighbors_at(&tied, None),
            Some(naive_row(&points, &tied, usize::MAX, &[0, 1]))
        );
        assert!(index.locate(&tied, None).is_some());
        assert_eq!(index.locate(&points[0], Some(0)), Some(1));
        let wide = uniform_points(12, MAX_INDEX_DIM + 1, 1000.0, 84).into_points();
        let mut index = GridIndex::build(&wide);
        assert_eq!(index.empty_rect_neighbors(0), None);
        assert!(index.locate(&wide[0], Some(0)).is_some());
        // Nothing but the skipped point is live: nothing to hand back.
        for id in 1..wide.len() {
            index.remove(id);
        }
        assert_eq!(index.locate(&wide[0], Some(0)), None);
        assert_eq!(index.locate(&wide[3], None), Some(0));
    }

    #[test]
    fn nearest_scans_a_tie_beyond_the_far_face() {
        // A 5 × 5 grid of unit cells over the lattice `0..=5`: point 0 at
        // (2, 0) and point 1 at (1, 1) tie at distance 2 from the origin,
        // and every other point lies farther. After ring 1 the best is
        // point 1, exactly as far as the block's far faces at 2, beyond
        // which point 0 lies in ring 2: a tie there still outranks it.
        let mut points = vec![
            Point::new(vec![2.0, 0.0]).unwrap(),
            Point::new(vec![1.0, 1.0]).unwrap(),
        ];
        for x in 0..=5 {
            for y in (0..=5).filter(|&y| x + y >= 4) {
                points.push(Point::new(vec![f64::from(x), f64::from(y)]).unwrap());
            }
        }
        let index = GridIndex::build(&points);
        assert_eq!(index.side(), 5);
        assert_eq!(index.cell_size, [1.0, 1.0]);
        let origin = Point::new(vec![0.0, 0.0]).unwrap();
        assert_eq!(
            index.locate(&origin, None),
            Some(1),
            "the first ring's best"
        );
        assert_eq!(index.nearest(&origin, |id| id), Some(0));
        assert_eq!(index.nearest(&origin, |id| usize::from(id == 0)), Some(1));
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_removal_is_rejected() {
        let points = uniform_points(4, 2, 100.0, 3).into_points();
        let mut index = GridIndex::build(&points);
        index.remove(2);
        index.remove(2);
    }
}
