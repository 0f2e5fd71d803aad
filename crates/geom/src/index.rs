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
//! A third question needs no orthant and never declines:
//! [`GridIndex::locate`] hands back some live point near a position, the
//! start of the store's empty-rectangle join walk.
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
//! so cells hold `O(1)` points on uniform workloads). A query walks the
//! cells of each orthant around the reference point `p` outwards,
//! innermost dimension last, and cuts the walk with a *cell-corner
//! bound*: for a cell, the per-dimension minimum absolute offset from
//! `p` to any point inside it is known from the cell boundaries.
//!
//! * The empty-rectangle query ([`GridIndex::empty_rect_neighbors`]) is
//!   **one frontier walk** (`GridIndex::frontier_walk`) per orthant.
//!   The walk keeps a single running set: the exact Pareto frontier of
//!   every point scanned so far. A scanned point that some member
//!   strictly dominates ([`crate::dominance::rect_dominates`], as
//!   absolute offsets) is dropped; otherwise it evicts the members it
//!   dominates and joins. Domination is a strict partial order, so
//!   whatever a dropped or evicted point could have dominated, a
//!   surviving member dominates too: the running set never needs a
//!   second look, and when the walk ends it **is** the answer — there
//!   is no candidate list and no final sort-and-filter pass.
//! * At every cell the *pruning corner* is the cell corner nearest to
//!   `p`. When a frontier member is strictly closer to `p` than that
//!   corner in **every** dimension, each point of this cell and of the
//!   cells behind it in the innermost dimension is dominated, and
//!   because the corner only grows along the walk direction that column
//!   ends there (the column break). An outer dimension's corner has
//!   offset 0 in the dimensions still to be walked, which nothing is
//!   strictly closer than, so only the innermost loop is ever cut.
//! * For the `K`-nearest query, a cell column is cut as soon as the
//!   L1 norm of the corner bound exceeds (strictly) the current
//!   `K`-th best distance — a tie at equal distance is *not* cut, so
//!   the `(distance, tie-key)` order of the brute-force selection is
//!   reproduced exactly.
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
//! Per-dimension coordinate collisions with the reference point make
//! orthant membership ambiguous (the paper's standing distinctness
//! assumption is violated); queries then return `None` and callers fall
//! back to their brute-force paths, matching the fallback semantics of
//! [`crate::dominance::empty_rect_neighbors`]. Collisions are detected
//! from per-dimension coordinate multiplicity tables maintained on
//! every insert/remove — **before** any cell is walked — so a collision
//! beyond the prune horizon declines exactly like a nearby one (the
//! regression `grid_collision_regression.rs` guards this).

use std::collections::HashMap;

use crate::dominance::ParetoSet;
use crate::{l1, Point};

/// Orthant walks keep one frontier per orthant; beyond this many
/// dimensions the `2^D` tables would dwarf the point set and a linear
/// scan wins anyway, so queries decline (return `None`).
pub const MAX_INDEX_DIM: usize = 16;

/// Canonical bit pattern of a coordinate for the per-dimension
/// multiplicity tables (`-0.0` and `+0.0` collide, like `delta == 0.0`
/// does in the scan loops).
fn coord_bits(x: f64) -> u64 {
    (x + 0.0).to_bits()
}

/// Writes `q`'s absolute offsets from `p` into `offs` and reports
/// whether `q` lies in orthant `o` around `p` (a zero offset lies in
/// none).
fn offsets_in_orthant(p: &[f64], q: &[f64], o: usize, offs: &mut [f64; MAX_INDEX_DIM]) -> bool {
    for d in 0..p.len() {
        let delta = q[d] - p[d];
        if delta == 0.0 || (delta > 0.0) != (o >> d & 1 == 1) {
            return false;
        }
        offs[d] = delta.abs();
    }
    true
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
/// let fast = index.empty_rect_neighbors(3).expect("distinct coords");
/// let candidates: Vec<_> =
///     points.iter().enumerate().filter(|&(j, _)| j != 3).map(|(_, p)| p).collect();
/// let slow: Vec<usize> = empty_rect_neighbors(&points[3], &candidates)
///     .into_iter()
///     .map(|ci| if ci < 3 { ci } else { ci + 1 })
///     .collect();
/// assert_eq!(fast, slow);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    dim: usize,
    side: usize,
    lo: Vec<f64>,
    cell_size: Vec<f64>,
    /// Per-cell buckets of live point ids (removal-friendly, unlike the
    /// original CSR layout).
    cells: Vec<Vec<u32>>,
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
    /// Per-dimension multiplicity of each live coordinate value — the
    /// `O(D)` collision oracle behind the decline contract.
    // lint:allow(D001, reason = "per-dimension coordinate multiset on the hot incremental insert path; accessed by key only, never iterated")
    coord_counts: Vec<HashMap<u64, u32>>,
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

        // lint:allow(D001, reason = "per-dimension coordinate multiset on the hot incremental insert path; accessed by key only, never iterated")
        let mut coord_counts = vec![HashMap::new(); dim];
        for id in 0..n {
            for (d, counts) in coord_counts.iter_mut().enumerate() {
                *counts.entry(coord_bits(coords[id * dim + d])).or_insert(0) += 1;
            }
        }

        let mut index = GridIndex {
            dim,
            side: 1,
            lo: vec![0.0; dim],
            cell_size: vec![1.0; dim],
            cells: vec![Vec::new()],
            coords,
            removed: vec![false; n],
            live: n,
            built_live: n,
            coord_counts,
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
        let mut lo = vec![0.0f64; dim];
        let mut hi = vec![0.0f64; dim];
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
            lo[d] = if mn.is_finite() { mn } else { 0.0 };
            hi[d] = if mx.is_finite() { mx } else { 0.0 };
        }

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

        let cell_size: Vec<f64> = (0..dim)
            .map(|d| {
                let span = hi[d] - lo[d];
                if span > 0.0 {
                    span / side as f64
                } else {
                    1.0
                }
            })
            .collect();

        self.side = side;
        self.lo = lo;
        self.cell_size = cell_size;
        self.built_live = n;
        let cells = Self::cell_count(side, dim);
        self.cells = vec![Vec::new(); cells];
        for id in 0..self.removed.len() {
            if !self.removed[id] {
                let c = self.cell_of(id);
                self.cells[c].push(id as u32);
            }
        }
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
            // lint:allow(D001, reason = "per-dimension coordinate multiset on the hot incremental insert path; accessed by key only, never iterated")
            self.coord_counts = vec![HashMap::new(); self.dim];
        }
        assert_eq!(
            point.dim(),
            self.dim,
            "index requires uniform dimensionality"
        );
        let id = self.removed.len();
        self.coords.extend_from_slice(point.coords());
        self.removed.push(false);
        self.live += 1;
        for (d, counts) in self.coord_counts.iter_mut().enumerate() {
            *counts.entry(coord_bits(point[d])).or_insert(0) += 1;
        }

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
            let c = self.cell_of(id);
            self.cells[c].push(id as u32);
        }
        id
    }

    /// Removes a point: it keeps its id (no other id shifts) but stops
    /// contributing to every query, including collision detection.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already removed.
    pub fn remove(&mut self, id: usize) {
        assert!(id < self.removed.len(), "point id out of range");
        assert!(!self.removed[id], "point {id} already removed");
        self.removed[id] = true;
        self.live -= 1;
        for (d, counts) in self.coord_counts.iter_mut().enumerate() {
            let bits = coord_bits(self.coords[id * self.dim + d]);
            let slot = counts.get_mut(&bits).expect("live coordinate counted");
            *slot -= 1;
            if *slot == 0 {
                counts.remove(&bits);
            }
        }
        let c = self.cell_of(id);
        let pos = self.cells[c]
            .iter()
            .position(|&e| e as usize == id)
            .expect("live point bucketed");
        self.cells[c].swap_remove(pos);
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

    fn point_coords(&self, id: usize) -> &[f64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }

    fn layer_of(&self, d: usize, x: f64) -> usize {
        Self::layer_raw(x, self.lo[d], self.cell_size[d], self.side)
    }

    /// `true` if some *other* live point shares a coordinate with point
    /// `i` in any dimension — the exact condition under which queries
    /// must decline. `O(D)` against the multiplicity tables.
    fn collides(&self, i: usize) -> bool {
        self.collides_at(self.point_coords(i), Some(i))
    }

    /// `true` if some live point other than `skip` shares a coordinate
    /// with the external query position `q` in any dimension. The
    /// decline oracle of [`GridIndex::empty_rect_neighbors_at`], `O(D)`
    /// against the multiplicity tables.
    fn collides_at(&self, q: &[f64], skip: Option<usize>) -> bool {
        (0..self.dim).any(|d| {
            let bits = coord_bits(q[d]);
            let mut count = self.coord_counts[d].get(&bits).copied().unwrap_or(0);
            if let Some(s) = skip {
                if !self.removed[s] && coord_bits(self.coords[s * self.dim + d]) == bits {
                    count -= 1;
                }
            }
            count >= 1
        })
    }

    /// The indices of the exact empty-rectangle neighbours of point `i`
    /// among all other live indexed points, sorted ascending.
    ///
    /// Returns `None` when some other live point shares a coordinate
    /// with point `i` (per-dimension distinctness violated) or the
    /// dimensionality exceeds [`MAX_INDEX_DIM`]; callers then fall back
    /// to [`crate::dominance::empty_rect_neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or removed.
    #[must_use]
    pub fn empty_rect_neighbors(&self, i: usize) -> Option<Vec<usize>> {
        assert!(i < self.len(), "point index out of range");
        assert!(!self.removed[i], "query point {i} was removed");
        if self.dim > MAX_INDEX_DIM || self.collides(i) {
            return None;
        }
        let p = self.point_coords(i).to_vec();
        Some(self.empty_rect_walk(&p, i))
    }

    /// [`GridIndex::empty_rect_neighbors`] for an **external** query
    /// position: the exact empty-rectangle neighbours of `q` among all
    /// live indexed points except `skip`, sorted ascending — a position
    /// asks an index it is not (or not yet) a point of.
    ///
    /// Returns `None` when some live point other than `skip` shares a
    /// coordinate with `q` (orthant membership would be ambiguous) or
    /// the dimensionality exceeds [`MAX_INDEX_DIM`]; callers fall back
    /// to their brute-force paths.
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
        if self.dim > MAX_INDEX_DIM || self.collides_at(q.coords(), skip) {
            return None;
        }
        Some(self.empty_rect_walk(q.coords(), skip.unwrap_or(usize::MAX)))
    }

    /// Some live point near the position `q`, other than `skip`: of the
    /// points in `q`'s cell — or, when it holds none, in the nearest
    /// Chebyshev ring of cells around it that does — the one closest to
    /// `q` in L1 (ties to the smaller id). `None` when no other live
    /// point exists. It reads buckets only and classifies no point into
    /// an orthant, so it never declines: not on a shared coordinate, and
    /// not beyond [`MAX_INDEX_DIM`]. The start of the store's join walk,
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
        let (dim, side) = (self.dim, self.side);
        let skip = skip.unwrap_or(usize::MAX);
        let centre: Vec<usize> = (0..dim).map(|d| self.layer_of(d, q[d])).collect();
        let mut cell = vec![0usize; dim];
        for r in 0..side {
            // The cube of cells within `r` of the centre, clipped to the
            // grid; its cells at distance exactly `r` are the ring.
            let lo: Vec<usize> = centre.iter().map(|&c| c.saturating_sub(r)).collect();
            let hi: Vec<usize> = centre.iter().map(|&c| (c + r).min(side - 1)).collect();
            cell.copy_from_slice(&lo);
            let mut best: Option<(f64, usize)> = None;
            'ring: loop {
                if (0..dim).any(|d| cell[d].abs_diff(centre[d]) == r) {
                    let flat = cell.iter().fold(0usize, |flat, &c| flat * side + c);
                    for &entry in &self.cells[flat] {
                        let id = entry as usize;
                        if id == skip {
                            continue;
                        }
                        let dist: f64 = (self.point_coords(id).iter().zip(q.coords()))
                            .map(|(a, b)| (a - b).abs())
                            .sum();
                        if best.is_none_or(|near| (dist, id) < near) {
                            best = Some((dist, id));
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
            if let Some((_, id)) = best {
                return Some(id);
            }
        }
        unreachable!("every live point is bucketed within `side` rings")
    }

    /// The full query behind both empty-rectangle entry points: the
    /// frontier walk once per orthant, over live points excluding
    /// `skip` (`usize::MAX` excludes nobody). Collision gating is the
    /// caller's job.
    fn empty_rect_walk(&self, p: &[f64], skip: usize) -> Vec<usize> {
        let mut set = ParetoSet::default();
        let mut kept = Vec::new();
        for o in 0..1usize << self.dim {
            set.reset(self.dim);
            self.frontier_walk(p, o, &mut set, skip);
            kept.extend_from_slice(set.ids());
        }
        kept.sort_unstable();
        kept
    }

    /// The one empty-rectangle walk (module docs, "How pruning works"):
    /// scans the cells of orthant `orthant` around `p`, offering every
    /// live point there except `skip` to the running set. Collisions
    /// cannot occur: [`GridIndex::collides_at`] gates every caller.
    fn frontier_walk(&self, p: &[f64], orthant: usize, set: &mut ParetoSet, skip: usize) {
        let mut walk = FrontierWalk {
            index: self,
            p,
            orthant,
            set,
            skip,
            p_layer: [0; MAX_INDEX_DIM],
            cell: [0; MAX_INDEX_DIM],
            bound: [0.0; MAX_INDEX_DIM],
        };
        for (d, &x) in p.iter().enumerate() {
            walk.p_layer[d] = self.layer_of(d, x);
        }
        walk.descend(0);
    }

    /// The cell layer `t` steps from `p`'s layer along `d` (direction
    /// `positive`), paired with the minimum absolute offset from `p` to
    /// any point of that layer. `None` once the grid edge is passed.
    fn layer_step(
        &self,
        d: usize,
        p: &[f64],
        p_layer: &[usize],
        positive: bool,
        t: usize,
    ) -> Option<(usize, f64)> {
        let base = p_layer[d];
        let cell = if positive {
            let c = base + t;
            if c >= self.side {
                return None;
            }
            c
        } else {
            if t > base {
                return None;
            }
            base - t
        };
        let offmin = if t == 0 {
            0.0
        } else if positive {
            (self.lo[d] + cell as f64 * self.cell_size[d]) - p[d]
        } else {
            p[d] - (self.lo[d] + (cell + 1) as f64 * self.cell_size[d])
        };
        Some((cell, offmin.max(0.0)))
    }

    /// The `k` nearest live indexed points to point `i` within each
    /// orthant around it, under the L1 distance, each orthant sorted by
    /// `(distance, index)` ascending — exactly the per-orthant ranking
    /// of the *Orthogonal Hyperplanes* selection when point indices are
    /// the tie-break key.
    ///
    /// Returns `None` on a per-dimension coordinate collision with any
    /// other live point or when the dimensionality exceeds
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
        if self.dim > MAX_INDEX_DIM || self.collides(i) {
            return None;
        }
        let p = self.point_coords(i);
        let dim = self.dim;
        let orthants = 1usize << dim;
        let p_layer: Vec<usize> = (0..dim).map(|d| self.layer_of(d, p[d])).collect();

        let mut best: Vec<Vec<(f64, usize)>> = vec![Vec::new(); orthants];
        let mut prefix_cells = vec![0usize; dim];
        let mut prefix_offs = vec![0.0f64; dim];
        for o in 0..orthants {
            self.walk_knn(
                o,
                0,
                p,
                &p_layer,
                &mut prefix_cells,
                &mut prefix_offs,
                i,
                k,
                &mut best,
            );
        }
        Some(
            best.into_iter()
                .map(|group| group.into_iter().map(|(_, id)| id).collect())
                .collect(),
        )
    }

    /// Walks orthant `o` cells for the `k`-nearest query. The column
    /// walk along each dimension stops once the corner bound (remaining
    /// dimensions at zero offset) strictly exceeds the current `k`-th
    /// best distance. Collisions cannot occur: [`GridIndex::collides`]
    /// gates the walk.
    #[allow(clippy::too_many_arguments)]
    fn walk_knn(
        &self,
        o: usize,
        depth: usize,
        p: &[f64],
        p_layer: &[usize],
        prefix_cells: &mut [usize],
        prefix_offs: &mut [f64],
        skip: usize,
        k: usize,
        best: &mut [Vec<(f64, usize)>],
    ) {
        let d = depth;
        let positive = o >> d & 1 == 1;
        let innermost = depth + 1 == self.dim;
        for t in 0.. {
            let Some((cell, offmin)) = self.layer_step(d, p, p_layer, positive, t) else {
                break;
            };
            prefix_cells[d] = cell;
            prefix_offs[d] = offmin;
            // Lower bound on the distance of any point in this column
            // (remaining dimensions contribute nothing); monotone in `t`.
            if best[o].len() == k {
                // The offsets are non-negative: their L1 norm is their sum.
                let bound: f64 = prefix_offs[..=depth].iter().sum();
                if bound > best[o][k - 1].0 {
                    break;
                }
            }
            if innermost {
                let mut flat = 0usize;
                for &c in prefix_cells.iter() {
                    flat = flat * self.side + c;
                }
                for &entry in &self.cells[flat] {
                    let id = entry as usize;
                    if id == skip {
                        continue;
                    }
                    debug_assert!(!self.removed[id], "buckets hold live points only");
                    let q = self.point_coords(id);
                    let mut in_orthant = true;
                    for dd in 0..self.dim {
                        let delta = q[dd] - p[dd];
                        debug_assert!(delta != 0.0, "collides() must gate the walk");
                        if (delta > 0.0) != (o >> dd & 1 == 1) {
                            in_orthant = false;
                            break;
                        }
                    }
                    if !in_orthant {
                        continue;
                    }
                    let dist = l1(p, q);
                    let entry = (dist, id);
                    let group = &mut best[o];
                    if group.len() == k {
                        let worst = group[k - 1];
                        if (entry.0, entry.1) >= (worst.0, worst.1) {
                            continue;
                        }
                        group.pop();
                    }
                    let pos = group.partition_point(|&(gd, gid)| (gd, gid) < (entry.0, entry.1));
                    group.insert(pos, entry);
                }
            } else {
                self.walk_knn(
                    o,
                    depth + 1,
                    p,
                    p_layer,
                    prefix_cells,
                    prefix_offs,
                    skip,
                    k,
                    best,
                );
            }
        }
    }
}

/// The recursion state of one [`GridIndex::frontier_walk`]: everything
/// lives on the stack or in the caller's [`ParetoSet`], so a walk
/// allocates only when the frontier outgrows its buffers.
struct FrontierWalk<'a> {
    index: &'a GridIndex,
    p: &'a [f64],
    orthant: usize,
    set: &'a mut ParetoSet,
    skip: usize,
    p_layer: [usize; MAX_INDEX_DIM],
    cell: [usize; MAX_INDEX_DIM],
    /// The pruning corner: per dimension, the least absolute offset
    /// from `p` of any point in the layer the walk is in.
    bound: [f64; MAX_INDEX_DIM],
}

impl FrontierWalk<'_> {
    fn descend(&mut self, depth: usize) {
        let dim = self.index.dim;
        let d = depth;
        let positive = self.orthant >> d & 1 == 1;
        let innermost = depth + 1 == dim;
        for t in 0.. {
            let Some((cell, offmin)) =
                self.index
                    .layer_step(d, self.p, &self.p_layer[..dim], positive, t)
            else {
                break;
            };
            self.cell[d] = cell;
            self.bound[d] = offmin;
            if !innermost {
                self.descend(depth + 1);
                continue;
            }
            // Everything still reachable in this column is at or beyond
            // the corner, which only grows with `t`: once dominated,
            // done.
            if self.set.dominates(&self.bound[..dim]) {
                break;
            }
            self.scan_cell();
        }
    }

    fn scan_cell(&mut self) {
        let index = self.index;
        let dim = index.dim;
        let flat = self.cell[..dim]
            .iter()
            .fold(0usize, |flat, &c| flat * index.side + c);
        let mut offs = [0.0f64; MAX_INDEX_DIM];
        for &entry in &index.cells[flat] {
            let id = entry as usize;
            if id == self.skip {
                continue;
            }
            debug_assert!(!index.removed[id], "buckets hold live points only");
            let q = index.point_coords(id);
            if offsets_in_orthant(self.p, q, self.orthant, &mut offs) {
                self.set.offer(&offs[..dim], id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::empty_rect_neighbors;
    use crate::gen::uniform_points;
    use crate::Orthant;

    fn reindexed_brute(points: &[Point], i: usize) -> Vec<usize> {
        let candidates: Vec<&Point> = points
            .iter()
            .enumerate()
            .filter_map(|(j, p)| (j != i).then_some(p))
            .collect();
        empty_rect_neighbors(&points[i], &candidates)
            .into_iter()
            .map(|ci| if ci < i { ci } else { ci + 1 })
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
    fn empty_rect_detects_collisions_and_declines() {
        let points = vec![
            Point::new(vec![0.0, 0.0]).unwrap(),
            Point::new(vec![1.0, 0.0]).unwrap(), // shares y with point 0
            Point::new(vec![2.0, 3.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        assert_eq!(index.empty_rect_neighbors(0), None);
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
                        let o = Orthant::classify(&points[i], q).unwrap();
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
    fn knn_declines_on_collision() {
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 5.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        assert_eq!(index.k_nearest_per_orthant(0, 1), None);
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
            let want: Vec<usize> = empty_rect_neighbors(&points[i], &candidates)
                .into_iter()
                .map(|ci| cand_ids[ci])
                .collect();
            assert_eq!(got, want, "query {i}");
            assert!(got.iter().all(|n| !victims.contains(n)));

            for k in [1usize, 3] {
                let got = index.k_nearest_per_orthant(i, k).unwrap();
                let mut want: Vec<Vec<(f64, usize)>> = vec![Vec::new(); Orthant::count(2)];
                for &j in &cand_ids {
                    let o = Orthant::classify(&points[i], &points[j]).unwrap();
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
        // Points 0 and 1 share y: both decline. Removing point 1 makes
        // point 0's queries answer again.
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![90.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 8.0]).unwrap(),
        ];
        let mut index = GridIndex::build(&points);
        assert_eq!(index.empty_rect_neighbors(0), None);
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
                let want: Vec<usize> = empty_rect_neighbors(q, &candidates)
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
    fn at_queries_decline_on_external_collision_unless_skipped() {
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 8.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        // Shares y with live point 0: ambiguous, decline…
        let q = Point::new(vec![7.0, 5.0]).unwrap();
        assert_eq!(index.empty_rect_neighbors_at(&q, None), None);
        // …unless point 0 is the one being excluded (the query's own slot).
        assert_eq!(index.empty_rect_neighbors_at(&q, Some(0)), Some(vec![1]));
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
        // A shared coordinate, and more dimensions than the orthant
        // queries serve: both queries decline, the locator answers.
        let points = vec![
            Point::new(vec![0.0, 5.0]).unwrap(),
            Point::new(vec![3.0, 8.0]).unwrap(),
        ];
        let index = GridIndex::build(&points);
        let tied = Point::new(vec![7.0, 5.0]).unwrap();
        assert_eq!(index.empty_rect_neighbors_at(&tied, None), None);
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
    #[should_panic(expected = "already removed")]
    fn double_removal_is_rejected() {
        let points = uniform_points(4, 2, 100.0, 3).into_points();
        let mut index = GridIndex::build(&points);
        index.remove(2);
        index.remove(2);
    }
}
