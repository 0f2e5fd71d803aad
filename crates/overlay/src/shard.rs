//! The tiled engine every [`crate::TopologyStore`] computes on.
//!
//! [`ShardedTopologyStore`] partitions the coordinate space into
//! grid-aligned tiles and gives every tile its own incremental
//! [`GridIndex`] and membership tables. The store keeps the global
//! tables every consumer reads (adjacency, fingerprint, delta stream)
//! and is the shards' one owner: its [`crate::TopologyStore::insert`]
//! and [`crate::TopologyStore::remove`] are the only way a membership
//! event reaches them.
//!
//! **One tile** is the default and needs no seed population: with a
//! single tile every point's home is tile 0 and no tile is near any
//! other, whatever the coordinates, so the tiling carries no bounding
//! box and the tile's index adopts its dimensionality from the first
//! insert. **Several tiles** ([`crate::TopologyStore::from_peers_sharded`])
//! add what the rest of this page describes — a tiling of the seed
//! population's bounding box (a later join outside it clamps to the
//! nearest tile and grows that tile's cover box), halo mirrors, and
//! exact cross-shard folds — and buy a shard-parallel index build and
//! per-tile locality. Beyond [`MAX_INDEX_DIM`] dimensions the indexes
//! decline every query and each shard answers by brute selection over
//! its members, which is always a sound shortlist.
//!
//! # Halo exchange
//!
//! Each shard mirrors into its index every peer within `halo` (L∞) of
//! its tile — the **halo band**. The band width is a pure performance
//! knob: the guarantee it buys is that every live peer inside
//! `expand(tile_s, halo)` is present in shard `s`'s index, so a peer's
//! **home query** already sees everything near its own tile.
//!
//! # Why the cross-shard fold is exact
//!
//! A peer's selection over the full live population is recovered from
//! per-shard *shortlists* by one final merge-select:
//!
//! 1. **Shortlists keep every winner.** Both shipped rule families are
//!    monotone under candidate restriction: a globally selected
//!    neighbour restricted to any candidate subset containing it is
//!    still selected (an empty rectangle stays empty over a subset; a
//!    per-region top-`K` member stays top-`K` when candidates are
//!    removed). So `shortlist(s) ⊇ winners ∩ members(s)`, and every
//!    live peer is resident in exactly one shard.
//! 2. **Skip tests are sound.** A foreign shard is only skipped when
//!    its *uncovered box* — its conservative bounding box minus the
//!    home halo band — provably contains no winner: for the
//!    empty-rectangle rule, a single home candidate lying strictly
//!    between the peer and the entire box blocks every point in it
//!    (rectangle nesting); for per-orthant top-`K`, the box must fall
//!    in a single saturated orthant strictly beyond the current `K`-th
//!    distance. Any geometry the tests cannot decide — including
//!    coordinate collisions, which make a dimension's sign indefinite —
//!    falls through to querying the shard.
//! 3. **The final merge is a selection over a superset of winners**,
//!    and selections are stable between their own output and the full
//!    candidate set (same monotonicity both ways), so the merged result
//!    equals the definition's selection — byte for byte, tie-breaks
//!    included, because shard-local ids are assigned in ascending
//!    global order. With one tile the home shortlist *is* the result.
//!
//! # Churn
//!
//! Which rows a join or leave changes, and the closed forms that decide
//! how (the join's dominance update, the leave's pair kernel, the
//! saturation prune), are argued in `crate::store`, "Why the incremental
//! path is exact". This module supplies the pieces that depend on the
//! tiles. A join registers the newcomer — home tile, halo mirrors, index
//! inserts — and a leave tombstones it. Under the Hyperplanes profiles
//! the newcomer's own row and every re-selection are folds over the
//! shards. Under the empty-rectangle profile nothing is folded: the
//! newcomer's row is walked over the store's rows from a start that
//! `ShardedTopologyStore::locate` takes from the home tile's grid, so
//! a join asks no shard for a shortlist at any `K`, and neither does a
//! leave. The walk and the closed forms read no tile at all and live in
//! `crate::closed_form`; debug builds still re-derive every row they
//! edit through the fold.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use geocast_geom::index::MAX_INDEX_DIM;
use geocast_geom::{Metric, MetricKind, Point};

use crate::par;
use crate::peer::PeerInfo;
use crate::select::{NeighborSelection, ShardProfile};

use geocast_geom::GridIndex;

/// How a [`ShardedTopologyStore`] is laid out: shard count and halo
/// band width.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    shards: usize,
    halo_width: Option<f64>,
}

impl ShardConfig {
    /// A configuration with `shards` tiles and an automatic halo width
    /// (a few expected nearest-neighbour spacings, derived from the
    /// bulk population).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ShardConfig {
            shards,
            halo_width: None,
        }
    }

    /// Overrides the halo band width (absolute coordinate units).
    /// Width only affects how many shards a query can prune, never
    /// what is selected.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is finite and non-negative.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP item 4 decides halos; until then the tests' only handle on the band-edge class of PR 8")
    pub fn with_halo_width(mut self, width: f64) -> Self {
        assert!(
            width.is_finite() && width >= 0.0,
            "halo width must be finite and non-negative"
        );
        self.halo_width = Some(width);
        self
    }

    /// The configured shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// The grid tiling of the coordinate domain: per-dimension tile counts
/// whose product is the shard count, over the bulk population's
/// bounding box. Peers outside the domain (late joins) clamp to the
/// nearest tile; exactness never depends on where a peer is assigned.
/// Without a population there is no box and the tiling has zero
/// dimensions: one tile, home to every point and near no other.
#[derive(Debug, Clone)]
struct Tiling {
    dim: usize,
    lo: Vec<f64>,
    tile_size: Vec<f64>,
    tiles: Vec<usize>,
    strides: Vec<usize>,
}

impl Tiling {
    fn build(peers: &[PeerInfo], shards: usize) -> Tiling {
        let dim = peers.first().map_or(0, |p| p.point().dim());
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for p in peers {
            for (d, &x) in p.point().coords().iter().enumerate() {
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        let extents: Vec<f64> = (0..dim).map(|d| (hi[d] - lo[d]).max(0.0)).collect();
        let tiles = factor_tiles(shards, &extents);
        let tile_size: Vec<f64> = (0..dim).map(|d| extents[d] / tiles[d] as f64).collect();
        let mut strides = vec![1usize; dim];
        for d in 1..dim {
            strides[d] = strides[d - 1] * tiles[d - 1];
        }
        Tiling {
            dim,
            lo,
            tile_size,
            tiles,
            strides,
        }
    }

    /// The home shard of a point (clamped to the nearest tile).
    fn shard_of(&self, coords: &[f64]) -> usize {
        let mut idx = 0;
        for (d, &x) in coords.iter().enumerate().take(self.dim) {
            let t = if self.tile_size[d] > 0.0 {
                // Negative and NaN quotients saturate to tile 0.
                (((x - self.lo[d]) / self.tile_size[d]).floor() as usize).min(self.tiles[d] - 1)
            } else {
                0
            };
            idx += t * self.strides[d];
        }
        idx
    }

    /// The geometric box of tile `s` (per-dim closed intervals).
    fn tile_box(&self, s: usize) -> (Vec<f64>, Vec<f64>) {
        let mut lo = Vec::with_capacity(self.dim);
        let mut hi = Vec::with_capacity(self.dim);
        for d in 0..self.dim {
            let t = (s / self.strides[d]) % self.tiles[d];
            lo.push(self.lo[d] + t as f64 * self.tile_size[d]);
            hi.push(self.lo[d] + (t + 1) as f64 * self.tile_size[d]);
        }
        (lo, hi)
    }

    /// Every shard whose halo-expanded tile contains the point — the
    /// home tile plus the mirror targets. Tiles within `halo` form a
    /// contiguous per-dimension index range, so this is a small
    /// cartesian product, never a scan over all shards.
    fn shards_near(&self, coords: &[f64], halo: f64) -> Vec<usize> {
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(self.dim);
        for (d, &c) in coords.iter().enumerate().take(self.dim) {
            let (a, b) = if self.tile_size[d] > 0.0 {
                let ts = self.tile_size[d];
                let x = c - self.lo[d];
                // Saturating casts clamp negative quotients to tile 0.
                let mut a = (((x - halo) / ts).floor() as usize).min(self.tiles[d] - 1);
                let mut b = (((x + halo) / ts).floor() as usize).min(self.tiles[d] - 1);
                // The band is CLOSED on both edges — `uncovered_box`
                // skips a shard on `cover_hi <= g_hi` — but the floor
                // divisions above land one tile short of an exact
                // band-edge tie (e.g. a peer at exactly tile_hi +
                // halo). Re-check the adjacent tiles with the same
                // tile-box arithmetic the skip test uses, so the two
                // boundary semantics always agree.
                while a > 0 && c <= self.lo[d] + a as f64 * ts + halo {
                    a -= 1;
                }
                while b + 1 < self.tiles[d] && c >= self.lo[d] + (b + 1) as f64 * ts - halo {
                    b += 1;
                }
                (a, b)
            } else {
                (0, 0)
            };
            ranges.push((a, b));
        }
        let mut out = vec![0usize];
        for (d, &(a, b)) in ranges.iter().enumerate() {
            let mut next = Vec::with_capacity(out.len() * (b - a + 1));
            for base in &out {
                for t in a..=b {
                    next.push(base + t * self.strides[d]);
                }
            }
            out = next;
        }
        out
    }
}

/// Splits `shards` into per-dimension tile counts: prime factors are
/// assigned, largest first, to the dimension with the widest current
/// tile, so tiles stay as square as the factorization allows.
fn factor_tiles(shards: usize, extents: &[f64]) -> Vec<usize> {
    let dim = extents.len();
    let mut tiles = vec![1usize; dim];
    let mut factors = Vec::new();
    let mut n = shards;
    let mut f = 2usize;
    while f * f <= n {
        while n.is_multiple_of(f) {
            factors.push(f);
            n /= f;
        }
        f += 1;
    }
    if n > 1 {
        factors.push(n);
    }
    factors.reverse(); // largest first
    for f in factors {
        let mut best = 0usize;
        for d in 1..dim {
            let wd = extents[d] / tiles[d] as f64;
            let wb = extents[best] / tiles[best] as f64;
            if wd > wb {
                best = d;
            }
        }
        tiles[best] *= f;
    }
    tiles
}

/// One tile's worth of state: geometric box, conservative resident
/// bounding box (grow-only), membership tables, and spatial index.
#[derive(Debug)]
struct Shard {
    tile_lo: Vec<f64>,
    tile_hi: Vec<f64>,
    /// Grow-only bounding box of every resident ever assigned, unioned
    /// with the tile box — the conservative "where this shard's
    /// residents can be" region the skip tests subtract from.
    cover_lo: Vec<f64>,
    cover_hi: Vec<f64>,
    /// Local id → global id, ascending (insertion order is global id
    /// order, which keeps shard-local distance tie-breaks identical to
    /// global ones).
    members: Vec<usize>,
    /// Global id → local id for every member (residents and mirrors).
    // lint:allow(D001, reason = "global-id -> local-slot lookup on the shortlist hot path; queried by key only, never iterated, so hash order cannot reach replay state")
    local_of: HashMap<usize, usize>,
    /// Global ids of residents ever assigned, ascending (departures
    /// stay listed; the index tombstones them).
    resident_ids: Vec<usize>,
    index: GridIndex,
}

impl Shard {
    /// Enters `global` in the membership tables under the next local id
    /// (the caller keeps the index in step).
    fn register(&mut self, global: usize, point: &Point, resident: bool) {
        self.local_of.insert(global, self.members.len());
        self.members.push(global);
        if resident {
            self.resident_ids.push(global);
            // A lone tile grown from empty has no boxes (zero
            // dimensions) and the zip is a no-op: only a foreign
            // shard's cover box is ever read.
            let cover = self.cover_lo.iter_mut().zip(&mut self.cover_hi);
            for ((lo, hi), &x) in cover.zip(point.coords()) {
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
    }

    fn add_member(&mut self, global: usize, point: &Point, resident: bool) {
        let local = self.index.insert(point);
        debug_assert_eq!(local, self.members.len(), "index ids track member ids");
        self.register(global, point, resident);
    }

    /// This shard's shortlist for peer `i`: a candidate set guaranteed
    /// to contain every globally selected neighbour among the shard's
    /// members. Index-answered per profile; any decline (coordinate
    /// collisions, unprofiled rules) falls back to a per-shard brute
    /// selection, which is always a sound shortlist.
    fn shortlist(
        &self,
        profile: ShardProfile,
        selection: &dyn NeighborSelection,
        peers: &[PeerInfo],
        departed: &[bool],
        i: usize,
    ) -> Vec<usize> {
        if self.index.live_len() == 0 {
            return Vec::new();
        }
        let query = &peers[i];
        let local_skip = self.local_of.get(&i).copied();
        match profile {
            ShardProfile::EmptyRect => {
                let got = match local_skip {
                    Some(li) => self.index.empty_rect_neighbors(li),
                    None => self.index.empty_rect_neighbors_at(query.point(), None),
                };
                if let Some(locals) = got {
                    return locals.into_iter().map(|l| self.members[l]).collect();
                }
            }
            ShardProfile::OrthantTopK { k, metric } => {
                let got = match local_skip {
                    Some(li) => self.index.k_nearest_per_orthant(li, k, metric),
                    None => self
                        .index
                        .k_nearest_per_orthant_at(query.point(), k, metric, None),
                };
                if let Some(groups) = got {
                    return groups
                        .into_iter()
                        .flatten()
                        .map(|l| self.members[l])
                        .collect();
                }
            }
            ShardProfile::Generic => {}
        }
        let cands: Vec<usize> = self
            .members
            .iter()
            .copied()
            .filter(|&g| g != i && !departed[g])
            .collect();
        let refs: Vec<&PeerInfo> = cands.iter().map(|&g| &peers[g]).collect();
        selection
            .select(query, &refs)
            .into_iter()
            .map(|ci| cands[ci])
            .collect()
    }
}

/// Sizes and per-phase wall times of a sharded bulk build. Per-shard
/// vectors are indexed by shard id; on a single-core host the
/// per-shard times still measure each shard's isolated work. The
/// end-to-end benchmark reports them as `overlay.shard.build_*`.
#[derive(Debug, Clone, Default)]
pub struct ShardBuildStats {
    /// Domain scan + membership/halo assignment (sequential prologue).
    pub assign: Duration,
    /// Per-shard index construction time.
    pub shard_index: Vec<Duration>,
    /// Per-shard selection (fold) time, summed over the shard's
    /// residents (the folds themselves fan out over peers).
    pub shard_select: Vec<Duration>,
    /// Reverse lists, hashes and fingerprint (sequential epilogue).
    pub finalize: Duration,
    /// Residents per shard.
    pub residents: Vec<usize>,
    /// Halo mirrors per shard.
    pub mirrors: Vec<usize>,
}

/// The engine every [`crate::TopologyStore`] computes on: the tiling,
/// the halo width, and one [`GridIndex`]-backed shard per tile. See the
/// module docs for the exactness argument.
#[derive(Debug)]
pub struct ShardedTopologyStore {
    tiling: Tiling,
    halo: f64,
    profile: ShardProfile,
    shards: Vec<Shard>,
    /// Global peer id → home shard.
    home: Vec<u32>,
    stats: ShardBuildStats,
    /// Buffers the churn paths reuse from event to event, and the
    /// counters they feed.
    scratch: FoldScratch,
}

/// Reusable buffers of the fold paths, so that a churn event allocates
/// the rows it returns and little else — and the ledger of what those
/// paths asked of foreign shards. The bulk build folds through
/// throw-away scratches, so the engine's own counts churn only.
#[derive(Debug, Default)]
struct FoldScratch {
    boxes: BoxScratch,
    churn: ShardChurnStats,
}

/// What the churn paths of a [`ShardedTopologyStore`] asked of foreign
/// shards since the bulk build: plain event counts, always on, read
/// through [`ShardedTopologyStore::churn_stats`]. Only the Hyperplanes
/// profiles fold during churn; under the empty-rectangle rule every
/// count stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardChurnStats {
    /// Selection folds run (a join's own row and a leave's selector
    /// rows, outside the empty-rectangle rule).
    pub folds: u64,
    /// Folds that asked at least one foreign shard for a shortlist.
    pub folds_escaped: u64,
    /// Shortlists folds asked of foreign shards.
    pub foreign_shortlists: u64,
    /// Foreign shards a fold ruled out by certificate
    /// (`skip_certified`) after the halo band had not covered them.
    pub skips_certified: u64,
}

impl ShardChurnStats {
    /// Share of folds that left their home shard (0 before any fold).
    #[must_use]
    pub fn escape_ratio(&self) -> f64 {
        if self.folds == 0 {
            0.0
        } else {
            self.folds_escaped as f64 / self.folds as f64
        }
    }
}

/// The home halo band of one fold and the uncovered box of the foreign
/// shard under test, as caller-owned buffers: the skip tests run once
/// per foreign shard per fold and must not allocate.
#[derive(Debug, Default)]
struct BoxScratch {
    band_lo: Vec<f64>,
    band_hi: Vec<f64>,
    /// The uncovered box after a `true` from [`BoxScratch::uncovered`].
    ulo: Vec<f64>,
    uhi: Vec<f64>,
}

impl BoxScratch {
    /// Fixes the home shard of the fold: its tile grown by the halo
    /// width is the band whose residents the home index mirrors.
    fn set_home(&mut self, tile_lo: &[f64], tile_hi: &[f64], halo: f64) {
        self.band_lo.clear();
        self.band_lo.extend(tile_lo.iter().map(|x| x - halo));
        self.band_hi.clear();
        self.band_hi.extend(tile_hi.iter().map(|x| x + halo));
    }

    /// The conservative resident box of a foreign shard minus the home
    /// halo band, written to `ulo`/`uhi`. `false` means the shard is
    /// entirely inside the band — every one of its residents is
    /// mirrored into the home shard.
    fn uncovered(&mut self, cover_lo: &[f64], cover_hi: &[f64]) -> bool {
        let (g_lo, g_hi) = (&self.band_lo, &self.band_hi);
        let mut outside =
            (0..cover_lo.len()).filter(|&d| !(g_lo[d] <= cover_lo[d] && cover_hi[d] <= g_hi[d]));
        let Some(d) = outside.next() else {
            return false;
        };
        let single = outside.next().is_none();
        self.ulo.clear();
        self.ulo.extend_from_slice(cover_lo);
        self.uhi.clear();
        self.uhi.extend_from_slice(cover_hi);
        // With exactly one uncovered dimension the band removes a
        // full-width slab, so that dimension can be clipped; with more,
        // the difference is not a box and the full cover stays.
        if single {
            if g_lo[d] <= self.ulo[d] && g_hi[d] < self.uhi[d] {
                self.ulo[d] = g_hi[d];
            } else if self.ulo[d] < g_lo[d] && self.uhi[d] <= g_hi[d] {
                self.uhi[d] = g_lo[d];
            }
        }
        true
    }
}

impl ShardedTopologyStore {
    /// Bulk-builds the engine and every peer's selection: membership +
    /// halo assignment, shard-parallel index builds, then peer-parallel
    /// selection folds. Returns the engine and the per-peer out-lists
    /// (indexed by global id).
    pub(crate) fn build(
        peers: &[PeerInfo],
        selection: &(dyn NeighborSelection + Send + Sync),
        config: &ShardConfig,
    ) -> (Self, Vec<Vec<usize>>) {
        // lint:allow(D002, reason = "feeds ShardBuildStats phase timings only; no control flow reads the clock")
        let t0 = Instant::now();
        let tiling = Tiling::build(peers, config.shards);
        let halo = config
            .halo_width
            .unwrap_or_else(|| auto_halo(&tiling, peers.len()));
        let k = config.shards;
        let mut home: Vec<u32> = Vec::with_capacity(peers.len());
        // Per-shard membership, ascending global order: (global, resident).
        let mut assignment: Vec<Vec<(usize, bool)>> = vec![Vec::new(); k];
        for (g, p) in peers.iter().enumerate() {
            let coords = p.point().coords();
            let h = tiling.shard_of(coords);
            home.push(h as u32);
            assignment[h].push((g, true));
            for s in tiling.shards_near(coords, halo) {
                if s != h {
                    assignment[s].push((g, false));
                }
            }
        }
        let assign = t0.elapsed();

        let built: Vec<(Shard, Duration)> = par::map_shards(k, |s| {
            // lint:allow(D002, reason = "feeds ShardBuildStats phase timings only; no control flow reads the clock")
            let t = Instant::now();
            let member_refs: Vec<&PeerInfo> =
                assignment[s].iter().map(|&(g, _)| &peers[g]).collect();
            let index = GridIndex::build(&member_refs);
            let (tile_lo, tile_hi) = tiling.tile_box(s);
            let mut shard = Shard {
                cover_lo: tile_lo.clone(),
                cover_hi: tile_hi.clone(),
                tile_lo,
                tile_hi,
                members: Vec::with_capacity(assignment[s].len()),
                // lint:allow(D001, reason = "global-id -> local-slot lookup on the shortlist hot path; queried by key only, never iterated, so hash order cannot reach replay state")
                local_of: HashMap::with_capacity(assignment[s].len()),
                resident_ids: Vec::new(),
                index,
            };
            for &(g, resident) in &assignment[s] {
                shard.register(g, peers[g].point(), resident);
            }
            (shard, t.elapsed())
        });
        let mut shards = Vec::with_capacity(k);
        let mut shard_index = Vec::with_capacity(k);
        for (shard, dur) in built {
            shards.push(shard);
            shard_index.push(dur);
        }

        let mut engine = ShardedTopologyStore {
            tiling,
            halo,
            profile: selection.shard_profile(),
            shards,
            home,
            stats: ShardBuildStats::default(),
            scratch: FoldScratch::default(),
        };
        let departed = vec![false; peers.len()];
        // The select phase fans out over peers, not shards, so a single
        // tile is built on every core too — shard by shard, so that
        // consecutive folds walk the same indexes; each fold is booked
        // to its peer's home shard.
        let order: Vec<usize> = engine
            .shards
            .iter()
            .flat_map(|shard| shard.resident_ids.iter().copied())
            .collect();
        let folded: Vec<(Vec<usize>, Duration)> = par::map_indexed(order.len(), |x| {
            // lint:allow(D002, reason = "feeds ShardBuildStats phase timings only; no control flow reads the clock")
            let t = Instant::now();
            let mut scratch = FoldScratch::default();
            let row = engine.fold_select(peers, &departed, selection, order[x], &mut scratch);
            (row, t.elapsed())
        });
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); peers.len()];
        let mut shard_select = vec![Duration::ZERO; k];
        for (&g, (row, dur)) in order.iter().zip(folded) {
            shard_select[engine.home[g] as usize] += dur;
            out[g] = row;
        }
        engine.stats = ShardBuildStats {
            assign,
            shard_index,
            shard_select,
            finalize: Duration::ZERO,
            residents: engine.shards.iter().map(|s| s.resident_ids.len()).collect(),
            mirrors: engine
                .shards
                .iter()
                .map(|s| s.members.len() - s.resident_ids.len())
                .collect(),
        };
        (engine, out)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The halo band width in coordinate units.
    #[must_use]
    pub fn halo_width(&self) -> f64 {
        self.halo
    }

    /// Per-dimension tile counts (product = shard count).
    #[must_use]
    pub fn tiles_per_dim(&self) -> &[usize] {
        &self.tiling.tiles
    }

    /// Sizes and phase timings of the bulk build.
    #[must_use]
    pub fn build_stats(&self) -> &ShardBuildStats {
        &self.stats
    }

    /// What churn has asked of foreign shards since the bulk build.
    #[must_use]
    // lint:allow(D006, reason = "ROADMAP item 1(a) rebinds e2e-probes' overlay.shard.escape_ratio to it; the tests hold the Hyperplanes folds and the empty-rectangle rule's zero through it")
    pub fn churn_stats(&self) -> ShardChurnStats {
        self.scratch.churn
    }

    /// How the store's rule lets churn be localised.
    pub(crate) fn profile(&self) -> ShardProfile {
        self.profile
    }

    pub(crate) fn note_finalize(&mut self, elapsed: Duration) {
        self.stats.finalize = elapsed;
    }

    /// Peer `i`'s exact selection over the full live population,
    /// assembled from per-shard shortlists (see module docs).
    fn fold_select(
        &self,
        peers: &[PeerInfo],
        departed: &[bool],
        selection: &dyn NeighborSelection,
        i: usize,
        scratch: &mut FoldScratch,
    ) -> Vec<usize> {
        let home = self.home[i] as usize;
        let FoldScratch { boxes, churn } = scratch;
        // The home shortlist doubles as the skip tests' base: the pool
        // grows behind it.
        let mut pool = self.shards[home].shortlist(self.profile, selection, peers, departed, i);
        let base_len = pool.len();
        let mut asked = 0u64;
        // What the top-K skip test certifies against — when there is a
        // foreign shard to skip, and while its per-orthant bit tables
        // reach: they stop at `MAX_INDEX_DIM` like the index's.
        let certifiable = self.shards.len() > 1 && peers[i].point().dim() <= MAX_INDEX_DIM;
        let knn = match self.profile {
            ShardProfile::OrthantTopK { k, metric } if certifiable => {
                Some(orthant_stats(peers, i, &pool, k, metric))
            }
            _ => None,
        };
        boxes.set_home(
            &self.shards[home].tile_lo,
            &self.shards[home].tile_hi,
            self.halo,
        );
        for (s, shard) in self.shards.iter().enumerate() {
            if s == home || shard.index.live_len() == 0 {
                continue;
            }
            // Entirely inside the home halo band: the home shortlist
            // already considered every resident.
            if !boxes.uncovered(&shard.cover_lo, &shard.cover_hi) {
                continue;
            }
            let base = &pool[..base_len];
            if skip_certified(
                self.profile,
                peers,
                i,
                base,
                knn.as_ref(),
                &boxes.ulo,
                &boxes.uhi,
            ) {
                churn.skips_certified += 1;
                continue;
            }
            asked += 1;
            pool.extend(shard.shortlist(self.profile, selection, peers, departed, i));
        }
        churn.folds += 1;
        churn.folds_escaped += u64::from(asked > 0);
        churn.foreign_shortlists += asked;
        let escaped = pool.len() > base_len;
        pool.sort_unstable();
        pool.dedup();
        pool.retain(|&j| j != i && !departed[j]);
        if !escaped {
            // The home shortlist is a selection's own output, and
            // selections are stable on their own output (module docs,
            // step 3): the merge-select would hand it back unchanged.
            return pool;
        }
        let refs: Vec<&PeerInfo> = pool.iter().map(|&j| &peers[j]).collect();
        selection
            .select(&peers[i], &refs)
            .into_iter()
            .map(|ci| pool[ci])
            .collect()
    }

    /// The engine's half of a join: registers peer `id`, the newest of
    /// `peers` — home assignment, resident bookkeeping, halo mirrors
    /// into every shard whose band contains it. Its row is the store's
    /// to find: a fold ([`ShardedTopologyStore::reselect`]) under the
    /// Hyperplanes profiles, a walk over rows from
    /// [`ShardedTopologyStore::locate`] under the empty-rectangle one.
    pub(crate) fn register(&mut self, peers: &[PeerInfo], id: usize) {
        let point = peers[id].point();
        let coords = point.coords();
        let h = self.tiling.shard_of(coords);
        self.home.push(h as u32);
        debug_assert_eq!(self.home.len(), id + 1, "peers register in id order");
        self.shards[h].add_member(id, point, true);
        for s in self.tiling.shards_near(coords, self.halo) {
            if s != h {
                self.shards[s].add_member(id, point, false);
            }
        }
    }

    /// A live peer other than the registered peer `id` to start its join
    /// walk from: one near it in its home tile's grid
    /// ([`GridIndex::locate`], which never declines), or — when the home
    /// tile holds no other live peer — one from the first other tile
    /// that does. `None` when `id` is the only live peer. No shortlist
    /// is asked for and nothing enters the churn ledger.
    pub(crate) fn locate(&self, peers: &[PeerInfo], id: usize) -> Option<usize> {
        let h = self.home[id] as usize;
        let point = peers[id].point();
        let others = self.shards.iter().enumerate().filter(|&(s, _)| s != h);
        std::iter::once(&self.shards[h])
            .chain(others.map(|(_, shard)| shard))
            .find_map(|shard| {
                let skip = shard.local_of.get(&id).copied();
                let local = shard.index.locate(point, skip)?;
                Some(shard.members[local])
            })
    }

    /// The engine's half of a leave: tombstones peer `v` in its home
    /// index and in every mirror — the shards the same
    /// [`Tiling::shards_near`] call placed it in when it arrived.
    pub(crate) fn leave(&mut self, peers: &[PeerInfo], v: usize) {
        let h = self.home[v] as usize;
        let near = self
            .tiling
            .shards_near(peers[v].point().coords(), self.halo);
        for s in std::iter::once(h).chain(near.into_iter().filter(|&s| s != h)) {
            let shard = &mut self.shards[s];
            shard.index.remove(shard.local_of[&v]);
        }
    }

    /// Peer `i`'s exact row over the live population, re-selected
    /// through the fold and booked in the churn ledger: a newcomer's
    /// own row and what a leave costs each selector, under every
    /// profile but the empty-rectangle one, whose join walks the
    /// store's rows and whose leave is decided by `unblocked_pairs`;
    /// neither asks a shard for a shortlist.
    pub(crate) fn reselect(
        &mut self,
        peers: &[PeerInfo],
        departed: &[bool],
        selection: &dyn NeighborSelection,
        i: usize,
    ) -> Vec<usize> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let row = self.fold_select(peers, departed, selection, i, &mut scratch);
        self.scratch = scratch;
        row
    }

    /// [`ShardedTopologyStore::reselect`] on a throw-away
    /// scratch, as the bulk build folds: the re-derivation debug builds
    /// hold every row an empty-rectangle join or leave edited against,
    /// the newcomer's own included, off the churn ledger.
    pub(crate) fn row_from_scratch(
        &self,
        peers: &[PeerInfo],
        departed: &[bool],
        selection: &dyn NeighborSelection,
        i: usize,
    ) -> Vec<usize> {
        self.fold_select(peers, departed, selection, i, &mut FoldScratch::default())
    }
}

/// `true` when no point of the box `[ulo, uhi]` can enter peer `i`'s
/// selection, certified from the home shortlist alone.
fn skip_certified(
    profile: ShardProfile,
    peers: &[PeerInfo],
    i: usize,
    base: &[usize],
    knn: Option<&BTreeMap<u32, (usize, f64)>>,
    ulo: &[f64],
    uhi: &[f64],
) -> bool {
    let pc = peers[i].point().coords();
    match profile {
        // One candidate strictly between `i` and the entire box (in
        // every dimension) sits inside the open rectangle spanned
        // by `i` and any box point, so nothing there survives the
        // emptiness test. Frontier reduction preserves blockers:
        // a candidate dominated out of the shortlist is dominated
        // by a strictly-closer one that blocks at least as much.
        ShardProfile::EmptyRect => base.iter().any(|&c| {
            let cc = peers[c].point().coords();
            (0..pc.len()).all(|d| {
                (ulo[d] > pc[d] && pc[d] < cc[d] && cc[d] < ulo[d])
                    || (uhi[d] < pc[d] && uhi[d] < cc[d] && cc[d] < pc[d])
            })
        }),
        // The box must fall in one definite orthant (any dimension
        // straddling `i` — including a potential coordinate
        // collision — makes region membership ambiguous and vetoes
        // the skip), that orthant must already hold K candidates,
        // and the box's closest point must be strictly beyond the
        // K-th distance: a later tie loses to incumbents because
        // the candidate id is larger.
        ShardProfile::OrthantTopK { k, metric } => {
            let Some(stats) = knn else { return false };
            let mut bits = 0u32;
            for d in 0..pc.len() {
                if ulo[d] > pc[d] {
                    bits |= 1 << d;
                } else if uhi[d] < pc[d] {
                    // negative side: bit stays 0
                } else {
                    return false;
                }
            }
            let Some(&(count, kth)) = stats.get(&bits) else {
                return false;
            };
            if count < k {
                return false;
            }
            // Distance to the box's closest point, as a gap vector.
            let mut gaps = [0.0f64; MAX_INDEX_DIM];
            for d in 0..pc.len() {
                gaps[d] = pc[d] - pc[d].clamp(ulo[d], uhi[d]);
            }
            metric.norm(&gaps[..pc.len()]) > kth
        }
        ShardProfile::Generic => false,
    }
}

/// The default halo band: three expected nearest-neighbour spacings of
/// a uniform population over the domain (geometric-mean extent over
/// non-degenerate dimensions, divided by `n^(1/D)`). Thin enough that
/// mirrors stay a few percent of membership, wide enough that most
/// selections finish inside the home shard.
fn auto_halo(tiling: &Tiling, n: usize) -> f64 {
    let mut log_sum = 0.0;
    let mut live_dims = 0usize;
    for d in 0..tiling.dim {
        let extent = tiling.tile_size[d] * tiling.tiles[d] as f64;
        if extent > 0.0 {
            log_sum += extent.ln();
            live_dims += 1;
        }
    }
    if live_dims == 0 || n == 0 {
        return 0.0;
    }
    let mean_extent = (log_sum / live_dims as f64).exp();
    let spacing = mean_extent / (n as f64).powf(1.0 / live_dims as f64);
    if spacing.is_finite() {
        3.0 * spacing
    } else {
        0.0
    }
}

/// Per-orthant `(count, K-th distance)` of a candidate shortlist
/// around peer `i`. Candidates sharing a coordinate with `i` belong to
/// on-hyperplane regions, not orthants, and are excluded — the skip
/// test independently refuses any box that could reach such a region.
fn orthant_stats(
    peers: &[PeerInfo],
    i: usize,
    base: &[usize],
    k: usize,
    metric: MetricKind,
) -> BTreeMap<u32, (usize, f64)> {
    let pc = peers[i].point().coords();
    let mut dists: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    'cand: for &c in base {
        let cc = peers[c].point().coords();
        let mut bits = 0u32;
        for d in 0..pc.len() {
            if cc[d] > pc[d] {
                bits |= 1 << d;
            } else if cc[d] == pc[d] {
                continue 'cand;
            }
        }
        dists
            .entry(bits)
            .or_default()
            .push(metric.dist(peers[i].point(), peers[c].point()));
    }
    dists
        .into_iter()
        .map(|(bits, mut v)| {
            v.sort_unstable_by(f64::total_cmp);
            let count = v.len();
            let kth = if count >= k { v[k - 1] } else { f64::INFINITY };
            (bits, (count, kth))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::delta::{DeltaKind, TopologyDelta};
    use crate::graph::OverlayGraph;
    use crate::oracle;
    use crate::peer::PeerId;
    use crate::select::{EmptyRectSelection, HyperplanesSelection};
    use crate::store::TopologyStore;
    use geocast_geom::gen::uniform_points;

    fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
        PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
    }

    fn selections() -> Vec<Arc<dyn NeighborSelection + Send + Sync>> {
        vec![
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(2, 2, MetricKind::L1)),
            Arc::new(HyperplanesSelection::signed(2, 1, MetricKind::L2)),
            Arc::new(HyperplanesSelection::k_closest(2, 4, MetricKind::L2)),
        ]
    }

    /// The store holds what the definition says it must — adjacency and
    /// fingerprint from scratch, no index. Returns the reference graph.
    fn assert_is_definition(store: &TopologyStore, what: &str) -> OverlayGraph {
        let want =
            oracle::equilibrium_live(store.peers(), store.departed(), store.selection().as_ref());
        assert_eq!(store.graph(), want, "{what}: adjacency");
        assert_eq!(
            store.fingerprint(),
            oracle::fingerprint(&want),
            "{what}: fingerprint"
        );
        want
    }

    #[test]
    fn sharded_bulk_build_matches_single_store() {
        for selection in selections() {
            for shards in [1usize, 3, 4, 16] {
                let sharded = TopologyStore::from_peers_sharded(
                    peers(90, 2, 5),
                    selection.clone(),
                    &ShardConfig::new(shards),
                );
                let what = format!("{} @ {shards} shards", selection.name());
                assert_is_definition(&sharded, &what);
                assert_eq!(sharded.epoch(), 0, "{what}");
            }
        }
    }

    #[test]
    fn sharded_churn_matches_single_store() {
        for selection in selections() {
            let mut sharded = TopologyStore::from_peers_sharded(
                peers(60, 2, 9),
                selection.clone(),
                &ShardConfig::new(4),
            );
            let mut before = assert_is_definition(&sharded, "bulk build");
            let mut epoch = 0;
            let mut check = |sharded: &TopologyStore, kind: DeltaKind, what: &str| {
                let after = assert_is_definition(sharded, what);
                epoch += 1;
                let delta = TopologyDelta {
                    epoch,
                    kind,
                    dirty: oracle::dirty_region(&before, &after, kind.peer()),
                };
                assert_eq!(sharded.delta_log().newest(), Some(&delta), "{what}");
                before = after;
            };
            let joins = uniform_points(25, 2, 1000.0, 10).into_points();
            for (step, p) in joins.iter().enumerate() {
                let what = format!("{} step {step}", selection.name());
                let id = sharded.insert(p.clone());
                check(&sharded, DeltaKind::Join(id.index()), &what);
                if step % 3 == 1 {
                    let gone = PeerId((step * 7 % 60) as u64);
                    if !sharded.is_departed(gone) {
                        sharded.remove(gone);
                        check(&sharded, DeltaKind::Leave(gone.index()), &what);
                    }
                }
            }
        }
    }

    #[test]
    fn colliding_coordinates_stay_exact_under_sharding() {
        // Shared coordinates force the per-shard index queries to
        // decline and veto every skip test along the collision axes.
        let pts = [
            Point::new(vec![0.0, 0.0]).unwrap(),
            Point::new(vec![500.0, 0.0]).unwrap(),
            Point::new(vec![200.0, 300.0]).unwrap(),
            Point::new(vec![500.0, 700.0]).unwrap(),
            Point::new(vec![900.0, 400.0]).unwrap(),
            Point::new(vec![900.0, 900.0]).unwrap(),
        ];
        let infos: Vec<PeerInfo> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| PeerInfo::new(PeerId(i as u64), p.clone()))
            .collect();
        for selection in selections() {
            let mut sharded = TopologyStore::from_peers_sharded(
                infos.clone(),
                selection.clone(),
                &ShardConfig::new(4),
            );
            assert_is_definition(&sharded, &selection.name());
            sharded.insert(Point::new(vec![200.0, 900.0]).unwrap());
            sharded.remove(PeerId(1));
            assert_is_definition(&sharded, &selection.name());
        }
    }

    #[test]
    fn identical_points_degenerate_to_one_tile_exactly() {
        let p = Point::new(vec![5.0, 5.0]).unwrap();
        let infos: Vec<PeerInfo> = (0..5)
            .map(|i| PeerInfo::new(PeerId(i as u64), p.clone()))
            .collect();
        let selection: Arc<dyn NeighborSelection + Send + Sync> = Arc::new(EmptyRectSelection);
        let sharded = TopologyStore::from_peers_sharded(infos, selection, &ShardConfig::new(4));
        assert_is_definition(&sharded, "identical points");
    }

    #[test]
    fn halo_mirror_invariant_holds_through_churn() {
        let mut store = TopologyStore::from_peers_sharded(
            peers(80, 2, 21),
            Arc::new(EmptyRectSelection),
            &ShardConfig::new(9).with_halo_width(60.0),
        );
        let joins = uniform_points(20, 2, 1000.0, 22).into_points();
        for (step, p) in joins.iter().enumerate() {
            store.insert(p.clone());
            if step % 4 == 2 {
                store.remove(PeerId((step * 11 % 80) as u64));
            }
        }
        let engine = store.sharding();
        for s in 0..engine.shard_count() {
            let shard = &engine.shards[s];
            for (g, info) in store.peers().iter().enumerate() {
                if store.is_departed(PeerId(g as u64)) {
                    continue;
                }
                let inside = info
                    .point()
                    .coords()
                    .iter()
                    .zip(shard.tile_lo.iter().zip(&shard.tile_hi))
                    .all(|(&x, (&lo, &hi))| x >= lo - 60.0 && x <= hi + 60.0);
                if inside {
                    assert!(
                        shard.local_of.contains_key(&g),
                        "live peer {g} inside shard {s}'s halo band must be a member"
                    );
                }
            }
        }
    }

    #[test]
    fn band_edge_peers_mirror_into_the_closed_halo_band() {
        // Regression: the halo band is closed — `uncovered_box` skips a
        // foreign shard once its resident cover fits `cover_hi <= g_hi`
        // — so a peer lying *exactly* on a tile's band edge must be
        // mirrored into that tile, or the skip hides it from the fold.
        // Integer coordinates with the halo a multiple of the tile
        // width make the tie exact: in a 2x1 tiling of [0,1000]^2 with
        // halo 500, peer (1000,1000) sits at tile 0's band edge
        // tile_hi + halo = 500 + 500.
        let pts = [
            Point::new(vec![0.0, 0.0]).unwrap(),
            Point::new(vec![200.0, 300.0]).unwrap(),
            Point::new(vec![1000.0, 1000.0]).unwrap(),
        ];
        let infos: Vec<PeerInfo> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| PeerInfo::new(PeerId(i as u64), p.clone()))
            .collect();
        let config = ShardConfig::new(2).with_halo_width(500.0);
        for selection in selections() {
            let sharded =
                TopologyStore::from_peers_sharded(infos.clone(), selection.clone(), &config);
            assert_is_definition(&sharded, &selection.name());
        }
        // A band-edge join takes the same mirror path incrementally.
        let mut sharded =
            TopologyStore::from_peers_sharded(infos, Arc::new(EmptyRectSelection), &config);
        sharded.insert(Point::new(vec![1000.0, 500.0]).unwrap());
        assert_is_definition(&sharded, "band-edge join");
    }

    #[test]
    fn shards_near_is_closed_on_both_band_edges() {
        let infos: Vec<PeerInfo> = [
            Point::new(vec![0.0, 0.0]).unwrap(),
            Point::new(vec![1000.0, 1000.0]).unwrap(),
        ]
        .iter()
        .enumerate()
        .map(|(i, p)| PeerInfo::new(PeerId(i as u64), p.clone()))
        .collect();
        let tiling = Tiling::build(&infos, 2);
        assert_eq!(tiling.tiles, vec![2, 1], "2x1 tiling of [0,1000]^2");
        // High edge: 1000 == tile 0's hi (500) + halo (500), a closed tie.
        let mut near = tiling.shards_near(&[1000.0, 1000.0], 500.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
        // Low edge: 0 == tile 1's lo (500) - halo (500), a closed tie.
        let mut near = tiling.shards_near(&[0.0, 0.0], 500.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
        // Strictly inside one band stays one shard.
        assert_eq!(tiling.shards_near(&[200.0, 300.0], 250.0), vec![0]);
        // Zero halo on the shared tile boundary: the boundary point
        // belongs to both closed tiles.
        let mut near = tiling.shards_near(&[500.0, 0.0], 0.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
    }

    #[test]
    fn build_stats_expose_phase_timings_and_population() {
        let store = TopologyStore::from_peers_sharded(
            peers(100, 2, 51),
            Arc::new(EmptyRectSelection),
            &ShardConfig::new(4),
        );
        let engine = store.sharding();
        let stats = engine.build_stats();
        assert_eq!(stats.shard_index.len(), 4);
        assert_eq!(stats.shard_select.len(), 4);
        assert_eq!(stats.residents.iter().sum::<usize>(), 100);
        let tables =
            |count: fn(&Shard) -> usize| engine.shards.iter().map(count).collect::<Vec<_>>();
        assert_eq!(stats.residents, tables(|s| s.resident_ids.len()));
        assert_eq!(
            stats.mirrors,
            tables(|s| s.members.len() - s.resident_ids.len())
        );
        assert!(engine.halo_width() > 0.0);
        assert_eq!(engine.tiles_per_dim(), &[2, 2]);
        assert_eq!(engine.shard_count(), 4);
        let mirrors: usize = stats.mirrors.iter().sum();
        assert!(mirrors > 0, "a 2x2 tiling of 100 peers mirrors someone");
    }

    #[test]
    fn a_departed_id_retains_no_reverse_list_on_any_engine() {
        // A Leave takes the departed peer's lists: the peer is never
        // selected again, so the capacity goes too — on one tile and on
        // several. Under the empty-rectangle rule links are mutual and
        // `out` is the one table, so the peer's selectors are its row;
        // a directed Hyperplanes rule keeps a reverse table, and that
        // list goes as well.
        for shards in [1usize, 4] {
            let rules: [Arc<dyn NeighborSelection + Send + Sync>; 2] = [
                Arc::new(EmptyRectSelection),
                Arc::new(HyperplanesSelection::orthogonal(2, 1, MetricKind::L1)),
            ];
            for (mutual, rule) in [true, false].into_iter().zip(rules) {
                let mut store = TopologyStore::from_peers_sharded(
                    peers(60, 2, 7),
                    rule,
                    &ShardConfig::new(shards),
                );
                let what = format!("{shards} shards, {}", store.selection().name());
                assert_eq!(store.rev.is_empty(), mutual, "{what}: one table or two");
                for v in [3usize, 17, 41] {
                    let selectors = if mutual { &store.out } else { &store.rev };
                    assert!(
                        selectors[v].capacity() > 0,
                        "{what}: peer {v} is selected by someone"
                    );
                    store.remove(PeerId(v as u64));
                    assert_eq!(store.out[v].capacity(), 0, "{what}: out[{v}]");
                    if !mutual {
                        assert_eq!(store.rev[v].capacity(), 0, "{what}: rev[{v}]");
                    }
                }
                assert_is_definition(&store, &format!("{what}, after the leaves"));
            }
        }
    }

    #[test]
    fn churn_stats_count_what_joins_and_leaves_ask_of_foreign_shards() {
        let joins = uniform_points(120, 2, 1000.0, 72).into_points();
        let churned = |rule: Arc<dyn NeighborSelection + Send + Sync>, shards: usize| {
            let mut store = TopologyStore::from_peers_sharded(
                peers(2000, 2, 71),
                rule,
                &ShardConfig::new(shards),
            );
            let built = store.sharding().churn_stats();
            assert_eq!(
                built,
                ShardChurnStats::default(),
                "the bulk build is not churn"
            );
            for p in &joins {
                store.insert(p.clone());
            }
            let after_joins = store.sharding().churn_stats();
            for v in 0..120u64 {
                store.remove(PeerId(v * 13));
            }
            (after_joins, store.sharding().churn_stats())
        };
        let top_k = || Arc::new(HyperplanesSelection::orthogonal(2, 2, MetricKind::L1));

        // The ledger, on a rule that folds: a join folds its own row, a
        // leave one row per selector of the departed peer. One shard:
        // there is no foreign shard to ask.
        let (joined, all) = churned(top_k(), 1);
        assert_eq!(joined.folds, 120, "one fold per join");
        assert_eq!((joined.folds_escaped, joined.foreign_shortlists), (0, 0));
        assert_eq!(joined.skips_certified, 0);
        assert_eq!(joined.escape_ratio(), 0.0);
        assert!(all.folds > joined.folds, "a leave re-selects its selectors");
        assert_eq!((all.folds_escaped, all.foreign_shortlists), (0, 0));

        // Sixteen shards: a fold asks every foreign shard it cannot
        // certify away.
        let (joined, all) = churned(top_k(), 16);
        assert_eq!(joined.folds, 120);
        assert!(joined.folds_escaped > 0 && joined.skips_certified > 0);
        assert!(joined.foreign_shortlists >= joined.folds_escaped);
        assert!(all.folds > joined.folds);

        // The empty-rectangle rule folds nothing at any K: a join walks
        // the store's rows from a start its home tile locates, and a
        // leave links the departed peer's neighbours from its row.
        for shards in [1, 16] {
            let (joined, all) = churned(Arc::new(EmptyRectSelection), shards);
            assert_eq!(joined, ShardChurnStats::default(), "{shards} shards");
            assert_eq!(all, joined, "{shards} shards");
        }
    }

    #[test]
    fn uncovered_box_clips_only_a_single_uncovered_dimension() {
        let mut boxes = BoxScratch::default();
        // Home tile [0,100]², halo 10: the band is [-10,110]².
        boxes.set_home(&[0.0, 0.0], &[100.0, 100.0], 10.0);
        // Entirely inside the band (closed on both edges): mirrored.
        assert!(!boxes.uncovered(&[-10.0, 5.0], &[110.0, 90.0]));
        // Sticking out along x only: the covered slab is clipped off.
        assert!(boxes.uncovered(&[50.0, 0.0], &[300.0, 100.0]));
        assert_eq!(
            (&boxes.ulo[..], &boxes.uhi[..]),
            (&[110.0, 0.0][..], &[300.0, 100.0][..])
        );
        assert!(boxes.uncovered(&[-200.0, 20.0], &[40.0, 80.0]));
        assert_eq!(
            (&boxes.ulo[..], &boxes.uhi[..]),
            (&[-200.0, 20.0][..], &[-10.0, 80.0][..])
        );
        // Sticking out along both: the difference is no box, keep all.
        assert!(boxes.uncovered(&[50.0, 50.0], &[300.0, 300.0]));
        assert_eq!(
            (&boxes.ulo[..], &boxes.uhi[..]),
            (&[50.0, 50.0][..], &[300.0, 300.0][..])
        );
        // Straddling the band along x: nothing to clip either.
        assert!(boxes.uncovered(&[-50.0, 0.0], &[150.0, 100.0]));
        assert_eq!(
            (&boxes.ulo[..], &boxes.uhi[..]),
            (&[-50.0, 0.0][..], &[150.0, 100.0][..])
        );
    }

    #[test]
    fn factorization_splits_along_wide_dimensions() {
        assert_eq!(factor_tiles(16, &[1000.0, 1000.0]), vec![4, 4]);
        assert_eq!(factor_tiles(8, &[1000.0, 10.0]), vec![8, 1]);
        assert_eq!(factor_tiles(6, &[1000.0, 900.0]), vec![3, 2]);
        assert_eq!(factor_tiles(1, &[1000.0, 1000.0]), vec![1, 1]);
        assert_eq!(factor_tiles(7, &[100.0, 100.0, 100.0]), vec![7, 1, 1]);
    }
}
