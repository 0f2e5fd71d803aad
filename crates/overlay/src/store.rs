//! The shared topology substrate behind the live overlay and every
//! multicast consumer.
//!
//! [`TopologyStore`] owns the peer population, the current equilibrium
//! adjacency (sorted rows; a reverse table too for the directed
//! Hyperplanes rules — empty-rectangle links are mutual, so there one
//! table holds both directions), per-peer topology
//! fingerprints, and the epoch-numbered [`DeltaLog`] of every membership
//! change's dirty region. It computes on **one engine**, the tiled
//! [`crate::shard::ShardedTopologyStore`]: one tile by default
//! ([`TopologyStore::new`], [`TopologyStore::from_peers`]), a grid of
//! tiles with halo mirrors through
//! [`TopologyStore::from_peers_sharded`]. A join or leave touches only
//! the peers whose rows the membership change can affect, and each of
//! those rows is updated at the cost of what changes in it.
//!
//! # Why the incremental path is exact
//!
//! Both shipped selection families are *monotone-local*:
//!
//! * **Join of `q`.** A rule only changes peer `i`'s selection if `q`
//!   itself enters it — a new candidate can displace but never
//!   *unblock*. For the empty-rectangle rule, the rectangle spanned by
//!   `i` and any candidate `j` is non-empty iff it contains one of `i`'s
//!   *selected* neighbours (the finite-descent argument of
//!   `geocast_geom::dominance`), so re-running the rule on
//!   `selection(i) ∪ {q}` yields exactly the selection over the full
//!   candidate set plus `q`. For Hyperplanes rules the old selection
//!   already holds every region's top-`K`, so the reduced re-run again
//!   equals the full one. Who has to re-run follows from rule structure:
//!   everyone, for an unprofiled rule; for per-orthant top-`K`, the peers
//!   whose region around `q` is unsaturated or whose `K`-th member is
//!   farther than `q` (`O(degree)` arithmetic per peer, no selection
//!   call); for the empty-rectangle rule, exactly `q`'s own selection
//!   (links are mutual), and there the re-run has a closed form, **the
//!   dominance update**. `q` enters — `q` selected `i`, and the spanned
//!   rectangle is the same from both ends. The old neighbours are
//!   pairwise non-blocking, so the only candidate that can newly sit
//!   inside a rectangle is `q` itself:
//!   new row = `{r ∈ selection(i) : q ∉ rect(i, r)} ∪ {q}`, where
//!   `q ∈ rect(i, r)` is the strict-interior test
//!   ([`geocast_geom::dominance::rect_dominates`]) — the rule's
//!   definition, coordinate collisions included (a point sharing a
//!   coordinate with `i` is inside no open rectangle and has an empty
//!   one of its own), so the update needs no fallback. Every evicted
//!   `r` is in `q`'s row too (below), and `q` sits strictly inside
//!   `rect(i, r)` iff `i` and `r` lie in complementary orthants around
//!   `q` with no tie: the store codes each member of `q`'s row by its
//!   orthant once per event and cuts the linked complementary pairs
//!   (`crate::closed_form`'s `straddled_links`), with no rectangle
//!   test at all.
//! * **Leave of `x`.** A departure only changes the selection of peers
//!   that had `x` selected: for empty-rectangle, if `x` was the *only*
//!   point in some spanned rectangle of `i`, then `x`'s own rectangle
//!   with `i` was empty — i.e. `x` ∈ selection(`i`); for Hyperplanes,
//!   dropping a non-selected candidate leaves every top-`K` intact.
//!   The reverse-adjacency table hands the affected set directly (under
//!   the empty-rectangle rule that is `x`'s own row).
//!   Hyperplanes selectors re-select through the tombstoned indexes.
//!   Under the empty-rectangle rule nobody re-selects and no
//!   selector's row is read: the departure is repaired by the departed
//!   peer's neighbours among themselves, as edge edits computed from
//!   `row(x)` alone (`crate::closed_form`'s `unblocked_pairs`). Every
//!   member of `row(x)` loses `x` (links are mutual), no other link
//!   goes (nobody arrived), and the link `i – w` appears iff the open
//!   `rect(i, w)` held `x` and holds no live point now. Three steps
//!   make that a question about `row(x)`. *Only pairs of `row(x)` can
//!   link:* if `x` lay strictly inside `rect(i, w)`, then every point
//!   of `rect(x, w)` lies in `rect(i, w)` and is not `x`; with
//!   `rect(i, w)` otherwise empty, so was `rect(x, w)`, and `w` was a
//!   neighbour of `x` — and so was `i`, by the same step from the
//!   other corner. *Blockers inside `row(x)` suffice:* if `rect(i, w)`
//!   holds a live `y ≠ x`, then `rect(x, y) ⊂ rect(i, w)`, since both
//!   its corners are inside; either it is empty and `y` itself is a
//!   neighbour of `x`, or it holds a point with a strictly smaller
//!   rectangle of its own, and that finite descent ends on a neighbour
//!   of `x` inside `rect(i, w)`. *Ties:* a `y` sharing a coordinate
//!   with `x` spans no open rectangle with it and is its neighbour by
//!   the rule's own definition, so the descent starts there too; an `x`
//!   sharing a coordinate with `i` sat strictly inside no rectangle of
//!   `i`'s, and `i` just loses it. So the new links are the pairs of
//!   `row(x)` whose open rectangle holds `x` and no other member of
//!   `row(x)`. The pairs that hold `x` are those in complementary
//!   orthants around it, read off one orthant code per member; a
//!   blocker of such a pair `(i, w)` is never in `i`'s or `w`'s own
//!   orthant, since it would sit strictly inside `rect(x, i)` or
//!   `rect(x, w)`, which are empty, and only the other members (tied
//!   ones always) take the strict-interior test — the rule's definition
//!   at every step: any dimensionality and any tiling take the same
//!   path, with no index, no shard and no fallback. The rows that
//!   change are exactly `row(x) ∪ {x}`, which is the delta. The join's
//!   evictions are pairs inside the newcomer's row the same way: an
//!   evicted `r` had `rect(i, r)` empty before `q` came to sit in it,
//!   so `rect(q, r)`, a part of it, is empty, and `r ∈ row(q)`. Debug
//!   builds re-select every row a join or a leave edited through the
//!   fold and compare.
//!
//! # The oracle
//!
//! The definition stays executable, as a reference and not as a way to
//! run: [`crate::oracle::equilibrium_live`] selects every live peer's
//! row from scratch with no index, and
//! [`crate::oracle::fingerprint`] / [`crate::oracle::dirty_region`]
//! derive the other two things a consumer can see from such graphs.
//! Property tests (`tests/prop_store.rs`, `geocast-core`'s
//! `tests/prop_shard.rs`) assert the store equals it after every event
//! of random join/leave interleavings — every rule family, 1 to 24
//! tiles, remove-heavy traces and joins outside the seed box included;
//! `geocast churn --strict` and the referee of
//! `geocast_core::detect::run_detection` compare against it too.

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast_geom::Point;

use crate::closed_form::{straddled_links, topk_join_recheck, unblocked_pairs, CoordTable};
use crate::delta::{DeltaKind, DeltaLog, TopologyDelta};
use crate::graph::OverlayGraph;
use crate::par;
use crate::peer::{PeerId, PeerInfo};
use crate::select::{ids_in_slice_order, NeighborSelection, ShardProfile};
use crate::shard::{ShardConfig, ShardedTopologyStore};

/// FNV-1a fingerprint of one peer's out-neighbour list. Mixing the peer
/// index in keeps the XOR-of-all-peers network fingerprint collision
/// resistant against permuted-but-equal lists.
#[must_use]
pub fn topology_hash(i: usize, neighbors: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(i as u64 ^ 0x9e37_79b9_7f4a_7c15);
    mix(neighbors.len() as u64);
    for &j in neighbors {
        mix(j as u64 + 1);
    }
    h
}

/// The shared, incrementally-maintained overlay topology: peer
/// population, equilibrium adjacency, fingerprints and dirty-region
/// tracking, behind the live network and every multicast consumer.
///
/// Peer ids are dense insertion indices ([`PeerId`]`(i)` for the `i`-th
/// inserted peer); departed peers keep their vertex but contribute no
/// edges, exactly like [`crate::OverlayNetwork::topology`] reports.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use geocast_geom::gen::uniform_points;
/// use geocast_overlay::{oracle, select::EmptyRectSelection, TopologyStore};
///
/// let points = uniform_points(40, 2, 1000.0, 3).into_points();
/// let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
/// for p in &points {
///     store.insert(p.clone());
/// }
/// // The incremental equilibrium equals the from-scratch oracle.
/// let peers = geocast_overlay::PeerInfo::from_point_set(
///     &uniform_points(40, 2, 1000.0, 3));
/// assert_eq!(store.graph(), oracle::equilibrium(&peers, &EmptyRectSelection));
/// ```
pub struct TopologyStore {
    peers: Vec<PeerInfo>,
    /// `peers`' coordinates again, flat: what the closed forms read.
    coords: CoordTable,
    departed: Vec<bool>,
    live: usize,
    pub(crate) out: Vec<Vec<usize>>,
    /// Who selects each peer. Empty under the empty-rectangle rule,
    /// whose links are mutual: there `out` holds both directions.
    pub(crate) rev: Vec<Vec<usize>>,
    peer_hash: Vec<u64>,
    fingerprint: u64,
    epoch: u64,
    log: DeltaLog,
    /// Mutual links the empty-rectangle leaves made and its joins cut.
    links_made: u64,
    links_cut: u64,
    selection: Arc<dyn NeighborSelection + Send + Sync>,
    /// The tiles and their spatial indexes: what computes every row.
    engine: ShardedTopologyStore,
}

impl TopologyStore {
    /// Creates an empty store for the given selection rule, on one tile
    /// — which needs no bounding box, so the population's dimensionality
    /// is adopted from the first insert.
    #[must_use]
    pub fn new(selection: Arc<dyn NeighborSelection + Send + Sync>) -> Self {
        Self::from_peers(Vec::new(), selection)
    }

    /// Builds a store over an existing dense-id population in one bulk
    /// pass on one tile, ready for incremental churn.
    ///
    /// # Panics
    ///
    /// As [`TopologyStore::from_peers_sharded`].
    #[must_use]
    pub fn from_peers(
        peers: Vec<PeerInfo>,
        selection: Arc<dyn NeighborSelection + Send + Sync>,
    ) -> Self {
        Self::from_peers_sharded(peers, selection, &ShardConfig::new(1))
    }

    /// Builds a store over an existing dense-id population with the
    /// coordinate domain tiled into `config.shards()` shards
    /// ([`crate::shard`]), each with its own incremental spatial index;
    /// the bulk build runs in parallel and subsequent churn folds over
    /// the shards. Topology, fingerprint and delta stream do not depend
    /// on the tiling: they are the definition's
    /// ([`crate::oracle::equilibrium_live`]; property-tested in
    /// `tests/prop_shard.rs`).
    ///
    /// # Panics
    ///
    /// Panics unless `peers[i].id().index() == i` for every `i` (the
    /// store owns the id space) and all peers share one dimensionality,
    /// or if `peers` is empty with more than one shard — tiling needs a
    /// seed population's bounding box.
    #[must_use]
    pub fn from_peers_sharded(
        peers: Vec<PeerInfo>,
        selection: Arc<dyn NeighborSelection + Send + Sync>,
        config: &ShardConfig,
    ) -> Self {
        assert!(
            ids_in_slice_order(&peers),
            "TopologyStore requires dense insertion-order peer ids"
        );
        assert!(
            config.shards() == 1 || !peers.is_empty(),
            "tiling into several shards needs a seed population"
        );
        assert!(
            peers
                .windows(2)
                .all(|w| w[0].point().dim() == w[1].point().dim()),
            "population dimensionality is fixed per overlay"
        );
        let (mut engine, out) = ShardedTopologyStore::build(&peers, selection.as_ref(), config);
        // lint:allow(D002, reason = "feeds ShardBuildStats.finalize telemetry only; no control flow reads the clock")
        let t = std::time::Instant::now();
        let n = peers.len();
        let mut rev = Vec::new();
        if engine.profile() != ShardProfile::EmptyRect {
            rev.resize(n, Vec::new());
            for (i, nbrs) in out.iter().enumerate() {
                for &j in nbrs {
                    rev[j].push(i);
                }
            }
            // Fill order is ascending in `i`, so rev lists are born sorted.
        }
        let peer_hash: Vec<u64> = out
            .iter()
            .enumerate()
            .map(|(i, nbrs)| topology_hash(i, nbrs))
            .collect();
        let fingerprint = peer_hash.iter().fold(0, |acc, h| acc ^ h);
        engine.note_finalize(t.elapsed());
        TopologyStore {
            coords: CoordTable::from_peers(&peers),
            departed: vec![false; n],
            live: n,
            out,
            rev,
            peer_hash,
            fingerprint,
            epoch: 0,
            log: DeltaLog::default(),
            links_made: 0,
            links_cut: 0,
            peers,
            selection,
            engine,
        }
    }

    /// The tiled engine: shard geometry, bulk-build timings and the
    /// cross-shard ledger of churn.
    #[must_use]
    pub fn sharding(&self) -> &ShardedTopologyStore {
        &self.engine
    }

    /// Links that leaves have made between the departed peers' former
    /// neighbours since construction: a plain event count, always on.
    /// Links are counted where they are edited as mutual pairs, under
    /// the empty-rectangle rule; the re-selecting rules count nothing.
    #[must_use]
    pub fn links_made_by_leaves(&self) -> u64 {
        self.links_made
    }

    /// Links that joins have cut between the newcomers' neighbours
    /// since construction, counted like
    /// [`TopologyStore::links_made_by_leaves`].
    #[must_use]
    pub fn links_cut_by_joins(&self) -> u64 {
        self.links_cut
    }

    /// Number of peers ever inserted (departed ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` if no peer was ever inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Number of live (non-departed) peers.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// All peer descriptions, indexable by [`PeerId::index`].
    #[must_use]
    pub fn peers(&self) -> &[PeerInfo] {
        &self.peers
    }

    /// `true` if the peer has departed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_departed(&self, id: PeerId) -> bool {
        self.departed[id.index()]
    }

    /// The departed mask, indexable by [`PeerId::index`].
    #[must_use]
    pub fn departed(&self) -> &[bool] {
        &self.departed
    }

    /// The selection rule the store maintains the equilibrium of.
    #[must_use]
    pub fn selection(&self) -> &Arc<dyn NeighborSelection + Send + Sync> {
        &self.selection
    }

    /// The equilibrium out-neighbours of peer `i` (sorted; empty for
    /// departed peers).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn out_neighbors(&self, i: usize) -> &[usize] {
        &self.out[i]
    }

    /// The peers currently selecting `i` (sorted; empties out when `i`
    /// departs). Under the empty-rectangle rule links are mutual and
    /// this is `i`'s own row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    // lint:allow(D006, reason = "how store's tests see the reverse table the re-selecting rules keep, which repair and the group engine read through undirected_neighbors_into; under the empty-rectangle rule it is out itself")
    pub fn rev_neighbors(&self, i: usize) -> &[usize] {
        if self.mutual() {
            &self.out[i]
        } else {
            &self.rev[i]
        }
    }

    /// `true` under the empty-rectangle rule, whose links are mutual:
    /// `out` is the store's one adjacency table and `rev` stays empty.
    fn mutual(&self) -> bool {
        self.engine.profile() == ShardProfile::EmptyRect
    }

    /// Merges `i`'s out- and reverse-neighbours into `buf` (sorted,
    /// deduplicated) — the undirected closure row, without materializing
    /// a graph; under the empty-rectangle rule a copy of `i`'s row.
    /// `buf` is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn undirected_neighbors_into(&self, i: usize, buf: &mut Vec<usize>) {
        buf.clear();
        if self.mutual() {
            buf.extend_from_slice(&self.out[i]);
            return;
        }
        let (a, b) = (&self.out[i], &self.rev[i]);
        let (mut x, mut y) = (0usize, 0usize);
        while x < a.len() || y < b.len() {
            let next = match (a.get(x), b.get(y)) {
                (Some(&u), Some(&v)) if u == v => {
                    x += 1;
                    y += 1;
                    u
                }
                (Some(&u), Some(&v)) if u < v => {
                    x += 1;
                    u
                }
                (Some(_), Some(&v)) => {
                    y += 1;
                    v
                }
                (Some(&u), None) => {
                    x += 1;
                    u
                }
                (None, Some(&v)) => {
                    y += 1;
                    v
                }
                (None, None) => unreachable!("loop condition"),
            };
            buf.push(next);
        }
    }

    /// The current equilibrium topology as a CSR graph (departed peers
    /// keep their vertex, edge-less).
    #[must_use]
    pub fn graph(&self) -> OverlayGraph {
        OverlayGraph::from_out_neighbors(self.out.clone())
    }

    /// Rolling 64-bit fingerprint of the whole topology: XOR of every
    /// peer's [`topology_hash`]. Changes whenever any out-list changes.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The store's mutation epoch: 0 at construction (whether empty or
    /// bulk-built), incremented by every [`TopologyStore::insert`] /
    /// [`TopologyStore::remove`]. Together with
    /// [`TopologyStore::delta_log`] this is the consumer contract —
    /// remember the epoch you last absorbed, catch up from the log.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch-numbered delta stream: one [`TopologyDelta`] per
    /// mutation, bounded retention
    /// ([`crate::delta::DEFAULT_DELTA_CAPACITY`] events by default).
    /// Consumers that fall behind the retention window get `None` from
    /// [`DeltaLog::deltas_since`] and must resynchronise from the full
    /// store state.
    #[must_use]
    pub fn delta_log(&self) -> &DeltaLog {
        &self.log
    }

    /// Replaces the delta log with an empty one of the given retention,
    /// anchored at the current epoch. History is dropped: consumers
    /// behind the current epoch will be told to resynchronise, exactly
    /// as if they had fallen out of the retention window.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    // lint:allow(D006, reason = "how tests force the delta log's eviction horizon, the resync path a lagging cursor takes")
    pub fn set_delta_capacity(&mut self, capacity: usize) {
        self.log = DeltaLog::anchored(capacity, self.epoch);
    }

    /// Records a mutation and its dirty region (every peer whose
    /// out-list, reverse list, or membership changed, sorted ascending)
    /// in the delta log.
    fn record_delta(&mut self, kind: DeltaKind, dirty: Vec<usize>) {
        self.epoch += 1;
        self.log.record(TopologyDelta {
            epoch: self.epoch,
            kind,
            dirty,
        });
    }

    /// Inserts a new peer and incrementally re-converges the
    /// equilibrium: the newcomer selects over the full live population,
    /// and only peers whose rows its arrival can change are updated
    /// (see the module docs for who they are and why that is exact).
    ///
    /// Returns the new peer's id; the newest entry of
    /// [`TopologyStore::delta_log`] lists the affected peers.
    ///
    /// # Panics
    ///
    /// Panics if `point`'s dimensionality disagrees with the population
    /// (the paper fixes `D` per system).
    pub fn insert(&mut self, point: Point) -> PeerId {
        if let Some(first) = self.peers.first() {
            assert_eq!(
                point.dim(),
                first.point().dim(),
                "population dimensionality is fixed per overlay"
            );
        }
        let id = self.peers.len();
        self.coords.push(&point);
        self.peers.push(PeerInfo::new(PeerId(id as u64), point));
        self.departed.push(false);
        self.live += 1;
        self.out.push(Vec::new());
        if !self.mutual() {
            self.rev.push(Vec::new());
        }
        self.peer_hash.push(topology_hash(id, &[]));
        self.fingerprint ^= self.peer_hash[id];
        let selection = self.selection.as_ref();
        let own = self.engine.join(&self.peers, &self.departed, selection, id);
        let dirty = match self.engine.profile() {
            ShardProfile::EmptyRect => self.join_links(id, own),
            profile => self.join_reselect(id, own, profile),
        };
        self.record_delta(DeltaKind::Join(id), dirty);
        PeerId(id as u64)
    }

    /// The empty-rectangle join as edge edits: the newcomer links with
    /// every peer of its row `own`, and the linked pairs of `own` whose
    /// rectangle the newcomer now sits in are cut ([`straddled_links`];
    /// every eviction is such a pair, module docs), so the rows that
    /// change, and the dirty region returned, are `own` and the
    /// newcomer's.
    fn join_links(&mut self, id: usize, own: Vec<usize>) -> Vec<usize> {
        let cuts = straddled_links(&self.coords, &self.out, id, &own);
        for &(i, r) in &cuts {
            self.unlink(i, r);
        }
        self.links_cut += cuts.len() as u64;
        for &i in &own {
            self.link(i, id);
        }
        let mut dirty = own;
        // `id` is the largest index, so appending keeps the list sorted.
        dirty.push(id);
        self.check_and_rehash(&dirty, "join", id);
        dirty
    }

    /// The join of every other rule: whoever the rule's structure
    /// cannot rule out re-runs it on `old row ∪ {newcomer}`.
    fn join_reselect(&mut self, id: usize, own: Vec<usize>, profile: ShardProfile) -> Vec<usize> {
        let selection = self.selection.as_ref();
        let (peers, departed, out) = (&self.peers, &self.departed, &self.out);
        let affected: Vec<usize> = match profile {
            ShardProfile::OrthantTopK { k, metric } => par::map_indexed(id, |i| {
                (!departed[i] && topk_join_recheck(peers, out, i, id, k, metric)).then_some(i)
            })
            .into_iter()
            .flatten()
            .collect(),
            // No structure to rule anyone out by: everyone.
            _ => (0..id).filter(|&i| !departed[i]).collect(),
        };
        let updates: Vec<Vec<usize>> = par::map_indexed(affected.len(), |a| {
            let i = affected[a];
            // `id` is the largest index, so appending keeps the
            // candidate id list sorted.
            let mut cand_ids: Vec<usize> = Vec::with_capacity(out[i].len() + 1);
            cand_ids.extend_from_slice(&out[i]);
            cand_ids.push(id);
            let refs: Vec<&PeerInfo> = cand_ids.iter().map(|&j| &peers[j]).collect();
            let picked = selection.select(&peers[i], &refs);
            picked.into_iter().map(|ci| cand_ids[ci]).collect()
        });

        let mut delta = BTreeSet::new();
        delta.insert(id);
        self.apply_out(id, own, &mut delta);
        for (i, new_out) in affected.into_iter().zip(updates) {
            self.apply_out(i, new_out, &mut delta);
        }
        delta.into_iter().collect()
    }

    /// Idempotent [`TopologyStore::remove`]: removes the peer if it is
    /// still live and returns whether a removal happened. The
    /// failure-detection plane uses this — many detectors reach the
    /// same dead verdict independently and only the first may mutate.
    pub fn remove_if_present(&mut self, id: PeerId) -> bool {
        let v = id.index();
        if v >= self.peers.len() || self.departed[v] {
            return false;
        }
        self.remove(id);
        true
    }

    /// Removes a peer (crash-stop) and incrementally re-converges the
    /// equilibrium: exactly the peers that had the departed peer
    /// selected get a new row — they lose it and link among themselves
    /// under the empty-rectangle rule, and re-select over the survivors
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already departed.
    pub fn remove(&mut self, id: PeerId) {
        let v = id.index();
        assert!(v < self.peers.len(), "peer id out of range");
        assert!(!self.departed[v], "{id} already departed");
        self.departed[v] = true;
        self.live -= 1;
        self.engine.leave(&self.peers, v);
        let dirty = match self.engine.profile() {
            ShardProfile::EmptyRect => self.leave_links(v),
            _ => self.leave_reselect(v),
        };
        self.record_delta(DeltaKind::Leave(v), dirty);
    }

    /// The empty-rectangle leave as edge edits, computed from the
    /// departed peer's row alone: each member loses `v`, and the pairs
    /// of the row that `v` alone kept apart link ([`unblocked_pairs`]).
    /// The rows that change, and the dirty region returned, are that
    /// row and `v`'s own; no other row is read.
    fn leave_links(&mut self, v: usize) -> Vec<usize> {
        // Taking the row also releases its capacity: nobody selects a
        // departed id again.
        let row = std::mem::take(&mut self.out[v]);
        let pairs = unblocked_pairs(&self.coords, v, &row);
        for &i in &row {
            // `v`'s own row is gone already; that half finds nothing.
            self.unlink(i, v);
        }
        for &(i, w) in &pairs {
            self.link(i, w);
        }
        self.links_made += pairs.len() as u64;
        self.check_and_rehash(&row, "leave", v);
        self.rehash(v);
        let mut dirty = row;
        dirty.insert(dirty.partition_point(|&i| i < v), v);
        dirty
    }

    /// Re-hashes each row an empty-rectangle `event` of `peer` edited;
    /// debug builds first hold it against its re-selection through the
    /// fold.
    fn check_and_rehash(&mut self, rows: &[usize], event: &str, peer: usize) {
        for &i in rows {
            debug_assert_eq!(
                self.out[i],
                self.engine.row_from_scratch(
                    &self.peers,
                    &self.departed,
                    self.selection.as_ref(),
                    i
                ),
                "{event} of {peer}: peer {i}'s edited row differs from its re-selection"
            );
            self.rehash(i);
        }
    }

    /// The leave of every other rule: the departed peer's selectors
    /// re-select through the tombstoned indexes.
    fn leave_reselect(&mut self, v: usize) -> Vec<usize> {
        let mut delta = BTreeSet::new();
        delta.insert(v);
        // Only its selectors can lose an edge. Taking the list also
        // releases its capacity: nobody selects a departed id again.
        let affected = std::mem::take(&mut self.rev[v]);
        for i in affected {
            let selection = self.selection.as_ref();
            let new_out = self
                .engine
                .reselect(&self.peers, &self.departed, selection, i);
            self.apply_out(i, new_out, &mut delta);
        }
        // The departed peer selects nobody.
        self.apply_out(v, Vec::new(), &mut delta);
        delta.into_iter().collect()
    }

    /// Enters the mutual link `a – b` in both rows of the one table the
    /// empty-rectangle rule keeps.
    fn link(&mut self, a: usize, b: usize) {
        Self::row_insert(&mut self.out[a], b);
        Self::row_insert(&mut self.out[b], a);
    }

    /// Removes the mutual link `a – b` from both rows.
    fn unlink(&mut self, a: usize, b: usize) {
        Self::row_remove(&mut self.out[a], b);
        Self::row_remove(&mut self.out[b], a);
    }

    /// Brings `i`'s hash and the rolling fingerprint up to its row.
    fn rehash(&mut self, i: usize) {
        let new_hash = topology_hash(i, &self.out[i]);
        self.fingerprint ^= self.peer_hash[i] ^ new_hash;
        self.peer_hash[i] = new_hash;
    }

    /// Replaces `i`'s out-list, maintaining reverse lists, hashes, the
    /// rolling fingerprint, and the delta set.
    fn apply_out(&mut self, i: usize, new_out: Vec<usize>, delta: &mut BTreeSet<usize>) {
        if self.out[i] == new_out {
            return;
        }
        let old_out = std::mem::replace(&mut self.out[i], new_out);
        // Symmetric difference updates the reverse lists; both lists are
        // sorted, so a merge walk finds the diffs.
        let (mut x, mut y) = (0usize, 0usize);
        loop {
            match (old_out.get(x), self.out[i].get(y)) {
                (Some(&u), Some(&v)) if u == v => {
                    x += 1;
                    y += 1;
                }
                (Some(&u), Some(&v)) if u < v => {
                    Self::row_remove(&mut self.rev[u], i);
                    delta.insert(u);
                    x += 1;
                }
                (Some(_), Some(&v)) => {
                    Self::row_insert(&mut self.rev[v], i);
                    delta.insert(v);
                    y += 1;
                }
                (Some(&u), None) => {
                    Self::row_remove(&mut self.rev[u], i);
                    delta.insert(u);
                    x += 1;
                }
                (None, Some(&v)) => {
                    Self::row_insert(&mut self.rev[v], i);
                    delta.insert(v);
                    y += 1;
                }
                (None, None) => break,
            }
        }
        self.rehash(i);
        delta.insert(i);
    }

    fn row_insert(row: &mut Vec<usize>, i: usize) {
        if let Err(pos) = row.binary_search(&i) {
            row.insert(pos, i);
        }
    }

    fn row_remove(row: &mut Vec<usize>, i: usize) {
        if let Ok(pos) = row.binary_search(&i) {
            row.remove(pos);
        }
    }
}

impl std::fmt::Debug for TopologyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopologyStore")
            .field("peers", &self.peers.len())
            .field("live", &self.live)
            .field("selection", &self.selection.name())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::select::{EmptyRectSelection, HyperplanesSelection};
    use crate::shard::ShardConfig;
    use geocast_geom::gen::uniform_points;
    use geocast_geom::MetricKind;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        uniform_points(n, dim, 1000.0, seed).into_points()
    }

    /// The definitional reference: selections of the live population
    /// computed from scratch, expressed over the store's dense ids.
    fn reference_graph(store: &TopologyStore) -> OverlayGraph {
        oracle::equilibrium_live(store.peers(), store.departed(), store.selection().as_ref())
    }

    #[test]
    fn sequential_insertion_matches_oracle() {
        let pts = points(60, 2, 7);
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for p in &pts {
            store.insert(p.clone());
        }
        let peers = PeerInfo::from_point_set(&uniform_points(60, 2, 1000.0, 7));
        assert_eq!(
            store.graph(),
            oracle::equilibrium(&peers, &EmptyRectSelection)
        );
    }

    #[test]
    fn insert_then_remove_matches_reference_for_hyperplanes() {
        let pts = points(50, 3, 11);
        let sel = Arc::new(HyperplanesSelection::orthogonal(3, 2, MetricKind::L1));
        let mut store = TopologyStore::new(sel);
        for p in &pts {
            store.insert(p.clone());
        }
        for v in [3u64, 17, 29, 44] {
            store.remove(PeerId(v));
            assert_eq!(store.graph(), reference_graph(&store), "after removing {v}");
        }
    }

    #[test]
    fn remove_if_present_is_idempotent() {
        let pts = points(30, 2, 19);
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for p in &pts {
            store.insert(p.clone());
        }
        let epoch_before = store.epoch();
        assert!(store.remove_if_present(PeerId(5)), "first verdict removes");
        let epoch_after = store.epoch();
        assert!(epoch_after > epoch_before);
        // Duplicate verdicts from other detectors are no-ops.
        assert!(!store.remove_if_present(PeerId(5)));
        assert!(!store.remove_if_present(PeerId(9999)), "unknown peer");
        assert_eq!(store.epoch(), epoch_after, "no-ops record no deltas");
        assert_eq!(store.graph(), reference_graph(&store));
    }

    #[test]
    fn bulk_build_equals_incremental_build() {
        // Grown from empty, bulk-built, and bulk-built through the
        // tiled constructor at one tile: one engine, one state.
        let rules: [Arc<dyn NeighborSelection + Send + Sync>; 2] = [
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(2, 2, MetricKind::L1)),
        ];
        for rule in rules {
            let mut grown = TopologyStore::new(rule.clone());
            for p in points(80, 2, 13) {
                grown.insert(p);
            }
            let peers = PeerInfo::from_point_set(&uniform_points(80, 2, 1000.0, 13));
            let mut stores = [
                grown,
                TopologyStore::from_peers(peers.clone(), rule.clone()),
                TopologyStore::from_peers_sharded(peers, rule.clone(), &ShardConfig::new(1)),
            ];
            for bulk in &stores[1..] {
                assert_eq!((bulk.epoch(), bulk.delta_log().newest()), (0, None));
                assert_eq!(stores[0].graph(), bulk.graph(), "{}", rule.name());
                assert_eq!(stores[0].fingerprint(), bulk.fingerprint());
            }
            // …and they stay one state: the next events leave the same
            // deltas behind, one epoch each.
            let after: Vec<_> = stores
                .iter_mut()
                .map(|store| {
                    let epoch = store.epoch();
                    store.insert(Point::new(vec![431.5, 77.25]).unwrap());
                    let join = store.delta_log().newest().unwrap().clone();
                    store.remove(PeerId(17));
                    let leave = store.delta_log().newest().unwrap().clone();
                    assert_eq!((join.epoch, leave.epoch), (epoch + 1, epoch + 2));
                    let deltas = (join.kind, join.dirty, leave.kind, leave.dirty);
                    (deltas, store.fingerprint(), store.graph())
                })
                .collect();
            assert_eq!(after[0], after[1], "{}", rule.name());
            assert_eq!(after[0], after[2], "{}", rule.name());
        }
    }

    #[test]
    fn delta_covers_every_changed_out_list() {
        let pts = points(70, 2, 17);
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        let mut previous: Vec<Vec<usize>> = Vec::new();
        for p in &pts {
            store.insert(p.clone());
            previous.push(Vec::new());
            let delta = &store.delta_log().newest().unwrap().dirty;
            for (i, prev) in previous.iter_mut().enumerate() {
                if store.out_neighbors(i) != prev.as_slice() {
                    assert!(
                        delta.binary_search(&i).is_ok(),
                        "changed peer {i} missing from delta"
                    );
                }
                *prev = store.out_neighbors(i).to_vec();
            }
        }
    }

    /// The mutual rule, whose one table answers both directions, and a
    /// directed Hyperplanes rule, which keeps a real reverse table.
    fn one_table_and_two() -> [Arc<dyn NeighborSelection + Send + Sync>; 2] {
        [
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(2, 1, MetricKind::L1)),
        ]
    }

    #[test]
    fn rev_neighbors_invert_out_neighbors() {
        for (directed, rule) in [false, true].into_iter().zip(one_table_and_two()) {
            let mut store = TopologyStore::new(rule.clone());
            for p in points(40, 2, 19) {
                store.insert(p);
            }
            store.remove(PeerId(5));
            assert_eq!(
                (0..store.len()).any(|i| store.rev_neighbors(i) != store.out_neighbors(i)),
                directed,
                "{}: only a directed rule's reverse table differs from its rows",
                rule.name()
            );
            for i in 0..store.len() {
                for &j in store.out_neighbors(i) {
                    assert!(
                        store.rev_neighbors(j).contains(&i),
                        "{}: edge {i}->{j} missing from reverse table",
                        rule.name()
                    );
                }
                for &j in store.rev_neighbors(i) {
                    assert!(
                        store.out_neighbors(j).contains(&i),
                        "{}: reverse entry {j}->{i} has no forward edge",
                        rule.name()
                    );
                }
            }
        }
    }

    #[test]
    fn undirected_rows_match_graph_closure() {
        for rule in one_table_and_two() {
            let mut store = TopologyStore::new(rule.clone());
            for p in points(35, 2, 23) {
                store.insert(p);
            }
            store.remove(PeerId(9));
            let closure = store.graph().undirected_closure();
            let mut row = Vec::new();
            for i in 0..store.len() {
                store.undirected_neighbors_into(i, &mut row);
                assert_eq!(row, closure.out_neighbors(i), "{}: row {i}", rule.name());
            }
        }
    }

    #[test]
    fn fingerprint_rolls_with_membership() {
        let pts = points(20, 2, 29);
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        let mut seen = std::collections::BTreeSet::new();
        for p in &pts {
            store.insert(p.clone());
            assert!(
                seen.insert(store.fingerprint()),
                "fingerprint must change on every join here"
            );
        }
        let before = store.fingerprint();
        store.remove(PeerId(4));
        assert_ne!(store.fingerprint(), before);
    }

    #[test]
    fn empty_and_singleton_stores_are_trivial() {
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        assert!(store.is_empty());
        assert_eq!(store.fingerprint(), 0);
        let id = store.insert(Point::new(vec![1.0, 2.0]).unwrap());
        assert_eq!(id, PeerId(0));
        assert_eq!(store.live_count(), 1);
        assert!(store.out_neighbors(0).is_empty());
        store.remove(id);
        assert_eq!(store.live_count(), 0);
        assert!(store.graph().is_empty() || store.graph().directed_edge_count() == 0);
    }

    #[test]
    fn epochs_count_mutations_and_deltas_replay_the_dirty_regions() {
        let pts = points(30, 2, 41);
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        let mut dirty_by_epoch: Vec<Vec<usize>> = Vec::new();
        for p in &pts {
            store.insert(p.clone());
            dirty_by_epoch.push(store.delta_log().newest().unwrap().dirty.clone());
        }
        store.remove(PeerId(3));
        dirty_by_epoch.push(store.delta_log().newest().unwrap().dirty.clone());
        assert_eq!(store.epoch(), 31, "one epoch per mutation");
        assert_eq!(store.delta_log().head_epoch(), 31);

        // A consumer that absorbed up to epoch 28 replays exactly the
        // last three deltas, dirty regions intact.
        let missed: Vec<&TopologyDelta> = store.delta_log().deltas_since(28).unwrap().collect();
        assert_eq!(missed.len(), 3);
        for (d, expect) in missed.iter().zip(&dirty_by_epoch[28..]) {
            assert_eq!(&d.dirty, expect);
        }
        assert_eq!(missed[2].kind, DeltaKind::Leave(3));
        assert!(matches!(missed[0].kind, DeltaKind::Join(28)));
    }

    #[test]
    fn bulk_built_stores_start_at_epoch_zero() {
        let peers = PeerInfo::from_point_set(&uniform_points(20, 2, 1000.0, 43));
        let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.delta_log().deltas_since(0).unwrap().count(), 0);
        store.insert(Point::new(vec![1.5, 2.5]).unwrap());
        assert_eq!(store.epoch(), 1);
        let d: Vec<&TopologyDelta> = store.delta_log().deltas_since(0).unwrap().collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, DeltaKind::Join(20));
        assert_eq!(store.delta_log().newest(), Some(d[0]));
    }

    #[test]
    fn capacity_change_anchors_the_log_at_the_current_epoch() {
        let pts = points(10, 2, 47);
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for p in &pts {
            store.insert(p.clone());
        }
        store.set_delta_capacity(4);
        // History dropped: a lagging consumer is told to resync…
        assert!(store.delta_log().deltas_since(5).is_none());
        // …an up-to-date one proceeds, and new deltas flow normally.
        assert_eq!(store.delta_log().deltas_since(10).unwrap().count(), 0);
        store.remove(PeerId(2));
        assert_eq!(store.delta_log().deltas_since(10).unwrap().count(), 1);
    }

    #[test]
    #[should_panic(expected = "already departed")]
    fn double_removal_is_rejected() {
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        let id = store.insert(Point::new(vec![1.0, 2.0]).unwrap());
        store.remove(id);
        store.remove(id);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn mixed_dimensions_are_rejected() {
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        store.insert(Point::new(vec![1.0, 2.0]).unwrap());
        store.insert(Point::new(vec![1.0, 2.0, 3.0]).unwrap());
    }

    #[test]
    fn high_dimensions_fall_back_exactly() {
        // Beyond MAX_INDEX_DIM the shard indexes decline every query:
        // shortlists are brute selections and no skip is certified. An
        // empty-rectangle leave asks no index and links the departed
        // peer's neighbours as in any dimensionality; a Hyperplanes
        // leave re-selects by brute force. Bulk build, growth from empty, joins and leaves equal
        // the oracle after every event, on one tile and on several.
        let dim = geocast_geom::index::MAX_INDEX_DIM + 1;
        let rules: [Arc<dyn NeighborSelection + Send + Sync>; 2] = [
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(dim, 1, MetricKind::L1)),
        ];
        for rule in rules {
            let peers = PeerInfo::from_point_set(&uniform_points(14, dim, 1000.0, 53));
            let mut grown = TopologyStore::new(rule.clone());
            for p in points(14, dim, 53) {
                grown.insert(p);
                assert_eq!(grown.graph(), reference_graph(&grown), "{}", rule.name());
            }
            let mut stores = [
                grown,
                TopologyStore::from_peers(peers.clone(), rule.clone()),
                TopologyStore::from_peers_sharded(peers, rule.clone(), &ShardConfig::new(4)),
            ];
            for store in &mut stores {
                assert_eq!(store.graph(), reference_graph(store), "{}", rule.name());
                for (step, p) in points(6, dim, 54).into_iter().enumerate() {
                    store.insert(p);
                    assert_eq!(store.graph(), reference_graph(store), "join {step}");
                    store.remove(PeerId(step as u64 * 2));
                    assert_eq!(store.graph(), reference_graph(store), "leave {step}");
                }
                assert_eq!(store.fingerprint(), oracle::fingerprint(&store.graph()));
            }
        }
    }

    #[test]
    fn colliding_coordinates_fall_back_exactly() {
        // A workload violating per-dimension distinctness: the index
        // declines and a join's brute selection must keep incremental
        // == reference. The leave removes a peer that shares a
        // coordinate with two of its selectors; the pair kernel is the
        // rule's own strict test and has no fallback.
        let pts = vec![
            Point::new(vec![0.0, 0.0]).unwrap(),
            Point::new(vec![5.0, 0.0]).unwrap(), // shares y with 0
            Point::new(vec![2.0, 3.0]).unwrap(),
            Point::new(vec![5.0, 7.0]).unwrap(), // shares x with 1
            Point::new(vec![9.0, 4.0]).unwrap(),
        ];
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for p in &pts {
            store.insert(p.clone());
            assert_eq!(store.graph(), reference_graph(&store));
        }
        store.remove(PeerId(1));
        assert_eq!(store.graph(), reference_graph(&store));
    }

    #[test]
    fn a_leave_next_to_tied_coordinates_repairs_without_a_fold() {
        // The leave half of the collision cliff: a selector sharing a
        // coordinate with a live peer used to make the index decline
        // and the leave re-select it by brute force over all N. The
        // pair kernel reads the departed peer's row: across these
        // leaves the engine runs no fold at all.
        let mut pts = points(2000, 2, 59);
        // 1 % exact ties: twenty peers copy one coordinate of their
        // predecessor.
        let tied: Vec<usize> = (0..20).map(|k| 100 * k + 1).collect();
        for (k, &t) in tied.iter().enumerate() {
            let d = k % 2;
            pts[t] = pts[t].with_coord(d, pts[t - 1][d]);
        }
        let peers: Vec<PeerInfo> = pts
            .into_iter()
            .enumerate()
            .map(|(i, p)| PeerInfo::new(PeerId(i as u64), p))
            .collect();
        let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let before = store.sharding().churn_stats();
        let in_a_tie = |v: usize| tied.contains(&v) || tied.contains(&(v + 1));
        for &t in &tied {
            // A neighbour of the tied peer departs, then the peer it
            // is tied to.
            let next_to_it = store
                .out_neighbors(t)
                .iter()
                .copied()
                .find(|&v| !in_a_tie(v));
            store.remove(PeerId(
                next_to_it.expect("34 neighbours, 40 tied peers") as u64
            ));
            store.remove(PeerId(t as u64 - 1));
        }
        assert_eq!(store.live_count(), 1960);
        assert_eq!(
            store.sharding().churn_stats().folds,
            before.folds,
            "a leave folds nothing, ties or not"
        );
        assert_eq!(store.graph(), reference_graph(&store));
        assert_eq!(store.fingerprint(), oracle::fingerprint(&store.graph()));
    }

    #[test]
    fn a_join_tied_to_its_row_members_cuts_exactly() {
        // The join half: each newcomer copies one coordinate of a live
        // peer and the other coordinate of one of that peer's
        // neighbours. Both tie it, so both are in its row with no
        // orthant code, and no pair through them is cut. The join's own
        // row folds once (the index declines next to a tie and the tile
        // answers by brute selection); the rows it edits fold nothing.
        // Debug builds re-select every edited row after each join.
        let peers = PeerInfo::from_point_set(&uniform_points(2000, 2, 1000.0, 67));
        let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        let before = store.sharding().churn_stats();
        for k in 0..20 {
            let t = 100 * k + 7;
            let u = store.out_neighbors(t)[k % store.out_neighbors(t).len()];
            let tied = store.peers()[t]
                .point()
                .with_coord(1, store.peers()[u].point()[1]);
            let q = store.insert(tied);
            assert!(
                [t, u]
                    .iter()
                    .all(|w| store.out_neighbors(q.index()).contains(w)),
                "a tied peer is always a neighbour"
            );
        }
        assert_eq!(
            store.sharding().churn_stats().folds,
            before.folds + 20,
            "a join folds its own row only, ties or not"
        );
        assert_eq!(store.graph(), reference_graph(&store));
        assert_eq!(store.fingerprint(), oracle::fingerprint(&store.graph()));
    }
}
