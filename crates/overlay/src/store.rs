//! The shared topology substrate behind the live overlay and every
//! multicast consumer.
//!
//! [`TopologyStore`] owns the peer population, the current equilibrium
//! adjacency (sorted rows of `u32` peer ids; a reverse table too for the directed
//! Hyperplanes rules — empty-rectangle links are mutual, so there one
//! table holds both directions), per-peer topology
//! fingerprints, and the epoch-numbered [`DeltaLog`] of every membership
//! change's dirty region. Its rows are selected on **one index**, a
//! [`GridIndex`] over every peer ever inserted whose slot ids are peer
//! ids (a departed peer's slot is tombstoned): the bulk build selects
//! every row on it — or, under the empty-rectangle rule at `D = 2`,
//! sweeps its coordinate table once (`crate::closed_form`, "The plane
//! sweep") — a join takes its walk's
//! start from it, and a Hyperplanes re-selection is a query on it. A
//! join or leave touches only the peers whose rows the membership
//! change can affect, and each of those rows is updated at the cost of
//! what changes in it.
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
//!   everyone, for a rule of no known shape; for per-orthant top-`K`, the peers
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
//!   definition, which orders a coordinate shared by two peers by peer
//!   id ([`geocast_geom::above`]), so the update needs no fallback.
//!   Every evicted `r` is in `q`'s row too (below), and `q` sits
//!   strictly inside `rect(i, r)` iff `i` and `r` lie in complementary
//!   orthants around `q`: the store groups `q`'s row into runs by orthant
//!   code once per event (one sort, below) and cuts the linked pairs of
//!   the cross products of complementary runs
//!   (`crate::closed_form`'s `straddled_links`), with no rectangle
//!   test at all.
//! * **Leave of `x`.** A departure only changes the selection of peers
//!   that had `x` selected: for empty-rectangle, if `x` was the *only*
//!   point in some spanned rectangle of `i`, then `x`'s own rectangle
//!   with `i` was empty — i.e. `x` ∈ selection(`i`); for Hyperplanes,
//!   dropping a non-selected candidate leaves every top-`K` intact.
//!   The reverse-adjacency table hands the affected set directly (under
//!   the empty-rectangle rule that is `x`'s own row).
//!   Hyperplanes selectors re-select through the tombstoned index.
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
//!   of `x` inside `rect(i, w)`. *Ties:* every step reads coordinates
//!   in the order of [`geocast_geom::above`] — the coordinate, then the
//!   peer id — in which no two peers share a coordinate, so a shared
//!   one needs no case of its own. So the new links are the pairs of
//!   `row(x)` whose open rectangle holds `x` and no other member of
//!   `row(x)`. *The runs:* one sort groups the members of `row(x)` by
//!   their orthant code around `x`. Each member in a run is keyed by
//!   its coordinate and id, both flipped where its orthant lies below
//!   `x` (`(v, id)` above, `(−v, !id)` below: [`geocast_geom::key`]),
//!   so a smaller key is nearer `x` and every comparison below is a
//!   comparison of raw coordinates — no subtraction rounds it — that
//!   reads the id only when they are equal. The
//!   pairs that hold `x` are the cross products of two runs whose codes
//!   differ in every bit. *The blockers:* a member `y` of a run whose
//!   code is `i`'s or `w`'s is no blocker of `(i, w)`: it would sit
//!   strictly inside `rect(x, i)` or `rect(x, w)`, which are empty. A
//!   member `y` of any other run `o` sits strictly inside `rect(i, w)`
//!   iff it is strictly nearer `x` than `i` in every coordinate where
//!   `o` lies on `i`'s side, and than `w` in the others — and in each
//!   coordinate `y` shares that end's sign flip, so the test is one key
//!   against one key. *The thresholds:* for one pair of opposite runs,
//!   each other run `o` that lies on `w`'s side in one coordinate `j`
//!   and on `i`'s in one coordinate `d` — every blocker run at
//!   `D = 2` — is reduced once: sorted by its `d` key, with prefix
//!   minima of its `j` key, so each `i` gets by one binary search the
//!   least `j` key among the members of `o` nearer than it in `d`, and
//!   `(i, w)` is blocked by `o` iff that threshold is below `w`'s `j`
//!   key: one comparison per pair. Every other run (`D ≥ 3`) is scanned
//!   per pair. So at `D = 2` a leave costs `O(k log k + straddling
//!   pairs)` for a row of `k`, and every step is the rule's definition:
//!   any dimensionality and any shared coordinate take the same path,
//!   with no index and no fallback. The rows that
//!   change are exactly `row(x) ∪ {x}`, which is the delta. The join's
//!   evictions are pairs inside the newcomer's row the same way: an
//!   evicted `r` had `rect(i, r)` empty before `q` came to sit in it,
//!   so `rect(q, r)`, a part of it, is empty, and `r ∈ row(q)`. Debug
//!   builds re-select every row a join or a leave edited on the index
//!   and compare — the newcomer's own row included.
//!
//! ## The newcomer's own row
//!
//! Under the Hyperplanes rules a newcomer's row is a query on the
//! index. Under the empty-rectangle rule it is found from the rows the
//! store already holds, with no index query. Notation: `x`
//! is the newcomer, `G` the graph of the live peers' rows before it
//! arrives, and `row(x)` the live peers `p` whose open `rect(x, p)` holds
//! no live peer. `box(a, b)` is the closed box with corners `a` and `b`,
//! and `hull(a, b)` the closed box spanned by `x`, `a` and `b`. The walk
//! has three steps.
//!
//! Every coordinate below is read in the order of
//! [`geocast_geom::above`] — the coordinate, then the peer id, the
//! newcomer's the largest — in which no two peers share a coordinate
//! along any axis.
//!
//! 1. **Locate.** The start is any live peer: the one nearest `x` in
//!    the index's grid cells (`GridIndex::locate`, which reads buckets
//!    only). Nothing below depends on which peer it is; a near one keeps
//!    the descent short.
//! 2. **Descend.** From `p`, step to the member `m` of `row(p)` that lies
//!    strictly inside the open `rect(p, x)` and leaves the smallest box;
//!    stop when `row(p)` has none. `rect(m, x)` is a strict part of
//!    `rect(p, x)`, so no peer is visited twice and the walk ends.
//!    *Lemma:* if the open `rect(p, x)` holds a live peer `s`, then
//!    `row(p)` holds one. If the open `rect(p, s)` holds a peer `t`, then
//!    `t` is strictly between `p` and `s` in every dimension: it lies in
//!    `rect(p, x)`, with `rect(p, t)` a strict part of `rect(p, s)`. That
//!    finite descent ends at such a peer whose open rectangle with `p` is
//!    empty, a member of `row(p)`. So where the walk stops, the open
//!    `rect(x, p)` holds no live peer, and `p ∈ row(x)`.
//! 3. **Grow.** Keep one Pareto front per orthant code around `x`. A
//!    front's keys are the member's coordinate and id, flipped on the
//!    orthant's negative sides: strictly smaller in every key is
//!    strictly inside the rectangle, with no subtraction to round the
//!    test. Offer the descent's end, then push every peer a front
//!    accepts; pop them in order, and when a popped peer is still in its
//!    front, offer every member of its row. A seen-stamp per peer offers
//!    each peer at most once per join. At the end the fronts are
//!    `row(x)`. At the paper's `D = 2–5` the fronts are a table of `2^D`
//!    fronts indexed by orthant code, the dimensionality a compile-time
//!    constant: an offer builds its code and keys on the stack, and each
//!    member is one `([Key; D], id)` entry whose test is `D` unrolled
//!    comparisons. Every other dimensionality keeps one
//!    `geocast_geom::dominance::ParetoSet` per code met (no `2^D`
//!    table). The walk picks one of the two once per join; both hold the
//!    front of everything offered, so it visits, pops and offers in the
//!    same order either way, and rows and counts are equal
//!    (`closed_form`'s unit tests run both on the same joins).
//!
//! Why the grow ends with exactly `row(x)`:
//!
//! * **`row(x)` is connected in `G`** — within an orthant and across
//!   orthants. Induct on `μ(a, b)`, the number of live
//!   peers in `hull(a, b)`, for `a, b ∈ row(x)`. If the open `rect(a, b)`
//!   is empty, `a – b` is a link of `G`. Otherwise it holds a peer `r`,
//!   strictly between `a` and `b` in every dimension. Some dimension has
//!   `b` strictly beyond both `a` and `x`: if none did, `b` would lie in
//!   `box(x, a)`, and `r`, strictly between `a` and a value between `x`
//!   and `a` in every dimension, would lie strictly inside `rect(x, a)`,
//!   which `a ∈ row(x)` rules out. The same holds for `a`. The finite
//!   descent of step 2 from `r` towards `x` ends at a `q ∈ row(x)` inside
//!   `box(x, r)`, hence inside `hull(a, b)`. In the dimension where `b`
//!   is beyond `a` and `x`, `q` is no farther out than `r`, which is
//!   short of `b`, so `b` is not in `hull(a, q)`: `μ(a, q) < μ(a, b)`, and
//!   in the same way `μ(q, b) < μ(a, b)`. By induction, `a` and `q`, and
//!   `q` and `b`, are joined by paths inside `row(x)`. Within one orthant
//!   `O`, `hull(a, b)` is the box from `x` to the componentwise maximum
//!   of the offsets of `a` and `b`, and `μ` counts the peers of `O` whose
//!   offsets lie below it. Across orthants no minimal pair of orthants is
//!   needed.
//! * **Every member of `row(x)` is offered, and stays.** A member is
//!   strictly dominated by no live peer (that peer would sit strictly
//!   inside its rectangle with `x`), so a front that is offered it
//!   accepts it and never evicts it. So it is popped and expanded, and
//!   its row holds its links
//!   inside `row(x)`. The descent's end is in `row(x)`, whatever the
//!   start, so by connectivity every member of `row(x)` is offered.
//! * **Nothing else stays.** A front holds the Pareto frontier of what it
//!   was offered. An offered peer `s ∉ row(x)` in orthant `O` has a live
//!   peer strictly inside `rect(x, s)`, and the finite descent from it
//!   ends at a member of `row(x)` in `O` that strictly dominates `s`.
//!   That member was offered too, so `s` is not in the final front.
//! * **From any start.** The descent makes the grow cheap, not exact:
//!   grown from a start outside `row(x)`, it still offers a member of
//!   `row(x)`. The start's front never empties, and every peer in a
//!   final front was expanded when popped. If all final members are in
//!   `row(x)`, one was offered. A final member `f` outside `row(x)`
//!   cannot be: by the lemma, `row(f)` — which was offered — holds a
//!   peer `m` strictly inside the open `rect(f, x)`, in `f`'s orthant
//!   and strictly nearer `x` in every dimension. `m` was offered and
//!   dominates `f`, so `f` is in no final front. Connectivity does the
//!   rest. So a start anywhere is correct, and the walk does not depend
//!   on `locate` beyond the cost.
//!
//! Every test is a raw comparison of coordinates, as in the rule's own
//! definition, so the walk takes the same path at every dimensionality
//! up to [`MAX_ORTHANT_DIM`]: no decline, no brute selection, no index
//! query.
//! `geocast_overlay`'s `prop_store` holds each newcomer's row against the
//! definition on uniform, lattice, clustered and 17- and 32-dimensional
//! populations. Expanding a peer reads its row, so a join reads about
//! as many rows as its own row has members
//! ([`TopologyStore::join_walk_stats`]).
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
//! of random join/leave interleavings — every rule family, remove-heavy
//! traces, lattices and joins outside the seed box included;
//! `geocast churn --strict` and the referee of
//! `geocast_core::detect::run_detection` compare against it too.

use std::collections::BTreeSet;
use std::sync::Arc;

use geocast_geom::{GridIndex, Point, MAX_ORTHANT_DIM};
use geocast_sim::runner::{map_indexed, Grain};

use crate::closed_form::{
    straddled_links, sweep_rows, topk_join_recheck, unblocked_pairs, JoinWalk, JoinWalkStats,
};
use crate::delta::{DeltaKind, DeltaLog, TopologyDelta};
use crate::graph::OverlayGraph;
use crate::peer::{PeerId, PeerInfo};
use crate::select::{ids_in_slice_order, ChurnShape, NeighborSelection, SelectContext};

/// FNV-1a fingerprint of one peer's out-neighbour list. Mixing the peer
/// index in keeps the XOR-of-all-peers network fingerprint collision
/// resistant against permuted-but-equal lists.
#[must_use]
pub fn topology_hash(i: usize, neighbors: &[usize]) -> u64 {
    fnv_row(i, neighbors.len(), neighbors.iter().map(|&j| j as u64))
}

/// [`topology_hash`] of a stored row: the same fold over the same ids,
/// read at the store's width.
fn row_hash(i: usize, row: &[u32]) -> u64 {
    fnv_row(i, row.len(), row.iter().map(|&j| u64::from(j)))
}

/// The one fold behind [`topology_hash`], whatever width the ids are
/// held at.
fn fnv_row(i: usize, len: usize, ids: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(i as u64 ^ 0x9e37_79b9_7f4a_7c15);
    mix(len as u64);
    for j in ids {
        mix(j + 1);
    }
    h
}

/// A stored adjacency row: sorted peer ids at half the width of
/// `usize`. Every id fits, since the store admits no more than
/// `u32::MAX` peers ([`assert_id_width`]).
type Row = Vec<u32>;

/// A row selected over [`PeerInfo`]s, at the store's width: one row at
/// a time, so no full-size `usize` table is ever held beside the
/// store's.
fn to_row(ids: &[usize]) -> Row {
    ids.iter().map(|&j| j as u32).collect()
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
/// let reference = oracle::equilibrium_live(store.peers(), store.departed(), &EmptyRectSelection);
/// assert_eq!(store.graph(), reference);
/// ```
pub struct TopologyStore {
    peers: Vec<PeerInfo>,
    pub(crate) out: Vec<Row>,
    /// Who selects each peer. Empty under the empty-rectangle rule,
    /// whose links are mutual: there `out` holds both directions.
    pub(crate) rev: Vec<Row>,
    peer_hash: Vec<u64>,
    fingerprint: u64,
    epoch: u64,
    log: DeltaLog,
    /// Mutual links the empty-rectangle leaves made and its joins cut.
    links_made: u64,
    links_cut: u64,
    /// What finds an empty-rectangle newcomer's row over `out`.
    walk: JoinWalk,
    selection: Arc<dyn NeighborSelection + Send + Sync>,
    /// `selection`'s churn shape: mutual links or a reverse table, and
    /// who a join makes re-select.
    shape: ChurnShape,
    /// Every peer ever inserted, slot id = peer id, departed ones
    /// tombstoned: the bulk build, the join walk's start, and every
    /// re-selection. Its tombstones are the departed mask and its
    /// coordinate table, a departed peer's row included, is what the
    /// closed forms read.
    index: GridIndex,
}

/// What the benchmark harness still passes to
/// [`TopologyStore::from_peers_sharded`]: a shard count, checked to be
/// positive and read by nothing else. The store has one index at every
/// count; ROADMAP item 1(g) deletes this shim with the harness's call.
#[derive(Debug, Clone)]
pub struct ShardConfig(());

impl ShardConfig {
    /// A configuration the store reads nothing of.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ShardConfig(())
    }
}

/// Every rule classifies peers by orthant codes of one bit per
/// dimension, and so does the join walk: the store admits no more
/// dimensions than they hold.
fn assert_orthant_dim(dim: usize) {
    assert!(
        dim <= MAX_ORTHANT_DIM,
        "dimension {dim} exceeds MAX_ORTHANT_DIM = {MAX_ORTHANT_DIM}"
    );
}

/// Rows hold peer ids as `u32`: the store admits a population of `len`
/// peers only if every id below it fits. Checked where peers enter, so
/// no kernel that reads a row checks again.
fn assert_id_width(len: usize) {
    assert!(
        u32::try_from(len).is_ok(),
        "{len} peers: the store keeps peer ids as u32"
    );
}

impl TopologyStore {
    /// Creates an empty store for the given selection rule; the
    /// population's dimensionality is adopted from the first insert.
    #[must_use]
    pub fn new(selection: Arc<dyn NeighborSelection + Send + Sync>) -> Self {
        Self::from_peers(Vec::new(), selection)
    }

    /// Builds a store over an existing dense-id population in one bulk
    /// pass, ready for incremental churn: one index over the population,
    /// and every row selected on it in parallel — or, under the
    /// empty-rectangle rule on a 2-D population, every row from one
    /// serial plane sweep over the index's coordinates
    /// (`crate::closed_form`, "The plane sweep"),
    /// held to the selection by tests. Topology, fingerprint
    /// and delta stream are the definition's
    /// ([`crate::oracle::equilibrium_live`]; property-tested in
    /// `tests/prop_shard.rs`).
    ///
    /// # Panics
    ///
    /// Panics unless `peers[i].id().index() == i` for every `i` (the
    /// store owns the id space) and all peers share one dimensionality,
    /// if the dimensionality exceeds [`MAX_ORTHANT_DIM`], or if there
    /// are more than `u32::MAX` peers.
    #[must_use]
    pub fn from_peers(
        peers: Vec<PeerInfo>,
        selection: Arc<dyn NeighborSelection + Send + Sync>,
    ) -> Self {
        assert!(
            ids_in_slice_order(&peers),
            "TopologyStore requires dense insertion-order peer ids"
        );
        assert!(
            peers
                .windows(2)
                .all(|w| w[0].point().dim() == w[1].point().dim()),
            "population dimensionality is fixed per overlay"
        );
        if let Some(first) = peers.first() {
            assert_orthant_dim(first.point().dim());
        }
        assert_id_width(peers.len());
        let index = GridIndex::build(&peers);
        let n = peers.len();
        let shape = selection.churn_shape();
        let swept = if shape == ChurnShape::EmptyRect {
            sweep_rows(&index)
        } else {
            None
        };
        let out: Vec<Row> = swept.unwrap_or_else(|| {
            let ctx = SelectContext::with_index(&index, true).masked(index.removed());
            map_indexed(Grain::PEERS, n, |i| {
                to_row(&selection.select_in(&peers, i, &ctx))
            })
        });
        let mut rev = Vec::new();
        if shape != ChurnShape::EmptyRect {
            rev.resize(n, Vec::new());
            for (i, nbrs) in out.iter().enumerate() {
                for &j in nbrs {
                    rev[j as usize].push(i as u32);
                }
            }
            // Fill order is ascending in `i`, so rev lists are born sorted.
        }
        let peer_hash: Vec<u64> = out
            .iter()
            .enumerate()
            .map(|(i, nbrs)| row_hash(i, nbrs))
            .collect();
        let fingerprint = peer_hash.iter().fold(0, |acc, h| acc ^ h);
        TopologyStore {
            out,
            rev,
            peer_hash,
            fingerprint,
            epoch: 0,
            log: DeltaLog::default(),
            links_made: 0,
            links_cut: 0,
            walk: JoinWalk::default(),
            peers,
            selection,
            shape,
            index,
        }
    }

    /// [`TopologyStore::from_peers`], under the name the benchmark
    /// harness still calls; `config` is read by nothing (see
    /// [`ShardConfig`]).
    ///
    /// # Panics
    ///
    /// As [`TopologyStore::from_peers`].
    #[must_use]
    pub fn from_peers_sharded(
        peers: Vec<PeerInfo>,
        selection: Arc<dyn NeighborSelection + Send + Sync>,
        _config: &ShardConfig,
    ) -> Self {
        Self::from_peers(peers, selection)
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

    /// What the empty-rectangle join walk did since construction —
    /// joins walked, descent steps, rows read, peers offered, front
    /// members tested — counted
    /// like [`TopologyStore::links_made_by_leaves`]; the other rules
    /// query the index and count nothing here.
    #[must_use]
    pub fn join_walk_stats(&self) -> JoinWalkStats {
        self.walk.stats()
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
        self.index.live_count()
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
        self.departed()[id.index()]
    }

    /// The departed mask, indexable by [`PeerId::index`].
    #[must_use]
    pub fn departed(&self) -> &[bool] {
        self.index.removed()
    }

    /// The selection rule the store maintains the equilibrium of.
    #[must_use]
    pub fn selection(&self) -> &Arc<dyn NeighborSelection + Send + Sync> {
        &self.selection
    }

    /// The equilibrium out-neighbours of peer `i` (sorted; empty for
    /// departed peers), as a copy at `usize` width: the store holds its
    /// rows as `u32` ids. The library's hot paths read the stored row
    /// in place (the crate-visible `row`, and
    /// [`TopologyStore::neighbors`], the undirected row).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn out_neighbors(&self, i: usize) -> Vec<usize> {
        widen(self.row(i))
    }

    /// Peer `i`'s stored row: its out-neighbours as `u32` ids, sorted.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.out[i]
    }

    /// The peers currently selecting `i` (sorted; empties out when `i`
    /// departs), copied like [`TopologyStore::out_neighbors`]. Under the
    /// empty-rectangle rule links are mutual and this is `i`'s own row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    // lint:allow(D006, reason = "how store's tests see the reverse table the re-selecting rules keep, which the group engine and the graft pass read through neighbors; under the empty-rectangle rule it is out itself")
    pub fn rev_neighbors(&self, i: usize) -> Vec<usize> {
        widen(if self.mutual() {
            self.row(i)
        } else {
            &self.rev[i]
        })
    }

    /// Heap bytes the adjacency tables hold, capacity included: each
    /// table's row headers and every row's id buffer, the reverse table
    /// too where the rule keeps one.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        let table = |rows: &Vec<Row>| {
            rows.capacity() * std::mem::size_of::<Row>()
                + rows.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<u32>()
        };
        table(&self.out) + table(&self.rev)
    }

    /// `true` under the empty-rectangle rule, whose links are mutual:
    /// `out` is the store's one adjacency table and `rev` stays empty.
    fn mutual(&self) -> bool {
        self.shape == ChurnShape::EmptyRect
    }

    /// Peer `i`'s undirected row, sorted and deduplicated, read in
    /// place: under the empty-rectangle rule the stored row itself, under
    /// the re-selecting rules a lazy merge of who `i` selects and who
    /// selects `i`. Empty for a departed peer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> Neighbors<'_> {
        let rev: &[u32] = if self.mutual() { &[] } else { &self.rev[i] };
        Neighbors {
            out: self.row(i),
            rev,
        }
    }

    /// The current equilibrium topology as a CSR graph (departed peers
    /// keep their vertex, edge-less).
    #[must_use]
    pub fn graph(&self) -> OverlayGraph {
        let mut offsets = Vec::with_capacity(self.out.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for row in &self.out {
            targets.extend(row.iter().map(|&j| j as usize));
            offsets.push(targets.len());
        }
        // Stored rows are sorted, duplicate-free and never hold their
        // own peer: CSR parts as they are.
        OverlayGraph::from_csr(offsets, targets)
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
    /// equilibrium: the newcomer gets its row over the full live
    /// population — walked over the store's rows under the
    /// empty-rectangle rule, a query on the index otherwise — and only
    /// peers whose rows its arrival can change are updated (see the
    /// module docs for who they are and why that is exact).
    ///
    /// Returns the new peer's id; the newest entry of
    /// [`TopologyStore::delta_log`] lists the affected peers.
    ///
    /// # Panics
    ///
    /// Panics if `point`'s dimensionality disagrees with the population
    /// (the paper fixes `D` per system) or exceeds [`MAX_ORTHANT_DIM`],
    /// or if the store already holds `u32::MAX` peers.
    pub fn insert(&mut self, point: Point) -> PeerId {
        assert_orthant_dim(point.dim());
        assert_id_width(self.peers.len() + 1);
        if let Some(first) = self.peers.first() {
            assert_eq!(
                point.dim(),
                first.point().dim(),
                "population dimensionality is fixed per overlay"
            );
        }
        let id = self.peers.len();
        let slot = self.index.insert(&point);
        debug_assert_eq!(slot, id, "index slots are peer ids");
        self.peers.push(PeerInfo::new(PeerId(id as u64), point));
        self.out.push(Vec::new());
        if !self.mutual() {
            self.rev.push(Vec::new());
        }
        self.peer_hash.push(row_hash(id, &[]));
        self.fingerprint ^= self.peer_hash[id];
        let dirty = match self.shape {
            ChurnShape::EmptyRect => self.join_links(id),
            shape => {
                let own = self.select_row(id);
                self.join_reselect(id, own, shape)
            }
        };
        self.record_delta(DeltaKind::Join(id), dirty);
        PeerId(id as u64)
    }

    /// The empty-rectangle join as edge edits: the newcomer's row `own`
    /// is walked over the rows the store holds from a start the index
    /// locates (module docs, "The newcomer's own row"), the newcomer
    /// links with every peer of it, and the linked pairs of `own` whose
    /// rectangle the newcomer now sits in are cut ([`straddled_links`];
    /// every eviction is such a pair), so the rows that change, and the
    /// dirty region returned, are `own` and the newcomer's.
    fn join_links(&mut self, id: usize) -> Vec<usize> {
        let own = match self.index.locate(self.peers[id].point(), Some(id)) {
            Some(start) => self.walk.row(&self.index, &self.out, id, start),
            None => Vec::new(),
        };
        let cuts = straddled_links(&self.index, &self.out, id, &own);
        for &(i, r) in &cuts {
            self.unlink(i, r);
        }
        self.links_cut += cuts.len() as u64;
        let mut dirty = Vec::with_capacity(own.len() + 1);
        for &i in &own {
            // `id` is the largest index, so pushing keeps each row, and
            // the dirty list, sorted.
            self.out[i as usize].push(id as u32);
            dirty.push(i as usize);
        }
        dirty.push(id);
        // Links are mutual: the walked row is the newcomer's own.
        self.out[id] = own;
        self.check_and_rehash(&dirty, "join", id);
        dirty
    }

    /// The join of every other rule: whoever the rule's structure
    /// cannot rule out re-runs it on `old row ∪ {newcomer}`.
    fn join_reselect(&mut self, id: usize, own: Row, shape: ChurnShape) -> Vec<usize> {
        let selection = self.selection.as_ref();
        let (peers, departed, out) = (&self.peers, self.index.removed(), &self.out);
        let affected: Vec<usize> = match shape {
            ChurnShape::OrthantTopK { k } => map_indexed(Grain::PEERS, id, |i| {
                (!departed[i] && topk_join_recheck(peers, out, i, id, k)).then_some(i)
            })
            .into_iter()
            .flatten()
            .collect(),
            // No structure to rule anyone out by: everyone.
            _ => (0..id).filter(|&i| !departed[i]).collect(),
        };
        let updates: Vec<Row> = map_indexed(Grain::PEERS, affected.len(), |a| {
            let i = affected[a];
            // `id` is the largest index, so appending keeps the
            // candidate id list sorted.
            let mut cand_ids: Row = Vec::with_capacity(out[i].len() + 1);
            cand_ids.extend_from_slice(&out[i]);
            cand_ids.push(id as u32);
            let refs: Vec<&PeerInfo> = cand_ids.iter().map(|&j| &peers[j as usize]).collect();
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
        if v >= self.peers.len() || self.is_departed(id) {
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
        assert!(!self.is_departed(id), "{id} already departed");
        self.index.remove(v);
        let dirty = match self.shape {
            ChurnShape::EmptyRect => self.leave_links(v),
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
        let pairs = unblocked_pairs(&self.index, v, &row);
        for &i in &row {
            // `v`'s own row is gone already: one half to unlink.
            Self::row_remove(&mut self.out[i as usize], v as u32);
        }
        for &(i, w) in &pairs {
            self.link(i, w);
        }
        self.links_made += pairs.len() as u64;
        let mut dirty = Vec::with_capacity(row.len() + 1);
        dirty.extend(row.iter().map(|&i| i as usize));
        dirty.insert(dirty.partition_point(|&i| i < v), v);
        self.check_and_rehash(&dirty, "leave", v);
        dirty
    }

    /// Re-hashes each row an empty-rectangle `event` of `peer` edited;
    /// debug builds first hold it against its re-selection on the index
    /// (a departed peer's is empty).
    fn check_and_rehash(&mut self, rows: &[usize], event: &str, peer: usize) {
        for &i in rows {
            if cfg!(debug_assertions) {
                let want = if self.departed()[i] {
                    Vec::new()
                } else {
                    self.select_row(i)
                };
                assert_eq!(
                    self.out[i], want,
                    "{event} of {peer}: peer {i}'s edited row differs from its re-selection"
                );
            }
            self.rehash(i);
        }
    }

    /// Peer `i`'s row over the live population, selected from scratch:
    /// a query on the index, or the rule's brute selection where the
    /// index has no query for it (beyond `MAX_INDEX_DIM`, or a rule
    /// other than the two the index serves).
    fn select_row(&self, i: usize) -> Row {
        let ctx = SelectContext::with_index(&self.index, true).masked(self.index.removed());
        to_row(&self.selection.select_in(&self.peers, i, &ctx))
    }

    /// The leave of every other rule: the departed peer's selectors
    /// re-select through the tombstoned index.
    fn leave_reselect(&mut self, v: usize) -> Vec<usize> {
        let mut delta = BTreeSet::new();
        delta.insert(v);
        // Only its selectors can lose an edge. Taking the list also
        // releases its capacity: nobody selects a departed id again.
        let affected = std::mem::take(&mut self.rev[v]);
        for i in affected {
            let i = i as usize;
            let new_out = self.select_row(i);
            self.apply_out(i, new_out, &mut delta);
        }
        // The departed peer selects nobody.
        self.apply_out(v, Vec::new(), &mut delta);
        delta.into_iter().collect()
    }

    /// Enters the mutual link `a – b` in both rows of the one table the
    /// empty-rectangle rule keeps.
    fn link(&mut self, a: usize, b: usize) {
        Self::row_insert(&mut self.out[a], b as u32);
        Self::row_insert(&mut self.out[b], a as u32);
    }

    /// Removes the mutual link `a – b` from both rows.
    fn unlink(&mut self, a: usize, b: usize) {
        Self::row_remove(&mut self.out[a], b as u32);
        Self::row_remove(&mut self.out[b], a as u32);
    }

    /// Brings `i`'s hash and the rolling fingerprint up to its row.
    fn rehash(&mut self, i: usize) {
        let new_hash = row_hash(i, &self.out[i]);
        self.fingerprint ^= self.peer_hash[i] ^ new_hash;
        self.peer_hash[i] = new_hash;
    }

    /// Replaces `i`'s out-list, maintaining reverse lists, hashes, the
    /// rolling fingerprint, and the delta set.
    fn apply_out(&mut self, i: usize, new_out: Row, delta: &mut BTreeSet<usize>) {
        if self.out[i] == new_out {
            return;
        }
        let old_out = std::mem::replace(&mut self.out[i], new_out);
        // Symmetric difference updates the reverse lists; both lists are
        // sorted, so a merge walk finds the diffs.
        let (mut x, mut y) = (0usize, 0usize);
        let selector = i as u32;
        loop {
            match (old_out.get(x), self.out[i].get(y)) {
                (Some(&u), Some(&v)) if u == v => {
                    x += 1;
                    y += 1;
                }
                (Some(&u), Some(&v)) if u < v => {
                    Self::row_remove(&mut self.rev[u as usize], selector);
                    delta.insert(u as usize);
                    x += 1;
                }
                (Some(_), Some(&v)) => {
                    Self::row_insert(&mut self.rev[v as usize], selector);
                    delta.insert(v as usize);
                    y += 1;
                }
                (Some(&u), None) => {
                    Self::row_remove(&mut self.rev[u as usize], selector);
                    delta.insert(u as usize);
                    x += 1;
                }
                (None, Some(&v)) => {
                    Self::row_insert(&mut self.rev[v as usize], selector);
                    delta.insert(v as usize);
                    y += 1;
                }
                (None, None) => break,
            }
        }
        self.rehash(i);
        delta.insert(i);
    }

    fn row_insert(row: &mut Row, i: u32) {
        if let Err(pos) = row.binary_search(&i) {
            row.insert(pos, i);
        }
    }

    fn row_remove(row: &mut Row, i: u32) {
        if let Ok(pos) = row.binary_search(&i) {
            row.remove(pos);
        }
    }
}

/// A peer's undirected row, borrowed from the store
/// ([`TopologyStore::neighbors`]): the merge of two sorted `u32` rows
/// (the second empty where links are mutual), yielding `usize` ids in
/// ascending order, each once.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    out: &'a [u32],
    rev: &'a [u32],
}

impl Iterator for Neighbors<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let (u, v) = (self.out.first().copied(), self.rev.first().copied());
        let next = match (u, v) {
            (Some(u), Some(v)) => u.min(v),
            _ => u.or(v)?,
        };
        if u == Some(next) {
            self.out = &self.out[1..];
        }
        if v == Some(next) {
            self.rev = &self.rev[1..];
        }
        Some(next as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (a, b) = (self.out.len(), self.rev.len());
        (a.max(b), Some(a + b))
    }
}

/// A stored row at `usize` width.
fn widen(row: &[u32]) -> Vec<usize> {
    row.iter().map(|&j| j as usize).collect()
}

impl std::fmt::Debug for TopologyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopologyStore")
            .field("peers", &self.peers.len())
            .field("live", &self.index.live_count())
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
    use geocast_geom::gen::uniform_points;

    fn points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        uniform_points(n, dim, 1000.0, seed).into_points()
    }

    /// The definitional reference: selections of the live population
    /// computed from scratch, expressed over the store's dense ids.
    fn reference_graph(store: &TopologyStore) -> OverlayGraph {
        oracle::equilibrium_live(store.peers(), store.departed(), store.selection().as_ref())
    }

    /// The four rule families: the empty-rectangle rule, and the
    /// orthogonal, signed and `H = 0` Hyperplanes instances.
    fn selections() -> Vec<Arc<dyn NeighborSelection + Send + Sync>> {
        vec![
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(2, 2)),
            Arc::new(HyperplanesSelection::signed(2, 1)),
            Arc::new(HyperplanesSelection::k_closest(2, 4)),
        ]
    }

    /// The store holds what the definition says it must — adjacency and
    /// fingerprint from scratch, no index. Returns the reference graph.
    fn assert_is_definition(store: &TopologyStore, what: &str) -> OverlayGraph {
        let want = reference_graph(store);
        assert_eq!(store.graph(), want, "{what}: adjacency");
        assert_eq!(
            store.fingerprint(),
            oracle::fingerprint(&want),
            "{what}: fingerprint"
        );
        want
    }

    #[test]
    fn bulk_build_matches_the_definition_under_every_rule() {
        for selection in selections() {
            let store = TopologyStore::from_peers(
                PeerInfo::from_point_set(&uniform_points(90, 2, 1000.0, 5)),
                selection.clone(),
            );
            assert_is_definition(&store, &selection.name());
            assert_eq!(store.epoch(), 0, "{}", selection.name());
        }
    }

    #[test]
    fn churn_matches_the_definition_under_every_rule() {
        for selection in selections() {
            let mut store = TopologyStore::from_peers(
                PeerInfo::from_point_set(&uniform_points(60, 2, 1000.0, 9)),
                selection.clone(),
            );
            let mut before = assert_is_definition(&store, "bulk build");
            let mut epoch = 0;
            let mut check = |store: &TopologyStore, kind: DeltaKind, what: &str| {
                let after = assert_is_definition(store, what);
                epoch += 1;
                let delta = TopologyDelta {
                    epoch,
                    kind,
                    dirty: oracle::dirty_region(&before, &after, kind.peer()),
                };
                assert_eq!(store.delta_log().newest(), Some(&delta), "{what}");
                before = after;
            };
            for (step, p) in points(25, 2, 10).into_iter().enumerate() {
                let what = format!("{} step {step}", selection.name());
                let id = store.insert(p);
                check(&store, DeltaKind::Join(id.index()), &what);
                if step % 3 == 1 {
                    let gone = PeerId((step * 7 % 60) as u64);
                    if !store.is_departed(gone) {
                        store.remove(gone);
                        check(&store, DeltaKind::Leave(gone.index()), &what);
                    }
                }
            }
        }
    }

    #[test]
    fn colliding_coordinates_stay_exact_under_every_rule() {
        // Shared coordinates: the index answers the empty-rectangle and
        // orthogonal rules under their own tie semantics; the other two
        // select by brute force, ties or not.
        let peers: Vec<PeerInfo> = [
            [0.0, 0.0],
            [500.0, 0.0],
            [200.0, 300.0],
            [500.0, 700.0],
            [900.0, 400.0],
            [900.0, 900.0],
        ]
        .iter()
        .enumerate()
        .map(|(i, xy)| PeerInfo::new(PeerId(i as u64), Point::new(xy.to_vec()).unwrap()))
        .collect();
        for selection in selections() {
            let mut store = TopologyStore::from_peers(peers.clone(), selection.clone());
            assert_is_definition(&store, &selection.name());
            store.insert(Point::new(vec![200.0, 900.0]).unwrap());
            store.remove(PeerId(1));
            assert_is_definition(&store, &selection.name());
        }
    }

    #[test]
    fn identical_points_stay_exact() {
        let p = Point::new(vec![5.0, 5.0]).unwrap();
        let same: Vec<PeerInfo> = (0..5)
            .map(|i| PeerInfo::new(PeerId(i as u64), p.clone()))
            .collect();
        let store = TopologyStore::from_peers(same, Arc::new(EmptyRectSelection));
        assert_is_definition(&store, "identical points");
    }

    #[test]
    fn a_departed_id_retains_no_reverse_list() {
        // A Leave takes the departed peer's lists: the peer is never
        // selected again, so the capacity goes too. Under the
        // empty-rectangle rule links are mutual and `out` is the one
        // table, so the peer's selectors are its row; a directed
        // Hyperplanes rule keeps a reverse table, and that list goes as
        // well.
        for (mutual, rule) in [true, false].into_iter().zip(one_table_and_two()) {
            let mut store = TopologyStore::from_peers(
                PeerInfo::from_point_set(&uniform_points(60, 2, 1000.0, 7)),
                rule,
            );
            let what = store.selection().name();
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

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn the_harness_shim_keeps_its_zero_check() {
        let _ = ShardConfig::new(0);
    }

    #[test]
    fn sequential_insertion_matches_oracle() {
        let pts = points(60, 2, 7);
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        for p in &pts {
            store.insert(p.clone());
        }
        assert_eq!(store.graph(), reference_graph(&store));
    }

    #[test]
    fn insert_then_remove_matches_reference_for_hyperplanes() {
        let pts = points(50, 3, 11);
        let sel = Arc::new(HyperplanesSelection::orthogonal(3, 2));
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
        // harness's shim at sixteen shards: one index, one state.
        let rules: [Arc<dyn NeighborSelection + Send + Sync>; 2] = [
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(2, 2)),
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
                TopologyStore::from_peers_sharded(peers, rule.clone(), &ShardConfig::new(16)),
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
                *prev = store.out_neighbors(i);
            }
        }
    }

    /// The mutual rule, whose one table answers both directions, and a
    /// directed Hyperplanes rule, which keeps a real reverse table.
    fn one_table_and_two() -> [Arc<dyn NeighborSelection + Send + Sync>; 2] {
        [
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(2, 1)),
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
                for j in store.out_neighbors(i) {
                    assert!(
                        store.rev_neighbors(j).contains(&i),
                        "{}: edge {i}->{j} missing from reverse table",
                        rule.name()
                    );
                }
                for j in store.rev_neighbors(i) {
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
        // `out_neighbors`, `neighbors` and `graph()` read
        // the same stored rows: under the mutual rule and under directed
        // ones (Hyperplanes K = 1, D = 2 and K = 2, D = 3) they agree row
        // by row after each join and each leave.
        let [mutual, directed] = one_table_and_two();
        let rules: [(Arc<dyn NeighborSelection + Send + Sync>, usize); 3] = [
            (mutual, 2),
            (directed, 2),
            (Arc::new(HyperplanesSelection::orthogonal(3, 2)), 3),
        ];
        for (rule, dim) in rules {
            let peers = PeerInfo::from_point_set(&uniform_points(80, dim, 1000.0, 71));
            let mut store = TopologyStore::from_peers(peers, rule.clone());
            let check = |store: &TopologyStore, what: &str| {
                let graph = store.graph();
                let closure = graph.undirected_closure();
                for i in 0..store.len() {
                    assert_eq!(
                        store.out_neighbors(i),
                        graph.out_neighbors(i),
                        "{what}: {i}"
                    );
                    let row: Vec<usize> = store.neighbors(i).collect();
                    assert_eq!(row, closure.out_neighbors(i), "{what}: {i}, undirected");
                }
            };
            for (step, p) in points(30, dim, 72).into_iter().enumerate() {
                let what = format!("{} step {step}", rule.name());
                store.insert(p);
                check(&store, &format!("{what}, join"));
                if store.remove_if_present(PeerId((step * 13 % 80) as u64)) {
                    check(&store, &format!("{what}, leave"));
                }
            }
        }
    }

    #[test]
    fn a_stored_row_hashes_as_its_ids_at_usize_width() {
        // The fingerprint's values do not move with the row width: the
        // stored `u32` row and the `usize` ids hash alike, the empty row
        // and ids past `u16::MAX` included, at values the `usize` fold
        // gave before rows narrowed.
        let ids = [0, 1, 7, 65_535, 65_536, 70_000, u32::MAX as usize - 1];
        for i in [0, 3, 65_536, 1 << 40] {
            for len in 0..=ids.len() {
                let wide = &ids[..len];
                assert_eq!(
                    row_hash(i, &to_row(wide)),
                    topology_hash(i, wide),
                    "{i}: {wide:?}"
                );
            }
        }
        assert_eq!(topology_hash(0, &[]), 0xb54d_28cb_8e7e_ceb0);
        assert_eq!(
            row_hash(3, &[1, 65_535, 65_536, 70_000]),
            0x99f5_f837_ec98_b1ff
        );
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
    #[should_panic(expected = "dimension 33 exceeds MAX_ORTHANT_DIM")]
    fn more_dimensions_than_orthant_codes_hold_are_rejected_up_front() {
        // Not deep inside the bulk build's brute selection: the store
        // refuses the population before building anything.
        let peers = PeerInfo::from_point_set(&uniform_points(4, MAX_ORTHANT_DIM + 1, 1000.0, 3));
        let _ = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    }

    #[test]
    #[should_panic(expected = "dimension 33 exceeds MAX_ORTHANT_DIM")]
    fn a_first_insert_beyond_orthant_codes_is_rejected() {
        let mut store = TopologyStore::new(Arc::new(EmptyRectSelection));
        store.insert(Point::new(vec![1.0; MAX_ORTHANT_DIM + 1]).unwrap());
    }

    #[test]
    #[should_panic(expected = "4294967296 peers: the store keeps peer ids as u32")]
    fn a_population_past_u32_ids_is_rejected() {
        // The check `from_peers` and `insert` make before a peer enters;
        // a population that size is not built to show it.
        assert_id_width(u32::MAX as usize);
        assert_id_width(u32::MAX as usize + 1);
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
        // Beyond MAX_INDEX_DIM the index declines every query: the bulk
        // build and every Hyperplanes re-selection are brute
        // selections. An empty-rectangle join locates its start by
        // buckets, which never decline, and walks rows; its leave links
        // the departed peer's neighbours — neither asks the index a
        // query in any dimensionality. Bulk build, growth from empty,
        // joins and leaves equal the oracle after every event.
        let dim = geocast_geom::index::MAX_INDEX_DIM + 1;
        let rules: [Arc<dyn NeighborSelection + Send + Sync>; 2] = [
            Arc::new(EmptyRectSelection),
            Arc::new(HyperplanesSelection::orthogonal(dim, 1)),
        ];
        for rule in rules {
            let peers = PeerInfo::from_point_set(&uniform_points(14, dim, 1000.0, 53));
            let mut grown = TopologyStore::new(rule.clone());
            for p in points(14, dim, 53) {
                grown.insert(p);
                assert_eq!(grown.graph(), reference_graph(&grown), "{}", rule.name());
            }
            let mut stores = [grown, TopologyStore::from_peers(peers, rule.clone())];
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
    fn colliding_coordinates_join_and_leave_exactly() {
        // A workload violating per-dimension distinctness. A join's
        // walk orders a newcomer's shared coordinates by id and never
        // asks the index; the leave removes a peer that shares a
        // coordinate with two of its selectors, and the pair kernel is
        // the rule's own strict test. Neither runs a brute selection.
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
        // pair kernel reads the departed peer's row: none of these
        // leaves selects a row at all.
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
        assert_eq!(store.graph(), reference_graph(&store));
        assert_eq!(store.fingerprint(), oracle::fingerprint(&store.graph()));
    }

    #[test]
    fn a_join_tied_to_its_row_members_cuts_exactly() {
        // The join half: each newcomer copies one coordinate of a live
        // peer and the other coordinate of one of that peer's
        // neighbours, and ranks above both there by id. The walk finds
        // the newcomer's own row over store rows, so no join queries the
        // index and none runs a brute selection; its row is the
        // definition's. Debug builds re-select every edited row, the
        // newcomer's included, after each join.
        let peers = PeerInfo::from_point_set(&uniform_points(2000, 2, 1000.0, 67));
        let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
        for k in 0..20 {
            let t = 100 * k + 7;
            let u = store.out_neighbors(t)[k % store.out_neighbors(t).len()];
            let tied = store.peers()[t]
                .point()
                .with_coord(1, store.peers()[u].point()[1]);
            let q = store.insert(tied).index();
            let ctx = SelectContext::without_index().masked(store.departed());
            let want = EmptyRectSelection.select_in(store.peers(), q, &ctx);
            assert_eq!(store.out_neighbors(q), &want[..], "join {k}");
        }
        assert_eq!(store.join_walk_stats().joins, 20, "every join walked");
        assert_eq!(store.graph(), reference_graph(&store));
        assert_eq!(store.fingerprint(), oracle::fingerprint(&store.graph()));
    }
}
