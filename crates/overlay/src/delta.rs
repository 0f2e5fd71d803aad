//! The epoch-numbered delta stream of a [`crate::TopologyStore`].
//!
//! The multi-group session engine has independent consumers (group
//! repair over one tree per multicast group, the data-plane flush) that
//! each absorb membership change *at their own pace*.
//!
//! The [`DeltaLog`] is the one way to read a change: a durable,
//! epoch-numbered stream to which every [`crate::TopologyStore::insert`]
//! / `remove` appends one [`TopologyDelta`] — the event and its dirty
//! region — tagged with the store's post-mutation epoch.
//! Consumers remember the last epoch they absorbed and call
//! [`DeltaLog::deltas_since`]; the log answers with exactly the missed
//! deltas — or `None` when the consumer fell behind the log's bounded
//! retention, in which case it must resynchronise from the full store
//! state (every consumer in this workspace has such a path: the group
//! engine's `full_resync`).

use std::collections::VecDeque;

/// What kind of membership event produced a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Peer `0` joined (the value is its dense index).
    Join(usize),
    /// Peer `0` departed (crash-stop).
    Leave(usize),
}

impl DeltaKind {
    /// The dense index of the joining/leaving peer.
    #[must_use]
    pub fn peer(&self) -> usize {
        match *self {
            DeltaKind::Join(p) | DeltaKind::Leave(p) => p,
        }
    }
}

/// One membership event's full effect on the topology: the event itself
/// plus the **dirty region** — every peer whose out-list, reverse list
/// or membership changed, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyDelta {
    /// The store epoch this delta produced (the first mutation after
    /// construction is epoch 1).
    pub epoch: u64,
    /// The membership event.
    pub kind: DeltaKind,
    /// The dirty region (sorted dense peer indices).
    pub dirty: Vec<usize>,
}

/// Bounded retention buffer of [`TopologyDelta`]s, newest last.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    deltas: VecDeque<TopologyDelta>,
    capacity: usize,
    /// Epoch of the newest recorded delta (0 before any mutation).
    head: u64,
}

/// Default number of deltas a store retains; far above what a consumer
/// that syncs after every event needs, small enough to be free at
/// N = 100k.
pub const DEFAULT_DELTA_CAPACITY: usize = 1024;

impl DeltaLog {
    /// Creates an empty log retaining at most `capacity` deltas.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a log that can never answer).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "delta log capacity must be positive");
        DeltaLog {
            deltas: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            head: 0,
        }
    }

    /// Creates an empty log whose next recorded delta must carry epoch
    /// `head + 1` — how a store re-anchors the stream after dropping
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn anchored(capacity: usize, head: u64) -> Self {
        let mut log = DeltaLog::new(capacity);
        log.head = head;
        log
    }

    /// Epoch of the newest recorded delta (0 before any mutation).
    #[must_use]
    pub fn head_epoch(&self) -> u64 {
        self.head
    }

    /// Oldest epoch still retained, if any delta is retained at all.
    #[must_use]
    pub fn tail_epoch(&self) -> Option<u64> {
        self.deltas.front().map(|d| d.epoch)
    }

    /// Number of retained deltas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` if no delta was recorded yet (or all were evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The newest retained delta — what the last mutation changed.
    /// `None` before any mutation (or right after history was dropped).
    #[must_use]
    pub fn newest(&self) -> Option<&TopologyDelta> {
        self.deltas.back()
    }

    /// Appends a delta, evicting the oldest beyond capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `delta.epoch == head_epoch() + 1` — epochs are a
    /// gap-free sequence by construction.
    pub fn record(&mut self, delta: TopologyDelta) {
        assert_eq!(delta.epoch, self.head + 1, "delta epochs must be gap-free");
        self.head = delta.epoch;
        if self.deltas.len() == self.capacity {
            self.deltas.pop_front();
        }
        self.deltas.push_back(delta);
    }

    /// The deltas strictly after `epoch`, oldest first — everything a
    /// consumer that last absorbed `epoch` has missed.
    ///
    /// Returns `None` when the consumer is too far behind (the log has
    /// evicted a delta it would need) or claims an epoch from the
    /// future; the consumer must then resynchronise from the full store
    /// state instead of replaying deltas.
    #[must_use]
    pub fn deltas_since(&self, epoch: u64) -> Option<impl Iterator<Item = &TopologyDelta>> {
        if epoch > self.head {
            return None;
        }
        if epoch == self.head {
            return Some(self.deltas.iter().skip(self.deltas.len()));
        }
        // Retained epochs are the contiguous run tail..=head; the oldest
        // delta the consumer needs is epoch + 1.
        let tail = self.tail_epoch()?;
        if tail > epoch + 1 {
            return None;
        }
        Some(self.deltas.iter().skip((epoch + 1 - tail) as usize))
    }
}

impl Default for DeltaLog {
    fn default() -> Self {
        DeltaLog::new(DEFAULT_DELTA_CAPACITY)
    }
}

/// What one [`DeltaCursor::catch_up`] found in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorCatchUp {
    /// The cursor already sat at the log head: nothing to absorb.
    UpToDate,
    /// The deltas recorded since the cursor's epoch, oldest first. The
    /// cursor has advanced past them.
    Deltas(Vec<TopologyDelta>),
    /// The log evicted a delta the cursor needed: the consumer must
    /// resynchronise from full store state. The cursor has jumped to
    /// the log head and the resync was counted.
    Resync,
}

/// One consumer's position in a [`DeltaLog`], with its own absorption
/// and resync ledger.
///
/// PR 8 left every consumer tracking a bare `u64` epoch, which made the
/// eviction-horizon fallback *silent*: a laggard rebuilt from full
/// store state without anything counting how often. A `DeltaCursor`
/// owns both the position and the accounting — each consumer (group
/// repair, data-plane flush) advances at its own cadence and reports
/// `absorbed` / `resyncs` per consumer.
///
/// ```
/// use geocast_overlay::delta::{CursorCatchUp, DeltaCursor, DeltaLog};
///
/// let log = DeltaLog::default();
/// let mut cursor = DeltaCursor::new("group-repair");
/// assert_eq!(cursor.catch_up(&log), CursorCatchUp::UpToDate);
/// assert_eq!(cursor.resyncs(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaCursor {
    name: &'static str,
    epoch: u64,
    absorbed: u64,
    resyncs: u64,
}

impl DeltaCursor {
    /// A cursor named for its consumer, starting at epoch 0 (a store
    /// fresh from construction).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        DeltaCursor::at(name, 0)
    }

    /// A cursor starting at a given epoch — how a consumer adopts a
    /// store that already has history it considers absorbed.
    #[must_use]
    pub fn at(name: &'static str, epoch: u64) -> Self {
        DeltaCursor {
            name,
            epoch,
            absorbed: 0,
            resyncs: 0,
        }
    }

    /// The consumer this cursor belongs to.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The last epoch this consumer absorbed.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total deltas absorbed through [`DeltaCursor::catch_up`].
    #[must_use]
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Times the consumer fell past the log's eviction horizon and was
    /// told to resynchronise from full store state.
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Advances the cursor to the log head and reports what the
    /// consumer must do to get there: nothing, replay the returned
    /// deltas, or — when the log evicted a needed delta — resync from
    /// full store state (counted in [`DeltaCursor::resyncs`]).
    ///
    /// The cursor always lands on the head, so consecutive calls
    /// without intervening mutations are no-ops.
    pub fn catch_up(&mut self, log: &DeltaLog) -> CursorCatchUp {
        if self.epoch == log.head_epoch() {
            return CursorCatchUp::UpToDate;
        }
        match log.deltas_since(self.epoch) {
            Some(it) => {
                let deltas: Vec<TopologyDelta> = it.cloned().collect();
                self.absorbed += deltas.len() as u64;
                self.epoch = log.head_epoch();
                CursorCatchUp::Deltas(deltas)
            }
            None => {
                self.resyncs += 1;
                self.epoch = log.head_epoch();
                CursorCatchUp::Resync
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(epoch: u64) -> TopologyDelta {
        TopologyDelta {
            epoch,
            kind: DeltaKind::Join(epoch as usize),
            dirty: vec![epoch as usize],
        }
    }

    #[test]
    fn records_and_replays_in_order() {
        let mut log = DeltaLog::new(8);
        for e in 1..=5 {
            log.record(delta(e));
        }
        assert_eq!(log.head_epoch(), 5);
        assert_eq!(log.newest(), Some(&delta(5)));
        let missed: Vec<u64> = log.deltas_since(2).unwrap().map(|d| d.epoch).collect();
        assert_eq!(missed, vec![3, 4, 5]);
        let all: Vec<u64> = log.deltas_since(0).unwrap().map(|d| d.epoch).collect();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn up_to_date_consumer_gets_empty_stream() {
        let mut log = DeltaLog::new(4);
        log.record(delta(1));
        assert_eq!(log.deltas_since(1).unwrap().count(), 0);
        // A brand-new log is trivially up to date at epoch 0.
        assert_eq!(DeltaLog::new(4).deltas_since(0).unwrap().count(), 0);
        assert_eq!(DeltaLog::new(4).newest(), None);
    }

    #[test]
    fn eviction_forces_resync_for_laggards_only() {
        let mut log = DeltaLog::new(3);
        for e in 1..=5 {
            log.record(delta(e));
        }
        // Epochs 1 and 2 are evicted: a consumer at epoch 1 needs delta
        // 2, which is gone.
        assert!(log.deltas_since(1).is_none());
        // A consumer at epoch 2 needs deltas 3..=5, all retained.
        let missed: Vec<u64> = log.deltas_since(2).unwrap().map(|d| d.epoch).collect();
        assert_eq!(missed, vec![3, 4, 5]);
    }

    #[test]
    fn future_epochs_are_rejected() {
        let mut log = DeltaLog::new(4);
        log.record(delta(1));
        assert!(log.deltas_since(2).is_none());
    }

    #[test]
    #[should_panic(expected = "gap-free")]
    fn gapped_epochs_are_rejected() {
        let mut log = DeltaLog::new(4);
        log.record(delta(1));
        log.record(delta(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = DeltaLog::new(0);
    }

    #[test]
    fn kind_exposes_the_peer() {
        assert_eq!(DeltaKind::Join(7).peer(), 7);
        assert_eq!(DeltaKind::Leave(9).peer(), 9);
    }

    #[test]
    fn cursor_absorbs_in_order_and_idempotently() {
        let mut log = DeltaLog::new(8);
        let mut cursor = DeltaCursor::new("repair");
        assert_eq!(cursor.catch_up(&log), CursorCatchUp::UpToDate);
        for e in 1..=3 {
            log.record(delta(e));
        }
        match cursor.catch_up(&log) {
            CursorCatchUp::Deltas(ds) => {
                assert_eq!(
                    ds.iter().map(|d| d.epoch).collect::<Vec<_>>(),
                    vec![1, 2, 3]
                );
            }
            other => panic!("expected deltas, got {other:?}"),
        }
        assert_eq!(cursor.epoch(), 3);
        assert_eq!(cursor.absorbed(), 3);
        // Caught up: a second call is a no-op.
        assert_eq!(cursor.catch_up(&log), CursorCatchUp::UpToDate);
        assert_eq!(cursor.absorbed(), 3);
    }

    #[test]
    fn cursor_counts_eviction_horizon_resyncs() {
        let mut log = DeltaLog::new(2);
        let mut cursor = DeltaCursor::new("flush");
        for e in 1..=5 {
            log.record(delta(e));
        }
        // Needs epoch 1, retained tail is 4: forced resync, counted.
        assert_eq!(cursor.catch_up(&log), CursorCatchUp::Resync);
        assert_eq!(cursor.resyncs(), 1);
        assert_eq!(cursor.epoch(), 5);
        // After the resync the cursor rides the log again.
        log.record(delta(6));
        match cursor.catch_up(&log) {
            CursorCatchUp::Deltas(ds) => assert_eq!(ds.len(), 1),
            other => panic!("expected deltas, got {other:?}"),
        }
        assert_eq!(cursor.resyncs(), 1);
    }

    #[test]
    fn cursor_can_adopt_existing_history() {
        let mut log = DeltaLog::new(8);
        for e in 1..=4 {
            log.record(delta(e));
        }
        let mut cursor = DeltaCursor::at("gossip", 3);
        match cursor.catch_up(&log) {
            CursorCatchUp::Deltas(ds) => {
                assert_eq!(ds.iter().map(|d| d.epoch).collect::<Vec<_>>(), vec![4]);
            }
            other => panic!("expected deltas, got {other:?}"),
        }
    }
}
