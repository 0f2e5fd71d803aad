//! Thread-per-shard runtime: channel-fed shard workers behind a fold
//! coordinator.
//!
//! PR 8's sharded store still replays churn through one serial
//! dispatcher: every insert/remove walks the shards in-process, so the
//! critical-path speedup in `BENCH_shard.json` was a model, not a
//! sustained measurement. [`ShardRuntime`] makes the shards *actors*:
//! each [`crate::shard`] tile moves into a long-lived worker thread fed
//! by a bounded MPSC channel of `ShardCommand`s, and the coordinator
//! (the caller's thread) keeps only the global tables — peers,
//! adjacency, fingerprint, delta log — plus small per-shard replicas of
//! the geometry the skip tests need (cover boxes, tile boxes, live
//! counts).
//!
//! # The fold, distributed
//!
//! A selection fold (`fold_select` on the serial engine) becomes a
//! scatter/gather:
//!
//! ```text
//!  coordinator                shard workers (one thread per tile)
//!  ───────────                ──────────────────────────────────
//!  AddMember/Remove  ──────▶  membership + index upkeep
//!  Shortlist{queries} ─────▶  Shard::shortlist per query
//!            ◀──────────────  Shortlists(one list per query)
//!  RecordDelta ────────────▶  scoped ShardDeltaLog::record
//! ```
//!
//! 1. **Home scatter** — every queried peer's home shard answers its
//!    shortlist (batched per shard).
//! 2. **Escape test** — the coordinator runs the PR 8 skip tests
//!    ([`crate::shard`]'s uncovered-box and saturation certificates)
//!    against its replicas; only shards the tests cannot rule out get a
//!    *cross-shard escape* query.
//! 3. **Gather + merge** — replies are collected in ascending shard
//!    order and merged by the same sort/dedup/final-select as the
//!    serial fold.
//!
//! # Why the result is byte-identical
//!
//! Workers and the serial engine share one shortlist implementation
//! (`Shard::shortlist`), commands on a channel are FIFO, the
//! coordinator collects replies in ascending shard order, and every
//! global-table mutation happens on the coordinator in event order —
//! so scheduling freedom never reorders anything observable. The only
//! *timing* freedom left is how far a shard's command queue may run
//! behind; [`RuntimeConfig::barrier`] removes even that by draining
//! every worker after each event, which is the mode the property tests
//! and the CI strict gate pin against the serial dispatcher.
//!
//! # Lifecycle
//!
//! [`ShardRuntime::launch`] detaches the shards from a store built with
//! [`TopologyStore::from_peers_sharded`]; while detached the store
//! answers every read (adjacency, fingerprint, deltas, linear-scan
//! nearest queries) but its own `insert`/`remove` panic — mutations
//! must route through the runtime. [`ShardRuntime::shutdown`] drains
//! the workers and re-attaches the shards, returning the store to the
//! serial dispatcher byte-for-byte.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use geocast_geom::Point;

use crate::churn::{ChurnEvent, ChurnSchedule, StoreChurnReport};
use crate::delta::DeltaKind;
use crate::par;
use crate::peer::{PeerId, PeerInfo};
use crate::select::{NeighborSelection, ShardProfile};
use crate::shard::{orthant_stats, skip_certified, topk_join_recheck, BoxScratch, Shard, Tiling};
use crate::store::{topology_hash, TopologyStore};

/// How a [`ShardRuntime`] is provisioned.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bound of each worker's command queue. A full queue makes the
    /// coordinator block (counted in
    /// [`RuntimeStats::backpressure_stalls`]) — commands are never
    /// dropped or reordered.
    pub queue_capacity: usize,
    /// Deterministic barrier mode: drain every worker after each
    /// event. Removes all queue lag, making the runtime's observable
    /// timeline identical to the serial dispatcher's (results are
    /// byte-identical either way).
    pub barrier: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 64,
            barrier: false,
        }
    }
}

/// One instruction to a shard worker. Channel order is the only order:
/// workers apply commands FIFO, which is what keeps the concurrent
/// runtime deterministic.
///
/// Public so alternative [`ShardTransport`] implementations (the
/// threaded default here, the bounded-interleaving model checker in
/// `xtask interleave`) can carry and replay the same protocol.
#[derive(Debug, Clone)]
pub enum ShardCommand {
    /// Register a member (resident or halo mirror) in the shard.
    AddMember {
        /// Global peer id of the new member.
        global: usize,
        /// The member's peer record.
        info: PeerInfo,
        /// `true` for the home shard, `false` for a halo mirror.
        resident: bool,
    },
    /// Tombstone a departed member, if this shard holds it.
    Remove {
        /// Global peer id of the departed member.
        global: usize,
    },
    /// Answer a batch of shortlist queries, one reply list per query,
    /// in query order.
    Shortlist {
        /// `(global id, peer record)` per query.
        queries: Vec<(usize, PeerInfo)>,
    },
    /// Record a scoped delta in the shard's log.
    RecordDelta {
        /// The churn event being recorded.
        kind: DeltaKind,
        /// Dirty peers homed in this shard.
        dirty: Vec<usize>,
        /// The store's global epoch for this event.
        global_epoch: u64,
    },
    /// Flush: reply with a pulse once everything before this command
    /// has been applied.
    Drain,
}

/// A worker's progress snapshot, returned by `Drain`.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPulse {
    /// Cumulative busy time of the worker.
    pub busy: Duration,
    /// Commands applied so far.
    pub commands: u64,
}

/// What a worker sends back over its reply channel. Only `Shortlist`
/// and `Drain` commands produce a reply.
#[derive(Debug, Clone)]
pub enum WorkerReply {
    /// One shortlist per query, in query order.
    Shortlists(Vec<Vec<usize>>),
    /// Progress snapshot answering a `Drain`.
    Pulse(WorkerPulse),
}

/// The worker-side state of one shard: the internal `Shard` moved out of the
/// engine plus worker-local replicas of the member infos and departure
/// flags (indexed by *local* id), which is all `Shard::shortlist`
/// needs — workers never touch the global peer tables.
///
/// [`ShardWorker::step`] applies exactly one command; the threaded
/// transport loops it on a dedicated thread, while the model checker
/// in `xtask interleave` steps workers inline under a controlled
/// schedule. Both paths run the identical state machine.
pub struct ShardWorker {
    shard: Shard,
    profile: ShardProfile,
    selection: Arc<dyn NeighborSelection + Send + Sync>,
    infos: Vec<PeerInfo>,
    gone: Vec<bool>,
    busy: Duration,
    commands: u64,
}

impl ShardWorker {
    /// Applies one command to the shard state, returning the reply it
    /// produces (if any). FIFO application of the command stream is
    /// the caller's contract — it is what makes every transport replay
    /// byte-identical.
    pub fn step(&mut self, cmd: ShardCommand) -> Option<WorkerReply> {
        // lint:allow(D002, reason = "feeds RuntimeStats::worker_busy telemetry only; no control flow reads the clock")
        let t = Instant::now();
        self.commands += 1;
        let reply = match cmd {
            ShardCommand::AddMember {
                global,
                info,
                resident,
            } => {
                self.shard.add_member(global, info.point(), resident);
                self.infos.push(info);
                self.gone.push(false);
                None
            }
            ShardCommand::Remove { global } => {
                if let Some(&local) = self.shard.local_of.get(&global) {
                    self.shard.index.remove(local);
                    self.gone[local] = true;
                }
                None
            }
            ShardCommand::Shortlist { queries } => {
                let shard = &self.shard;
                let infos = &self.infos;
                let gone = &self.gone;
                let lists: Vec<Vec<usize>> = queries
                    .iter()
                    .map(|(i, q)| {
                        shard.shortlist(
                            self.profile,
                            self.selection.as_ref(),
                            *i,
                            q,
                            |l| &infos[l],
                            |l| gone[l],
                        )
                    })
                    .collect();
                Some(WorkerReply::Shortlists(lists))
            }
            ShardCommand::RecordDelta {
                kind,
                dirty,
                global_epoch,
            } => {
                self.shard.log.record(kind, dirty, global_epoch);
                None
            }
            ShardCommand::Drain => {
                self.busy += t.elapsed();
                return Some(WorkerReply::Pulse(WorkerPulse {
                    busy: self.busy,
                    commands: self.commands,
                }));
            }
        };
        self.busy += t.elapsed();
        reply
    }

    /// Dismantles the worker back into its shard and busy time (for
    /// re-attachment at shutdown).
    pub(crate) fn into_parts(self) -> (Shard, Duration) {
        (self.shard, self.busy)
    }

    fn run(mut self, rx: &Receiver<ShardCommand>, reply: &Sender<WorkerReply>) -> ShardWorker {
        while let Ok(cmd) = rx.recv() {
            if let Some(r) = self.step(cmd) {
                let _ = reply.send(r);
            }
        }
        self
    }
}

/// Outcome of a [`ShardTransport::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The command was accepted without blocking.
    Sent,
    /// The worker's bounded queue was full: the transport blocked (or
    /// simulated a stall) before the command was accepted. Commands
    /// are never dropped or reordered.
    SentAfterStall,
}

/// The coordinator/worker channel seam.
///
/// [`ShardRuntime`] performs every worker interaction through this
/// trait: FIFO command delivery per shard ([`ShardTransport::send`]),
/// and blocking receipt of that shard's next reply
/// ([`ShardTransport::recv`]). The production implementation is
/// [`ThreadTransport`] (one OS thread and one bounded MPSC channel per
/// shard); `xtask interleave` substitutes a deterministic in-process
/// transport whose scheduler enumerates worker interleavings and
/// queue-full stalls, proving the fold result independent of both.
pub trait ShardTransport {
    /// Number of shard workers behind this transport.
    fn shard_count(&self) -> usize;
    /// Delivers `cmd` to shard `shard`'s FIFO queue, blocking if the
    /// bounded queue is full.
    fn send(&mut self, shard: usize, cmd: ShardCommand) -> SendOutcome;
    /// Receives the next reply from shard `shard`, blocking until the
    /// worker produces it.
    fn recv(&mut self, shard: usize) -> WorkerReply;
    /// Stops all workers after applying every command sent so far and
    /// returns them (their shards carry the final state).
    fn shutdown(&mut self) -> Vec<ShardWorker>;
}

struct WorkerHandle {
    tx: Option<SyncSender<ShardCommand>>,
    rx: Receiver<WorkerReply>,
    join: Option<JoinHandle<ShardWorker>>,
}

/// The production [`ShardTransport`]: each worker runs on a dedicated
/// OS thread fed by a bounded `sync_channel`.
pub struct ThreadTransport {
    workers: Vec<WorkerHandle>,
}

impl ThreadTransport {
    /// Spawns one thread per worker with the given command-queue bound.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero or a thread cannot spawn.
    #[must_use]
    pub fn launch(workers: Vec<ShardWorker>, queue_capacity: usize) -> ThreadTransport {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(s, worker)| {
                let (tx, cmd_rx) = sync_channel::<ShardCommand>(queue_capacity);
                let (reply_tx, rx) = std::sync::mpsc::channel::<WorkerReply>();
                let join = std::thread::Builder::new()
                    .name(format!("geocast-shard-{s}"))
                    .spawn(move || worker.run(&cmd_rx, &reply_tx))
                    .expect("spawn shard worker");
                WorkerHandle {
                    tx: Some(tx),
                    rx,
                    join: Some(join),
                }
            })
            .collect();
        ThreadTransport { workers: handles }
    }
}

impl ShardTransport for ThreadTransport {
    fn shard_count(&self) -> usize {
        self.workers.len()
    }

    fn send(&mut self, shard: usize, cmd: ShardCommand) -> SendOutcome {
        let tx = self.workers[shard]
            .tx
            .as_ref()
            .expect("transport not shut down");
        match tx.try_send(cmd) {
            Ok(()) => SendOutcome::Sent,
            Err(TrySendError::Full(cmd)) => {
                tx.send(cmd).expect("shard worker hung up");
                SendOutcome::SentAfterStall
            }
            Err(TrySendError::Disconnected(_)) => panic!("shard worker hung up"),
        }
    }

    fn recv(&mut self, shard: usize) -> WorkerReply {
        self.workers[shard].rx.recv().expect("shard worker hung up")
    }

    fn shutdown(&mut self) -> Vec<ShardWorker> {
        let mut workers = Vec::with_capacity(self.workers.len());
        for handle in &mut self.workers {
            drop(handle.tx.take());
            let join = handle.join.take().expect("worker not yet joined");
            workers.push(join.join().expect("shard worker panicked"));
        }
        self.workers.clear();
        workers
    }
}

impl Drop for ThreadTransport {
    /// Dropping without [`ShardTransport::shutdown`] stops the worker
    /// threads but abandons their shards.
    fn drop(&mut self) {
        for handle in &mut self.workers {
            drop(handle.tx.take());
        }
        for handle in &mut self.workers {
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// Throughput accounting of a [`ShardRuntime`]: event counts, the
/// cross-shard escape ledger, backpressure stalls, and the split of
/// busy time between the coordinator and each worker that the
/// critical-path model consumes.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Join events applied.
    pub joins: u64,
    /// Leave events applied.
    pub leaves: u64,
    /// Shortlist queries sent to workers (home + escapes).
    pub shortlist_requests: u64,
    /// Shortlist queries that escaped to a non-home shard (the skip
    /// tests could not rule the shard out).
    pub cross_shard_requests: u64,
    /// Events whose fold needed at least one cross-shard escape.
    pub escape_events: u64,
    /// Times a worker's bounded queue was full and the coordinator had
    /// to block (no command is ever dropped or reordered).
    pub backpressure_stalls: u64,
    /// Barrier drains performed.
    pub barriers: u64,
    /// Coordinator busy time: wall time of the event loop minus time
    /// blocked waiting for worker replies.
    pub coordinator_busy: Duration,
    /// Time the coordinator spent blocked on worker replies.
    pub recv_wait: Duration,
    /// Per-worker busy time (complete after
    /// [`ShardRuntime::shutdown`]; refreshed by every barrier).
    pub worker_busy: Vec<Duration>,
}

impl RuntimeStats {
    /// Total events applied.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.joins + self.leaves
    }

    /// The busiest worker's busy time.
    #[must_use]
    pub fn max_worker_busy(&self) -> Duration {
        self.worker_busy.iter().copied().max().unwrap_or_default()
    }

    /// Sum of all workers' busy time.
    #[must_use]
    pub fn total_worker_busy(&self) -> Duration {
        self.worker_busy.iter().sum()
    }

    /// Critical-path time of the concurrent runtime: coordinator busy
    /// time plus the busiest worker — what the wall clock would be
    /// with one core per worker. The serial dispatcher's counterpart
    /// is coordinator plus the *sum* of worker time; the ratio is the
    /// core-independent speedup model `bench_runtime` records.
    #[must_use]
    pub fn critical_path(&self) -> Duration {
        self.coordinator_busy + self.max_worker_busy()
    }

    /// The serial-dispatcher model of the same work: coordinator busy
    /// time plus every worker's busy time, as one thread would run it.
    #[must_use]
    pub fn serial_path(&self) -> Duration {
        self.coordinator_busy + self.total_worker_busy()
    }

    /// Fraction of events that needed at least one cross-shard escape.
    #[must_use]
    pub fn escape_ratio(&self) -> f64 {
        if self.events() == 0 {
            0.0
        } else {
            self.escape_events as f64 / self.events() as f64
        }
    }
}

/// The coordinator of the thread-per-shard runtime. See the module
/// docs for the command/reply protocol and the determinism argument.
///
/// Generic over the [`ShardTransport`] carrying the command/reply
/// protocol; defaults to the production [`ThreadTransport`].
pub struct ShardRuntime<T: ShardTransport = ThreadTransport> {
    transport: T,
    shard_count: usize,
    tiling: Tiling,
    halo: f64,
    profile: ShardProfile,
    selection: Arc<dyn NeighborSelection + Send + Sync>,
    // Coordinator replicas of the per-shard geometry the skip tests
    // read, maintained in lockstep with the commands that change them.
    cover_lo: Vec<Vec<f64>>,
    cover_hi: Vec<Vec<f64>>,
    tile_lo: Vec<Vec<f64>>,
    tile_hi: Vec<Vec<f64>>,
    live_members: Vec<usize>,
    peer_count: usize,
    barrier_every_event: bool,
    stats: RuntimeStats,
}

impl ShardRuntime<ThreadTransport> {
    /// Detaches the shards of a store built with
    /// [`TopologyStore::from_peers_sharded`] into one worker thread
    /// each. Until [`ShardRuntime::shutdown`] re-attaches them, the
    /// store's own `insert`/`remove` panic — mutations go through
    /// [`ShardRuntime::insert`] / [`ShardRuntime::remove`].
    ///
    /// # Panics
    ///
    /// Panics if the store is not sharded, the shards are already
    /// detached, or `config.queue_capacity` is zero.
    #[must_use]
    pub fn launch(store: &mut TopologyStore, config: &RuntimeConfig) -> ShardRuntime {
        let capacity = config.queue_capacity;
        Self::launch_with(store, config, |workers| {
            ThreadTransport::launch(workers, capacity)
        })
    }
}

impl<T: ShardTransport> ShardRuntime<T> {
    /// [`ShardRuntime::launch`] with a caller-chosen transport: the
    /// store's shards are packaged into [`ShardWorker`]s and handed to
    /// `make`, which decides how (threads, an inline scheduler, …)
    /// commands reach them. The model checker behind
    /// `xtask interleave` enters here.
    ///
    /// # Panics
    ///
    /// Panics if the store is not sharded, the shards are already
    /// detached, or `config.queue_capacity` is zero.
    #[must_use]
    pub fn launch_with(
        store: &mut TopologyStore,
        config: &RuntimeConfig,
        make: impl FnOnce(Vec<ShardWorker>) -> T,
    ) -> ShardRuntime<T> {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let engine = store
            .sharding
            .as_mut()
            .expect("ShardRuntime requires a store built with from_peers_sharded");
        let tiling = engine.tiling().clone();
        let halo = engine.halo_width();
        let profile = engine.profile();
        let selection = store.selection.clone();
        let shards = engine.detach_shards();
        let k = shards.len();

        let mut workers = Vec::with_capacity(k);
        let mut cover_lo = Vec::with_capacity(k);
        let mut cover_hi = Vec::with_capacity(k);
        let mut tile_lo = Vec::with_capacity(k);
        let mut tile_hi = Vec::with_capacity(k);
        let mut live_members = Vec::with_capacity(k);
        for shard in shards {
            cover_lo.push(shard.cover_lo.clone());
            cover_hi.push(shard.cover_hi.clone());
            tile_lo.push(shard.tile_lo.clone());
            tile_hi.push(shard.tile_hi.clone());
            live_members.push(shard.index.live_len());
            let infos: Vec<PeerInfo> = shard
                .members
                .iter()
                .map(|&g| store.peers[g].clone())
                .collect();
            let gone: Vec<bool> = shard.members.iter().map(|&g| store.departed[g]).collect();
            workers.push(ShardWorker {
                shard,
                profile,
                selection: selection.clone(),
                infos,
                gone,
                busy: Duration::ZERO,
                commands: 0,
            });
        }
        let transport = make(workers);
        assert_eq!(
            transport.shard_count(),
            k,
            "transport must carry every shard worker"
        );
        ShardRuntime {
            transport,
            shard_count: k,
            tiling,
            halo,
            profile,
            selection,
            cover_lo,
            cover_hi,
            tile_lo,
            tile_hi,
            live_members,
            peer_count: store.peers.len(),
            barrier_every_event: config.barrier,
            stats: RuntimeStats {
                worker_busy: vec![Duration::ZERO; k],
                ..RuntimeStats::default()
            },
        }
    }

    /// Number of shard workers.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The accounting so far. `worker_busy` is only current as of the
    /// last barrier (or complete in the snapshot
    /// [`ShardRuntime::shutdown`] returns).
    #[must_use]
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Inserts a peer: the runtime counterpart of the sharded
    /// [`TopologyStore::insert`], byte-identical by construction
    /// (same global-table updates, same fold over the same shortlist
    /// code, same delta records).
    ///
    /// # Panics
    ///
    /// Panics if the store's dimensionality disagrees with the new
    /// point, or if the store was mutated behind the runtime's back.
    pub fn insert(&mut self, store: &mut TopologyStore, point: Point) -> PeerId {
        // lint:allow(D002, reason = "feeds RuntimeStats::coordinator_busy telemetry only; no control flow reads the clock")
        let t0 = Instant::now();
        let wait0 = self.stats.recv_wait;
        if let Some(first) = store.peers.first() {
            assert_eq!(
                point.dim(),
                first.point().dim(),
                "population dimensionality is fixed per overlay"
            );
        }
        assert_eq!(
            store.peers.len(),
            self.peer_count,
            "store mutated behind the runtime"
        );
        let id = store.peers.len();
        store.peers.push(PeerInfo::new(PeerId(id as u64), point));
        store.departed.push(false);
        store.live += 1;
        store.out.push(Vec::new());
        store.rev.push(Vec::new());
        store.peer_hash.push(topology_hash(id, &[]));
        store.fingerprint ^= store.peer_hash[id];

        // Membership fan-out: home + halo mirrors, exactly the serial
        // engine's add_peer, with shard state updated by commands and
        // the coordinator replicas updated in lockstep.
        let info = store.peers[id].clone();
        let coords: Vec<f64> = info.point().coords().to_vec();
        let h = self.tiling.shard_of(&coords);
        store
            .sharding
            .as_mut()
            .expect("sharded store")
            .register_home(id, h);
        self.send(
            h,
            ShardCommand::AddMember {
                global: id,
                info: info.clone(),
                resident: true,
            },
        );
        self.live_members[h] += 1;
        for (d, &x) in coords.iter().enumerate() {
            self.cover_lo[h][d] = self.cover_lo[h][d].min(x);
            self.cover_hi[h][d] = self.cover_hi[h][d].max(x);
        }
        for s in self.tiling.shards_near(&coords, self.halo) {
            if s != h {
                self.send(
                    s,
                    ShardCommand::AddMember {
                        global: id,
                        info: info.clone(),
                        resident: false,
                    },
                );
                self.live_members[s] += 1;
            }
        }

        let own = self
            .fold_batch(store, &[id])
            .pop()
            .expect("one fold per query");

        // The affected set, by rule structure — identical to the serial
        // sharded insert path.
        let affected: Vec<usize> = match self.profile {
            ShardProfile::EmptyRect => own.clone(),
            ShardProfile::OrthantTopK { k, metric } => {
                let peers = &store.peers;
                let departed = &store.departed;
                let out = &store.out;
                par::map_indexed(id, |i| {
                    (!departed[i] && topk_join_recheck(peers, out, i, id, k, metric)).then_some(i)
                })
                .into_iter()
                .flatten()
                .collect()
            }
            ShardProfile::Generic => (0..id).filter(|&i| !store.departed[i]).collect(),
        };
        let updates: Vec<Option<Vec<usize>>> = {
            let peers = &store.peers;
            let out = &store.out;
            let sel = self.selection.as_ref();
            par::map_indexed(affected.len(), |a| {
                let i = affected[a];
                let mut cand_ids: Vec<usize> = Vec::with_capacity(out[i].len() + 1);
                cand_ids.extend_from_slice(&out[i]);
                cand_ids.push(id);
                let refs: Vec<&PeerInfo> = cand_ids.iter().map(|&j| &peers[j]).collect();
                let picked = sel.select(&peers[i], &refs);
                let new_out: Vec<usize> = picked.into_iter().map(|ci| cand_ids[ci]).collect();
                (new_out != out[i]).then_some(new_out)
            })
        };

        let mut delta = BTreeSet::new();
        delta.insert(id);
        store.apply_out(id, own, &mut delta);
        for (a, update) in updates.into_iter().enumerate() {
            if let Some(new_out) = update {
                store.apply_out(affected[a], new_out, &mut delta);
            }
        }
        store.last_delta = delta.into_iter().collect();
        store.record_delta(DeltaKind::Join(id));
        self.record_shard_deltas(store, DeltaKind::Join(id));
        self.peer_count += 1;
        self.stats.joins += 1;
        self.note_event_time(t0, wait0);
        if self.barrier_every_event {
            self.barrier();
        }
        PeerId(id as u64)
    }

    /// Removes a peer: the runtime counterpart of the sharded
    /// [`TopologyStore::remove`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already departed, or if the
    /// store was mutated behind the runtime's back.
    pub fn remove(&mut self, store: &mut TopologyStore, id: PeerId) {
        // lint:allow(D002, reason = "feeds RuntimeStats::coordinator_busy telemetry only; no control flow reads the clock")
        let t0 = Instant::now();
        let wait0 = self.stats.recv_wait;
        let v = id.index();
        assert!(v < store.peers.len(), "peer id out of range");
        assert!(!store.departed[v], "{id} already departed");
        assert_eq!(
            store.peers.len(),
            self.peer_count,
            "store mutated behind the runtime"
        );
        store.departed[v] = true;
        store.live -= 1;
        // A peer is a member of exactly the shards whose halo band
        // contains it, so the tombstone fan-out recomputes that set.
        let coords: Vec<f64> = store.peers[v].point().coords().to_vec();
        for s in self.tiling.shards_near(&coords, self.halo) {
            self.send(s, ShardCommand::Remove { global: v });
            self.live_members[s] -= 1;
        }

        let mut delta = BTreeSet::new();
        delta.insert(v);
        store.apply_out(v, Vec::new(), &mut delta);
        // Taking the list also releases its capacity: nobody selects a
        // departed id again.
        let affected = std::mem::take(&mut store.rev[v]);
        let folds = self.fold_batch(store, &affected);
        for (&i, new_out) in affected.iter().zip(folds) {
            store.apply_out(i, new_out, &mut delta);
        }
        store.last_delta = delta.into_iter().collect();
        store.record_delta(DeltaKind::Leave(v));
        self.record_shard_deltas(store, DeltaKind::Leave(v));
        self.stats.leaves += 1;
        self.note_event_time(t0, wait0);
        if self.barrier_every_event {
            self.barrier();
        }
    }

    /// Replays a churn schedule through the runtime — the worker-driven
    /// counterpart of [`crate::churn::run_schedule_on_store`].
    pub fn run_schedule(
        &mut self,
        store: &mut TopologyStore,
        schedule: &ChurnSchedule,
    ) -> StoreChurnReport {
        let mut report = StoreChurnReport {
            joins: 0,
            leaves: 0,
            touched_total: 0,
            touched_max: 0,
        };
        for event in schedule.events() {
            match event {
                ChurnEvent::Join(point) => {
                    self.insert(store, point.clone());
                    report.joins += 1;
                }
                ChurnEvent::Leave(id) => {
                    self.remove(store, *id);
                    report.leaves += 1;
                }
            }
            let touched = store.last_delta.len();
            report.touched_total += touched;
            report.touched_max = report.touched_max.max(touched);
        }
        report
    }

    /// Drains every worker: returns once all commands sent so far are
    /// applied, refreshing the per-worker busy snapshot.
    pub fn barrier(&mut self) {
        for s in 0..self.shard_count {
            self.send(s, ShardCommand::Drain);
        }
        for s in 0..self.shard_count {
            match self.recv_reply(s) {
                WorkerReply::Pulse(pulse) => {
                    self.stats.worker_busy[s] = pulse.busy;
                    let _ = pulse.commands;
                }
                WorkerReply::Shortlists(_) => {
                    unreachable!("drain replies cannot interleave with shortlists")
                }
            }
        }
        self.stats.barriers += 1;
    }

    /// Stops the workers, re-attaches the shards to the store's serial
    /// engine (byte-for-byte the state the dispatcher would have), and
    /// returns the final accounting.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked, or if the store was mutated
    /// behind the runtime's back.
    pub fn shutdown(mut self, store: &mut TopologyStore) -> RuntimeStats {
        assert_eq!(
            store.peers.len(),
            self.peer_count,
            "store mutated behind the runtime"
        );
        let mut shards = Vec::with_capacity(self.shard_count);
        for (s, worker) in self.transport.shutdown().into_iter().enumerate() {
            let (shard, busy) = worker.into_parts();
            self.stats.worker_busy[s] = busy;
            shards.push(shard);
        }
        store
            .sharding
            .as_mut()
            .expect("sharded store")
            .attach_shards(shards);
        self.stats.clone()
    }

    /// Sends a command through the transport; a full queue blocks
    /// (counted) rather than dropping or reordering.
    fn send(&mut self, s: usize, cmd: ShardCommand) {
        if self.transport.send(s, cmd) == SendOutcome::SentAfterStall {
            self.stats.backpressure_stalls += 1;
        }
    }

    fn recv_reply(&mut self, s: usize) -> WorkerReply {
        // lint:allow(D002, reason = "feeds RuntimeStats::recv_wait telemetry only; no control flow reads the clock")
        let t = Instant::now();
        let reply = self.transport.recv(s);
        self.stats.recv_wait += t.elapsed();
        reply
    }

    fn recv_shortlists(&mut self, s: usize) -> Vec<Vec<usize>> {
        match self.recv_reply(s) {
            WorkerReply::Shortlists(lists) => lists,
            WorkerReply::Pulse(_) => unreachable!("pulse replies cannot interleave with folds"),
        }
    }

    fn note_event_time(&mut self, t0: Instant, wait0: Duration) {
        let waited = self.stats.recv_wait - wait0;
        self.stats.coordinator_busy += t0.elapsed().saturating_sub(waited);
    }

    /// The distributed fold: each queried peer's exact selection over
    /// the full live population, assembled from worker shortlists.
    /// Phase order (home scatter, escape test, foreign gather) and the
    /// final merge reproduce the serial `fold_select` exactly; folds
    /// are batched because, per event, they are independent (a fold
    /// reads peers/departed/shard indexes, none of which change while
    /// an event's folds run).
    fn fold_batch(&mut self, store: &TopologyStore, items: &[usize]) -> Vec<Vec<usize>> {
        let k = self.shard_count;
        let engine = store.sharding.as_ref().expect("sharded store");
        let homes: Vec<usize> = items.iter().map(|&i| engine.home_shard(i)).collect();

        // Home scatter (a shard with no live members answers the empty
        // shortlist, so the query is elided — same as the serial path).
        let mut home_order: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (qi, &h) in homes.iter().enumerate() {
            if self.live_members[h] > 0 {
                home_order[h].push(qi);
            }
        }
        for (s, order) in home_order.iter().enumerate() {
            if order.is_empty() {
                continue;
            }
            let queries: Vec<(usize, PeerInfo)> = order
                .iter()
                .map(|&qi| (items[qi], store.peers[items[qi]].clone()))
                .collect();
            self.stats.shortlist_requests += queries.len() as u64;
            self.send(s, ShardCommand::Shortlist { queries });
        }
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
        for (s, order) in home_order.iter().enumerate() {
            if order.is_empty() {
                continue;
            }
            let lists = self.recv_shortlists(s);
            for (&qi, list) in order.iter().zip(lists) {
                pools[qi] = list;
            }
        }

        // Escape test against the coordinator replicas: exactly the
        // serial uncovered-box / skip-certificate sequence.
        let mut foreign_order: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut escaped = false;
        let mut boxes = BoxScratch::default();
        for (qi, &i) in items.iter().enumerate() {
            let knn = match self.profile {
                ShardProfile::OrthantTopK { k: kk, metric } => {
                    Some(orthant_stats(&store.peers, i, &pools[qi], kk, metric))
                }
                _ => None,
            };
            let home = homes[qi];
            boxes.set_home(&self.tile_lo[home], &self.tile_hi[home], self.halo);
            for (s, order) in foreign_order.iter_mut().enumerate() {
                if s == home
                    || self.live_members[s] == 0
                    || !boxes.uncovered(&self.cover_lo[s], &self.cover_hi[s])
                    || skip_certified(
                        self.profile,
                        &store.peers,
                        i,
                        &pools[qi],
                        knn.as_ref(),
                        &boxes.ulo,
                        &boxes.uhi,
                    )
                {
                    continue;
                }
                order.push(qi);
                self.stats.cross_shard_requests += 1;
                escaped = true;
            }
        }
        if escaped {
            self.stats.escape_events += 1;
        }

        // Foreign gather, ascending shard order — the same order the
        // serial fold extends its pool in.
        for (s, order) in foreign_order.iter().enumerate() {
            if order.is_empty() {
                continue;
            }
            let queries: Vec<(usize, PeerInfo)> = order
                .iter()
                .map(|&qi| (items[qi], store.peers[items[qi]].clone()))
                .collect();
            self.stats.shortlist_requests += queries.len() as u64;
            self.send(s, ShardCommand::Shortlist { queries });
        }
        for (s, order) in foreign_order.iter().enumerate() {
            if order.is_empty() {
                continue;
            }
            let lists = self.recv_shortlists(s);
            for (&qi, list) in order.iter().zip(lists) {
                pools[qi].extend(list);
            }
        }

        // Final merge-select on the coordinator.
        items
            .iter()
            .enumerate()
            .map(|(qi, &i)| {
                let mut pool = std::mem::take(&mut pools[qi]);
                pool.sort_unstable();
                pool.dedup();
                pool.retain(|&j| j != i && !store.departed[j]);
                let refs: Vec<&PeerInfo> = pool.iter().map(|&j| &store.peers[j]).collect();
                self.selection
                    .select(&store.peers[i], &refs)
                    .into_iter()
                    .map(|ci| pool[ci])
                    .collect()
            })
            .collect()
    }

    /// Fans the global dirty region out to the scoped shard logs, by
    /// resident home shard — the command-channel form of the serial
    /// engine's `record_shard_deltas`.
    fn record_shard_deltas(&mut self, store: &TopologyStore, kind: DeltaKind) {
        let engine = store.sharding.as_ref().expect("sharded store");
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &p in &store.last_delta {
            by_shard.entry(engine.home_shard(p)).or_default().push(p);
        }
        let epoch = store.epoch;
        for (s, dirty) in by_shard {
            self.send(
                s,
                ShardCommand::RecordDelta {
                    kind,
                    dirty,
                    global_epoch: epoch,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::churn::run_schedule_on_store;
    use crate::select::{EmptyRectSelection, HyperplanesSelection};
    use crate::shard::ShardConfig;
    use geocast_geom::gen::uniform_points;
    use geocast_geom::MetricKind;

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

    #[test]
    fn runtime_churn_matches_serial_dispatcher() {
        for selection in selections() {
            for shards in [1usize, 4, 6] {
                let schedule = ChurnSchedule::random(60, 25, 20, 2, 1000.0, 11);
                let mut serial = TopologyStore::from_peers_sharded(
                    peers(60, 2, 7),
                    selection.clone(),
                    &ShardConfig::new(shards),
                );
                let mut driven = TopologyStore::from_peers_sharded(
                    peers(60, 2, 7),
                    selection.clone(),
                    &ShardConfig::new(shards),
                );
                run_schedule_on_store(&mut serial, &schedule);
                let mut rt = ShardRuntime::launch(&mut driven, &RuntimeConfig::default());
                rt.run_schedule(&mut driven, &schedule);
                let stats = rt.shutdown(&mut driven);
                assert_eq!(
                    serial.graph(),
                    driven.graph(),
                    "{} @ {shards} shards",
                    selection.name()
                );
                assert_eq!(serial.fingerprint(), driven.fingerprint());
                assert_eq!(serial.epoch(), driven.epoch());
                assert_eq!(serial.last_delta(), driven.last_delta());
                assert_eq!(stats.events(), schedule.len() as u64);
                // Scoped shard logs advanced identically.
                for s in 0..shards {
                    assert_eq!(
                        serial.sharding().unwrap().shard_log(s).global_head(),
                        driven.sharding().unwrap().shard_log(s).global_head(),
                    );
                }
            }
        }
    }

    #[test]
    fn a_departed_id_retains_no_reverse_list_on_any_engine() {
        // Every engine's Leave takes the departed peer's selector list:
        // the peer is never selected again, so the capacity goes too.
        let selection: Arc<dyn NeighborSelection + Send + Sync> = Arc::new(EmptyRectSelection);
        let config = ShardConfig::new(4);
        let mut classic = TopologyStore::from_peers(peers(60, 2, 7), selection.clone());
        let mut serial =
            TopologyStore::from_peers_sharded(peers(60, 2, 7), selection.clone(), &config);
        let mut driven = TopologyStore::from_peers_sharded(peers(60, 2, 7), selection, &config);
        let mut rt = ShardRuntime::launch(&mut driven, &RuntimeConfig::default());
        for v in [3usize, 17, 41] {
            assert!(
                classic.rev[v].capacity() > 0,
                "peer {v} is selected by someone"
            );
            classic.remove(PeerId(v as u64));
            serial.remove(PeerId(v as u64));
            rt.remove(&mut driven, PeerId(v as u64));
            for (name, store) in [
                ("classic", &classic),
                ("serial", &serial),
                ("workers", &driven),
            ] {
                assert_eq!(store.rev[v].capacity(), 0, "{name}: rev[{v}]");
                assert_eq!(store.out[v].capacity(), 0, "{name}: out[{v}]");
            }
        }
        rt.shutdown(&mut driven);
        assert_eq!(classic.graph(), serial.graph());
        assert_eq!(classic.graph(), driven.graph());
    }

    #[test]
    fn barrier_mode_and_tiny_queues_change_nothing() {
        let selection: Arc<dyn NeighborSelection + Send + Sync> = Arc::new(EmptyRectSelection);
        let schedule = ChurnSchedule::random(50, 20, 15, 2, 1000.0, 23);
        let mut reference = TopologyStore::from_peers_sharded(
            peers(50, 2, 3),
            selection.clone(),
            &ShardConfig::new(4),
        );
        run_schedule_on_store(&mut reference, &schedule);
        for config in [
            RuntimeConfig {
                queue_capacity: 1,
                barrier: false,
            },
            RuntimeConfig {
                queue_capacity: 2,
                barrier: true,
            },
        ] {
            let mut driven = TopologyStore::from_peers_sharded(
                peers(50, 2, 3),
                selection.clone(),
                &ShardConfig::new(4),
            );
            let mut rt = ShardRuntime::launch(&mut driven, &config);
            rt.run_schedule(&mut driven, &schedule);
            let stats = rt.shutdown(&mut driven);
            assert_eq!(reference.graph(), driven.graph());
            assert_eq!(reference.fingerprint(), driven.fingerprint());
            if config.barrier {
                assert_eq!(stats.barriers, schedule.len() as u64);
            }
        }
    }

    #[test]
    fn detached_store_rejects_serial_mutations_until_shutdown() {
        let selection: Arc<dyn NeighborSelection + Send + Sync> = Arc::new(EmptyRectSelection);
        let mut store = TopologyStore::from_peers_sharded(
            peers(30, 2, 9),
            selection.clone(),
            &ShardConfig::new(4),
        );
        assert!(store.has_spatial_index());
        let mut rt = ShardRuntime::launch(&mut store, &RuntimeConfig::default());
        assert!(!store.has_spatial_index());
        // Reads stay exact while detached: nearest falls back to the
        // linear scan.
        let q = Point::new(vec![500.0, 500.0]).unwrap();
        let got = store.nearest_live_where(&q, MetricKind::L2, |_| true);
        assert!(got.is_some());
        let id = rt.insert(&mut store, Point::new(vec![501.0, 499.0]).unwrap());
        assert_eq!(
            store.nearest_live_where(&q, MetricKind::L2, |_| true),
            Some(id.index())
        );
        rt.shutdown(&mut store);
        assert!(store.has_spatial_index());
        // The serial dispatcher works again and sees the runtime's state.
        store.insert(Point::new(vec![10.0, 20.0]).unwrap());
        store.remove(id);
    }

    #[test]
    #[should_panic(expected = "driven by a ShardRuntime")]
    fn serial_insert_panics_while_detached() {
        let selection: Arc<dyn NeighborSelection + Send + Sync> = Arc::new(EmptyRectSelection);
        let mut store =
            TopologyStore::from_peers_sharded(peers(20, 2, 9), selection, &ShardConfig::new(2));
        let _rt = ShardRuntime::launch(&mut store, &RuntimeConfig::default());
        store.insert(Point::new(vec![1.0, 2.0]).unwrap());
    }
}
