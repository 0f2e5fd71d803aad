//! Events and the timing wheel that orders them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::NodeId;
use crate::time::SimTime;

/// Identifier of a timer armed via [`crate::Context::set_timer`].
///
/// Timer ids are unique within a simulation run; a node distinguishes its
/// own concurrent timers by remembering the ids it armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Raw identifier value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` (sent by `from`) to `to`.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// Fire timer `timer` on node `node`.
    Timer { node: NodeId, timer: TimerId },
}

/// A bucket is `2^BUCKET_SHIFT` ns of virtual time (≈ 4.19 ms).
const BUCKET_SHIFT: u32 = 22;
/// The wheel holds `2^WHEEL_BITS` buckets, so it spans ≈ 17.2 s ahead of
/// its cursor; later events wait in the far set.
const WHEEL_BITS: u32 = 12;
const WHEEL: u64 = 1 << WHEEL_BITS;
const MASK: u64 = WHEEL - 1;
const WORDS: usize = (WHEEL / 64) as usize;
/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// One pending event's body in the slab.
struct Slot<M> {
    time: u64,
    /// The next slot of the same bucket list (newest first), or of the
    /// free list.
    next: u32,
    kind: Option<EventKind<M>>,
}

/// The simulator's pending events, popped in `(time, push order)` order.
///
/// A timing wheel: bucket `b` holds the events in
/// `[b · 2^BUCKET_SHIFT, (b + 1) · 2^BUCKET_SHIFT)` ns. The wheel covers
/// the `WHEEL` buckets from the cursor's on, each a list of slab slots
/// found through an occupancy bitmap; an event past that span waits in
/// `far`, a heap of `(time, push number, slot)` keys, and moves onto the
/// wheel as soon as the cursor brings its bucket into the span — before
/// anything else can be pushed into that bucket. The cursor's bucket is
/// `run`: its events sorted by time, ties in push order (a stable sort
/// of a list kept in push order), popped from `front`.
///
/// Every event in `run` is due before every event on the wheel, and every
/// event on the wheel before every far one, so each pop returns the least
/// pending `(time, push order)` — exactly what one binary heap over all
/// events would pop. An event pushed into the cursor's bucket or earlier
/// joins `run` at its sorted place.
pub(crate) struct EventQueue<M> {
    slots: Vec<Slot<M>>,
    /// Head of the free-slot list.
    free: u32,
    /// Each wheel bucket's newest slot.
    heads: Vec<u32>,
    /// Bit `i` is set iff wheel bucket `i` holds a slot.
    occupied: [u64; WORDS],
    /// The bucket `run` holds; the wheel spans `[cursor, cursor + WHEEL)`.
    cursor: u64,
    /// `(time, slot)` of the cursor bucket's events, sorted from `front` on.
    run: Vec<(u64, u32)>,
    front: usize,
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Events pushed so far: the far set's tie-break.
    pushed: u64,
    len: usize,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            heads: vec![NIL; WHEEL as usize],
            occupied: [0; WORDS],
            cursor: 0,
            run: Vec::new(),
            front: 0,
            far: BinaryHeap::new(),
            pushed: 0,
            len: 0,
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `kind` at `time`, after every pending event at `time`.
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let time = time.as_nanos();
        let slot = self.alloc(time, kind);
        self.pushed += 1;
        self.len += 1;
        if (time >> BUCKET_SHIFT).saturating_sub(self.cursor) < WHEEL {
            self.place(time, slot);
        } else {
            self.far.push(Reverse((time, self.pushed, slot)));
        }
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`.
    pub(crate) fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind<M>)> {
        let (time, slot) = self.front_until(deadline.as_nanos())?;
        self.front += 1;
        if self.front == self.run.len() {
            self.run.clear();
            self.front = 0;
        } else if self.front >= 4096 && 2 * self.front >= self.run.len() {
            // A long same-bucket burst: drop the popped prefix, amortised.
            self.run.drain(..self.front);
            self.front = 0;
        }
        self.len -= 1;
        let kind = self.slots[slot as usize].kind.take();
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        Some((
            SimTime::from_nanos(time),
            kind.expect("a queued slot holds its event"),
        ))
    }

    /// `true` if an event is due at or before `deadline`.
    pub(crate) fn has_until(&mut self, deadline: SimTime) -> bool {
        self.front_until(deadline.as_nanos()).is_some()
    }

    /// The earliest event's `(time, slot)` if it is due at or before
    /// `deadline`, moving the cursor to its bucket.
    fn front_until(&mut self, deadline: u64) -> Option<(u64, u32)> {
        if self.front == self.run.len() {
            let next = match self.next_occupied() {
                Some(bucket) => bucket,
                None => {
                    let Reverse((time, _, _)) = self.far.peek()?;
                    time >> BUCKET_SHIFT
                }
            };
            if next > deadline >> BUCKET_SHIFT {
                return None;
            }
            self.load(next);
        }
        let (time, slot) = self.run[self.front];
        (time <= deadline).then_some((time, slot))
    }

    /// Moves the cursor to `bucket` (the first one holding events, `run`
    /// empty), pulls the far events its span now reaches onto the wheel,
    /// and sorts the bucket into `run`.
    fn load(&mut self, bucket: u64) {
        self.cursor = bucket;
        while let Some(&Reverse((time, _, slot))) = self.far.peek() {
            if (time >> BUCKET_SHIFT) - bucket >= WHEEL {
                break;
            }
            self.far.pop();
            self.place(time, slot);
        }
        let i = (bucket & MASK) as usize;
        let start = self.run.len();
        let mut slot = std::mem::replace(&mut self.heads[i], NIL);
        self.occupied[i / 64] &= !(1 << (i % 64));
        while slot != NIL {
            let s = &self.slots[slot as usize];
            self.run.push((s.time, slot));
            slot = s.next;
        }
        if self.run.len() - start > 1 {
            self.run[start..].reverse();
            self.run.sort_by_key(|&(time, _)| time);
        }
    }

    /// Files `slot` (due at `time`, inside the wheel's span) after every
    /// event already filed at the same time.
    fn place(&mut self, time: u64, slot: u32) {
        let bucket = time >> BUCKET_SHIFT;
        if bucket <= self.cursor {
            if self.run.last().is_none_or(|&(last, _)| last <= time) {
                self.run.push((time, slot));
            } else {
                let at = self.front + self.run[self.front..].partition_point(|&(t, _)| t <= time);
                self.run.insert(at, (time, slot));
            }
        } else {
            let i = (bucket & MASK) as usize;
            self.slots[slot as usize].next = self.heads[i];
            self.heads[i] = slot;
            self.occupied[i / 64] |= 1 << (i % 64);
        }
    }

    /// The first bucket after the cursor's that holds a slot.
    fn next_occupied(&self) -> Option<u64> {
        let start = (self.cursor & MASK) as usize;
        let (word, bit) = (start / 64, start % 64);
        for k in 0..=WORDS {
            let w = (word + k) % WORDS;
            let bits = match k {
                0 => self.occupied[w] & (!0 << bit),
                WORDS => self.occupied[w] & !(!0 << bit),
                _ => self.occupied[w],
            };
            if bits != 0 {
                let i = (w * 64 + bits.trailing_zeros() as usize) as u64;
                return Some(self.cursor + (i.wrapping_sub(start as u64) & MASK));
            }
        }
        None
    }

    fn alloc(&mut self, time: u64, kind: EventKind<M>) -> u32 {
        let slot = Slot {
            time,
            next: NIL,
            kind: Some(kind),
        };
        if self.free == NIL {
            let at = u32::try_from(self.slots.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("fewer than 2^32 - 1 pending events");
            self.slots.push(slot);
            at
        } else {
            let at = self.free;
            self.free = std::mem::replace(&mut self.slots[at as usize], slot).next;
            at
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(id: u64) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(0),
            timer: TimerId(id),
        }
    }

    fn drain(queue: &mut EventQueue<()>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| {
            queue
                .pop_until(SimTime::from_nanos(u64::MAX))
                .map(|(t, kind)| match kind {
                    EventKind::Timer { timer, .. } => (t.as_nanos(), timer.value()),
                    EventKind::Deliver { .. } => unreachable!("only timers are pushed"),
                })
        })
        .collect()
    }

    #[test]
    fn queue_pops_earliest_first() {
        let mut queue = EventQueue::new();
        // Same bucket, neighbouring buckets, and past the wheel's span.
        for (id, nanos) in [30, 10, 20, 1 << 40, 5 << 22, 1 << 35]
            .into_iter()
            .enumerate()
        {
            queue.push(SimTime::from_nanos(nanos), timer(id as u64));
        }
        let order: Vec<u64> = drain(&mut queue).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30, 5 << 22, 1 << 35, 1 << 40]);
        assert!(queue.is_empty());
    }

    #[test]
    fn ties_break_by_sequence_number() {
        let mut queue = EventQueue::new();
        // Pushed in id order; equal times pop in push order, near or far.
        for (id, nanos) in [10, 10, 1 << 40, 5, 10, 1 << 40].into_iter().enumerate() {
            queue.push(SimTime::from_nanos(nanos), timer(id as u64));
        }
        let ids: Vec<u64> = drain(&mut queue).into_iter().map(|(_, id)| id).collect();
        assert_eq!(
            ids,
            vec![3, 0, 1, 4, 2, 5],
            "FIFO among simultaneous events"
        );
    }

    #[test]
    fn pop_until_leaves_later_events_of_the_same_bucket() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_nanos(100), timer(0));
        queue.push(SimTime::from_nanos(300), timer(1));
        let first = queue.pop_until(SimTime::from_nanos(200));
        assert!(matches!(first, Some((t, _)) if t.as_nanos() == 100));
        assert!(queue.pop_until(SimTime::from_nanos(200)).is_none());
        assert!(!queue.has_until(SimTime::from_nanos(299)));
        assert!(queue.has_until(SimTime::from_nanos(300)));
        // A push between the deadline and the waiting event goes first.
        queue.push(SimTime::from_nanos(250), timer(2));
        assert_eq!(drain(&mut queue), vec![(250, 2), (300, 1)]);
    }

    #[test]
    fn far_events_reach_the_wheel_before_later_pushes_into_their_bucket() {
        let span = WHEEL << BUCKET_SHIFT;
        let mut queue = EventQueue::new();
        // From bucket 0, `span + 10` is one bucket past the wheel: far.
        queue.push(SimTime::from_nanos(span + 10), timer(0));
        queue.push(SimTime::from_nanos(1 << BUCKET_SHIFT), timer(1));
        // Popping moves the cursor to bucket 1, so the far event's bucket
        // is the wheel's last; pushes into it now go straight on the wheel.
        assert!(
            matches!(queue.pop_until(SimTime::from_nanos(span)), Some((_, EventKind::Timer { timer, .. })) if timer.value() == 1)
        );
        queue.push(SimTime::from_nanos(span + 20), timer(2));
        queue.push(SimTime::from_nanos(span + 10), timer(3));
        queue.push(SimTime::from_nanos(span + 5), timer(4));
        assert_eq!(
            drain(&mut queue),
            vec![
                (span + 5, 4),
                (span + 10, 0),
                (span + 10, 3),
                (span + 20, 2)
            ]
        );
    }

    #[test]
    fn timer_id_exposes_value() {
        assert_eq!(TimerId(42).value(), 42);
    }
}
