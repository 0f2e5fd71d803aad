use std::fmt;

use crate::fault::DropCause;
use crate::node::NodeId;
use crate::time::SimTime;

/// Per-kind message accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TagCounts {
    sent: u64,
    delivered: u64,
}

/// Message and timer accounting for a simulation run.
///
/// Counters are the measurement instrument behind the paper's in-text
/// claims — e.g. "the algorithm sends N−1 messages" is asserted as
/// `sent_with_tag("build") == n - 1` so that gossip or baseline traffic
/// cannot contaminate the measurement.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    sent: u64,
    delivered: u64,
    dropped_fault: u64,
    dropped_loss: u64,
    dropped_burst: u64,
    dropped_silent: u64,
    dropped_partition: u64,
    dropped_crashed: u64,
    timers_fired: u64,
    /// One row per distinct tag text, in first-seen order. A protocol
    /// has a handful of message kinds and names each with one static,
    /// so the row is found by comparing a pointer or two — twice per
    /// message, which is why this is not an ordered map.
    by_tag: Vec<(&'static str, TagCounts)>,
}

impl Counters {
    /// Total messages submitted for sending (including later-dropped
    /// ones).
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Total messages delivered to a live node.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped by the fault model (all causes).
    #[must_use]
    // lint:allow(D006, reason = "how sim's tests see that a fault dropped a message")
    pub fn dropped_by_faults(&self) -> u64 {
        self.dropped_fault
    }

    /// Messages dropped by independent uniform loss.
    #[must_use]
    // lint:allow(D006, reason = "how sim's tests see which fault dropped a message")
    pub fn dropped_by_loss(&self) -> u64 {
        self.dropped_loss
    }

    /// Messages dropped by the Gilbert–Elliott burst chain.
    #[must_use]
    // lint:allow(D006, reason = "how sim's tests see which fault dropped a message")
    pub fn dropped_by_burst(&self) -> u64 {
        self.dropped_burst
    }

    /// Messages dropped because an endpoint was a silent-drop peer.
    #[must_use]
    pub fn dropped_silent(&self) -> u64 {
        self.dropped_silent
    }

    /// Messages dropped on a partitioned region pair.
    #[must_use]
    // lint:allow(D006, reason = "how sim's tests see which fault dropped a message")
    pub fn dropped_partitioned(&self) -> u64 {
        self.dropped_partition
    }

    /// Messages dropped because the destination had crashed.
    #[must_use]
    // lint:allow(D006, reason = "how sim's tests see which fault dropped a message")
    pub fn dropped_at_crashed(&self) -> u64 {
        self.dropped_crashed
    }

    /// Timers that fired.
    #[must_use]
    pub fn timers_fired(&self) -> u64 {
        self.timers_fired
    }

    /// Messages of the given kind submitted for sending.
    #[must_use]
    pub fn sent_with_tag(&self, tag: &str) -> u64 {
        self.counts(tag).map_or(0, |c| c.sent)
    }

    /// Messages of the given kind delivered.
    #[must_use]
    // lint:allow(D006, reason = "how sim's tests see the per-tag deliveries the kernel counts next to sent_with_tag")
    pub fn delivered_with_tag(&self, tag: &str) -> u64 {
        self.counts(tag).map_or(0, |c| c.delivered)
    }

    /// All tags seen so far, sorted (deterministic for reporting).
    #[must_use]
    pub fn tags(&self) -> Vec<&'static str> {
        let mut tags: Vec<&'static str> = self.by_tag.iter().map(|&(t, _)| t).collect();
        tags.sort_unstable();
        tags
    }

    /// Same static first (the common case, no bytes read), same text
    /// otherwise: two statics with equal text are one tag.
    fn position(&self, tag: &str) -> Option<usize> {
        self.by_tag
            .iter()
            .position(|&(t, _)| std::ptr::eq(t, tag) || t == tag)
    }

    fn counts(&self, tag: &str) -> Option<&TagCounts> {
        self.position(tag).map(|i| &self.by_tag[i].1)
    }

    fn counts_mut(&mut self, tag: &'static str) -> &mut TagCounts {
        let i = self.position(tag).unwrap_or_else(|| {
            self.by_tag.push((tag, TagCounts::default()));
            self.by_tag.len() - 1
        });
        &mut self.by_tag[i].1
    }

    pub(crate) fn record_sent(&mut self, tag: &'static str) {
        self.sent += 1;
        self.counts_mut(tag).sent += 1;
    }

    pub(crate) fn record_delivered(&mut self, tag: &'static str) {
        self.delivered += 1;
        self.counts_mut(tag).delivered += 1;
    }

    pub(crate) fn record_dropped_fault(&mut self, cause: DropCause) {
        self.dropped_fault += 1;
        match cause {
            DropCause::Loss => self.dropped_loss += 1,
            DropCause::Burst => self.dropped_burst += 1,
            DropCause::Silent => self.dropped_silent += 1,
            DropCause::Partition => self.dropped_partition += 1,
        }
    }

    pub(crate) fn record_dropped_crashed(&mut self) {
        self.dropped_crashed += 1;
    }

    pub(crate) fn record_timer(&mut self) {
        self.timers_fired += 1;
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped(fault={}, crashed={}) timers={}",
            self.sent, self.delivered, self.dropped_fault, self.dropped_crashed, self.timers_fired
        )
    }
}

/// One recorded simulation event, for debugging protocol runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event fired.
    pub time: SimTime,
    /// Sender (for deliveries) or the timer's owner.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message tag, or `"timer"` for timer events.
    pub tag: &'static str,
}

/// A bounded in-memory log of the most recent simulation events.
///
/// Disabled (capacity 0) by default; enable through
/// [`crate::SimulationBuilder::trace_capacity`]. When full, the oldest
/// entries are evicted.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    entries: std::collections::VecDeque<TraceEntry>,
    capacity: usize,
}

impl TraceLog {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceLog {
            entries: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// The recorded entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn record(&mut self, entry: TraceEntry) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_tag() {
        let mut c = Counters::default();
        c.record_sent("gossip");
        c.record_sent("gossip");
        c.record_sent("build");
        c.record_delivered("gossip");
        assert_eq!(c.sent(), 3);
        assert_eq!(c.delivered(), 1);
        assert_eq!(c.sent_with_tag("gossip"), 2);
        assert_eq!(c.sent_with_tag("build"), 1);
        assert_eq!(c.delivered_with_tag("gossip"), 1);
        assert_eq!(c.sent_with_tag("unknown"), 0);
        assert_eq!(c.tags(), vec!["build", "gossip"]);
    }

    #[test]
    fn equal_text_from_different_statics_is_one_tag() {
        // Two allocations with the same text: the address differs, the
        // tag does not.
        let a: &'static str = Box::leak(String::from("probe").into_boxed_str());
        let b: &'static str = Box::leak(String::from("probe").into_boxed_str());
        assert!(!std::ptr::eq(a, b));
        let mut c = Counters::default();
        c.record_sent("zeta");
        c.record_sent(a);
        c.record_sent(b);
        c.record_delivered(b);
        c.record_sent("alpha");
        assert_eq!(c.sent_with_tag("probe"), 2);
        assert_eq!(c.delivered_with_tag("probe"), 1);
        assert_eq!(c.sent_with_tag("prob"), 0, "a prefix is another tag");
        assert_eq!(c.delivered_with_tag("never-seen"), 0);
        assert_eq!(
            c.tags(),
            vec!["alpha", "probe", "zeta"],
            "sorted, not first-seen"
        );
    }

    #[test]
    fn drop_counters_are_separate() {
        let mut c = Counters::default();
        c.record_dropped_fault(DropCause::Loss);
        c.record_dropped_crashed();
        c.record_dropped_crashed();
        assert_eq!(c.dropped_by_faults(), 1);
        assert_eq!(c.dropped_at_crashed(), 2);
    }

    #[test]
    fn fault_drops_are_attributed_by_cause() {
        let mut c = Counters::default();
        c.record_dropped_fault(DropCause::Loss);
        c.record_dropped_fault(DropCause::Burst);
        c.record_dropped_fault(DropCause::Burst);
        c.record_dropped_fault(DropCause::Silent);
        c.record_dropped_fault(DropCause::Partition);
        assert_eq!(c.dropped_by_faults(), 5);
        assert_eq!(c.dropped_by_loss(), 1);
        assert_eq!(c.dropped_by_burst(), 2);
        assert_eq!(c.dropped_silent(), 1);
        assert_eq!(c.dropped_partitioned(), 1);
    }

    #[test]
    fn display_mentions_all_counts() {
        let mut c = Counters::default();
        c.record_sent("x");
        c.record_timer();
        let s = c.to_string();
        assert!(s.contains("sent=1") && s.contains("timers=1"), "{s}");
    }

    #[test]
    fn trace_log_evicts_oldest() {
        let mut log = TraceLog::new(2);
        for i in 0..3 {
            log.record(TraceEntry {
                time: SimTime::from_nanos(i),
                from: NodeId(0),
                to: NodeId(1),
                tag: "t",
            });
        }
        assert_eq!(log.len(), 2);
        let first = log.entries().next().unwrap();
        assert_eq!(first.time, SimTime::from_nanos(1), "oldest entry evicted");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut log = TraceLog::new(0);
        log.record(TraceEntry {
            time: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(0),
            tag: "t",
        });
        assert!(log.is_empty());
    }
}
