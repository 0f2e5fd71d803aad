//! One bit per peer: the transient membership mask of a group build.

/// A fixed-universe bit set over dense peer indices. Group trees and
/// their grafts store only the peers they reach; the one structure that
/// still scales with the overlay is this mask — an eighth of a byte per
/// peer, built per call and dropped with it — because the inner loops
/// (neighbour filtering, on-tree tests along a relay path) need their
/// membership test to cost one shift, not one search.
#[derive(Debug, Clone)]
pub(crate) struct PeerBits(Vec<u64>);

impl PeerBits {
    /// The set over peers `0..n` holding exactly `peers`.
    pub(crate) fn from_peers<'a>(n: usize, peers: impl IntoIterator<Item = &'a usize>) -> Self {
        let mut bits = PeerBits(vec![0; n.div_ceil(64)]);
        for &p in peers {
            bits.insert(p);
        }
        bits
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_exactly_what_was_inserted() {
        let mut bits = PeerBits::from_peers(130, &[0, 63, 64]);
        bits.insert(129);
        for i in 0..130 {
            assert_eq!(bits.contains(i), [0, 63, 64, 129].contains(&i), "peer {i}");
        }
    }
}
