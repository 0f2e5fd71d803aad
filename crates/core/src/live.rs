//! The live peers as an order-statistics set: what the workload binding
//! draws from, with rank and select in `O(log N)` and a departure that
//! moves nothing.

/// The live peers among the dense ids seen so far: a flag per id
/// and a Fenwick tree over the flags, so the rank of an id, the `r`-th
/// live id, a join and a departure each walk `O(log N)` tree nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct LivePeers {
    live: Vec<bool>,
    /// 1-based Fenwick tree: `tree[k - 1]` counts the live ids in
    /// `(k - lowbit(k), k]`, ids shifted up by one.
    tree: Vec<u32>,
    count: usize,
}

fn lowbit(k: usize) -> usize {
    k & k.wrapping_neg()
}

impl LivePeers {
    /// The set over ids `0..departed.len()` holding those not departed.
    pub(crate) fn from_departed(departed: &[bool]) -> Self {
        let mut set = LivePeers::default();
        for &gone in departed {
            set.push(!gone);
        }
        set
    }

    /// Number of live peers.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds the next dense id, live or departed.
    fn push(&mut self, live: bool) {
        let k = self.tree.len() + 1;
        // The new node covers `(k - lowbit(k), k]`: its own flag plus
        // the nodes that tile `(k - lowbit(k), k - 1]`.
        let mut sum = u32::from(live);
        let mut j = k - 1;
        while j > k - lowbit(k) {
            sum += self.tree[j - 1];
            j -= lowbit(j);
        }
        self.tree.push(sum);
        self.live.push(live);
        self.count += usize::from(live);
    }

    /// A join: `id` is the next id of the universe.
    pub(crate) fn join(&mut self, id: usize) {
        debug_assert_eq!(id, self.live.len(), "joins take the next dense id");
        self.push(true);
    }

    /// A departure; nothing happens if `id` is not live.
    pub(crate) fn leave(&mut self, id: usize) {
        if !std::mem::replace(&mut self.live[id], false) {
            return;
        }
        self.count -= 1;
        let mut k = id + 1;
        while k <= self.tree.len() {
            self.tree[k - 1] -= 1;
            k += lowbit(k);
        }
    }

    /// Number of live ids below `id`.
    pub(crate) fn rank(&self, id: usize) -> usize {
        let (mut k, mut sum) = (id, 0usize);
        while k > 0 {
            sum += self.tree[k - 1] as usize;
            k -= lowbit(k);
        }
        sum
    }

    /// The `r`-th live id, counting from 0.
    ///
    /// # Panics
    ///
    /// Panics if `r >= len()`.
    pub(crate) fn select(&self, r: usize) -> usize {
        assert!(r < self.count, "rank {r} of {} live peers", self.count);
        // Descend from the largest power of two: `pos` ends as the
        // longest prefix holding at most `r` live ids, so id `pos` is
        // the next live one.
        let (mut pos, mut rest) = (0usize, r);
        let mut step = self.tree.len().checked_ilog2().map_or(0, |b| 1 << b);
        while step > 0 {
            if pos + step <= self.tree.len() && (self.tree[pos + step - 1] as usize) <= rest {
                pos += step;
                rest -= self.tree[pos - 1] as usize;
            }
            step >>= 1;
        }
        pos
    }

    /// The live ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.live.iter().enumerate()).filter_map(|(id, &live)| live.then_some(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_select_match_a_sorted_list_through_joins_and_leaves() {
        let departed: Vec<bool> = (0..37).map(|i| i % 5 == 3).collect();
        let mut set = LivePeers::from_departed(&departed);
        let mut list: Vec<usize> = (0..37).filter(|&i| !departed[i]).collect();
        let mut state = 7u64;
        for step in 0..400 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let roll = (state >> 33) as usize;
            if roll.is_multiple_of(3) || list.is_empty() {
                let id = set.live.len();
                set.join(id);
                list.push(id);
            } else {
                let id = list.remove(roll % list.len());
                set.leave(id);
                set.leave(id); // a second departure changes nothing
            }
            assert_eq!(set.len(), list.len(), "step {step}");
            assert!(set.iter().eq(list.iter().copied()), "step {step}");
            for (r, &id) in list.iter().enumerate() {
                assert_eq!(set.select(r), id, "step {step}: select {r}");
                assert_eq!(set.rank(id), r, "step {step}: rank {id}");
            }
            let universe = set.live.len();
            assert_eq!(set.rank(universe), list.len(), "step {step}");
        }
    }
}
