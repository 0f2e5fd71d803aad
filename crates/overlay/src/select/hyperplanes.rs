use std::collections::BTreeMap;

use geocast_geom::{l1, Arrangement, RegionKey};

use crate::peer::PeerInfo;
use crate::select::{select_in_brute, ChurnShape, NeighborSelection, SelectContext};

/// The paper's generic *Hyperplanes* neighbour-selection method.
///
/// A set of `H` hyperplanes, all containing the (translated) origin,
/// divides the space around peer `P` into regions; `P` keeps the `K`
/// closest candidates from each region. The paper leaves the distance
/// function open; this method ranks by L1, the distance of §2. Ties in
/// distance are broken by peer id, keeping selection deterministic.
///
/// The three instances named in the paper:
///
/// * [`HyperplanesSelection::orthogonal`] — `D` axis planes `x(i) = 0`
///   (regions are the `2^D` orthants). Used by the §3 stability-tree
///   experiments.
/// * [`HyperplanesSelection::signed`] — one plane per coefficient vector
///   `a ∈ {-1, 0, +1}^D`.
/// * [`HyperplanesSelection::k_closest`] — `H = 0`: one region, keep the
///   `K` closest candidates overall.
///
/// # Example
///
/// ```
/// use geocast_overlay::select::{HyperplanesSelection, NeighborSelection};
/// use geocast_overlay::{PeerId, PeerInfo};
/// use geocast_geom::Point;
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let sel = HyperplanesSelection::orthogonal(2, 1);
/// let p = PeerInfo::new(PeerId(0), Point::new(vec![0.0, 0.0])?);
/// let ne = PeerInfo::new(PeerId(1), Point::new(vec![1.0, 1.0])?);
/// let ne_far = PeerInfo::new(PeerId(2), Point::new(vec![5.0, 5.0])?);
/// let sw = PeerInfo::new(PeerId(3), Point::new(vec![-1.0, -1.0])?);
/// // One per populated orthant: the close north-east peer and the south-west one.
/// assert_eq!(sel.select(&p, &[&ne, &ne_far, &sw]), vec![0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HyperplanesSelection {
    arrangement: Arrangement,
    k: usize,
}

impl HyperplanesSelection {
    /// Builds the method from an explicit arrangement.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (a method that selects nothing cannot form an
    /// overlay).
    #[must_use]
    pub fn new(arrangement: Arrangement, k: usize) -> Self {
        assert!(k > 0, "K must be at least 1");
        HyperplanesSelection { arrangement, k }
    }

    /// Instance 1: the *Orthogonal Hyperplanes* method.
    #[must_use]
    pub fn orthogonal(dim: usize, k: usize) -> Self {
        Self::new(Arrangement::orthogonal(dim), k)
    }

    /// Instance 2: coefficients in `{-1, 0, +1}`.
    #[must_use]
    pub fn signed(dim: usize, k: usize) -> Self {
        Self::new(Arrangement::signed(dim), k)
    }

    /// Instance 3: `H = 0`, the *K-closest* method.
    #[must_use]
    pub fn k_closest(dim: usize, k: usize) -> Self {
        Self::new(Arrangement::none(dim), k)
    }

    /// The per-region selection budget `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying arrangement.
    #[must_use]
    pub fn arrangement(&self) -> &Arrangement {
        &self.arrangement
    }
}

impl NeighborSelection for HyperplanesSelection {
    fn select(&self, who: &PeerInfo, candidates: &[&PeerInfo]) -> Vec<usize> {
        let mut regions: BTreeMap<RegionKey, Vec<usize>> = BTreeMap::new();
        for (i, cand) in candidates.iter().enumerate() {
            let key = self.arrangement.classify(who.point(), cand.point());
            regions.entry(key).or_default().push(i);
        }
        let mut picked = Vec::new();
        for group in regions.values_mut() {
            group.sort_by(|&a, &b| {
                let da = l1(who.point().coords(), candidates[a].point().coords());
                let db = l1(who.point().coords(), candidates[b].point().coords());
                da.total_cmp(&db)
                    .then_with(|| candidates[a].id().cmp(&candidates[b].id()))
            });
            picked.extend(group.iter().take(self.k));
        }
        picked.sort_unstable();
        picked
    }

    fn select_in(&self, peers: &[PeerInfo], i: usize, ctx: &SelectContext<'_>) -> Vec<usize> {
        // The orthogonal arrangement's regions are the orthants, and the
        // index ranks each by `(distance, slot)`: the rule's
        // `(distance, id)` order when slots are ids. It declines on a
        // shared coordinate (an on-hyperplane region) or beyond
        // `MAX_INDEX_DIM`, and `select_in_brute` answers.
        let ranked_by_id = ctx.ids_in_slice_order && self.arrangement.is_orthogonal();
        if let Some(index) = ctx.index().filter(|_| ranked_by_id) {
            if let Some(groups) = index.k_nearest_per_orthant(i, self.k) {
                let mut picked: Vec<usize> = groups.into_iter().flatten().collect();
                picked.sort_unstable();
                return picked;
            }
        }
        select_in_brute(self, peers, i, ctx)
    }

    fn name(&self) -> String {
        format!("hyperplanes(H={}, K={})", self.arrangement.len(), self.k)
    }

    fn churn_shape(&self) -> ChurnShape {
        // Only the orthogonal arrangement maps regions onto orthants,
        // which is what `topk_join_recheck` reasons about; a join under
        // any other arrangement re-selects every live peer.
        if self.arrangement.is_orthogonal() {
            ChurnShape::OrthantTopK { k: self.k }
        } else {
            ChurnShape::Generic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::test_support::{candidates_excluding, peers};
    use geocast_geom::Orthant;

    #[test]
    fn orthogonal_keeps_at_most_k_per_orthant() {
        let population = peers(60, 3, 17);
        let who = &population[0];
        let cands = candidates_excluding(&population, 0);
        for k in [1usize, 2, 5] {
            let sel = HyperplanesSelection::orthogonal(3, k);
            let picked = sel.select(who, &cands);
            let mut per_orthant: BTreeMap<u32, usize> = BTreeMap::new();
            for &ci in &picked {
                let o = Orthant::classify(who.point(), cands[ci].point()).unwrap();
                *per_orthant.entry(o.bits()).or_default() += 1;
            }
            assert!(per_orthant.values().all(|&c| c <= k), "K={k} violated");
        }
    }

    #[test]
    fn orthogonal_picks_closest_candidate_per_orthant() {
        let population = peers(50, 2, 23);
        let who = &population[0];
        let cands = candidates_excluding(&population, 0);
        let sel = HyperplanesSelection::orthogonal(2, 1);
        let picked = sel.select(who, &cands);
        // For every picked candidate, nothing in its orthant is closer.
        for &ci in &picked {
            let o = Orthant::classify(who.point(), cands[ci].point()).unwrap();
            let d = l1(who.point().coords(), cands[ci].point().coords());
            for (oi, other) in cands.iter().enumerate() {
                if oi == ci {
                    continue;
                }
                if Orthant::classify(who.point(), other.point()).unwrap() == o {
                    assert!(
                        l1(who.point().coords(), other.point().coords()) >= d,
                        "picked candidate is not the orthant minimum"
                    );
                }
            }
        }
    }

    #[test]
    fn every_populated_orthant_is_represented() {
        let population = peers(80, 2, 31);
        let who = &population[5];
        let cands = candidates_excluding(&population, 5);
        let sel = HyperplanesSelection::orthogonal(2, 1);
        let picked = sel.select(who, &cands);
        let populated: std::collections::BTreeSet<u32> = cands
            .iter()
            .map(|c| Orthant::classify(who.point(), c.point()).unwrap().bits())
            .collect();
        let represented: std::collections::BTreeSet<u32> = picked
            .iter()
            .map(|&ci| {
                Orthant::classify(who.point(), cands[ci].point())
                    .unwrap()
                    .bits()
            })
            .collect();
        assert_eq!(populated, represented);
    }

    #[test]
    fn k_closest_equals_truncated_sort() {
        let population = peers(40, 4, 41);
        let who = &population[0];
        let cands = candidates_excluding(&population, 0);
        let sel = HyperplanesSelection::k_closest(4, 7);
        let picked = sel.select(who, &cands);
        assert_eq!(picked.len(), 7);
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by(|&a, &b| {
            let da = l1(who.point().coords(), cands[a].point().coords());
            da.total_cmp(&l1(who.point().coords(), cands[b].point().coords()))
        });
        let mut expected: Vec<usize> = order[..7].to_vec();
        expected.sort_unstable();
        assert_eq!(picked, expected);
    }

    #[test]
    fn fewer_candidates_than_k_selects_all() {
        let population = peers(4, 2, 2);
        let who = &population[0];
        let cands = candidates_excluding(&population, 0);
        let sel = HyperplanesSelection::k_closest(2, 50);
        assert_eq!(sel.select(who, &cands), vec![0, 1, 2]);
    }

    #[test]
    fn signed_refines_orthogonal() {
        // The signed arrangement contains the axis planes, so its regions
        // are sub-regions of orthants: with K=1 it selects at least as
        // many neighbours as orthogonal with K=1.
        let population = peers(100, 2, 53);
        let who = &population[0];
        let cands = candidates_excluding(&population, 0);
        let orth = HyperplanesSelection::orthogonal(2, 1).select(who, &cands);
        let signed = HyperplanesSelection::signed(2, 1).select(who, &cands);
        assert!(signed.len() >= orth.len());
    }

    #[test]
    fn selection_is_deterministic() {
        let population = peers(30, 3, 60);
        let who = &population[0];
        let cands = candidates_excluding(&population, 0);
        let sel = HyperplanesSelection::orthogonal(3, 2);
        assert_eq!(sel.select(who, &cands), sel.select(who, &cands));
    }

    #[test]
    #[should_panic(expected = "K must be at least 1")]
    fn zero_k_rejected() {
        let _ = HyperplanesSelection::orthogonal(2, 0);
    }

    #[test]
    fn name_reports_parameters() {
        let sel = HyperplanesSelection::orthogonal(3, 2);
        assert_eq!(sel.name(), "hyperplanes(H=3, K=2)");
    }

    #[test]
    fn accessors_expose_configuration() {
        let sel = HyperplanesSelection::signed(2, 3);
        assert_eq!(sel.k(), 3);
        assert_eq!(sel.arrangement().len(), 4);
    }
}
