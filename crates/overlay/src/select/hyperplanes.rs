use std::collections::BTreeMap;

use geocast_geom::{Arrangement, Metric, MetricKind, RegionKey};

use crate::peer::PeerInfo;
use crate::select::{NeighborSelection, ShardProfile};

/// The paper's generic *Hyperplanes* neighbour-selection method.
///
/// A set of `H` hyperplanes, all containing the (translated) origin,
/// divides the space around peer `P` into regions; `P` keeps the `K`
/// closest candidates from each region under a configurable distance
/// function. Ties in distance are broken by peer id, keeping selection
/// deterministic.
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
/// use geocast_geom::{MetricKind, Point};
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let sel = HyperplanesSelection::orthogonal(2, 1, MetricKind::L1);
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
    metric: MetricKind,
}

impl HyperplanesSelection {
    /// Builds the method from an explicit arrangement.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (a method that selects nothing cannot form an
    /// overlay).
    #[must_use]
    pub fn new(arrangement: Arrangement, k: usize, metric: MetricKind) -> Self {
        assert!(k > 0, "K must be at least 1");
        HyperplanesSelection {
            arrangement,
            k,
            metric,
        }
    }

    /// Instance 1: the *Orthogonal Hyperplanes* method.
    #[must_use]
    pub fn orthogonal(dim: usize, k: usize, metric: MetricKind) -> Self {
        Self::new(Arrangement::orthogonal(dim), k, metric)
    }

    /// Instance 2: coefficients in `{-1, 0, +1}`.
    #[must_use]
    pub fn signed(dim: usize, k: usize, metric: MetricKind) -> Self {
        Self::new(Arrangement::signed(dim), k, metric)
    }

    /// Instance 3: `H = 0`, the *K-closest* method.
    #[must_use]
    pub fn k_closest(dim: usize, k: usize, metric: MetricKind) -> Self {
        Self::new(Arrangement::none(dim), k, metric)
    }

    /// The per-region selection budget `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The distance function used for ranking.
    #[must_use]
    pub fn metric(&self) -> MetricKind {
        self.metric
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
                let da = self.metric.dist(who.point(), candidates[a].point());
                let db = self.metric.dist(who.point(), candidates[b].point());
                da.total_cmp(&db)
                    .then_with(|| candidates[a].id().cmp(&candidates[b].id()))
            });
            picked.extend(group.iter().take(self.k));
        }
        picked.sort_unstable();
        picked
    }

    fn name(&self) -> String {
        format!(
            "hyperplanes(H={}, K={}, {})",
            self.arrangement.len(),
            self.k,
            self.metric
        )
    }

    fn shard_profile(&self) -> ShardProfile {
        // Only the orthogonal arrangement maps regions onto orthants,
        // which is what the per-shard KNN shortlist query answers;
        // other arrangements fall back to the brute (but exact) path.
        if self.arrangement.is_orthogonal() {
            ShardProfile::OrthantTopK {
                k: self.k,
                metric: self.metric,
            }
        } else {
            ShardProfile::Generic
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
            let sel = HyperplanesSelection::orthogonal(3, k, MetricKind::L1);
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
        let sel = HyperplanesSelection::orthogonal(2, 1, MetricKind::L1);
        let picked = sel.select(who, &cands);
        // For every picked candidate, nothing in its orthant is closer.
        for &ci in &picked {
            let o = Orthant::classify(who.point(), cands[ci].point()).unwrap();
            let d = MetricKind::L1.dist(who.point(), cands[ci].point());
            for (oi, other) in cands.iter().enumerate() {
                if oi == ci {
                    continue;
                }
                if Orthant::classify(who.point(), other.point()).unwrap() == o {
                    assert!(
                        MetricKind::L1.dist(who.point(), other.point()) >= d,
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
        let sel = HyperplanesSelection::orthogonal(2, 1, MetricKind::L2);
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
        let sel = HyperplanesSelection::k_closest(4, 7, MetricKind::L1);
        let picked = sel.select(who, &cands);
        assert_eq!(picked.len(), 7);
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by(|&a, &b| {
            MetricKind::L1
                .dist(who.point(), cands[a].point())
                .total_cmp(&MetricKind::L1.dist(who.point(), cands[b].point()))
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
        let sel = HyperplanesSelection::k_closest(2, 50, MetricKind::L1);
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
        let orth = HyperplanesSelection::orthogonal(2, 1, MetricKind::L1).select(who, &cands);
        let signed = HyperplanesSelection::signed(2, 1, MetricKind::L1).select(who, &cands);
        assert!(signed.len() >= orth.len());
    }

    #[test]
    fn selection_is_deterministic() {
        let population = peers(30, 3, 60);
        let who = &population[0];
        let cands = candidates_excluding(&population, 0);
        let sel = HyperplanesSelection::orthogonal(3, 2, MetricKind::L1);
        assert_eq!(sel.select(who, &cands), sel.select(who, &cands));
    }

    #[test]
    #[should_panic(expected = "K must be at least 1")]
    fn zero_k_rejected() {
        let _ = HyperplanesSelection::orthogonal(2, 0, MetricKind::L1);
    }

    #[test]
    fn name_reports_parameters() {
        let sel = HyperplanesSelection::orthogonal(3, 2, MetricKind::L1);
        assert_eq!(sel.name(), "hyperplanes(H=3, K=2, L1)");
    }

    #[test]
    fn accessors_expose_configuration() {
        let sel = HyperplanesSelection::signed(2, 3, MetricKind::L2);
        assert_eq!(sel.k(), 3);
        assert_eq!(sel.metric(), MetricKind::L2);
        assert_eq!(sel.arrangement().len(), 4);
    }
}
