use geocast_geom::{dominance, l1, Rect};
use geocast_overlay::PeerInfo;

/// Which neighbour to delegate an orthant to, among the in-zone
/// neighbours of that orthant sorted by distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PickRule {
    /// The median-distance neighbour — the paper's choice ("from each
    /// region, the peer Q with the median distance to P is selected").
    /// Even-sized groups take the lower median.
    #[default]
    Median,
    /// The closest neighbour (ablation).
    Closest,
    /// The farthest neighbour (ablation).
    Farthest,
}

impl PickRule {
    fn index(&self, len: usize) -> usize {
        debug_assert!(len > 0);
        match self {
            PickRule::Median => (len - 1) / 2,
            PickRule::Closest => 0,
            PickRule::Farthest => len - 1,
        }
    }
}

/// The paper's §2 partitioner, the heart of the construction: classify
/// in-zone neighbours into the `2^D` orthants around `p` (as in the
/// Orthogonal Hyperplanes method), sort each orthant's neighbours by L1
/// distance, pick one per [`PickRule`], and delegate the orthant's slice
/// of the zone — `Z(Q) = Z(P) ∩ HR(orthant)` where `HR`'s side in
/// dimension `i` is `(-∞, x(P,i))` or `(x(P,i), +∞)`.
///
/// [`OrthantRectPartitioner::partition`] upholds the paper's contract:
///
/// * each child lies inside its own sub-zone,
/// * sub-zones are pairwise disjoint,
/// * sub-zones lie inside `zone` and exclude `p`,
/// * jointly, the sub-zones cover every peer of `zone` that can still be
///   reached: every populated orthant with an in-zone neighbour is
///   delegated.
///
/// These invariants are what make the construction send exactly `N − 1`
/// messages: no peer is covered twice (no duplicates) and none is left
/// out (full delivery).
///
/// # Example
///
/// ```
/// use geocast_core::OrthantRectPartitioner;
/// use geocast_overlay::{PeerId, PeerInfo};
/// use geocast_geom::{Point, Rect};
///
/// # fn main() -> Result<(), geocast_geom::GeomError> {
/// let p = PeerInfo::new(PeerId(0), Point::new(vec![5.0, 5.0])?);
/// let q = PeerInfo::new(PeerId(1), Point::new(vec![7.0, 8.0])?);
/// let parts = OrthantRectPartitioner::median().partition(&p, &Rect::full(2), &[&q]);
/// assert_eq!(parts.len(), 1);
/// let (child, zone) = &parts[0];
/// assert_eq!(*child, 0);
/// assert!(zone.contains(q.point()));
/// assert!(!zone.contains(p.point()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrthantRectPartitioner {
    pick: PickRule,
}

impl OrthantRectPartitioner {
    /// The paper's configuration: median pick.
    #[must_use]
    pub fn median() -> Self {
        OrthantRectPartitioner {
            pick: PickRule::Median,
        }
    }

    /// Ablation: delegate to the closest in-zone neighbour per orthant.
    #[must_use]
    pub fn closest() -> Self {
        OrthantRectPartitioner {
            pick: PickRule::Closest,
        }
    }

    /// Ablation: delegate to the farthest in-zone neighbour per orthant.
    #[must_use]
    pub fn farthest() -> Self {
        OrthantRectPartitioner {
            pick: PickRule::Farthest,
        }
    }

    /// The configured pick rule.
    #[must_use]
    pub fn pick(&self) -> PickRule {
        self.pick
    }

    /// Chooses `(child, sub-zone)` pairs. `in_zone` holds the neighbours
    /// of `p` strictly inside `zone`; returned indices point into it.
    #[must_use]
    pub fn partition(
        &self,
        p: &PeerInfo,
        zone: &Rect,
        in_zone: &[&PeerInfo],
    ) -> Vec<(usize, Rect)> {
        debug_assert!(
            in_zone.iter().all(|q| zone.contains(q.point())),
            "in_zone must be pre-filtered to the zone"
        );
        let (groups, colliding) = dominance::group_by_orthant(p.point(), in_zone);
        debug_assert!(colliding.is_empty(), "distinctness assumption violated");

        let pc = p.point().coords();
        let mut out = Vec::with_capacity(groups.len());
        for (orthant, mut sorted) in groups {
            sorted.sort_by(|&a, &b| {
                let da = l1(pc, in_zone[a].point().coords());
                let db = l1(pc, in_zone[b].point().coords());
                da.total_cmp(&db)
                    .then_with(|| in_zone[a].id().cmp(&in_zone[b].id()))
            });
            let chosen = sorted[self.pick.index(sorted.len())];
            let sub_zone = zone.intersect(&Rect::orthant_of(p.point(), orthant));
            debug_assert!(sub_zone.contains(in_zone[chosen].point()));
            out.push((chosen, sub_zone));
        }
        out
    }

    /// Human-readable policy name for reports.
    #[must_use]
    pub fn name(&self) -> String {
        let pick = match self.pick {
            PickRule::Median => "median",
            PickRule::Closest => "closest",
            PickRule::Farthest => "farthest",
        };
        format!("orthant-rect({pick})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocast_geom::gen::uniform_points;
    use geocast_overlay::PeerId;

    fn peers(n: usize, dim: usize, seed: u64) -> Vec<PeerInfo> {
        PeerInfo::from_point_set(&uniform_points(n, dim, 1000.0, seed))
    }

    fn partitioner(pick: PickRule) -> OrthantRectPartitioner {
        match pick {
            PickRule::Median => OrthantRectPartitioner::median(),
            PickRule::Closest => OrthantRectPartitioner::closest(),
            PickRule::Farthest => OrthantRectPartitioner::farthest(),
        }
    }

    fn partition_contract(p: &PeerInfo, zone: &Rect, in_zone: &[&PeerInfo], pick: PickRule) {
        let partitioner = partitioner(pick);
        let parts = partitioner.partition(p, zone, in_zone);
        // Children are distinct.
        let mut seen = std::collections::BTreeSet::new();
        for (c, _) in &parts {
            assert!(seen.insert(*c), "child selected twice");
        }
        for (c, z) in &parts {
            assert!(z.contains(in_zone[*c].point()), "child outside its zone");
            assert!(
                !z.contains(p.point()),
                "zone must exclude the delegating peer"
            );
            assert!(zone.contains_rect(z), "sub-zone escapes the parent zone");
        }
        for i in 0..parts.len() {
            for j in 0..i {
                assert!(parts[i].1.is_disjoint(&parts[j].1), "sub-zones overlap");
            }
        }
        // Every in-zone neighbour is covered by exactly one sub-zone or is
        // in the orthant of a chosen sibling.
        for q in in_zone {
            let covering = parts.iter().filter(|(_, z)| z.contains(q.point())).count();
            assert_eq!(covering, 1, "in-zone neighbour covered {covering} times");
        }
    }

    #[test]
    fn contract_holds_for_all_pick_rules_and_dims() {
        for dim in 2..=4 {
            let population = peers(40, dim, dim as u64 * 7 + 1);
            let p = &population[0];
            let zone = Rect::full(dim);
            let in_zone: Vec<&PeerInfo> = population[1..].iter().collect();
            for pick in [PickRule::Median, PickRule::Closest, PickRule::Farthest] {
                partition_contract(p, &zone, &in_zone, pick);
            }
        }
    }

    #[test]
    fn contract_holds_at_the_orthant_ceiling() {
        // At D = 32 a table of every orthant would take 2^32 buckets;
        // the partitioner groups the occupied orthants only.
        let dim = geocast_geom::MAX_ORTHANT_DIM;
        let population = peers(24, dim, 3);
        let p = &population[0];
        let zone = Rect::full(dim);
        let in_zone: Vec<&PeerInfo> = population[1..].iter().collect();
        for pick in [PickRule::Median, PickRule::Closest, PickRule::Farthest] {
            partition_contract(p, &zone, &in_zone, pick);
        }
        let parts = OrthantRectPartitioner::median().partition(p, &zone, &in_zone);
        let orthants: Vec<geocast_geom::Orthant> = parts
            .iter()
            .map(|&(c, _)| geocast_geom::Orthant::classify(p.point(), in_zone[c].point()).unwrap())
            .collect();
        assert!(
            orthants.windows(2).all(|w| w[0] < w[1]),
            "children come out in ascending orthant order"
        );
    }

    #[test]
    fn contract_holds_for_restricted_zone() {
        let population = peers(60, 2, 99);
        let p = &population[0];
        // Restrict to the north-east orthant-style zone around some point.
        let zone = Rect::new(vec![
            geocast_geom::Interval::above(200.0),
            geocast_geom::Interval::above(300.0),
        ])
        .unwrap();
        if !zone.contains(p.point()) {
            // The partitioner does not require p inside the zone; the
            // contract still holds.
        }
        let in_zone: Vec<&PeerInfo> = population[1..]
            .iter()
            .filter(|q| zone.contains(q.point()))
            .collect();
        partition_contract(p, &zone, &in_zone, PickRule::Median);
    }

    #[test]
    fn median_picks_the_middle_neighbor() {
        // Five collinear-ish points in the same orthant at L1 distances
        // 2, 4, 6, 8, 10: the median is the 3rd (index 2).
        let p = PeerInfo::new(PeerId(0), geocast_geom::Point::new(vec![0.0, 0.0]).unwrap());
        let mk = |id: u64, x: f64, y: f64| {
            PeerInfo::new(PeerId(id), geocast_geom::Point::new(vec![x, y]).unwrap())
        };
        let q: Vec<PeerInfo> = vec![
            mk(1, 1.0, 1.0), // d=2
            mk(2, 2.0, 2.1), // d=4.1
            mk(3, 3.0, 3.2), // d=6.2
            mk(4, 4.0, 4.3), // d=8.3
            mk(5, 5.0, 5.4), // d=10.4
        ];
        let refs: Vec<&PeerInfo> = q.iter().collect();
        let parts = OrthantRectPartitioner::median().partition(&p, &Rect::full(2), &refs);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 2, "median of five is the third");

        let closest = OrthantRectPartitioner::closest().partition(&p, &Rect::full(2), &refs);
        assert_eq!(closest[0].0, 0);
        let farthest = OrthantRectPartitioner::farthest().partition(&p, &Rect::full(2), &refs);
        assert_eq!(farthest[0].0, 4);
    }

    #[test]
    fn even_sized_group_takes_lower_median() {
        assert_eq!(PickRule::Median.index(4), 1);
        assert_eq!(PickRule::Median.index(2), 0);
        assert_eq!(PickRule::Median.index(1), 0);
        assert_eq!(PickRule::Median.index(5), 2);
    }

    #[test]
    fn empty_neighbor_set_yields_no_children() {
        let population = peers(1, 3, 5);
        let parts = OrthantRectPartitioner::median().partition(&population[0], &Rect::full(3), &[]);
        assert!(parts.is_empty());
    }

    #[test]
    fn at_most_one_child_per_orthant() {
        let population = peers(100, 2, 13);
        let p = &population[0];
        let in_zone: Vec<&PeerInfo> = population[1..].iter().collect();
        let parts = OrthantRectPartitioner::median().partition(p, &Rect::full(2), &in_zone);
        assert!(parts.len() <= 4, "2D has at most 4 orthants");
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(
            OrthantRectPartitioner::median().name(),
            "orthant-rect(median)"
        );
        assert_eq!(
            OrthantRectPartitioner::closest().name(),
            "orthant-rect(closest)"
        );
    }

    #[test]
    fn accessors_expose_configuration() {
        let p = OrthantRectPartitioner::farthest();
        assert_eq!(p.pick(), PickRule::Farthest);
    }
}
