//! Harnesses for the paper's in-text claims (§2 and §3).

use std::sync::Arc;

use geocast_core::groups::build_group_tree_on_store;
use geocast_core::{protocol, validate, OrthantRectPartitioner};
use geocast_geom::gen::{embed_lifetimes, lifetimes, uniform_points};
use geocast_geom::VMAX;
use geocast_metrics::Table;
use geocast_overlay::select::{EmptyRectSelection, HyperplanesSelection};
use geocast_overlay::{PeerInfo, TopologyStore};
use geocast_sim::runner::{map_indexed, Grain};

use crate::figures::FigureReport;

/// Configuration for the claim checks.
#[derive(Debug, Clone)]
pub struct ClaimsConfig {
    /// Network sizes to check §2 on.
    pub ns: Vec<usize>,
    /// Dimensionalities to check.
    pub dims: Vec<usize>,
    /// Trials.
    pub seeds: Vec<u64>,
    /// §3: the `K` values of the Orthogonal-Hyperplanes overlay.
    pub ks: Vec<usize>,
}

impl Default for ClaimsConfig {
    fn default() -> Self {
        ClaimsConfig {
            ns: vec![100, 500, 1000],
            dims: vec![2, 3, 4, 5],
            seeds: vec![1, 2, 3],
            ks: vec![1, 5, 25, 50],
        }
    }
}

impl ClaimsConfig {
    /// Reduced scale for CI.
    #[must_use]
    pub fn quick() -> Self {
        ClaimsConfig {
            ns: vec![40, 120],
            dims: vec![2, 3],
            seeds: vec![1],
            ks: vec![1, 5],
        }
    }
}

/// **§2 claims** — "The algorithm sends N − 1 messages", every peer is
/// reached exactly once (no duplicates), and the per-node child count
/// stays within the `2^D` orthant bound.
///
/// Each row is one `(N, D)` configuration; the offline builder checks
/// the first three columns, a full message-passing run over the
/// simulator independently checks message and duplicate counts.
#[must_use]
pub fn claims_section2(cfg: &ClaimsConfig) -> FigureReport {
    let jobs: Vec<(usize, usize, u64)> = cfg
        .ns
        .iter()
        .flat_map(|&n| {
            cfg.dims
                .iter()
                .flat_map(move |&d| cfg.seeds.iter().map(move |&s| (n, d, s)))
        })
        .collect();
    let measured = map_indexed(Grain::JOBS, jobs.len(), |j| {
        let (n, dim, seed) = jobs[j];
        let store = TopologyStore::from_peers(
            PeerInfo::from_point_set(&uniform_points(n, dim, VMAX, seed)),
            Arc::new(EmptyRectSelection),
        );
        let (peers, overlay) = (store.peers(), store.graph());
        let everyone = (0..n).collect();
        let median = OrthantRectPartitioner::median();
        let offline = build_group_tree_on_store(&store, 0, &everyone, &median);
        let verdict = validate::check_section2(&offline, n, dim);
        let dist = protocol::build_distributed_default(
            peers,
            &overlay,
            0,
            OrthantRectPartitioner::median(),
            seed,
        );
        (
            offline.messages,
            verdict,
            offline.tree.max_children(),
            dist.messages,
            dist.duplicates,
        )
    });

    let mut table = Table::new(vec![
        "N".into(),
        "D".into(),
        "messages (offline)".into(),
        "N-1".into(),
        "spanning".into(),
        "max children".into(),
        "2^D bound".into(),
        "messages (protocol)".into(),
        "duplicates".into(),
    ]);
    let mut all_hold = true;
    for ((n, dim, _), (messages, verdict, max_children, dist_messages, duplicates)) in
        jobs.iter().zip(&measured)
    {
        all_hold &= verdict.all_hold() && *duplicates == 0 && *dist_messages as usize == n - 1;
        table.push_row(vec![
            n.to_string(),
            dim.to_string(),
            messages.to_string(),
            (n - 1).to_string(),
            verdict.all_peers_reached.to_string(),
            max_children.to_string(),
            (1usize << dim).to_string(),
            dist_messages.to_string(),
            duplicates.to_string(),
        ]);
    }
    FigureReport::new(
        "claims-s2",
        "§2 claims: N−1 messages, full delivery, degree bound",
        table,
    )
    .with_note(format!(
        "all claims hold across every configuration: {all_hold}"
    ))
}

/// **§3 claims** — the preferred links "indeed formed a tree", the
/// parent-child `T` ordering holds, and replaying all departures never
/// hits a non-leaf. Each row is one `(D, K)` configuration.
#[must_use]
pub fn claims_section3(cfg: &ClaimsConfig) -> FigureReport {
    let n = *cfg.ns.last().expect("at least one network size");
    let jobs: Vec<(usize, usize, u64)> = cfg
        .dims
        .iter()
        .flat_map(|&d| {
            cfg.ks
                .iter()
                .flat_map(move |&k| cfg.seeds.iter().map(move |&s| (d, k, s)))
        })
        .collect();
    let measured = map_indexed(Grain::JOBS, jobs.len(), |j| {
        let (dim, k, seed) = jobs[j];
        let base = uniform_points(n, dim, VMAX, seed);
        let times = lifetimes(n, VMAX, seed ^ 0x3353);
        let peers = PeerInfo::from_point_set(&embed_lifetimes(&base, &times));
        let sel = HyperplanesSelection::orthogonal(dim, k);
        let store = TopologyStore::from_peers(peers, Arc::new(sel));
        validate::check_section3(
            store.peers(),
            &store.graph(),
            geocast_core::stability::PreferredPolicy::MaxT,
        )
    });

    let mut table = Table::new(vec![
        "D".into(),
        "K".into(),
        "links form tree".into(),
        "heap property".into(),
        "departures safe".into(),
    ]);
    let mut all_hold = true;
    for ((dim, k, _), verdict) in jobs.iter().zip(&measured) {
        all_hold &= verdict.all_hold();
        table.push_row(vec![
            dim.to_string(),
            k.to_string(),
            verdict.links_form_tree.to_string(),
            verdict.heap_property.to_string(),
            verdict.departures_never_disconnect.to_string(),
        ]);
    }
    FigureReport::new("claims-s3", format!("§3 claims on N={n} peers"), table)
        .with_note(format!(
            "all claims hold across every configuration: {all_hold}"
        ))
        .with_note("overlay: Orthogonal Hyperplanes, x1 = T(P), preferred = max-T neighbour")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section2_claims_all_hold_quick() {
        let report = claims_section2(&ClaimsConfig::quick());
        assert!(
            report.notes.iter().any(|n| n.contains("true")),
            "claims must hold: {report}"
        );
        // 2 sizes × 2 dims × 1 seed = 4 rows.
        assert_eq!(report.table.len(), 4);
    }

    #[test]
    fn section3_claims_all_hold_quick() {
        let report = claims_section3(&ClaimsConfig::quick());
        assert!(
            report.notes.iter().any(|n| n.contains("true")),
            "claims must hold: {report}"
        );
        assert_eq!(report.table.len(), 4); // 2 dims × 2 ks × 1 seed
    }
}
