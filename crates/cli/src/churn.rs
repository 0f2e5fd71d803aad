use super::*;

/// The churn shapes of `--events` events (and mixed, of the rates).
pub(crate) const PATTERNS: Choices<fn(usize, u32, u32) -> ChurnPattern> = &[
    ("mixed", |e, j, l| ChurnPattern::Mixed {
        events: e,
        join_rate: j,
        leave_rate: l,
    }),
    ("join-wave", |n, _, _| ChurnPattern::JoinWave { count: n }),
    ("leave-wave", |n, _, _| ChurnPattern::LeaveWave { count: n }),
    ("flash-crowd", |events, _, _| ChurnPattern::FlashCrowd {
        surge: events / 2,
        exodus: events - events / 2,
    }),
];

pub(crate) fn cmd_churn(a: &Args) -> Result<String, CliError> {
    let (n, dim, seed) = a.population()?;
    let events = a.get("events")?;
    let (join_rate, leave_rate) = (a.get("join-rate")?, a.get("leave-rate")?);
    let pattern = (a.choice("pattern", PATTERNS)?.1)(events, join_rate, leave_rate);
    if join_rate == 0 && leave_rate == 0 && matches!(pattern, ChurnPattern::Mixed { .. }) {
        return Err(bad_value("join-rate", "0 (with --leave-rate 0)"));
    }
    let schedule = ChurnSchedule::from_pattern(n, &pattern, dim, VMAX, seed ^ 0xc4);
    let peers = PeerInfo::from_point_set(&uniform_points(n, dim, VMAX, seed));
    // lint:allow(D002, reason = "wall-clock lines in the CLI report only; no control flow reads the clock")
    let start = Instant::now();
    let mut store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let build_secs = start.elapsed().as_secs_f64();
    let r = run_schedule_on_store(&mut store, &schedule);
    let secs = start.elapsed().as_secs_f64() - build_secs;
    let title = format!("churn replay: {pattern} on {n} initial peers (D={dim}, seed {seed})");
    let mut out = Report::new(18, title);
    let (joins, leaves) = (r.joins, r.leaves);
    let applied = format!("{} ({joins} joins, {leaves} leaves)", joins + leaves);
    out.row("events applied", applied);
    out.row("elapsed (build)", format!("{build_secs:.3}s"));
    out.row("elapsed", format!("{secs:.3}s"));
    let rate = (joins + leaves) as f64 / secs.max(1e-9);
    out.row("events per second", format!("{rate:.0}"));
    let per_event = |count: u64| count as f64 / (joins + leaves).max(1) as f64;
    let (mean, max) = (r.touched_mean(), r.touched_max);
    out.row("dirty region", format!("mean {mean:.1} / max {max} peers"));
    let (made, cut) = (r.links_made, r.links_cut);
    let links = format!("{:.2} / {:.2}", per_event(made), per_event(cut));
    let links = format!("{links} per event ({made} by leaves, {cut} by joins)");
    out.row("links made / cut", links);
    let (live_count, bytes) = (store.live_count(), store.row_bytes());
    out.row("live peers after", live_count);
    let per_peer = bytes as f64 / live_count.max(1) as f64;
    let row_bytes = format!("{per_peer:.1} per live peer ({bytes} in the adjacency tables)");
    out.row("row bytes", row_bytes);
    let w = store.join_walk_stats();
    let per_join = |count: u64| count as f64 / w.joins.max(1) as f64;
    let (hops, rows) = (per_join(w.descent_hops), per_join(w.rows_read));
    let walk = format!("{hops:.2} descent hops, {rows:.1} rows read");
    let walk = format!("{walk}, {:.1} front tests", per_join(w.front_tests));
    let offered = format!("{:.1} peers offered per join", per_join(w.offered));
    let walk = format!("{walk}, {offered} ({} joins)", w.joins);
    out.row("join walk", walk);
    // A departed peer keeps an edge-less vertex: only live peers must connect.
    let live: Vec<usize> = (0..store.len())
        .filter(|&i| !store.is_departed(PeerId(i as u64)))
        .collect();
    let graph = store.graph();
    let connected = live.first().is_none_or(|&start| {
        let dist = graph.bfs_distances(start);
        live.iter().all(|&i| dist[i].is_some())
    });
    out.row("connected", connected);
    if a.flag("strict") {
        // The CI gate: the survivors' topology from scratch, with no index.
        let want = oracle::equilibrium_live(store.peers(), store.departed(), &EmptyRectSelection);
        let graphs_equal = graph == want;
        let fingerprints_equal = store.fingerprint() == oracle::fingerprint(&want);
        if !(graphs_equal && fingerprints_equal) {
            return Err(CliError::Gate(format!(
                "strict churn violated: graph equals the definition \
                 {graphs_equal}, fingerprint {fingerprints_equal}"
            )));
        }
        let equal = "byte-identical to the from-scratch definition";
        out.row("strict gate", equal);
    }
    Ok(out.text)
}
