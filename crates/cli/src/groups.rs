use super::*;

pub(crate) fn cmd_groups(a: &Args) -> Result<String, CliError> {
    let (n, dim, seed) = a.population()?;
    let (groups, zipf) = (a.get("groups")?, a.get("zipf")?);
    let &(placement_name, placement) = a.choice("placement", PLACEMENTS)?;
    let cfg = GroupsConfig {
        initial: n,
        group_counts: vec![groups],
        placements: vec![placement],
        subscriptions: a.get_or("subs", 2 * n)?,
        exponent: zipf,
        churn_events: a.get("events")?,
        group_events: a.get("group-events")?,
        dim,
        seed,
    };
    let s = figures::groups_scenario(&cfg, groups, placement);
    let (t, published) = (&s.totals, &s.published);
    let title = format!(
        "multi-group sessions: {groups} groups over {n} peers \
         (D={dim}, seed {seed}, zipf {zipf:.1}, {placement_name})"
    );
    let mut out = Report::new(20, title);
    let (churn, ops, secs) = (s.examined.len(), s.group_events, s.seconds);
    out.row("events applied", format!("{churn} churn + {ops} group ops"));
    out.row("elapsed", format!("{secs:.3}s"));
    let rate = (churn + ops) as f64 / secs.max(1e-9);
    out.row("events per second", format!("{rate:.0}"));
    let per_event = |sum: usize| sum as f64 / churn.max(1) as f64;
    let examined: usize = s.examined.iter().sum();
    let (mean, max) = (per_event(examined), s.examined.iter().max().unwrap_or(&0));
    let affected = format!("mean {mean:.2} / max {max} examined per churn event");
    let affected = format!("{affected} (naive engine: {groups})");
    out.row("affected groups", affected);
    let (certified, rebuilt) = (per_event(s.certified), per_event(examined - s.certified));
    let certified = format!("mean {certified:.2} / {rebuilt:.2} per churn event");
    out.row("certified / rebuilt", certified);
    let (rebuilds, nodes) = (t.tree_rebuilds, t.tree_nodes_touched);
    let rebuilds = format!("{rebuilds} ({nodes} tree nodes touched)");
    out.row("tree rebuilds", rebuilds);
    let (replayed, spliced) = (t.graft_walks_replayed, t.graft_walks_spliced);
    let (searched, examined) = (t.graft_walks_recomputed, t.graft_walks_examined);
    let walks = format!("{replayed} replayed from the previous build ({spliced} spliced whole)");
    let walks = format!("{walks} / {searched} searched; {examined} examined");
    out.row("graft walks", walks);
    let (replayed, split) = (t.zone_splits_replayed, t.zone_splits_recomputed);
    let splits = format!("{replayed} replayed from the previous build / {split} partitioned");
    out.row("zone splits", splits);
    let memberships = format!("{} across {groups} groups", s.memberships);
    out.row("memberships after", memberships);
    out.row("mean coverage", format!("{:.0}%", s.coverage_mean * 100.0));
    out.row("relay nodes", s.relays);
    let (batches, messages) = (published.batches, published.messages);
    let relayed = published.relay_messages;
    let publishes = format!("{batches} ({messages} data messages, {relayed} over relays)");
    out.row("publishes", publishes);
    let stranded = published.payload_strandings;
    out.row("publish stranded", stranded);
    out.row("live peers after", s.live);
    out.row("all == rebuild", s.exact);
    if a.flag("strict-coverage") && stranded > 0 {
        return Err(CliError::Gate(format!(
            "strict coverage violated: {stranded} stranded deliveries across {batches} publishes"
        )));
    }
    Ok(out.text)
}
