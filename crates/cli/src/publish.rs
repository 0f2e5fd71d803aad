use super::*;

pub(crate) fn cmd_publish(a: &Args) -> Result<String, CliError> {
    let (n, dim, seed) = a.population()?;
    let (groups, zipf, batch) = (a.get("groups")?, a.get("zipf")?, a.get("batch")?);
    let (ticks, churn_every) = (a.get("ticks")?, a.get("churn-every")?);
    let &(placement_name, placement) = a.choice("placement", PLACEMENTS)?;
    let cfg = PublishConfig {
        initial: n,
        groups,
        subscriptions: a.get_or("subs", 2 * n)?,
        placement,
        exponents: vec![zipf],
        batch_sizes: vec![batch],
        ticks,
        churn_every,
        dim,
        seed,
    };
    let s = figures::publish_scenario(&cfg, zipf, batch);
    let (r, converged) = (&s.report, s.exact);
    let workload = PublishWorkload {
        groups,
        exponent: zipf,
        ticks,
        payloads_per_tick: batch,
    };
    let title = format!(
        "batched data plane: {workload} over {groups} groups, {n} peers \
         (D={dim}, seed {seed}, {placement_name}, churn every {churn_every} ticks)"
    );
    let mut out = Report::new(20, title);
    out.row("payloads published", r.payloads);
    let flushes = format!("{} batches over {ticks} ticks", r.batches);
    out.row("flushes", flushes);
    let (frames, relayed) = (r.messages, r.relay_messages);
    out.row("data frames", format!("{frames} ({relayed} over relays)"));
    let per_payload = r.messages_per_payload();
    let sequential = r.sequential_messages as f64 / r.payloads.max(1) as f64;
    let messages = format!("{per_payload:.3} (sequential would pay {sequential:.3})");
    out.row("messages/payload", messages);
    out.row("batching reduction", format!("{:.1}x", r.reduction()));
    let (hits, misses, rate) = (r.cache_hits, r.cache_misses, r.cache_hit_rate() * 100.0);
    let cache = format!("{hits} hits / {misses} misses ({rate:.0}% hit rate)");
    out.row("plan cache", cache);
    let (delivered, stranded) = (r.payload_deliveries, r.payload_strandings);
    let deliveries = format!("{delivered} ({stranded} stranded)");
    out.row("payload deliveries", deliveries);
    let throughput = s.payloads_per_s;
    out.row("flush throughput", format!("{throughput:.2e} payloads/s"));
    out.row("all == rebuild", converged);
    if a.flag("strict") && (stranded > 0 || hits == 0 || !converged) {
        return Err(CliError::Gate(format!(
            "strict publish violated: {stranded} stranded payload-deliveries, \
             {hits} plan-cache hits, converged {converged}"
        )));
    }
    Ok(out.text)
}
