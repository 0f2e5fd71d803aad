use super::*;

pub(crate) fn cmd_detect(a: &Args) -> Result<String, CliError> {
    let mut sc = DetectionScenario::quick();
    (sc.peers, sc.dim, sc.seed) = a.population()?;
    sc.groups = a.get("groups")?;
    // The default fits the population; a larger explicit one is refused.
    sc.group_size = a.get_or("group-size", sc.group_size.min(sc.peers))?;
    (sc.loss, sc.crash_count, sc.silent_count) =
        (a.get("loss")?, a.get("crashes")?, a.get("silent")?);
    let suspicion_ms: u64 = a.get("suspicion-ms")?;
    sc.detector.suspicion_timeout = SimDuration::from_millis(suspicion_ms);
    let (n, size) = (sc.peers, sc.group_size);
    if size > n {
        return Err(bad_value("group-size", format!("{size} over {n} peers")));
    }
    let (crashes, silent) = (sc.crash_count, sc.silent_count);
    if crashes + silent >= n {
        return Err(bad_value("crashes", format!("{crashes}+{silent} silent")));
    }
    let r = run_detection(&sc);
    let (groups, loss) = (sc.groups, sc.loss * 100.0);
    let title = format!(
        "failure detection: {n} peers, {groups} groups of {size}, loss {loss:.0}%, \
         suspicion {suspicion_ms} ms"
    );
    let mut out = Report::new(18, title);
    let (crashed, silent) = (r.crashed.len(), r.silent.len());
    let at = sc.crash_at.as_secs_f64() * 1e3;
    let wave = format!("{crashed} crash-stop + {silent} silent-drop at {at:.0} ms");
    out.row("wave", wave);
    let (detected, failed) = (r.detected.len(), crashed + silent);
    out.row("detected", format!("{detected}/{failed}"));
    let (mean, max) = (r.mean_detection_ms(), r.max_detection_ms());
    let latency = format!("mean {mean:.0} ms / max {max:.0} ms");
    // No verdict, no latency: "-" as the detection panel prints it.
    let latency = if detected == 0 { "-" } else { &latency };
    out.row("detection latency", latency);
    out.row("false positives", r.false_positives);
    let (raised, refuted) = (r.suspect_events, r.refute_events);
    out.row("suspicions", format!("{raised} raised, {refuted} refuted"));
    let (events, sent) = (r.sim_events, r.messages_sent);
    let plane = format!("{events} simulator events, {sent} messages sent");
    out.row("probe plane", plane);
    let (min, last) = (r.min_coverage * 100.0, r.final_coverage * 100.0);
    out.row("coverage", format!("min {min:.1}% / final {last:.1}%"));
    let after = |d: SimDuration| format!("{:.0} ms after the wave", d.as_secs_f64() * 1e3);
    let recovery = r.recovered_after.map_or("never".to_owned(), after);
    out.row("recovery", recovery);
    out.row("oracle convergence", r.converged);
    if a.flag("strict") && !r.strict_ok() {
        let (wrong, missed) = (r.false_positives, failed - detected);
        let (recovered, converged) = (r.final_coverage == 1.0, r.converged);
        return Err(CliError::Gate(format!(
            "strict detection violated: {wrong} false positives, {missed} undetected failures, \
             recovered {recovered}, converged {converged}"
        )));
    }
    Ok(out.text)
}
