//! `e2e` — the benchmark's command. See `README.md`.
//!
//! ```text
//! e2e --workload W [--seed N] [--seconds S] [--trace 0|1]   one run; last stdout line is the result
//! e2e all [--seed N] [--seconds S] [--out FILE]              every workload, one process each
//! e2e trace W [--seed N] [--seconds S]                        same as --workload W --trace 1
//! e2e compare BASELINE.json CANDIDATE.json                    apply BENCHMARK.json's bounds
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use geocast_e2e::clock::{Limits, Sample, Timing};
use geocast_e2e::engine::{build_engine, Checks, Driver, Phase, ProbeCounts};
use geocast_e2e::inputs::EngineInputs;
use geocast_e2e::json::{self, Value};
use geocast_e2e::layers::{engine_layers, wave_layers, EngineSnapshot};
use geocast_e2e::report::{bounds_of, compare, RunResult, Values, BENCHMARK_JSON};
use geocast_e2e::spec::{EngineSpec, Workload, END_TO_END, PER_LAYER, PROBE_PREFIXES};
use geocast_e2e::stats::{median, percentile, sorted};
use geocast_e2e::trace::{self, Tracer};
use geocast_e2e::yardstick::Yardstick;
use geocast_e2e::{peak_rss_mib, waves};

/// Engine set-ups per run; `setup_s` is their median. Each takes seconds,
/// so three is what a run can afford.
const ENGINE_SETUPS: usize = 3;

/// `crash_wave` set-ups per run: they take a quarter of a second each.
const WAVE_SETUPS: usize = 7;

/// Yardstick quanta read before and after each set-up. A set-up is one
/// library call seconds long, so the host can only be sampled around it.
const SETUP_QUANTA: usize = 20;

/// Times `setups` set-ups, each between two yardstick readings, and returns
/// their nominal seconds (wall seconds over the mean of the two readings)
/// and the last one's product. `prepare` hands each set-up its inputs, and
/// the previous product is dropped, outside the timed region.
fn time_setups<I, T>(
    setups: usize,
    yardstick: &mut Yardstick,
    mut prepare: impl FnMut() -> I,
    mut set_up: impl FnMut(I) -> T,
) -> (Vec<f64>, T) {
    let mut nominal_s = Vec::with_capacity(setups);
    let mut wall_s = Vec::with_capacity(setups);
    let mut product = None;
    let mut before = yardstick.slowdown(SETUP_QUANTA);
    for _ in 0..setups {
        drop(product.take());
        let inputs = prepare();
        let started = Instant::now();
        product = Some(set_up(inputs));
        let wall = started.elapsed().as_secs_f64();
        let after = yardstick.slowdown(SETUP_QUANTA);
        nominal_s.push(wall / ((before + after) / 2.0));
        wall_s.push(wall);
        before = after;
    }
    println!("setup wall seconds: {wall_s:?}");
    println!("setup_s samples (nominal seconds): {nominal_s:?}");
    (nominal_s, product.expect("at least one set-up"))
}

/// Share of a traced run's time spent on the untraced loop that
/// `trace.overhead_ratio` compares against.
const UNTRACED_SHARE: f64 = 0.25;

/// A traced run alternates untraced and traced blocks on one engine, so a
/// host that speeds up or slows down mid-run moves both rates alike.
const TRACE_BLOCKS: usize = 4;

/// `(untraced seconds, traced seconds)` of each block of a traced run.
fn trace_blocks(seconds: f64) -> impl Iterator<Item = (f64, f64)> {
    let block = seconds / TRACE_BLOCKS as f64;
    std::iter::repeat_n(
        (block * UNTRACED_SHARE, block * (1.0 - UNTRACED_SHARE)),
        TRACE_BLOCKS,
    )
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("trace") => match args.get(1) {
            Some(name) => {
                let mut rest = vec!["--workload".to_owned(), name.clone()];
                rest.extend_from_slice(&args[2..]);
                rest.extend(["--trace".to_owned(), "1".to_owned()]);
                parse_run(&rest).and_then(|a| cmd_run(&a))
            }
            None => Err("trace: which workload?".to_owned()),
        },
        _ => parse_run(&args).and_then(|a| cmd_run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            eprintln!(
                "usage: e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
                 e2e all [--seed N] [--seconds S] [--out FILE]\n       \
                 e2e trace <workload> [--seed N] [--seconds S]\n       \
                 e2e compare BASELINE.json CANDIDATE.json",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs; anything else is an error rather than ignored.
fn flag_pairs(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn default_seconds() -> f64 {
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(10.0)
}

fn parse_seconds(text: &str) -> Result<f64, String> {
    text.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
        .ok_or_else(|| format!("--seconds {text:?}: expected a number in (0, 3600]"))
}

fn parse_seed(text: &str) -> Result<u64, String> {
    text.parse::<u64>()
        .map_err(|_| format!("--seed {text:?}: expected a whole number"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: Workload::ChurnK1,
        seed: 1,
        seconds: default_seconds(),
        trace: false,
    };
    let mut named = false;
    for (flag, value) in flag_pairs(args)? {
        match flag {
            "--workload" => {
                run.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                named = true;
            }
            "--seed" => run.seed = parse_seed(value)?,
            "--seconds" => run.seconds = parse_seconds(value)?,
            "--trace" => {
                run.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if named {
        Ok(run)
    } else {
        Err("no --workload given".to_owned())
    }
}

/// One run of one workload. `Ok(false)` means it ran and was not correct.
fn cmd_run(args: &RunArgs) -> Result<bool, String> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = match (args.workload.engine_spec(), args.trace) {
        (Some(spec), false) => engine_end_to_end(&spec, args),
        (Some(spec), true) => engine_per_layer(&spec, args),
        (None, false) => waves_end_to_end(args),
        (None, true) => waves_per_layer(args),
    };
    for (name, unit, value) in &result.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", result.to_json());
    Ok(result.correct)
}

fn print_phase(label: &str, phase: &Phase) {
    println!(
        "{label}: {} ops in {:.3} s ({} churn events, {} membership ops of which {} unbindable), \
         {} ticks, {} batches, {} payloads, {} frames, {} rate windows",
        phase.ops,
        phase.timing.wall_s,
        phase.churn_ops,
        phase.group_ops,
        phase.skipped_ops,
        phase.ticks,
        phase.flush.batches,
        phase.flush.payloads,
        phase.flush.messages,
        phase.timing.windows.len(),
    );
    print_window_rates(&phase.timing);
}

fn print_spread(label: &str, ascending: &[f64]) {
    if let (Some(min), Some(max)) = (ascending.first(), ascending.last()) {
        println!(
            "  {label}: min {min:.3}, p25 {:.3}, median {:.3}, p75 {:.3}, max {max:.3}",
            percentile(ascending, 25.0),
            median(ascending),
            percentile(ascending, 75.0),
        );
    }
}

/// How steady the host was during the run: the spread over windows of the
/// wall rate, of the yardstick's slowdown, and of the nominal rate the
/// metrics are taken from.
fn print_window_rates(timing: &Timing) {
    let rates = |scale: fn(f64) -> f64| {
        sorted(
            timing
                .windows
                .iter()
                .map(|w| w.events as f64 / w.seconds * scale(w.slowdown))
                .collect(),
        )
    };
    print_spread("window events per wall second", &rates(|_| 1.0));
    print_spread("window host slowdown", &timing.slowdowns());
    print_spread("window events per nominal second", &rates(|s| s));
}

fn print_checks(checks: &Checks) {
    println!("checks: {} run, {} failed", checks.checked, checks.failed);
    for note in &checks.notes {
        println!("  FAILED: {note}");
    }
}

/// Prints a latency sample's size and whole-sample percentiles; p95 and
/// p99 only where at least ten samples lie beyond them.
fn print_percentiles(label: &str, sorted_ms: &[f64]) {
    print!(
        "{label}: n = {}, p50 = {:.4}, p90 = {:.4}",
        sorted_ms.len(),
        percentile(sorted_ms, 50.0),
        percentile(sorted_ms, 90.0)
    );
    for (p, needed) in [(95.0, 200), (99.0, 1000)] {
        if sorted_ms.len() >= needed {
            print!(", p{p} = {:.4} (not gated)", percentile(sorted_ms, p));
        }
    }
    println!();
}

fn wall_ms(samples: &[Sample]) -> Vec<f64> {
    sorted(samples.iter().map(|s| s.wall_ms).collect())
}

/// Prints the sample's percentiles in wall and in nominal milliseconds and
/// reports the nominal ones.
fn latency_metrics(values: &mut Values, timing: &Timing, samples: &[Sample]) {
    print_percentiles("leave_to_delivered_ms (wall)", &wall_ms(samples));
    let nominal = timing.nominal_ms(samples);
    print_percentiles("leave_to_delivered_ms (nominal)", &nominal);
    values.insert("leave_to_delivered_ms_p50", percentile(&nominal, 50.0));
    values.insert("leave_to_delivered_ms_p90", percentile(&nominal, 90.0));
}

fn engine_end_to_end(spec: &EngineSpec, args: &RunArgs) -> RunResult {
    let inputs = EngineInputs::generate(spec, args.seed);
    println!(
        "inputs generated in {:.3} s (outside every clock)",
        inputs.gen_s
    );

    let mut yardstick = Yardstick::default();
    let (setups, engine) = time_setups(
        ENGINE_SETUPS,
        &mut yardstick,
        || inputs.peers.clone(),
        |peers| build_engine(spec, &inputs, peers),
    );
    let mut driver = Driver::new(spec, &inputs, engine);

    let mut phase = Phase::default();
    driver.run(
        Limits::seconds(args.seconds),
        &mut phase,
        Some(&mut yardstick),
    );
    print_phase("measured", &phase);
    let checks = driver.verify();
    print_checks(&checks);

    let mut values = Values::new();
    values.insert("events_per_s", phase.events_per_s());
    values.insert("payloads_per_s", phase.payloads_per_s());
    values.insert("delivered_ratio", phase.delivered_ratio());
    print_percentiles(
        "join_to_delivered_ms (wall, diagnostic)",
        &wall_ms(&phase.joins),
    );
    latency_metrics(&mut values, &phase.timing, &phase.leaves);
    values.insert("setup_s", median(&sorted(setups)));
    values.insert("peak_rss_mib", peak_rss_mib());
    let f = &phase.flush;
    RunResult::new(
        f.payload_deliveries + f.payload_strandings + checks.checked,
        f.payload_strandings + checks.failed,
        END_TO_END,
        &values,
    )
}

fn engine_per_layer(spec: &EngineSpec, args: &RunArgs) -> RunResult {
    let inputs = EngineInputs::generate(spec, args.seed);
    let engine = build_engine(spec, &inputs, inputs.peers.clone());
    let mut driver = Driver::new(spec, &inputs, engine);

    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let mut counts = ProbeCounts::default();
    let mut tracer = Tracer::default();
    let before = EngineSnapshot::of(&driver.engine);
    for (untraced_s, traced_s) in trace_blocks(args.seconds) {
        driver.run(Limits::seconds(untraced_s), &mut untraced, None);
        driver.run_traced(
            Limits::seconds(traced_s),
            &mut tracer,
            &mut traced,
            &mut counts,
        );
    }
    let after = EngineSnapshot::of(&driver.engine);
    print_phase("untraced", &untraced);
    print_phase("traced", &traced);
    let mut checks = driver.verify();
    checks.record(counts.select_mismatches == 0, || {
        format!(
            "{} select_in probe rows differ from the store",
            counts.select_mismatches
        )
    });
    print_checks(&checks);

    let mut values = engine_layers(
        inputs.gen_s,
        &untraced,
        &traced,
        &counts,
        tracer.spans(),
        &before,
        &after,
    );
    merge_probe_binary(&mut values, args);
    write_trace_file(args, &tracer);
    let strandings = untraced.flush.payload_strandings + traced.flush.payload_strandings;
    let deliveries = untraced.flush.payload_deliveries + traced.flush.payload_deliveries;
    RunResult::new(
        deliveries + strandings + checks.checked,
        strandings + checks.failed,
        PER_LAYER,
        &values,
    )
}

fn print_waves(label: &str, phase: &waves::WavePhase) {
    println!(
        "{label}: {} waves in {:.3} s, {} failures injected, {} missed, {} false convictions, \
         {} removals, {} not converged, {:.0} virtual s",
        phase.waves,
        phase.timing.wall_s,
        phase.injected,
        phase.missed,
        phase.false_convictions,
        phase.removals,
        phase.not_converged,
        phase.virtual_s,
    );
    print_window_rates(&phase.timing);
}

/// `crash_wave` counts a missed failure or a non-converged wave as failed.
/// A false conviction is the detector's measured cost at 5 % loss, reported
/// as `core.detect.false_convictions_per_run`, not as a failed operation.
fn waves_result(
    phases: &[&waves::WavePhase],
    table: &'static [(&'static str, &'static str)],
    values: &Values,
) -> RunResult {
    let attempted: u64 = phases.iter().map(|p| p.injected + p.waves).sum();
    let failed: u64 = phases.iter().map(|p| p.missed + p.not_converged).sum();
    RunResult::new(attempted, failed, table, values)
}

fn waves_end_to_end(args: &RunArgs) -> RunResult {
    let scenarios = waves::scenarios(args.seed);
    let mut yardstick = Yardstick::default();
    let (setups, _engines) = time_setups(
        WAVE_SETUPS,
        &mut yardstick,
        || (),
        |()| waves::build_scenario_engines(&scenarios),
    );

    let mut phase = waves::WavePhase::default();
    waves::run(
        &scenarios,
        Limits::seconds(args.seconds),
        None,
        Some(&mut yardstick),
        &mut phase,
    );
    print_waves("measured", &phase);

    let mut values = Values::new();
    values.insert("events_per_s", phase.events_per_s());
    values.insert("payloads_per_s", phase.payloads_per_s());
    values.insert("delivered_ratio", phase.delivered_ratio());
    latency_metrics(&mut values, &phase.timing, &phase.wave_times);
    values.insert("setup_s", median(&sorted(setups)));
    values.insert("peak_rss_mib", peak_rss_mib());
    waves_result(&[&phase], END_TO_END, &values)
}

fn waves_per_layer(args: &RunArgs) -> RunResult {
    let started = Instant::now();
    let scenarios = waves::scenarios(args.seed);
    let gen_s = started.elapsed().as_secs_f64();
    let (mut untraced, mut traced) = (waves::WavePhase::default(), waves::WavePhase::default());
    let mut tracer = Tracer::default();
    for (untraced_s, traced_s) in trace_blocks(args.seconds) {
        let untraced_s = Limits::seconds(untraced_s);
        waves::run(&scenarios, untraced_s, None, None, &mut untraced);
        waves::run(
            &scenarios,
            Limits::seconds(traced_s),
            Some(&mut tracer),
            None,
            &mut traced,
        );
    }
    print_waves("untraced", &untraced);
    print_waves("traced", &traced);
    let values = wave_layers(gen_s, &untraced, &traced, tracer.spans());
    write_trace_file(args, &tracer);
    waves_result(&[&untraced, &traced], PER_LAYER, &values)
}

/// Runs the sibling `e2e-probes` binary and merges the metrics it prints
/// (`name value` lines). Those probes bind to seams a later PR may delete;
/// when the binary is missing or fails, their metrics stay 0 and the run is
/// still reported.
fn merge_probe_binary(values: &mut Values, args: &RunArgs) {
    let Some(path) = std::env::current_exe()
        .ok()
        .map(|exe| exe.with_file_name("e2e-probes"))
        .filter(|p| p.exists())
    else {
        eprintln!("e2e: e2e-probes is not built; its layer metrics read 0");
        return;
    };
    let output = Command::new(&path)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) if output.status.success() => output,
        Ok(output) => {
            eprintln!(
                "e2e: e2e-probes exited with {}; its layer metrics read 0",
                output.status
            );
            return;
        }
        Err(e) => {
            eprintln!(
                "e2e: cannot run {}: {e}; its layer metrics read 0",
                path.display()
            );
            return;
        }
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut words = line.split_whitespace();
        let (Some(name), Some(value)) = (
            words.next(),
            words.next().and_then(|v| v.parse::<f64>().ok()),
        ) else {
            continue;
        };
        // Only names from the table are accepted, and only the probes' own.
        let known = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name && PROBE_PREFIXES.iter().any(|p| n.starts_with(p)));
        if let Some(&(name, _)) = known {
            values.insert(name, value);
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the span list next to the benchmark. A diagnostic: failing to
/// write it is reported, not fatal.
fn write_trace_file(args: &RunArgs, tracer: &Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", args.workload.name()));
    let doc = trace::to_json(args.workload.name(), args.seed, tracer.spans());
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("wrote {} ({} spans)", path.display(), tracer.spans().len()),
        Err(e) => eprintln!("e2e: cannot write {}: {e}", path.display()),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Runs every workload, one process each (so `peak_rss_mib` is per
/// workload), and writes the results as one file `e2e compare` reads.
fn cmd_all(args: &[String]) -> Result<bool, String> {
    let mut seed = 1;
    let mut seconds = default_seconds();
    let mut out: Option<PathBuf> = None;
    for (flag, value) in flag_pairs(args)? {
        match flag {
            "--seed" => seed = parse_seed(value)?,
            "--seconds" => seconds = parse_seconds(value)?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own path: {e}"))?;
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut doc = format!(
        "{{\n\"host\": {{\"nproc\": {cores}, \"rustc\": \"{}\", \"commit\": \"{}\"}},\n\
         \"seed\": {seed},\n\"seconds\": {seconds},\n\"workloads\": {{\n",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    );
    let mut all_correct = true;
    for (i, workload) in Workload::ALL.iter().enumerate() {
        let output = Command::new(&exe)
            .args(["--workload", workload.name(), "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let line = stdout.lines().last().unwrap_or_default();
        let correct = output.status.success()
            && json::parse(line)
                .is_ok_and(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        if !correct {
            eprintln!("e2e: {} did not pass ({})", workload.name(), output.status);
            all_correct = false;
            continue;
        }
        let sep = if i + 1 == Workload::ALL.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(doc, "\"{}\": {line}{sep}", workload.name());
    }
    doc.push_str("}\n}\n");
    if !all_correct {
        return Ok(false);
    }
    let path = out.unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(true)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Applies each end-to-end metric's bound to every workload of two result
/// files. `Ok(false)` on any breach.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [baseline, candidate] = args else {
        return Err("compare takes exactly two files".to_owned());
    };
    let bounds = bounds_of(&json::parse(BENCHMARK_JSON)?)?;
    let (rows, problems) = compare(&bounds, &read_json(baseline)?, &read_json(candidate)?)?;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for row in &rows {
        println!(
            "{:<18} {:<28} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}% {}",
            row.workload,
            row.metric,
            row.baseline,
            row.candidate,
            row.worse_by * 100.0,
            row.bound * 100.0,
            if row.breaches() { "BREACH" } else { "" }
        );
    }
    for problem in &problems {
        println!("PROBLEM: {problem}");
    }
    let breaches = rows.iter().filter(|r| r.breaches()).count();
    println!(
        "{} comparisons, {breaches} breaches, {} problems",
        rows.len(),
        problems.len()
    );
    Ok(breaches == 0 && problems.is_empty())
}
