//! Integration: every figure/claim harness runs end-to-end at quick
//! scale and reproduces the paper's qualitative shapes.

use geocast::figures::{
    ablation_partitioner, baseline_messages, baseline_stability, claims_section2, claims_section3,
    fig1a, fig1b, fig1c, stability_sweep, AblationConfig, BaselineConfig, ClaimsConfig, Fig1Config,
    Fig1cConfig, StabilityConfig,
};

#[test]
fn fig1a_degree_grows_with_dimension() {
    let report = fig1a(&Fig1Config::quick());
    let max_degrees: Vec<f64> = report
        .table
        .rows()
        .iter()
        .map(|r| r[1].parse().unwrap())
        .collect();
    assert!(max_degrees.len() >= 2);
    assert!(
        max_degrees.windows(2).all(|w| w[1] >= w[0] * 0.9),
        "max degree should grow (roughly) with D: {max_degrees:?}"
    );
    // Markdown and chart render.
    assert!(report.table.to_markdown().contains("max degree"));
    assert!(report.chart.as_deref().unwrap_or("").contains("avg degree"));
}

#[test]
fn fig1b_paths_shrink_with_dimension() {
    let report = fig1b(&Fig1Config::quick());
    let avg_max: Vec<f64> = report
        .table
        .rows()
        .iter()
        .map(|r| r[2].parse().unwrap())
        .collect();
    let first = avg_max.first().copied().unwrap();
    let last = avg_max.last().copied().unwrap();
    assert!(
        last <= first,
        "higher D should shorten average paths: {avg_max:?}"
    );
}

#[test]
fn fig1c_degree_tracks_log_n() {
    let report = fig1c(&Fig1cConfig::quick());
    let rows = report.table.rows();
    // Degrees grow sub-linearly: quadrupling N far less than quadruples
    // the average degree (the paper claims ∝ log N at D=2).
    let first_avg: f64 = rows.first().unwrap()[2].parse().unwrap();
    let last_avg: f64 = rows.last().unwrap()[2].parse().unwrap();
    let first_n: f64 = rows.first().unwrap()[0].parse().unwrap();
    let last_n: f64 = rows.last().unwrap()[0].parse().unwrap();
    let degree_growth = last_avg / first_avg;
    let n_growth = last_n / first_n;
    assert!(
        degree_growth < n_growth / 2.0,
        "degree growth {degree_growth:.2} vs N growth {n_growth:.2} — not sublinear"
    );
}

#[test]
fn fig1d_e_trees_always_valid_and_monotonic_trends() {
    let sweep = stability_sweep(&StabilityConfig::quick());
    assert!(sweep.rows.iter().all(|r| r.tree_ok && r.heap_ok));
    // For each D: diameter at max K <= diameter at K=1 (more shortcuts).
    for &d in &sweep.config.dims {
        let per_d: Vec<_> = sweep.rows.iter().filter(|r| r.d == d).collect();
        let first = per_d.first().unwrap();
        let last = per_d.last().unwrap();
        assert!(
            last.diameter <= first.diameter,
            "D={d}: diameter should not grow with K ({} -> {})",
            first.diameter,
            last.diameter
        );
        assert!(
            last.max_degree >= first.max_degree,
            "D={d}: max degree should not shrink with K"
        );
    }
}

#[test]
fn claims_reports_confirm_everything() {
    let s2 = claims_section2(&ClaimsConfig::quick());
    assert!(s2.notes.iter().any(|n| n.ends_with("true")), "{s2}");
    let s3 = claims_section3(&ClaimsConfig::quick());
    assert!(s3.notes.iter().any(|n| n.ends_with("true")), "{s3}");
}

#[test]
fn ablation_median_is_between_closest_and_farthest() {
    // The paper's median pick trades off depth between the extremes; at
    // minimum, the three rules must all span and report finite paths.
    let report = ablation_partitioner(&AblationConfig::quick());
    for chunk in report.table.rows().chunks(3) {
        let paths: Vec<f64> = chunk.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(
            paths.iter().all(|&p| p >= 1.0),
            "degenerate path lengths: {paths:?}"
        );
    }
}

#[test]
fn baselines_quantify_the_papers_motivation() {
    let msgs = baseline_messages(&BaselineConfig::quick());
    for row in msgs.table.rows() {
        let factor: f64 = row[4].trim_end_matches('x').parse().unwrap();
        assert!(
            factor > 1.0,
            "flooding overhead factor must exceed 1: {row:?}"
        );
    }
    let stab = baseline_stability(&BaselineConfig::quick());
    for row in stab.table.rows() {
        let ours: f64 = row[1].parse().unwrap();
        let bfs: f64 = row[2].parse().unwrap();
        let rand: f64 = row[3].parse().unwrap();
        assert_eq!(ours, 0.0);
        assert!(
            bfs + rand > 0.0,
            "baselines should show sensitivity: {row:?}"
        );
    }
}

#[test]
fn reports_render_to_markdown_and_display() {
    let report = fig1a(&Fig1Config {
        n: 40,
        dims: vec![2],
        seeds: vec![1],
        vmax: 1000.0,
        roots: Some(5),
        latency_roots: 2,
    });
    let shown = report.to_string();
    assert!(shown.contains("## fig1a"));
    assert!(shown.contains("| D |"));
}
