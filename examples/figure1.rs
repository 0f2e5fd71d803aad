//! Regenerates every panel of the paper's Figure 1 plus the in-text
//! claims, ablations and baselines, printing tables (Markdown) and
//! ASCII charts.
//!
//! ```text
//! cargo run --release --example figure1            # quick scale
//! cargo run --release --example figure1 -- --full  # paper scale (N=1000..5000; minutes)
//! ```

use geocast::figures::{
    ablation_partitioner, baseline_messages, baseline_stability, claims_section2, claims_section3,
    fig1a, fig1b, fig1c, repair_cost, stability_sweep, AblationConfig, BaselineConfig,
    ClaimsConfig, Fig1Config, Fig1cConfig, FigureReport, RepairConfig, StabilityConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");

    let scale = if full {
        "paper scale"
    } else {
        "quick scale (pass --full for paper scale)"
    };
    println!("# geocast — Figure 1 reproduction ({scale})\n");

    let mut reports: Vec<FigureReport> = Vec::new();

    let fig1_cfg = if full {
        Fig1Config::default()
    } else {
        Fig1Config::quick()
    };
    eprintln!("[1/8] fig1a: overlay degree vs D ...");
    reports.push(fig1a(&fig1_cfg));
    eprintln!("[2/8] fig1b: root-to-leaf paths vs D ...");
    reports.push(fig1b(&fig1_cfg));

    let fig1c_cfg = if full {
        Fig1cConfig::default()
    } else {
        Fig1cConfig::quick()
    };
    eprintln!("[3/8] fig1c: degree scaling with N ...");
    reports.push(fig1c(&fig1c_cfg));

    let stab_cfg = if full {
        StabilityConfig::default()
    } else {
        StabilityConfig::quick()
    };
    eprintln!("[4/8] fig1d+fig1e: stability sweep over (D, K) ...");
    let sweep = stability_sweep(&stab_cfg);
    reports.push(sweep.fig1d_report());
    reports.push(sweep.fig1e_report());

    let claims_cfg = if full {
        ClaimsConfig::default()
    } else {
        ClaimsConfig::quick()
    };
    eprintln!("[5/8] in-text claims (§2, §3) ...");
    reports.push(claims_section2(&claims_cfg));
    reports.push(claims_section3(&claims_cfg));

    eprintln!("[6/8] ablation: child-pick rule ...");
    let ab_cfg = if full {
        AblationConfig::default()
    } else {
        AblationConfig::quick()
    };
    reports.push(ablation_partitioner(&ab_cfg));

    eprintln!("[7/8] baselines: flooding cost, departure sensitivity ...");
    let base_cfg = if full {
        BaselineConfig::default()
    } else {
        BaselineConfig::quick()
    };
    reports.push(baseline_messages(&base_cfg));
    reports.push(baseline_stability(&base_cfg));

    eprintln!("[8/8] extension: localized repair cost ...");
    let repair_cfg = if full {
        RepairConfig::default()
    } else {
        RepairConfig::quick()
    };
    reports.push(repair_cost(&repair_cfg));

    for report in &reports {
        println!("{report}");
    }

    println!("---");
    println!(
        "{} artifacts regenerated. Shapes to compare with the paper:",
        reports.len()
    );
    println!("  fig1a/b: degree grows steeply with D; path lengths shrink; best trade-off at D=2");
    println!("  fig1c:   max/avg degree track 10*log10(N) at D=2");
    println!("  fig1d/e: diameter falls with K; max tree degree rises with K; small at small K");
    println!("  claims:  N-1 messages, zero duplicates, trees with the heap property");
}
