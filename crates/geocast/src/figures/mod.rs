//! Harnesses regenerating every table, figure and in-text claim of the
//! paper's evaluation.
//!
//! One function per artifact:
//!
//! | Paper artifact | Harness |
//! |---|---|
//! | Fig. 1(a) — overlay degree vs `D` | [`fig1a`] |
//! | Fig. 1(b) — root-to-leaf path lengths vs `D` | [`fig1b`] |
//! | Fig. 1(c) — overlay degree vs `N` at `D = 2` | [`fig1c`] |
//! | Fig. 1(d) — stability-tree diameter vs `K`, `D` | [`fig1d`] |
//! | Fig. 1(e) — stability-tree max degree vs `K`, `D` | [`fig1e`] |
//! | §2 claims (N−1 messages, no duplicates, degree bound) | [`claims_section2`] |
//! | §3 claims (tree, heap property, leaf departures) | [`claims_section3`] |
//! | Ablation: median vs closest vs farthest child pick | [`ablation_partitioner`] |
//! | Baseline: flooding message cost | [`baseline_messages`] |
//! | Baseline: departure sensitivity | [`baseline_stability`] |
//! | Beyond the paper: construction scaling to `N = 50_000` | [`overlay_scaling`] |
//! | Beyond the paper: what one departure changes of the §2 tree | [`repair_cost`] |
//! | Beyond the paper: incremental churn engine (waves, flash crowds, mixed rates) | [`churn_panel`] |
//! | Beyond the paper: multi-group session engine (N trees, one store, Zipf groups) | [`groups_panel`] |
//! | Beyond the paper: failure-detection plane (detection latency, coverage recovery) | [`detection_panel`] |
//! | Beyond the paper: batched data plane (payload batching, plan cache, eager/lazy) | [`publish_panel`] |
//!
//! Every harness takes an explicit config (with a paper-scale
//! [`Default`] and a reduced [`quick`](Fig1Config::quick) variant for
//! CI), runs deterministically from its seeds, and returns a
//! [`FigureReport`] holding the same rows/series the paper plots.

mod churn;
mod claims;
mod detection;
mod extra;
mod fig1;
mod groups;
mod publish;
mod repair;
mod report;
mod scaling;

pub use churn::{churn_panel, ChurnConfig};
pub use claims::{claims_section2, claims_section3, ClaimsConfig};
pub use detection::{detection_panel, DetectionConfig};
pub use extra::{
    ablation_partitioner, baseline_messages, baseline_stability, AblationConfig, BaselineConfig,
};
pub use fig1::{
    fig1a, fig1b, fig1c, fig1d, fig1e, stability_sweep, Fig1Config, Fig1cConfig, StabilityConfig,
    StabilityRow, StabilitySweep,
};
pub use groups::{groups_panel, groups_scenario, GroupsConfig, GroupsScenario};
pub use publish::{publish_panel, publish_scenario, PublishConfig, PublishScenario};
pub use repair::{repair_cost, RepairConfig};
pub use report::FigureReport;
pub use scaling::{overlay_scaling, ScalingConfig};
