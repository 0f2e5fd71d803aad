//! Shared plumbing for the geocast benchmark suite.
//!
//! Every bench target regenerates one paper artifact (printing the same
//! rows/series the paper reports) and then times the kernel operations
//! behind it with Criterion. By default the artifact regeneration runs
//! at *quick* scale so `cargo bench --workspace` finishes in minutes;
//! set `GEOCAST_FULL=1` for the paper-scale sweeps.

#![forbid(unsafe_code)]

use geocast::figures::FigureReport;

/// `true` when `GEOCAST_FULL` is set: run paper-scale regenerations.
#[must_use]
pub fn full_scale() -> bool {
    std::env::var_os("GEOCAST_FULL").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Prints a regenerated artifact with a scale banner.
pub fn print_report(report: &FigureReport) {
    let scale = if full_scale() {
        "paper scale (GEOCAST_FULL)"
    } else {
        "quick scale"
    };
    println!("\n===== regenerated {} [{scale}] =====", report.id);
    println!("{report}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn full_scale_reads_env() {
        // Cannot mutate the environment safely in parallel tests; just
        // exercise the call path.
        let _ = super::full_scale();
    }
}
