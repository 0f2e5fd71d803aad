//! The repository's end-to-end benchmark: five named workloads driven
//! through geocast's public API, from membership event to delivered
//! payload, with a separate traced run that attributes the time to layers.
//! See `README.md` for the command, the metrics and why each workload
//! exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod engine;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod waves;
pub mod yardstick;

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` does
/// not say.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
