//! # doqlab-bench — engine benchmarks and CI checks
//!
//! | binary | purpose |
//! |---|---|
//! | `campaign_throughput` | E13: engine throughput (units/s, events/s); `--check` gates each campaign's events and allocations against `campaign_counts.json` |
//! | `validate_qlog` | CI check of a `doqlab trace` qlog file |
//!
//! The paper's artefacts and our ablations are `doqlab report <name>`
//! (see DESIGN.md's experiment index). The criterion benches in
//! `benches/` time single protocol operations.

/// Print `error` and `usage` to stderr and exit 2.
pub fn exit_usage(usage: &str, error: &str) -> ! {
    eprintln!("{error}\nusage: {usage}");
    std::process::exit(2);
}
