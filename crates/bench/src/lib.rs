//! # doqlab-bench — experiment regenerators and benchmarks
//!
//! One binary per paper artefact (see DESIGN.md's experiment index):
//!
//! | binary | artefact |
//! |---|---|
//! | `fig1_discovery` | §2 funnel + Fig. 1 geography |
//! | `overview_versions` | §3 protocol/feature overview |
//! | `table1_sizes` | Table 1 |
//! | `fig2a_handshake` / `fig2b_resolve` | Fig. 2 |
//! | `fig3_cdf` | Fig. 3 |
//! | `fig4_doq_vs` | Fig. 4 |
//! | `headline_claims` | abstract / §5 numbers |
//! | `ablation_amplification` | A1: no-resumption amplification stall |
//! | `ablation_dot_bug` | A2: dnsproxy DoT reconnect bug |
//! | `ablation_tcp_keepalive` | A4: RFC 9210 DoTCP (keepalive + TFO + reuse) |
//! | `sweep_loss` | S1: packet loss vs the DoUDP long tail |
//! | `campaign_throughput` | E13: engine throughput (units/s, events/s) -> `BENCH_10.json` |
//! | `bench_gate` | CI gate: a fresh throughput report against the latest `BENCH_*.json` |
//! | `validate_qlog` | CI check of a `doqlab trace` qlog file |
//!
//! The 0-RTT (A3) and DoH3 (F1) future-work experiments are the `0rtt`
//! and `doh3` regimes of `doqlab measure whatif`.
//!
//! Every binary that runs a study reads its flags and the `DOQLAB_SEED`,
//! `DOQLAB_THREADS` and `DOQLAB_CLIENTS` variables once, at start-up,
//! through [`doqlab_core::cli`]: `--scale quick|medium|paper` (default
//! `medium`; `quick` for `campaign_throughput`), `--seed N`,
//! `--threads N`, `--resolvers N`, `--pages N` and `--reps N`, a flag
//! beating its variable. The experiment binaries also take `--json`
//! (machine-readable output) and print paper-reference values alongside
//! for comparison.

use doqlab_core::cli::{Flags, STUDY_FLAGS};
use doqlab_core::dox::DnsTransport;
use doqlab_core::measure::{median, WebperfSample};
use doqlab_core::Study;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Options {
    pub study: Study,
    pub json: bool,
    pub scale_name: String,
}

const USAGE: &str = "[--scale quick|medium|paper] [--seed N] [--threads N] [--json] \
                     [--resolvers N] [--pages N] [--reps N]";

/// The experiment binaries' options: the study flags plus `--json`, and
/// `--help`, which prints the usage and exits 0. Any bad argument exits
/// 2 with the usage.
pub fn parse_options() -> Options {
    let flags = Flags::parse(
        std::env::args().skip(1),
        &STUDY_FLAGS,
        &["--json", "--help", "-h"],
    )
    .unwrap_or_else(|e| exit_usage(USAGE, &e));
    if flags.switch("--help") || flags.switch("-h") {
        eprintln!("usage: {USAGE}");
        std::process::exit(0);
    }
    let study = Study::from_flags(&flags, "medium", |k| std::env::var(k).ok())
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    Options {
        study,
        json: flags.switch("--json"),
        scale_name: flags.value("--scale").unwrap_or("medium").to_string(),
    }
}

/// Print `error` and `usage` to stderr and exit 2.
pub fn exit_usage(usage: &str, error: &str) -> ! {
    eprintln!("{error}\nusage: {usage}");
    std::process::exit(2);
}

/// Print a labelled paper-vs-measured comparison line.
pub fn compare(label: &str, paper: &str, measured: String) {
    println!("{label:<52} paper: {paper:<18} measured: {measured}");
}

/// What the Web ablations (A2, A4) read off one transport's successful
/// Web samples.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// Median page-load time, in milliseconds.
    pub plt_ms: f64,
    /// Median proxy connections per load.
    pub connections: f64,
    /// Share of multi-query page loads that opened more than one proxy
    /// connection.
    pub reconnect_share: f64,
}

/// [`LoadStats`] over the successful samples on `transport` (NaN
/// medians when there are none).
pub fn load_stats(samples: &[WebperfSample], transport: DnsTransport) -> LoadStats {
    let ok: Vec<&WebperfSample> = samples
        .iter()
        .filter(|s| s.transport == transport && !s.failed)
        .collect();
    let median_of = |f: fn(&WebperfSample) -> f64| {
        median(&ok.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let multi: Vec<_> = ok.iter().filter(|s| s.page_dns_queries > 1).collect();
    LoadStats {
        plt_ms: median_of(|s| s.plt_ms),
        connections: median_of(|s| s.proxy_connections as f64),
        reconnect_share: multi.iter().filter(|s| s.proxy_connections > 1).count() as f64
            / multi.len().max(1) as f64,
    }
}
