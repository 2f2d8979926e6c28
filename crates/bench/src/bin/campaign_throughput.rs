//! E13 — whole-campaign throughput: how fast the work-stealing engine
//! chews through each campaign, in units/second and simulator
//! events/second of wall-clock time.
//!
//! Runs every campaign at the requested scale (default `quick`, so CI
//! can afford it), times each run, and reads the engine's lock-free
//! `campaign.units_run` / `sim.events` counters for the denominators.
//! Results go to stdout and to `BENCH_10.json` (override with `--out`).
//!
//! Built with `--features count-allocs`, each campaign also reports
//! `allocs_per_event` — global allocator hits divided by simulator
//! events. The simulator core itself routes packets allocation-free
//! (pinned by simnet's `zero_alloc_route` test); what remains in this
//! ratio is protocol-layer work — DNS wire encoding, TLS records,
//! per-unit host setup — so it is a tracking number, not a zero: a
//! jump flags a per-packet or per-event allocation sneaking back into
//! a hot path.

use doqlab_bench::exit_usage;
use doqlab_core::cli::{Flags, STUDY_FLAGS};
use doqlab_core::measure::{impairments, mobility, whatif};
use doqlab_core::telemetry::metrics::{self, Counter};
use doqlab_core::Study;
use std::time::Instant;

#[cfg(feature = "count-allocs")]
fn allocations() -> Option<u64> {
    Some(doqlab_simnet::alloc_count::total_allocations())
}

#[cfg(not(feature = "count-allocs"))]
fn allocations() -> Option<u64> {
    None
}

#[derive(serde::Serialize)]
struct CampaignThroughput {
    campaign: String,
    units: u64,
    sim_events: u64,
    wall_s: f64,
    units_per_s: f64,
    events_per_s: f64,
    /// Allocator hits per simulator event over the whole campaign —
    /// only measured when built with the `count-allocs` feature.
    #[serde(skip_serializing_if = "Option::is_none")]
    allocs_per_event: Option<f64>,
}

#[derive(serde::Serialize)]
struct Report {
    scale: String,
    seed: u64,
    threads: usize,
    clients: u64,
    campaigns: Vec<CampaignThroughput>,
}

fn timed(name: &str, run: impl FnOnce()) -> CampaignThroughput {
    metrics::reset();
    let allocs_before = allocations();
    let start = Instant::now();
    run();
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = allocations().zip(allocs_before).map(|(a, b)| a - b);
    let snap = metrics::snapshot();
    let units = snap.counter(Counter::UnitsRun);
    let sim_events = snap.counter(Counter::SimEvents);
    CampaignThroughput {
        campaign: name.to_string(),
        units,
        sim_events,
        wall_s,
        units_per_s: units as f64 / wall_s.max(1e-9),
        events_per_s: sim_events as f64 / wall_s.max(1e-9),
        allocs_per_event: allocs.map(|a| a as f64 / (sim_events as f64).max(1.0)),
    }
}

fn main() {
    const USAGE: &str = "campaign_throughput [--scale quick|medium|paper] [--seed N] \
                         [--threads N] [--resolvers N] [--pages N] [--reps N] [--out PATH]";
    let valued = [&STUDY_FLAGS[..], &["--out"]].concat();
    let flags = Flags::parse(std::env::args().skip(1), &valued, &[])
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    let study = Study::from_flags(&flags, "quick", |k| std::env::var(k).ok())
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    let scale_name = flags.value("--scale").unwrap_or("quick").to_string();
    let out = flags.value("--out").unwrap_or("BENCH_10.json");
    let threads = study.scale.threads;

    metrics::set_enabled(true);
    let campaigns = vec![
        timed("single_query", || {
            study.run_single_query();
        }),
        timed("webperf", || {
            study.run_webperf();
        }),
        timed("impairments", || {
            study.run_sweep(impairments::standard_sweep());
        }),
        timed("mobility", || {
            study.run_sweep(mobility::standard_mobility_sweep(
                mobility::DEFAULT_REBIND_AT,
                mobility::DEFAULT_STAGGER,
            ));
        }),
        timed("populations", || {
            study.run_populations();
        }),
        timed("whatif", || {
            study.run_sweep(whatif::standard_whatif_sweep());
        }),
    ];

    let report = Report {
        scale: scale_name.clone(),
        seed: study.seed,
        threads,
        clients: study.scale.clients.unwrap_or(0),
        campaigns,
    };
    println!("== E13: campaign throughput ({scale_name} scale, {threads} threads) ==\n");
    println!(
        "{:<16}{:>8}{:>14}{:>10}{:>12}{:>14}{:>12}",
        "campaign", "units", "sim events", "wall s", "units/s", "events/s", "allocs/ev"
    );
    for c in &report.campaigns {
        let allocs = c
            .allocs_per_event
            .map_or_else(|| "-".to_string(), |a| format!("{a:.3}"));
        println!(
            "{:<16}{:>8}{:>14}{:>10.2}{:>12.1}{:>14.0}{:>12}",
            c.campaign, c.units, c.sim_events, c.wall_s, c.units_per_s, c.events_per_s, allocs
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(out, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("campaign_throughput: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("\nwrote {out}");
}
