//! E13 — whole-campaign throughput: how fast the work-stealing engine
//! chews through each campaign, in units/second and simulator
//! events/second of wall-clock time.
//!
//! Runs every campaign at the requested scale (default `quick`, so CI
//! can afford it), times each run, and reads the engine's lock-free
//! `campaign.units_run` / `sim.events` counters for the denominators.
//! Results go to stdout, and to a JSON report with `--out PATH`.
//!
//! Built with `--features count-allocs`, each campaign also reports
//! `allocs_per_event` — global allocator hits divided by simulator
//! events. The simulator core itself routes packets allocation-free
//! (pinned by simnet's `zero_alloc_route` test); what remains in this
//! ratio is protocol-layer work — DNS wire encoding, TLS records,
//! per-unit host setup — so it is a tracking number, not a zero: a
//! jump flags a per-packet or per-event allocation sneaking back into
//! a hot path.
//!
//! `--check PATH` gates on what repeats. On one worker, a campaign's
//! simulator events and allocations are the same on every run and
//! every machine, while events/s moves with the machine's load; so the
//! check compares the run with a count file (a report written with
//! `--out` at the same configuration) and exits 1 when any campaign's
//! `sim_events` differ or its allocations per event by more than 0.5%.
//! It exits 2 on a file taken at another scale, seed, worker count or
//! client count, or with `count-allocs` set differently. Events/s is
//! printed and not gated. The committed count file is
//! `crates/bench/campaign_counts.json`:
//!
//! ```sh
//! DOQLAB_CLIENTS=512 cargo run --release -p doqlab-bench --features count-allocs \
//!     --bin campaign_throughput -- --scale quick --threads 1 \
//!     --check crates/bench/campaign_counts.json
//! ```

use doqlab_bench::exit_usage;
use doqlab_core::cli::{Flags, STUDY_FLAGS};
use doqlab_core::measure::{impairments, mobility, whatif};
use doqlab_core::telemetry::metrics::{self, Counter};
use doqlab_core::telemetry::qlog::{self, Json};
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

/// How far a campaign's allocations per event may move before
/// `--check` fails. One-worker runs repeat their allocations exactly;
/// one more allocation per DNS message encoded moves the campaigns by
/// 1.2–1.5%, which this band must catch.
const ALLOC_TOLERANCE: f64 = 0.005;

/// Compare `report` with the count file at `path`: the campaigns whose
/// counts moved, or an error when the file cannot be read or was taken
/// at another configuration.
fn check(report: &Report, path: &str) -> Result<Vec<String>, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let counts = qlog::parse(&data).map_err(|e| format!("{path}: {e}"))?;
    let num = |json: &Json, key: &str| json.get(key).and_then(Json::as_f64);
    let mismatch = |key: &str, value: &dyn std::fmt::Display| {
        Err(format!("{path} does not match this run's {key} ({value})"))
    };
    if counts.get("scale").and_then(Json::as_str) != Some(report.scale.as_str()) {
        return mismatch("scale", &report.scale);
    }
    let config = [
        ("seed", report.seed),
        ("threads", report.threads as u64),
        ("clients", report.clients),
    ];
    if let Some((key, v)) = config
        .iter()
        .find(|(k, v)| num(&counts, k) != Some(*v as f64))
    {
        return mismatch(key, v);
    }
    let Some(Json::Arr(recorded)) = counts.get("campaigns") else {
        return Err(format!("{path} lists no campaigns"));
    };
    let mut moved = Vec::new();
    for c in &report.campaigns {
        let name = Some(c.campaign.as_str());
        let Some(r) = recorded
            .iter()
            .find(|r| r.get("campaign").and_then(Json::as_str) == name)
        else {
            moved.push(format!("{}: not in {path}", c.campaign));
            continue;
        };
        let events = num(r, "sim_events").unwrap_or(f64::NAN);
        if events != c.sim_events as f64 {
            moved.push(format!(
                "{}: sim_events {events} -> {}",
                c.campaign, c.sim_events
            ));
        }
        match (num(r, "allocs_per_event"), c.allocs_per_event) {
            (Some(a), Some(b)) if (b - a).abs() > ALLOC_TOLERANCE * a => {
                moved.push(format!("{}: allocs/event {a:.3} -> {b:.3}", c.campaign));
            }
            (Some(_), Some(_)) | (None, None) => {}
            _ => return mismatch("count-allocs feature", &c.allocs_per_event.is_some()),
        }
    }
    Ok(moved)
}

fn main() {
    const USAGE: &str = "campaign_throughput [--scale quick|medium|paper] [--seed N] \
                         [--threads N] [--resolvers N] [--pages N] [--reps N] [--out PATH] \
                         [--check PATH]";
    let valued = [&STUDY_FLAGS[..], &["--out", "--check"]].concat();
    let flags = Flags::parse(std::env::args().skip(1), &valued, &[])
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    let study = Study::from_flags(&flags, "quick", |k| std::env::var(k).ok())
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    let scale_name = flags.value("--scale").unwrap_or("quick").to_string();
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
    if let Some(out) = flags.value("--out") {
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(out, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("campaign_throughput: cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("\nwrote {out}");
    }
    if let Some(path) = flags.value("--check") {
        match check(&report, path) {
            Ok(moved) if moved.is_empty() => eprintln!("\ncounts match {path}"),
            Ok(moved) => {
                eprintln!("\ncampaign_throughput: counts moved against {path}:");
                for m in &moved {
                    eprintln!("  {m}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("campaign_throughput: {e}");
                std::process::exit(2);
            }
        }
    }
}
