//! CI perf-regression gate: compares a fresh `campaign_throughput`
//! report against the latest committed `BENCH_*.json` and fails when
//! any campaign's `events_per_s` regressed by more than the threshold
//! (default 30% — wide enough to absorb shared-runner noise, tight
//! enough to catch a hot-path regression, which historically shows up
//! as an order of magnitude).
//!
//! ```text
//! bench_gate --fresh fresh_bench.json [--baseline BENCH_8.json]
//!            [--threshold 0.30] [--dir .]
//! ```
//!
//! Without `--baseline`, the highest-numbered `BENCH_<n>.json` in
//! `--dir` (default: current directory) is used, so the gate follows
//! whichever snapshot the repo most recently committed. Campaigns
//! present only on one side are reported but do not fail the gate: a
//! new campaign has no baseline to regress from.

use doqlab_bench::exit_usage;
use doqlab_core::cli::Flags;
use doqlab_core::telemetry::qlog::{self, Json};
use std::process::exit;

struct Campaign {
    campaign: String,
    events_per_s: f64,
}

struct Report {
    scale: String,
    seed: u64,
    clients: u64,
    campaigns: Vec<Campaign>,
}

/// Parse a `campaign_throughput` report. It needs the fields the gate
/// compares and ignores every other one (so adding metrics like
/// `allocs_per_event` never breaks old gates).
fn load(path: &str) -> Report {
    let data = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        exit(2);
    });
    let report = |json: Json| {
        let Some(Json::Arr(campaigns)) = json.get("campaigns") else {
            return None;
        };
        let campaigns = campaigns
            .iter()
            .map(|c| {
                Some(Campaign {
                    campaign: c.get("campaign")?.as_str()?.to_string(),
                    events_per_s: c.get("events_per_s")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Report {
            scale: json.get("scale")?.as_str()?.to_string(),
            seed: json.get("seed")?.as_f64()? as u64,
            clients: json.get("clients")?.as_f64()? as u64,
            campaigns,
        })
    };
    match qlog::parse(&data).ok().and_then(report) {
        Some(report) if !report.campaigns.is_empty() => report,
        _ => {
            eprintln!("bench_gate: {path}: not a campaign_throughput report");
            exit(2);
        }
    }
}

/// The highest-numbered `BENCH_<n>.json` in `dir`, if any.
fn latest_baseline(dir: &str) -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, format!("{}/{name}", dir.trim_end_matches('/'))));
        }
    }
    best.map(|(_, path)| path)
}

fn main() {
    const USAGE: &str =
        "bench_gate --fresh PATH [--baseline PATH] [--dir DIR] [--threshold FRACTION]";
    let valued = ["--fresh", "--baseline", "--dir", "--threshold"];
    let flags = Flags::parse(std::env::args().skip(1), &valued, &[])
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    let threshold = flags
        .parsed("--threshold")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(0.30f64);
    let dir = flags.value("--dir").unwrap_or(".");
    let fresh_path = flags
        .value("--fresh")
        .unwrap_or_else(|| exit_usage(USAGE, "bench_gate: --fresh is required"));
    let baseline_path = flags
        .value("--baseline")
        .map(str::to_string)
        .or_else(|| latest_baseline(dir))
        .unwrap_or_else(|| {
            eprintln!("bench_gate: no BENCH_*.json baseline found in {dir}");
            exit(2);
        });

    let fresh = load(fresh_path);
    let baseline = load(&baseline_path);
    println!(
        "== bench_gate: {fresh_path} vs {baseline_path} (threshold {:.0}%) ==\n",
        threshold * 100.0
    );
    if fresh.scale != baseline.scale
        || fresh.seed != baseline.seed
        || fresh.clients != baseline.clients
    {
        eprintln!(
            "bench_gate: configuration mismatch — fresh ({}, seed {}, {} clients) \
             vs baseline ({}, seed {}, {} clients); not comparable",
            fresh.scale, fresh.seed, fresh.clients, baseline.scale, baseline.seed, baseline.clients
        );
        exit(2);
    }

    println!(
        "{:<16}{:>14}{:>14}{:>10}",
        "campaign", "baseline ev/s", "fresh ev/s", "ratio"
    );
    let mut failures = Vec::new();
    for b in &baseline.campaigns {
        let Some(f) = fresh.campaigns.iter().find(|f| f.campaign == b.campaign) else {
            println!(
                "{:<16}{:>14.0}{:>14}{:>10}",
                b.campaign, b.events_per_s, "-", "gone"
            );
            continue;
        };
        let ratio = f.events_per_s / b.events_per_s.max(1e-9);
        println!(
            "{:<16}{:>14.0}{:>14.0}{:>10.2}",
            b.campaign, b.events_per_s, f.events_per_s, ratio
        );
        if ratio < 1.0 - threshold {
            failures.push(format!(
                "{}: {:.0} -> {:.0} events/s ({:.0}% of baseline)",
                b.campaign,
                b.events_per_s,
                f.events_per_s,
                ratio * 100.0
            ));
        }
    }
    for f in &fresh.campaigns {
        if !baseline.campaigns.iter().any(|b| b.campaign == f.campaign) {
            println!(
                "{:<16}{:>14}{:>14.0}{:>10}",
                f.campaign, "-", f.events_per_s, "new"
            );
        }
    }

    if failures.is_empty() {
        println!(
            "\nbench_gate: OK — no campaign regressed more than {:.0}%",
            threshold * 100.0
        );
    } else {
        eprintln!(
            "\nbench_gate: FAIL — events/s regressions beyond {:.0}%:",
            threshold * 100.0
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        exit(1);
    }
}
