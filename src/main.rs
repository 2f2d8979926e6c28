//! The `doqlab` command-line driver: run any campaign of the study and
//! print its report, or render any of the paper's artefacts.
//!
//! ```sh
//! doqlab discovery
//! doqlab single-query --scale medium
//! doqlab webperf --scale quick --seed 7
//! doqlab measure impairments --scale quick --seed 7
//! doqlab measure mobility --scale quick --seed 7
//! doqlab measure populations --scale quick --threads 8
//! doqlab measure whatif --scale quick --seed 7 --json
//! doqlab all --scale quick --threads 8
//! doqlab report table1 fig2a a1 --scale quick --seed 7
//! doqlab trace single-query --scale quick --trace-out trace.qlog
//! ```
//!
//! Campaign names may be prefixed with `measure` (`doqlab measure
//! impairments` and `doqlab impairments` are the same command). A
//! campaign command prints its report and the run's telemetry;
//! `doqlab report` prints the named reports alone, running each
//! campaign they read once.

use doqlab_core::artefacts::{self, Artefact, Samples, CAMPAIGN_REPORTS, PAPER_ARTEFACTS};
use doqlab_core::cli::{Flags, STUDY_FLAGS};
use doqlab_core::measure::{mobility, report};
use doqlab_core::simnet::Duration;
use doqlab_core::telemetry::metrics;
use doqlab_core::Study;
use serde_json::json;

/// The scale when there is no `--scale`.
const DEFAULT_SCALE: &str = "quick";

fn usage() -> ! {
    let names = |table: &[Artefact]| table.iter().map(|a| a.name).collect::<Vec<_>>().join("|");
    eprintln!(
        "usage: doqlab [measure] <{}|all> [--json] \
         [--scale quick|medium|paper] [--seed N] [--threads N] \
         [--resolvers N] [--pages N] [--reps N]\n\
         \x20      doqlab report <name>... [--json] [study flags]\n\
         \x20        where a name is a campaign or one of {}\n\
         \x20      doqlab trace <single-query> \
         [--scale quick|medium|paper] [--seed N] [--trace-out PATH]\n\
         \n\
         environment (read once at start-up; a flag beats its variable):\n\
         \x20 DOQLAB_THREADS  worker threads for campaign runs \
         (same as --threads)\n\
         \x20 DOQLAB_SEED     campaign seed (same as --seed)\n\
         \x20 DOQLAB_CLIENTS  simulated clients for `measure populations` \
         (quick 2000, medium 20000, paper 100000)\n\
         \x20 DOQLAB_REBIND_MS   first rebind offset for `measure mobility`, \
         ms after handshake (default 5)\n\
         \x20 DOQLAB_STAGGER_MS  failover stagger for `measure mobility`, \
         ms (default 400)",
        names(&CAMPAIGN_REPORTS),
        names(&PAPER_ARTEFACTS),
    );
    std::process::exit(2);
}

/// Print `error`, then the usage, and exit 2.
fn fail(error: &str) -> ! {
    eprintln!("doqlab: {error}");
    usage();
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut command = args.next().unwrap_or_else(|| usage());
    // `doqlab measure <campaign>` is the spelled-out form of
    // `doqlab <campaign>`.
    if command == "measure" {
        command = args.next().unwrap_or_else(|| usage());
    }
    let mut names = Vec::new();
    while let Some(name) = args.next_if(|a| !a.starts_with('-')) {
        names.push(name);
    }
    let valued = [&STUDY_FLAGS[..], &["--trace-out"]].concat();
    let flags = Flags::parse(args, &valued, &["--json"]).unwrap_or_else(|e| fail(&e));
    let trace_out = flags.value("--trace-out");
    if trace_out.is_some() && command != "trace" {
        fail("--trace-out only applies to `doqlab trace`");
    }
    let study = Study::from_flags(&flags, DEFAULT_SCALE, |k| std::env::var(k).ok())
        .unwrap_or_else(|e| fail(&e));

    let entries: Vec<&Artefact> = match (command.as_str(), &names[..]) {
        ("trace", [target]) => return run_trace(&study, target, trace_out),
        ("report", [_, ..]) => names
            .iter()
            .map(|n| artefacts::find(n).unwrap_or_else(|| fail(&format!("unknown report {n}"))))
            .collect(),
        ("all", []) => CAMPAIGN_REPORTS.iter().collect(),
        (name, []) => vec![CAMPAIGN_REPORTS
            .iter()
            .find(|a| a.name == name)
            .unwrap_or_else(|| usage())],
        _ => usage(),
    };
    // Campaign commands collect lock-free counters/histograms; the
    // samples themselves are byte-identical with telemetry on or off
    // (pinned by the engine invariance tests).
    metrics::set_enabled(command != "report");

    let scale_name = flags.value("--scale").unwrap_or(DEFAULT_SCALE);
    let mut samples = Samples::new(&study, scale_name);
    samples.mobility = mobility::standard_mobility_sweep(
        env_ms("DOQLAB_REBIND_MS", mobility::DEFAULT_REBIND_AT),
        env_ms("DOQLAB_STAGGER_MS", mobility::DEFAULT_STAGGER),
    );
    let json = flags.switch("--json");
    let mut reports = Vec::new();
    samples.render(&entries, |entry, r| {
        if json {
            reports.push(r.to_json(entry.name));
        } else {
            print!("{}", r.render_text());
        }
    });
    let telemetry = report::telemetry_section();
    if json {
        let doc = json!({
            "scale": scale_name,
            "seed": study.seed,
            "reports": reports,
            "telemetry": telemetry,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("serializable")
        );
    } else if !telemetry.is_empty() {
        println!("{}", report::render_telemetry(&telemetry));
    }
}

fn run_trace(study: &Study, target: &str, out: Option<&str>) {
    if target != "single-query" {
        eprintln!("doqlab trace: only the single-query campaign is traceable");
        usage();
    }
    let run = study.trace_single_query();
    let seq = run.to_json_seq();
    match out {
        Some(path) => {
            std::fs::write(path, &seq).unwrap_or_else(|e| {
                eprintln!("doqlab trace: cannot write {path}: {e}");
                std::process::exit(1);
            });
            let events: usize = run.traces.iter().map(|t| t.events.len()).sum();
            eprintln!(
                "wrote {} qlog events for {} connections to {path}",
                events,
                run.traces.len()
            );
        }
        None => print!("{seq}"),
    }
}

/// A millisecond setting from the environment: a value that does not
/// parse, or is not positive, falls back to `default`.
fn env_ms(var: &str, default: Duration) -> Duration {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map_or(default, Duration::from_millis)
}
