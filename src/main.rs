//! The `doqlab` command-line driver: run any campaign of the study and
//! print the paper-style report.
//!
//! ```sh
//! doqlab discovery
//! doqlab single-query --scale medium
//! doqlab webperf --scale quick --seed 7
//! doqlab measure impairments --scale quick --seed 7
//! doqlab measure mobility --scale quick --seed 7
//! doqlab measure populations --scale quick --threads 8
//! doqlab measure whatif --scale quick --seed 7
//! doqlab all --scale quick --threads 8
//! doqlab trace single-query --scale quick --trace-out trace.qlog
//! ```
//!
//! Campaign names may be prefixed with `measure` (`doqlab measure
//! impairments` and `doqlab impairments` are the same command).

use doqlab_core::cli::{Flags, STUDY_FLAGS};
use doqlab_core::measure::report;
use doqlab_core::measure::{impairments, mobility, whatif, Regime, WebperfCampaign, WebperfSample};
use doqlab_core::simnet::Duration;
use doqlab_core::telemetry::metrics;
use doqlab_core::Study;

fn usage() -> ! {
    eprintln!(
        "usage: doqlab [measure] \
         <discovery|single-query|webperf|impairments|mobility|populations|whatif|all> \
         [--scale quick|medium|paper] [--seed N] [--threads N] \
         [--resolvers N] [--pages N] [--reps N]\n\
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
         ms (default 400)"
    );
    std::process::exit(2);
}

/// Print `error`, then the usage, and exit 2.
fn fail(error: &str) -> ! {
    eprintln!("doqlab: {error}");
    usage();
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut command = args.next().unwrap_or_else(|| usage());
    // `doqlab measure <campaign>` is the spelled-out form of
    // `doqlab <campaign>`.
    if command == "measure" {
        command = args.next().unwrap_or_else(|| usage());
    }
    let trace_target = if command == "trace" {
        Some(args.next().unwrap_or_else(|| usage()))
    } else {
        None
    };
    let valued = [&STUDY_FLAGS[..], &["--trace-out"]].concat();
    let flags = Flags::parse(args, &valued, &[]).unwrap_or_else(|e| fail(&e));
    let trace_out = flags.value("--trace-out");
    if trace_out.is_some() && trace_target.is_none() {
        fail("--trace-out only applies to `doqlab trace`");
    }
    let study =
        Study::from_flags(&flags, "quick", |k| std::env::var(k).ok()).unwrap_or_else(|e| fail(&e));

    if let Some(target) = trace_target {
        run_trace(&study, &target, trace_out);
        return;
    }

    // Campaign runs collect lock-free counters/histograms; the samples
    // themselves are byte-identical with telemetry on or off (pinned by
    // the engine invariance tests).
    metrics::set_enabled(true);
    match command.as_str() {
        "discovery" => run_discovery(&study),
        "single-query" => run_single_query(&study),
        "webperf" => {
            run_webperf(&study);
        }
        "impairments" => run_impairments(&study),
        "mobility" => run_mobility(&study),
        "whatif" => run_whatif(&study, None),
        "populations" => run_populations(&study),
        "all" => {
            run_discovery(&study);
            run_single_query(&study);
            let web = run_webperf(&study);
            run_impairments(&study);
            run_mobility(&study);
            run_populations(&study);
            // The what-if Web half pairs against the webperf samples
            // already in hand instead of running that campaign again.
            run_whatif(&study, Some(web));
        }
        _ => usage(),
    }
    let telemetry = report::render_telemetry(&report::telemetry_section());
    if !telemetry.is_empty() {
        println!("{telemetry}");
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

fn run_discovery(study: &Study) {
    println!("== discovery (§2) ==");
    let pop = study.scan_population(200);
    let r = study.run_discovery(&pop);
    println!(
        "probed {} hosts -> {} QUIC -> {} DoQ -> {} verified DoX\n\
         (paper: 1,216 DoQ -> 313 verified)\n",
        r.probed_hosts, r.quic_hosts, r.doq_resolvers, r.verified_dox
    );
}

fn run_single_query(study: &Study) {
    println!("== single query (§3.1) ==");
    let samples = study.run_single_query();
    println!("{}", report::render_table1(&report::table1(&samples)));
    println!("{}", report::render_fig2(&report::fig2(&samples)));
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

/// Run a regime sweep and print its report under `title`.
fn run_sweep(
    study: &Study,
    title: &str,
    regimes: Vec<Regime>,
    render: fn(&[report::SweepRow]) -> String,
) {
    println!("== {title} ==");
    let samples = study.run_sweep(regimes);
    println!("{}", render(&report::sweep_rows(&samples)));
}

fn run_impairments(study: &Study) {
    run_sweep(
        study,
        "fault injection (impairment sweep)",
        impairments::standard_sweep(),
        report::render_impairments,
    );
}

fn run_mobility(study: &Study) {
    run_sweep(
        study,
        "mobility (rebind + failover sweep)",
        mobility::standard_mobility_sweep(
            env_ms("DOQLAB_REBIND_MS", mobility::DEFAULT_REBIND_AT),
            env_ms("DOQLAB_STAGGER_MS", mobility::DEFAULT_STAGGER),
        ),
        report::render_mobility,
    );
}

/// The what-if sweep plus its Web half, which pairs `web` (the plain
/// webperf samples, run here when not given) with a re-run under the
/// doh3 regime's capabilities.
fn run_whatif(study: &Study, web: Option<Vec<WebperfSample>>) {
    run_sweep(
        study,
        "what-if (counterfactual capability sweep)",
        whatif::standard_whatif_sweep(),
        report::render_whatif,
    );
    let base = web.unwrap_or_else(|| study.run_webperf());
    let doh3 = study.run_webperf_campaign(&WebperfCampaign {
        caps: whatif::DOH3,
        ..study.webperf_campaign()
    });
    println!(
        "{}",
        report::render_whatif_web(&report::whatif_web_rows(&base, &doh3))
    );
}

fn run_populations(study: &Study) {
    println!("== population scale (Zipf workloads, shared caches) ==");
    let samples = study.run_populations();
    println!(
        "{}",
        report::render_populations(&report::population_rows(&samples))
    );
}

fn run_webperf(study: &Study) -> Vec<WebperfSample> {
    println!("== web performance (§3.2) ==");
    let samples = study.run_webperf();
    let diffs = report::relative_to_baseline(&samples, doqlab_core::dox::DnsTransport::DoUdp);
    println!("{}", report::render_fig3(&diffs, "FCP"));
    println!("{}", report::render_fig3(&diffs, "PLT"));
    println!("{}", report::render_fig4(&report::fig4(&samples)));
    samples
}
