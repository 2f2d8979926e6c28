//! Determinism guarantees of the shared campaign engine (DESIGN.md §7):
//! for a fixed seed, campaign outputs are byte-identical regardless of
//! how many worker threads execute the unit grid. Samples carry floats,
//! so the comparison goes through their `Debug` rendering — identical
//! strings mean identical bits.

use doqlab_measure::single_query::run_single_query_campaign;
use doqlab_measure::webperf::run_webperf_campaign;
use doqlab_measure::{impairments, mobility, whatif};
use doqlab_measure::{
    run_sweep, trace_single_query, Regime, Scale, SingleQueryCampaign, Sweep, WebperfCampaign,
};
use doqlab_resolver::synthesize_dox_population;
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_webperf::tranco_top10;
use std::sync::{Mutex, MutexGuard};

/// The metrics registry is process-global: while a telemetry test has it
/// enabled, campaigns running in sibling tests would count into it. Every
/// test here runs campaigns, so each holds this lock for its whole body.
static CAMPAIGNS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the tests after it still run.
    CAMPAIGNS.lock().unwrap_or_else(|e| e.into_inner())
}

fn single_query_scale(threads: usize) -> Scale {
    Scale {
        resolvers: Some(3),
        repetitions: 2,
        threads,
        ..Scale::quick()
    }
}

/// Five pages, three of them multi-origin (google.com, linkedin.com,
/// twitter.com): the browser's origin connections, the origin servers'
/// listeners and the proxy's in-flight queries must all be served in a
/// fixed order for page loads, FCP and PLT included, to repeat.
fn webperf_scale(threads: usize) -> Scale {
    Scale {
        resolvers: Some(1),
        pages: Some(5),
        rounds: 1,
        loads_per_round: 1,
        threads,
        ..Scale::quick()
    }
}

#[test]
fn single_query_campaign_is_thread_count_invariant() {
    let _serial = serial();
    let pop = synthesize_dox_population(1);
    let mut renderings = Vec::new();
    for threads in [1, 4, 8] {
        let campaign = SingleQueryCampaign::new(single_query_scale(threads));
        let samples = run_single_query_campaign(&campaign, &pop);
        assert!(!samples.is_empty());
        renderings.push(format!("{samples:?}"));
    }
    assert_eq!(renderings[0], renderings[1], "1 thread vs 4 threads");
    assert_eq!(renderings[0], renderings[2], "1 thread vs 8 threads");
}

#[test]
fn webperf_campaign_is_thread_count_invariant() {
    let _serial = serial();
    let pop = synthesize_dox_population(1);
    let pages = tranco_top10();
    let mut renderings = Vec::new();
    for threads in [1, 4, 8] {
        let campaign = WebperfCampaign::new(webperf_scale(threads));
        let samples = run_webperf_campaign(&campaign, &pop, &pages);
        assert!(!samples.is_empty());
        renderings.push(format!("{samples:?}"));
    }
    assert_eq!(renderings[0], renderings[1], "1 thread vs 4 threads");
    assert_eq!(renderings[0], renderings[2], "1 thread vs 8 threads");
}

/// The three standard regime sweeps.
fn standard_sweeps() -> [(&'static str, Vec<Regime>); 3] {
    [
        ("impairments", impairments::standard_sweep()),
        (
            "mobility",
            mobility::standard_mobility_sweep(
                mobility::DEFAULT_REBIND_AT,
                mobility::DEFAULT_STAGGER,
            ),
        ),
        ("whatif", whatif::standard_whatif_sweep()),
    ]
}

fn sweep(regimes: Vec<Regime>, threads: usize) -> Sweep {
    Sweep {
        regimes,
        ..Sweep::new(Scale {
            resolvers: Some(2),
            repetitions: 1,
            threads,
            ..Scale::quick()
        })
    }
}

#[test]
fn sweeps_are_thread_count_invariant() {
    let _serial = serial();
    // Every standard sweep — fault injection, rebinds and failover
    // racing, capability flags — must be bit-identical across thread
    // counts and repeated runs at a fixed seed: every stochastic
    // decision flows through the unit's seeded RNG.
    let pop = synthesize_dox_population(1);
    for (name, regimes) in standard_sweeps() {
        let runs = [1, 4, 8, 4].map(|threads| {
            let samples = run_sweep(&sweep(regimes.clone(), threads), &pop);
            assert!(!samples.is_empty());
            format!("{samples:?}")
        });
        assert_eq!(runs[0], runs[1], "{name}: 1 vs 4 threads");
        assert_eq!(runs[0], runs[2], "{name}: 1 vs 8 threads");
        assert_eq!(runs[1], runs[3], "{name}: repeated runs");
    }
}

#[test]
fn sweep_telemetry_is_inert() {
    let _serial = serial();
    // Failure-taxonomy, reconnect, failover, 0-RTT, TFO and keepalive
    // counters and qlog path events ride telemetry; collecting them
    // must not perturb any sweep's samples.
    let pop = synthesize_dox_population(1);
    for (name, regimes) in standard_sweeps() {
        let sweep = sweep(regimes, 4);
        metrics::set_enabled(false);
        let baseline = format!("{:?}", run_sweep(&sweep, &pop));

        metrics::set_enabled(true);
        metrics::reset();
        let with_metrics = format!("{:?}", run_sweep(&sweep, &pop));
        let snapshot = metrics::snapshot();
        metrics::set_enabled(false);

        assert_eq!(
            baseline, with_metrics,
            "metrics collection perturbed {name} samples"
        );
        let units = (sweep.scale.resolvers.unwrap() * sweep.regimes.len() * 5 * 6) as u64;
        assert_eq!(snapshot.counter(Counter::UnitsRun), units, "{name}");
        match name {
            // The failover regime actually raced rungs.
            "mobility" => assert!(snapshot.counter(Counter::FailoverRaced) > 0),
            // The regimes actually exercised the dormant capabilities.
            "whatif" => {
                assert!(snapshot.counter(Counter::ZeroRttAccepted) > 0);
                assert!(snapshot.counter(Counter::TfoSynData) > 0);
                assert!(snapshot.counter(Counter::KeepaliveHonored) > 0);
            }
            _ => {}
        }
    }
}

#[test]
fn telemetry_does_not_change_campaign_output() {
    let _serial = serial();
    // The "provably inert" contract: with metrics collection on, a
    // campaign's samples are byte-identical to a run with telemetry
    // fully disabled, and the registry actually observed the units.
    let pop = synthesize_dox_population(1);
    let campaign = SingleQueryCampaign::new(single_query_scale(4));
    metrics::set_enabled(false);
    let baseline = format!("{:?}", run_single_query_campaign(&campaign, &pop));

    metrics::set_enabled(true);
    metrics::reset();
    let with_metrics = format!("{:?}", run_single_query_campaign(&campaign, &pop));
    let snapshot = metrics::snapshot();
    metrics::set_enabled(false);

    assert_eq!(
        baseline, with_metrics,
        "metrics collection perturbed samples"
    );
    let units = (campaign.scale.resolvers.unwrap() * campaign.scale.repetitions * 5 * 6) as u64;
    assert_eq!(snapshot.counter(Counter::UnitsRun), units);
}

#[test]
fn event_tracing_does_not_change_campaign_output() {
    let _serial = serial();
    // Event tracing captures one unit per transport; those traced
    // units must reproduce exactly the samples the untraced campaign
    // produced at the same coordinates (vp 0, resolver slot 0, rep 0).
    let pop = synthesize_dox_population(1);
    let campaign = SingleQueryCampaign::new(single_query_scale(1));
    let samples = run_single_query_campaign(&campaign, &pop);
    let run = trace_single_query(&campaign, &pop);
    for (transport, traced) in &run.samples {
        let plain = samples
            .iter()
            .find(|s| {
                s.vp == traced.vp && s.resolver == traced.resolver && s.transport == *transport
            })
            .expect("traced unit exists in the campaign grid");
        assert_eq!(
            format!("{traced:?}"),
            format!("{plain:?}"),
            "tracing perturbed the {transport:?} unit"
        );
    }
}

#[test]
fn seed_changes_campaign_output() {
    let _serial = serial();
    let pop = synthesize_dox_population(1);
    let base = SingleQueryCampaign::new(single_query_scale(4));
    let reseeded = SingleQueryCampaign {
        seed: base.seed ^ 1,
        ..base.clone()
    };
    let a = run_single_query_campaign(&base, &pop);
    let b = run_single_query_campaign(&reseeded, &pop);
    assert_ne!(format!("{a:?}"), format!("{b:?}"));
}
