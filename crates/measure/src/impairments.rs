//! The fault-injection sweep: single-query measurements under
//! deterministic network impairments.
//!
//! Each regime installs an [`ImpairmentSchedule`] for the measured
//! phase and a resilience policy (query deadline, reconnect budget) on
//! the measured connection; the cache-warming phase always runs
//! unimpaired, so every regime measures the same warmed resolver.
//! Impaired regimes draw domain-separated unit seeds; the baseline runs
//! on the single-query campaign's own (see [`crate::sweep`]).

use crate::single_query::UnitOptions;
use crate::sweep::{Regime, SeedRule, Sweep, SweepSample};
use doqlab_simnet::{Duration, GilbertElliott, ImpairmentSchedule, SimTime};

/// Domain separation for impaired regimes' unit seeds.
const IMPAIR_SEED_DOMAIN: u64 = 0xBAD_11E7_0F0F_2022;

/// The default regime sweep: a zero-impairment control, two burst-loss
/// intensities (~1.5% and ~11% stationary loss), a mid-handshake
/// blackhole, and everything at once.
pub fn standard_sweep() -> Vec<Regime> {
    let impaired = |name: &str, impairment: ImpairmentSchedule| Regime {
        name: name.into(),
        seed: SeedRule::Domain(IMPAIR_SEED_DOMAIN),
        options: UnitOptions {
            impairment,
            query_deadline: Some(Duration::from_secs(15)),
            reconnect_max: 2,
            reconnect_backoff: Duration::from_millis(500),
            ..UnitOptions::default()
        },
        ..Regime::baseline()
    };
    let ms = SimTime::from_millis;
    let ge = GilbertElliott::new;
    let schedule = ImpairmentSchedule::new;
    vec![
        Regime::baseline(),
        impaired("loss-light", schedule().with_burst(ge(0.01, 0.4, 0.0, 0.6))),
        impaired(
            "loss-heavy",
            schedule().with_burst(ge(0.05, 0.25, 0.01, 0.6)),
        ),
        impaired("outage", schedule().with_outage(ms(100), ms(1100))),
        impaired(
            "chaos",
            schedule()
                .with_burst(ge(0.02, 0.3, 0.005, 0.5))
                .with_outage(ms(300), ms(800))
                .with_reorder(0.02, Duration::from_millis(30))
                .with_duplicate(0.01),
        ),
    ]
}

// The names the benchmark (`perfbench/`) calls, kept as aliases of the
// sweep items: no second code path.

/// The sweep configuration (kept for the benchmark).
pub type ImpairmentsCampaign = Sweep;
/// One swept measurement (kept for the benchmark).
pub type ImpairmentSample = SweepSample;
/// [`crate::sweep::run_sweep`] (kept for the benchmark).
pub use crate::sweep::run_sweep as run_impairments_campaign;
/// [`crate::sweep::run_sweep_unit`] (kept for the benchmark).
pub use crate::sweep::run_sweep_unit as run_impairment_unit;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_query::{run_unit_custom, SingleQueryCampaign, UnitOutcome};
    use crate::sweep::run_sweep;
    use crate::sweep::tests::tiny_sweep;
    use crate::vantage::vantage_points;
    use crate::Scale;
    use doqlab_dox::{DnsTransport, FailureKind};
    use doqlab_resolver::synthesize_dox_population;
    use doqlab_simnet::Simulator;

    #[test]
    fn heavy_loss_degrades_at_least_some_units() {
        let (c, pop) = tiny_sweep(standard_sweep());
        let samples = run_sweep(&c, &pop);
        let resolve_sum = |regime: usize| {
            samples
                .iter()
                .filter(|s| s.regime == regime)
                .filter_map(|s| s.sample.resolve_ms)
                .sum::<f64>()
        };
        // Heavy burst loss must visibly slow the sweep relative to the
        // baseline (retransmissions, handshake stalls).
        assert!(
            resolve_sum(2) > resolve_sum(0) * 1.05,
            "loss-heavy {} vs baseline {}",
            resolve_sum(2),
            resolve_sum(0)
        );
    }

    /// Run one DoUDP unit at vp 0 against the first resolver.
    fn run_doudp(opts: &UnitOptions) -> UnitOutcome {
        let sq = SingleQueryCampaign::new(Scale::quick());
        let pop = synthesize_dox_population(1);
        let mut sim = Simulator::arena();
        let vps = vantage_points();
        run_unit_custom(
            &mut sim,
            &sq,
            &vps[0],
            &pop[0],
            DnsTransport::DoUdp,
            0,
            opts,
        )
    }

    #[test]
    fn reconnect_after_outage_recovers_the_query() {
        // A 16 s blackhole outlives DoUDP's full retry budget (15 s):
        // the first connection dies inside the outage, the host dials a
        // replacement after backoff, and the re-issued query succeeds
        // once the outage lifts.
        let out = run_doudp(&UnitOptions {
            seed: Some(0xD1A1),
            impairment: ImpairmentSchedule::new()
                .with_outage(SimTime::ZERO, SimTime::from_secs(16)),
            query_deadline: Some(Duration::from_secs(35)),
            reconnect_max: 2,
            reconnect_backoff: Duration::from_millis(500),
            run_deadline: Duration::from_secs(40),
            ..UnitOptions::default()
        });
        assert!(out.reconnects >= 1, "no replacement connection dialed");
        assert!(
            !out.sample.failed,
            "query did not recover: {:?}",
            out.failure
        );
        assert!(out.failure.is_none());
        // The replacement dialed at ~15.5 s still had its first send
        // blackholed (outage ends at 16 s); only its 5 s retry got
        // through, so the resolve time carries that full retry wait.
        assert!(out.sample.resolve_ms.unwrap() > 4_000.0);
    }

    #[test]
    fn permanent_blackhole_is_deadline_classified() {
        // An outage covering the whole run plus a 5 s deadline: the
        // transport has not yet diagnosed anything when the deadline
        // fires, so the verdict is deadline-exceeded.
        let out = run_doudp(&UnitOptions {
            seed: Some(0xDEAD),
            impairment: ImpairmentSchedule::new()
                .with_outage(SimTime::ZERO, SimTime::from_secs(60)),
            query_deadline: Some(Duration::from_secs(5)),
            reconnect_max: 0,
            run_deadline: Duration::from_secs(20),
            ..UnitOptions::default()
        });
        assert!(out.sample.failed);
        assert_eq!(out.failure, Some(FailureKind::DeadlineExceeded));
        assert_eq!(out.reconnects, 0);
    }

    #[test]
    fn outage_regime_recovers_or_classifies_failures() {
        let (c, pop) = tiny_sweep(standard_sweep());
        let samples = run_sweep(&c, &pop);
        let outage: Vec<_> = samples.iter().filter(|s| s.regime == 3).collect();
        assert!(!outage.is_empty());
        // Every unit either produced a response (possibly after a
        // reconnect) or carries a failure classification.
        for s in &outage {
            assert!(
                !s.sample.failed || s.failure.is_some(),
                "unclassified failure: {s:?}"
            );
        }
        let ok = outage.iter().filter(|s| !s.sample.failed).count();
        assert!(
            ok as f64 / outage.len() as f64 > 0.5,
            "outage recovery too weak: {ok}/{}",
            outage.len()
        );
    }
}
