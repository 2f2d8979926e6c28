//! Property test for the failure taxonomy under outages that swallow a
//! reconnect attempt whole: when a blackhole outlives both the original
//! connection's SYN-retry budget and the replacement's, the unit must
//! terminate (no hang past its run deadline) and the verdict must be
//! [`FailureKind::HandshakeFail`] — neither connection ever reached a
//! usable session, whatever the schedule offsets were.
//!
//! TCP's SYN budget is 6 retries with exponential backoff from a 1 s
//! initial RTO (~127 s to exhaustion), so an outage of 300 s or more
//! covers the original handshake, the backoff, and the entire
//! replacement handshake for any backoff under a second.

use doqlab_dox::{DnsTransport, FailureKind};
use doqlab_measure::single_query::{run_unit_custom, SingleQueryCampaign, UnitOptions};
use doqlab_measure::{vantage_points, Scale};
use doqlab_resolver::synthesize_dox_population;
use doqlab_simnet::{Duration, ImpairmentSchedule, SimTime, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn outage_spanning_the_reconnect_is_handshake_classified(
        outage_secs in 300u64..500,
        backoff_ms in 100u64..900,
        seed in 0u64..1_000,
    ) {
        let campaign = SingleQueryCampaign::new(Scale {
            resolvers: Some(1),
            repetitions: 1,
            threads: 1,
            ..Scale::quick()
        });
        let pop = synthesize_dox_population(1);
        let vps = vantage_points();
        let opts = UnitOptions {
            seed: Some(seed),
            impairment: ImpairmentSchedule::new()
                .with_outage(SimTime::ZERO, SimTime::from_secs(outage_secs)),
            query_deadline: None,
            reconnect_max: 1,
            reconnect_backoff: Duration::from_millis(backoff_ms),
            run_deadline: Duration::from_secs(outage_secs + 20),
            ..UnitOptions::default()
        };
        let mut sim = Simulator::arena();
        let out = run_unit_custom(
            &mut sim,
            &campaign,
            &vps[0],
            &pop[0],
            DnsTransport::DoTcp,
            0,
            &opts,
        );
        // The unit terminated with a verdict instead of hanging: both
        // handshakes died inside the outage, and neither ever
        // established, so the taxonomy says handshake failure.
        prop_assert!(out.sample.failed);
        prop_assert_eq!(out.failure, Some(FailureKind::HandshakeFail));
        prop_assert_eq!(out.reconnects, 1);
        prop_assert!(out.hs_done.is_none());
    }
}
