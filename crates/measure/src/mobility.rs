//! The mobility sweep: single-query measurements across mid-query
//! address changes (wifi → cellular) and cross-transport failover.
//!
//! Each regime drives a rebind schedule against the measured client: at
//! each scheduled offset from handshake completion the client's address
//! is moved onto a fresh "cellular" address with its own
//! [`PathProfile`] overlay, stranding whatever was still in flight to
//! the old address. DoQ survives by RFC 9000 §9 connection migration;
//! the TCP-based transports and DoUDP are stranded and either fail, or
//! recover via the reconnect budget or the cross-transport
//! happy-eyeballs ladder ([`FailoverPolicy`]), depending on the regime.
//! Mobile regimes draw domain-separated unit seeds; the baseline runs
//! on the single-query campaign's own (see [`crate::sweep`]).

use crate::single_query::UnitOptions;
use crate::sweep::{Regime, SeedRule};
use doqlab_dox::{DnsTransport, FailoverPolicy};
use doqlab_simnet::path::PathProfile;
use doqlab_simnet::Duration;

/// Domain separation for mobile regimes' unit seeds.
const MOBILITY_SEED_DOMAIN: u64 = 0x3069_11E7_0D05_2022;

/// The standard sweep's first rebind offset from handshake completion.
pub const DEFAULT_REBIND_AT: Duration = Duration::from_millis(5);

/// The standard sweep's failover rung stagger.
pub const DEFAULT_STAGGER: Duration = Duration::from_millis(400);

/// The default regime sweep: a zero-rebind control, a bare mid-query
/// rebind at `rebind_at` (the paper-motivating case: only DoQ
/// survives), the same rebind rescued by the reconnect budget, the same
/// rebind rescued by a cross-transport ladder staggered by `stagger`,
/// and a storm of repeated rebinds.
pub fn standard_mobility_sweep(rebind_at: Duration, stagger: Duration) -> Vec<Regime> {
    let mobile = |name: &str, options: UnitOptions| Regime {
        name: name.into(),
        seed: SeedRule::Domain(MOBILITY_SEED_DOMAIN),
        options,
        ..Regime::baseline()
    };
    let cellular = PathProfile {
        extra_delay: Duration::from_millis(20),
        loss: None,
    };
    let rebind = UnitOptions {
        rebinds: vec![(rebind_at, cellular)],
        query_deadline: Some(Duration::from_secs(15)),
        ..UnitOptions::default()
    };
    let reconnect = UnitOptions {
        query_deadline: Some(Duration::from_secs(30)),
        reconnect_max: 2,
        reconnect_backoff: Duration::from_millis(500),
        run_deadline: Duration::from_secs(40),
        ..rebind.clone()
    };
    let failover = UnitOptions {
        failover: Some(FailoverPolicy {
            ladder: vec![DnsTransport::DoT, DnsTransport::DoUdp],
            stagger,
        }),
        ..rebind.clone()
    };
    let storm = UnitOptions {
        rebinds: vec![
            (rebind_at, cellular),
            (Duration::from_secs(1), PathProfile::default()),
            (
                Duration::from_secs(2),
                PathProfile {
                    extra_delay: Duration::from_millis(40),
                    loss: None,
                },
            ),
        ],
        query_deadline: Some(Duration::from_secs(20)),
        reconnect_max: 2,
        reconnect_backoff: Duration::from_millis(500),
        run_deadline: Duration::from_secs(30),
        ..UnitOptions::default()
    };
    vec![
        Regime::baseline(),
        mobile("rebind", rebind),
        mobile("rebind-reconnect", reconnect),
        mobile("rebind-failover", failover),
        mobile("rebind-storm", storm),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::tiny_sweep;
    use crate::sweep::{run_sweep, SweepSample};

    fn standard_samples() -> Vec<SweepSample> {
        let (c, pop) = tiny_sweep(standard_mobility_sweep(DEFAULT_REBIND_AT, DEFAULT_STAGGER));
        run_sweep(&c, &pop)
    }

    #[test]
    fn doq_survives_the_rebind_the_other_transports_do_not() {
        // The campaign's headline claim, pinned: under the bare-rebind
        // regime (no reconnects, no failover) the mid-query address
        // change strands every in-flight answer — only DoQ's connection
        // migration recovers it. Every DoQ unit survives with zero
        // failures; every DoUDP and DoT unit fails.
        let samples = standard_samples();
        let rebind: Vec<_> = samples.iter().filter(|s| s.regime == 1).collect();
        assert!(!rebind.is_empty());
        for s in &rebind {
            match s.sample.transport {
                DnsTransport::DoQ => {
                    assert!(!s.sample.failed, "DoQ unit failed under rebind: {s:?}");
                    assert!(s.failure.is_none());
                    assert_eq!(s.reconnects, 0, "migration, not reconnection: {s:?}");
                    assert!(
                        s.switchover_ms.is_some(),
                        "DoQ answered before the rebind: {s:?}"
                    );
                }
                DnsTransport::DoUdp | DnsTransport::DoT => {
                    assert!(
                        s.sample.failed,
                        "{} survived a stranding rebind: {s:?}",
                        s.sample.transport
                    );
                    assert!(s.failure.is_some());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn failover_ladder_rescues_non_doq_transports() {
        let samples = standard_samples();
        let failover: Vec<_> = samples.iter().filter(|s| s.regime == 3).collect();
        assert!(!failover.is_empty());
        // The ladder dials fresh rungs from the post-rebind address, so
        // stranded primaries recover; rescued units book the dead
        // primary's bytes as waste and report the winning transport.
        for s in &failover {
            assert!(!s.sample.failed, "failover left a unit dead: {s:?}");
            if s.winner.is_some_and(|w| w != s.sample.transport) {
                assert!(s.wasted_bytes > 0, "free rescue: {s:?}");
            }
        }
        let rescued = failover
            .iter()
            .filter(|s| s.winner.is_some_and(|w| w != s.sample.transport))
            .count();
        assert!(rescued > 0, "no unit needed the ladder");
    }

    #[test]
    fn reconnect_budget_rescues_stranded_transports() {
        let samples = standard_samples();
        let reconnect: Vec<_> = samples.iter().filter(|s| s.regime == 2).collect();
        assert!(!reconnect.is_empty());
        // DoQ migrates without touching the budget; at least one
        // stranded transport redials from the new address and recovers.
        for s in reconnect
            .iter()
            .filter(|s| s.sample.transport == DnsTransport::DoQ && s.switchover_ms.is_some())
        {
            assert_eq!(s.reconnects, 0, "{s:?}");
        }
        let redialed = reconnect
            .iter()
            .filter(|s| !s.sample.failed && s.reconnects > 0)
            .count();
        assert!(redialed > 0, "no stranded unit recovered via reconnect");
    }
}
