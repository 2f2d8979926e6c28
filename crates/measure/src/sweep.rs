//! Regime sweeps: the single-query unit of [`crate::single_query`]
//! re-run under a list of conditions.
//!
//! Each unit is `[vantage point : resolver : regime : protocol :
//! repetition]`, with regimes riding the unit grid's `pages` axis. A
//! [`Regime`] is plain data — a name, a [`SeedRule`], the
//! [`UnitOptions`] it applies and the campaign flags it sets — so a
//! composed condition (burst loss plus a rebind plus 0-RTT, say) is one
//! more value, not one more campaign. The standard sweeps live as data
//! in [`crate::impairments`] (loss and outages), [`crate::mobility`]
//! (rebinds and failover) and [`crate::whatif`] (dormant capabilities).
//!
//! Two reproducibility contracts, pinned by the tests here and by the
//! engine invariance suite:
//!
//! * a sweep is bit-identical across thread counts and repeated runs at
//!   a fixed seed (all randomness flows through the unit's seeded RNG);
//! * a zero regime ([`Regime::is_zero`]) on the single-query seed
//!   reproduces the single-query campaign run with the same campaign
//!   flags bit for bit.

use crate::engine;
use crate::single_query::{run_unit_custom, SingleQueryCampaign, SingleQuerySample, UnitOptions};
use crate::vantage::vantage_points;
use crate::Scale;
use doqlab_dox::{DnsTransport, FailureKind};
use doqlab_resolver::ResolverProfile;
use doqlab_simnet::path::GeoPathParams;
use doqlab_simnet::Simulator;

/// How a regime's units derive their seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedRule {
    /// The single-query campaign's own unit seed: units of different
    /// regimes with the same coordinates share path draws, so per-unit
    /// deltas between them are causal.
    SingleQuery,
    /// A domain-separated seed,
    /// `unit_seed(seed ^ domain, [regime, vp, resolver, transport, rep])`:
    /// every regime resamples its units.
    Domain(u64),
}

/// One condition of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Regime {
    pub name: String,
    pub seed: SeedRule,
    /// What the regime changes about the unit. Its `seed` field must
    /// stay `None`: the seed rule decides the seed.
    pub options: UnitOptions,
    /// Present captured session material on the measured connection
    /// (`None` keeps the sweep's [`Sweep::use_resumption`]).
    pub resumption: Option<bool>,
    /// Upgrade every resolver to support 0-RTT (`None` keeps the
    /// sweep's [`Sweep::enable_0rtt_resolvers`]).
    pub zero_rtt_resolvers: Option<bool>,
}

impl Regime {
    /// The control regime: the single-query unit as it is.
    pub fn baseline() -> Self {
        Regime {
            name: "baseline".into(),
            seed: SeedRule::SingleQuery,
            options: UnitOptions::default(),
            resumption: None,
            zero_rtt_resolvers: None,
        }
    }

    /// The regime switches nothing on: single-query seeds, default unit
    /// options and no campaign flag turned on.
    pub fn is_zero(&self) -> bool {
        self.seed == SeedRule::SingleQuery
            && self.options == UnitOptions::default()
            && self.resumption != Some(true)
            && self.zero_rtt_resolvers != Some(true)
    }
}

/// One measurement under a regime: the single-query sample plus the
/// failure-taxonomy verdict and what recovery cost.
#[derive(Debug, Clone)]
pub struct SweepSample {
    pub regime: usize,
    pub regime_name: String,
    pub failure: Option<FailureKind>,
    /// Replacement connections the measured client dialed.
    pub reconnects: u32,
    /// Address rebinds actually applied to this unit.
    pub rebinds_applied: u32,
    /// First rebind to response, in milliseconds (`None` when no rebind
    /// landed, the query failed, or it answered before the rebind).
    pub switchover_ms: Option<f64>,
    /// Bytes spent on dead primaries and losing failover rungs.
    pub wasted_bytes: u64,
    /// The transport that answered under a failover race.
    pub winner: Option<DnsTransport>,
    pub sample: SingleQuerySample,
}

/// Sweep configuration. The seed doubles as the single-query campaign
/// seed, so a zero regime reproduces that campaign's samples exactly.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub seed: u64,
    pub scale: Scale,
    pub regimes: Vec<Regime>,
    pub use_resumption: bool,
    pub enable_0rtt_resolvers: bool,
    pub path_params: GeoPathParams,
}

impl Sweep {
    /// The single-query campaign's defaults and no regimes yet.
    pub fn new(scale: Scale) -> Self {
        let sq = SingleQueryCampaign::new(scale);
        Sweep {
            seed: sq.seed,
            scale: sq.scale,
            regimes: Vec::new(),
            use_resumption: sq.use_resumption,
            enable_0rtt_resolvers: sq.enable_0rtt_resolvers,
            path_params: sq.path_params,
        }
    }

    /// The single-query campaign a regime's units embed: the regime's
    /// campaign flags where it sets them, the sweep's elsewhere.
    fn single_query(&self, regime: &Regime) -> SingleQueryCampaign {
        SingleQueryCampaign {
            seed: self.seed,
            scale: self.scale.clone(),
            use_resumption: regime.resumption.unwrap_or(self.use_resumption),
            enable_0rtt_resolvers: regime
                .zero_rtt_resolvers
                .unwrap_or(self.enable_0rtt_resolvers),
            path_params: self.path_params.clone(),
        }
    }
}

/// Run one `[vp : resolver : regime : protocol : repetition]` unit in a
/// reusable simulator arena.
pub fn run_sweep_unit(
    sim: &mut Simulator,
    sweep: &Sweep,
    vp: usize,
    profile: &ResolverProfile,
    regime_idx: usize,
    transport: DnsTransport,
    rep: usize,
) -> SweepSample {
    let regime = &sweep.regimes[regime_idx];
    debug_assert!(
        regime.options.seed.is_none(),
        "regime {:?} sets a seed; use its seed rule",
        regime.name
    );
    let mut opts = regime.options.clone();
    opts.seed = match regime.seed {
        SeedRule::SingleQuery => None,
        SeedRule::Domain(domain) => Some(engine::unit_seed(
            sweep.seed ^ domain,
            &[
                regime_idx as u64,
                vp as u64,
                profile.index as u64,
                transport as u64,
                rep as u64,
            ],
        )),
    };
    // A unit never races its own transport.
    if let Some(p) = &mut opts.failover {
        p.ladder.retain(|t| *t != transport);
    }
    let vps = vantage_points();
    let sq = sweep.single_query(regime);
    let out = run_unit_custom(sim, &sq, &vps[vp], profile, transport, rep, &opts);
    let first_rebind_ms = out.first_rebind_at.map(|t| t.as_millis_f64());
    let response_ms = out
        .sample
        .resolve_ms
        .map(|ms| out.hs_done.unwrap_or(out.started).as_millis_f64() + ms);
    let switchover_ms = match (first_rebind_ms, response_ms) {
        (Some(rb), Some(resp)) if resp >= rb => Some(resp - rb),
        _ => None,
    };
    SweepSample {
        regime: regime_idx,
        regime_name: regime.name.clone(),
        failure: out.failure,
        reconnects: out.reconnects,
        rebinds_applied: out.rebinds_applied,
        switchover_ms,
        wasted_bytes: out.wasted_bytes,
        winner: out.winner,
        sample: out.sample,
    }
}

/// Run the sweep: every vantage point x resolver x regime x protocol x
/// repetition, scheduled by the work-stealing engine on per-worker
/// simulator arenas. Output order and content are independent of
/// thread count.
pub fn run_sweep(sweep: &Sweep, population: &[ResolverProfile]) -> Vec<SweepSample> {
    let vps = vantage_points();
    let resolvers = sweep.scale.sample_resolvers(population);
    let grid = engine::UnitGrid {
        vps: vps.len(),
        resolvers: resolvers.len(),
        pages: sweep.regimes.len(),
        transports: DnsTransport::ALL.len(),
        reps: sweep.scale.repetitions,
    };
    let units = grid.units();
    engine::run_units(
        engine::env_threads(sweep.scale.threads),
        &units,
        Simulator::arena,
        |sim, u, _| {
            run_sweep_unit(
                sim,
                sweep,
                u.vp,
                resolvers[u.resolver],
                u.page,
                DnsTransport::ALL[u.transport],
                u.rep,
            )
        },
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::single_query::run_single_query_campaign;
    use crate::{impairments, mobility, whatif};
    use doqlab_resolver::synthesize_dox_population;
    use doqlab_simnet::Duration;

    /// 6 vps x 2 resolvers x 5 protocols x 1 rep per regime.
    pub(crate) fn tiny_sweep(regimes: Vec<Regime>) -> (Sweep, Vec<ResolverProfile>) {
        let scale = Scale {
            resolvers: Some(2),
            repetitions: 1,
            threads: 2,
            ..Scale::quick()
        };
        (
            Sweep {
                regimes,
                ..Sweep::new(scale)
            },
            synthesize_dox_population(1),
        )
    }

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

    #[test]
    fn standard_sweep_leads_with_a_zero_baseline() {
        for (name, sweep) in standard_sweeps() {
            let (baseline, rest) = (&sweep[0], &sweep[1..]);
            assert_eq!(baseline.name, "baseline", "{name}");
            assert!(baseline.is_zero(), "{name}");
            assert_eq!(baseline.options.reconnect_max, 0, "{name}");
            assert!(baseline.options.query_deadline.is_none(), "{name}");
            assert!(rest.iter().all(|r| !r.is_zero()), "{name}");
            let deadlines = rest.iter().all(|r| r.options.query_deadline.is_some());
            match name {
                "impairments" => assert!(deadlines),
                "mobility" => {
                    assert!(deadlines);
                    assert!(rest.iter().all(|r| !r.options.rebinds.is_empty()));
                }
                _ => {
                    // The paper's world: no resumption, no 0-RTT.
                    assert_eq!(baseline.resumption, Some(false));
                    assert_eq!(baseline.zero_rtt_resolvers, Some(false));
                    // 0-RTT implies resumption: early data needs a ticket.
                    let zrtt = rest.iter().find(|r| r.zero_rtt_resolvers == Some(true));
                    assert_eq!(zrtt.expect("0rtt regime").resumption, Some(true));
                    let names: Vec<&str> = sweep.iter().map(|r| r.name.as_str()).collect();
                    assert_eq!(
                        names,
                        ["baseline", "resumption", "0rtt", "tfo", "keepalive", "doh3"]
                    );
                }
            }
        }
    }

    #[test]
    fn campaign_produces_the_full_regime_grid() {
        for (name, regimes) in standard_sweeps() {
            let (c, pop) = tiny_sweep(regimes);
            let samples = run_sweep(&c, &pop);
            // 60 units per regime; impairments and mobility have 5
            // regimes, what-if 6.
            let units = if name == "whatif" { 360 } else { 300 };
            assert_eq!(samples.len(), units, "{name}");
            for (i, r) in c.regimes.iter().enumerate() {
                let of_r: Vec<_> = samples.iter().filter(|s| s.regime == i).collect();
                assert_eq!(of_r.len(), 60, "{name}");
                assert!(of_r.iter().all(|s| s.regime_name == r.name), "{name}");
            }
            for s in &samples {
                // Failed units carry a taxonomy verdict; successes never do.
                assert_eq!(s.sample.failed, s.failure.is_some(), "{s:?}");
                assert!(s.rebinds_applied > 0 || s.switchover_ms.is_none(), "{s:?}");
                // Every unit of the bare-rebind regime got its rebind.
                if name == "mobility" && s.regime == 1 {
                    assert!(s.rebinds_applied >= 1, "{s:?}");
                }
                // The doh3 regime substitutes DoH3 for every DoH unit; no
                // other regime runs DoH3.
                if name == "whatif" && s.regime_name == "doh3" {
                    assert_ne!(s.sample.transport, DnsTransport::DoH, "{s:?}");
                } else {
                    assert_ne!(s.sample.transport, DnsTransport::DoH3, "{s:?}");
                }
            }
            if name == "whatif" {
                let h3 = samples
                    .iter()
                    .filter(|s| s.sample.transport == DnsTransport::DoH3);
                assert_eq!(h3.count(), 12, "6 vps x 2 resolvers of DoH3");
            }
        }
    }

    #[test]
    fn baseline_regime_reproduces_single_query_samples() {
        for (name, regimes) in standard_sweeps() {
            let (c, pop) = tiny_sweep(regimes);
            assert_eq!(c.seed, 0xD05_2022);
            assert!(c.use_resumption && !c.enable_0rtt_resolvers);
            let swept = run_sweep(&c, &pop);
            // The reference spells out each baseline's campaign flags:
            // the sweep defaults (resumption on, no 0-RTT resolvers) for
            // impairments and mobility, the paper's world (both off) for
            // what-if.
            let plain = run_single_query_campaign(
                &SingleQueryCampaign {
                    use_resumption: name != "whatif",
                    enable_0rtt_resolvers: false,
                    ..SingleQueryCampaign::new(c.scale.clone())
                },
                &pop,
            );
            let baseline: Vec<_> = swept.iter().filter(|s| s.regime == 0).collect();
            assert_eq!(baseline.len(), plain.len(), "{name}");
            if name == "whatif" {
                assert!(baseline.iter().all(|b| !b.sample.metadata.resumed));
            }
            for (b, p) in baseline.iter().zip(&plain) {
                assert_eq!(
                    format!("{:?}", b.sample),
                    format!("{p:?}"),
                    "{name}: baseline diverged from the single-query campaign"
                );
                assert_eq!(b.reconnects, 0);
                assert_eq!(b.rebinds_applied, 0);
                assert_eq!(b.wasted_bytes, 0);
                assert!(b.winner.is_none());
            }
        }
    }

    #[test]
    fn deadline_only_regime_applies_its_policy() {
        // A regime that sets only a resilience policy still runs it: a
        // 1 ms deadline expires before any transport can answer.
        let regime = Regime {
            name: "deadline".into(),
            options: UnitOptions {
                query_deadline: Some(Duration::from_millis(1)),
                ..UnitOptions::default()
            },
            ..Regime::baseline()
        };
        assert!(!regime.is_zero());
        let (c, pop) = tiny_sweep(vec![regime]);
        let samples = run_sweep(&c, &pop);
        assert_eq!(samples.len(), 60);
        for s in &samples {
            assert!(s.sample.failed, "{s:?}");
            assert_eq!(s.failure, Some(FailureKind::DeadlineExceeded), "{s:?}");
        }
    }

    #[test]
    fn composed_regime_ends_every_unit_in_one_verdict() {
        // The chaos impairment (burst loss, a mid-query outage,
        // reordering, duplication) on the rebind-failover regime, with
        // resumption and 0-RTT-capable resolvers: every unit ends in an
        // answer or exactly one failure kind, at any thread count.
        let chaos = impairments::standard_sweep().remove(4);
        let failover = mobility::standard_mobility_sweep(
            mobility::DEFAULT_REBIND_AT,
            mobility::DEFAULT_STAGGER,
        )
        .remove(3);
        let composed = Regime {
            name: "composed".into(),
            seed: chaos.seed,
            options: UnitOptions {
                impairment: chaos.options.impairment,
                ..failover.options
            },
            resumption: Some(true),
            zero_rtt_resolvers: Some(true),
        };
        let runs: Vec<String> = [1, 2]
            .into_iter()
            .map(|threads| {
                let (mut c, pop) = tiny_sweep(vec![composed.clone()]);
                c.scale.threads = threads;
                let samples = run_sweep(&c, &pop);
                assert_eq!(samples.len(), 60);
                for s in &samples {
                    assert_eq!(s.sample.failed, s.failure.is_some(), "{s:?}");
                    assert_eq!(s.sample.failed, s.sample.resolve_ms.is_none(), "{s:?}");
                }
                format!("{samples:?}")
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 thread vs 2 threads");
    }
}
