//! The population-scale campaign: Zipf workloads behind shared stub
//! caches over pooled connections, `doqlab measure populations`.
//!
//! The paper's §3 measures one query at a time; what an operator or a
//! browser vendor actually cares about is the *aggregate* behavior of
//! encrypted DNS once whole client populations sit behind stubs. Each
//! unit of this campaign is one `[vantage point : alpha : transport]`
//! **cohort**: `clients / cohorts` simulated clients multiplexed behind
//! one [`StubResolverHost`] (shared positive + RFC 2308 negative cache,
//! query coalescing, pooled upstream connection), issuing
//! Zipf(alpha)-popular queries along a diurnal arrival process over a
//! simulated day against that vantage point's continent-local resolver.
//!
//! Reproducibility contracts (pinned by the engine invariance tests):
//!
//! * bit-identical output across thread counts and repeated runs at a
//!   fixed seed — all randomness flows through the unit's seeded RNG,
//!   never the wall clock;
//! * the **degenerate** campaign (`degenerate()`: one client, no cache,
//!   one query) routes through [`run_unit_custom`] with default options
//!   and the single-query campaign's own seeds, so its samples
//!   reproduce that campaign bit for bit.
//!
//! Scale knobs: [`Scale::clients`] (quick 2·10³, medium 2·10⁴, paper
//! 10⁵), which the binaries set from `DOQLAB_CLIENTS`.

use crate::engine;
use crate::single_query::{
    run_unit_custom, transport_byte_counter, SingleQueryCampaign, SingleQuerySample, UnitOptions,
};
use crate::vantage::{vantage_points, VantagePoint};
use crate::Scale;
use doqlab_dox::{ClientConfig, DnsTransport};
use doqlab_resolver::{
    ClientPopulation, RecursionModel, ResolverHost, ResolverProfile, StubResolverHost, StubStats,
    WorkloadGen, WorkloadSpec,
};
use doqlab_simnet::path::{GeoPathModel, GeoPathParams};
use doqlab_simnet::{Duration, Ipv4Addr, Simulator, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};

/// The four transports a population cohort is measured over (the
/// encrypted trio of the paper plus the DoUDP baseline; DoTCP adds
/// nothing a pooled DoT cohort doesn't already show).
pub const POPULATION_TRANSPORTS: [DnsTransport; 4] = [
    DnsTransport::DoUdp,
    DnsTransport::DoT,
    DnsTransport::DoH,
    DnsTransport::DoQ,
];

/// Vantage points hosting population cohorts: the first four of the
/// study's six (EU, AS, NA, AF) — the continents with nontrivial
/// resolver presence.
pub const POPULATION_VPS: usize = 4;

/// Default total client count (the paper-scale population; 10⁶ works
/// but takes correspondingly longer).
pub const DEFAULT_CLIENTS: u64 = 100_000;

/// Campaign configuration. The seed doubles as the single-query
/// campaign seed so the degenerate campaign reproduces its samples
/// exactly.
#[derive(Debug, Clone)]
pub struct PopulationsCampaign {
    pub seed: u64,
    pub scale: Scale,
    /// Total simulated clients, split evenly over the cohorts.
    pub clients: u64,
    /// Zipf exponents swept (each rides the grid's `pages` axis).
    pub alphas: Vec<f64>,
    /// Mean queries per client over the window (~a day of stub load).
    pub queries_per_client: f64,
    /// Distinct names in the popularity table.
    pub domains: usize,
    /// Fraction of the table that is NXDOMAIN tail.
    pub nxdomain_tail: f64,
    /// The simulated day.
    pub window: Duration,
    /// Pool idle timeout on the stub's upstream connection.
    pub pool_idle: Duration,
    pub reconnect_max: u32,
    pub reconnect_backoff: Duration,
    /// Degenerate mode: 1 client, no cache, single-query units
    /// (bit-identical to [`crate::single_query`]).
    pub degenerate: bool,
    pub path_params: GeoPathParams,
}

/// Domain separation for population unit seeds (the degenerate campaign
/// deliberately does NOT use it).
const POP_SEED_DOMAIN: u64 = 0xC0_0817_2022;

impl PopulationsCampaign {
    pub fn new(scale: Scale) -> Self {
        let sq = SingleQueryCampaign::new(scale.clone());
        PopulationsCampaign {
            seed: sq.seed,
            clients: scale.clients.unwrap_or(DEFAULT_CLIENTS),
            scale,
            alphas: vec![0.75, 0.9, 1.05],
            queries_per_client: 100.0,
            domains: 1000,
            nxdomain_tail: 0.15,
            window: Duration::from_secs(86_400),
            pool_idle: Duration::from_secs(10),
            reconnect_max: 2,
            reconnect_backoff: Duration::from_millis(250),
            degenerate: false,
            path_params: GeoPathParams::default(),
        }
    }

    /// The degenerate campaign: one client, no cache, one query per
    /// unit — every unit is a plain single-query unit and reproduces
    /// that campaign's samples bit for bit.
    pub fn degenerate(scale: Scale) -> Self {
        PopulationsCampaign {
            degenerate: true,
            clients: 1,
            alphas: vec![0.9],
            ..PopulationsCampaign::new(scale)
        }
    }

    /// The single-query campaign the degenerate units embed.
    fn single_query(&self) -> SingleQueryCampaign {
        SingleQueryCampaign {
            seed: self.seed,
            scale: self.scale.clone(),
            use_resumption: true,
            path_params: self.path_params.clone(),
        }
    }

    /// The client split across cohorts.
    pub fn population(&self) -> ClientPopulation {
        ClientPopulation::new(
            self.clients,
            (POPULATION_VPS * POPULATION_TRANSPORTS.len()) as u64,
        )
    }
}

/// One cohort's day: per-stub accounting plus the network-level totals
/// of its micro-simulation.
#[derive(Debug, Clone)]
pub struct PopulationSample {
    pub vp: usize,
    pub vp_name: &'static str,
    pub resolver: usize,
    pub alpha_idx: usize,
    pub alpha: f64,
    pub transport: DnsTransport,
    /// Clients behind this cohort's stub.
    pub clients: u64,
    /// Window length in (simulated) seconds.
    pub window_s: f64,
    /// The stub's client-side accounting.
    pub stats: StubStats,
    /// Cache-eviction count (lookups that found an expired entry).
    pub cache_expired: u64,
    /// Entries resident in the stub cache at the end of the day.
    pub cache_entries: usize,
    pub pool_reuses: u64,
    pub pool_evictions: u32,
    pub reconnects: u32,
    /// Queries the upstream resolver actually served — its load.
    pub resolver_queries: u64,
    /// Aggregate IP payload bytes the cohort's traffic moved.
    pub bytes_delivered: u64,
    pub packets_delivered: u64,
    /// Sparse client resolve-time histogram (`bucket_index` buckets;
    /// bucket 0 = zero-latency cache hits).
    pub resolve_hist: Vec<(u32, u64)>,
    /// Degenerate mode only: the embedded single-query sample.
    pub baseline: Option<SingleQuerySample>,
}

/// Pick the cohort's upstream resolver: the first profile on the
/// vantage point's own continent (every population vantage point has
/// one), falling back to the population head.
pub fn cohort_resolver<'a>(
    vp: &VantagePoint,
    population: &'a [ResolverProfile],
) -> &'a ResolverProfile {
    population
        .iter()
        .find(|p| p.continent == vp.continent)
        .unwrap_or(&population[0])
}

/// Extra simulated time after the window closes, letting in-flight
/// queries finish and the final idle eviction fire.
const DRAIN: Duration = Duration::from_secs(60);

/// Run one `[vp : alpha : transport]` cohort unit in a reusable
/// simulator arena.
pub fn run_population_unit(
    sim: &mut Simulator,
    campaign: &PopulationsCampaign,
    vp: &VantagePoint,
    profile: &ResolverProfile,
    alpha_idx: usize,
    transport: DnsTransport,
    rep: usize,
) -> PopulationSample {
    let alpha = campaign.alphas[alpha_idx];
    let clients = campaign.population().per_cohort();
    if campaign.degenerate {
        // One client, no cache, one query: exactly the single-query
        // unit, on that campaign's own seeds (run_unit_custom counts
        // the unit into telemetry itself).
        let sq = campaign.single_query();
        let out = run_unit_custom(
            sim,
            &sq,
            vp,
            profile,
            transport,
            rep,
            &UnitOptions::default(),
        );
        return PopulationSample {
            vp: vp.index,
            vp_name: vp.name,
            resolver: profile.index,
            alpha_idx,
            alpha,
            transport,
            clients: 1,
            window_s: 0.0,
            stats: StubStats::default(),
            cache_expired: 0,
            cache_entries: 0,
            pool_reuses: 0,
            pool_evictions: 0,
            reconnects: out.reconnects,
            resolver_queries: 0,
            bytes_delivered: 0,
            packets_delivered: 0,
            resolve_hist: Vec::new(),
            baseline: Some(out.sample),
        };
    }

    let seed = engine::unit_seed(
        campaign.seed ^ POP_SEED_DOMAIN,
        &[
            vp.index as u64,
            alpha_idx as u64,
            transport as u64,
            rep as u64,
        ],
    );
    let mut path = GeoPathModel::new(campaign.path_params.clone());
    let stub_ip = Ipv4Addr::new(10, 20, vp.index as u8 + 1, 1);
    path.place(stub_ip, vp.location);
    path.place(profile.ip, profile.location);
    sim.reset(seed, Box::new(path));

    let rid = sim.add_host(
        Box::new(ResolverHost::new(
            profile.server_config(),
            RecursionModel::default(),
        )),
        &[profile.ip],
    );
    let cfg = ClientConfig {
        pool_idle_timeout: Some(campaign.pool_idle),
        reconnect_max: campaign.reconnect_max,
        reconnect_backoff: campaign.reconnect_backoff,
        ..ClientConfig::default()
    };
    let spec = WorkloadSpec {
        clients,
        queries_per_client: campaign.queries_per_client,
        window: campaign.window,
        alpha,
        domains: campaign.domains,
        nxdomain_tail: campaign.nxdomain_tail,
    };
    let stub = StubResolverHost::new(
        transport,
        SocketAddr::new(stub_ip, 40_000),
        SocketAddr::new(profile.ip, transport.port()),
        &cfg,
        WorkloadGen::new(spec),
        true,
    );
    let sid = sim.add_host(Box::new(stub), &[stub_ip]);
    sim.with_host::<StubResolverHost, _>(sid, |s, ctx| s.prime(ctx));
    let start = sim.now();
    sim.run_until(start + campaign.window + DRAIN);

    let net = sim.stats();
    let resolver_queries = sim.host::<ResolverHost>(rid).queries_served;
    let stub = sim.host::<StubResolverHost>(sid);
    metrics::count(Counter::UnitsRun, 1);
    metrics::count(transport_byte_counter(transport), net.bytes_delivered);

    PopulationSample {
        vp: vp.index,
        vp_name: vp.name,
        resolver: profile.index,
        alpha_idx,
        alpha,
        transport,
        clients,
        window_s: campaign.window.as_secs_f64(),
        stats: stub.stats(),
        cache_expired: stub.cache().expired(),
        cache_entries: stub.cache().len(),
        pool_reuses: stub.upstream().pool_reuses(),
        pool_evictions: stub.upstream().pool_evictions(),
        reconnects: stub.upstream().reconnects(),
        resolver_queries,
        bytes_delivered: net.bytes_delivered,
        packets_delivered: net.packets_delivered,
        resolve_hist: stub.resolve_hist(),
        baseline: None,
    }
}

/// Run the campaign: every population vantage point x alpha x transport
/// cohort, scheduled by the work-stealing engine on per-worker
/// simulator arenas (alphas ride the grid's `pages` axis; each unit is
/// already a whole simulated day, so the repetition axis stays 1).
/// Output order and content are independent of thread count.
pub fn run_populations_campaign(
    campaign: &PopulationsCampaign,
    population: &[ResolverProfile],
) -> Vec<PopulationSample> {
    let all_vps = vantage_points();
    let vps = &all_vps[..POPULATION_VPS.min(all_vps.len())];
    let grid = engine::UnitGrid {
        vps: vps.len(),
        resolvers: 1,
        pages: campaign.alphas.len(),
        transports: POPULATION_TRANSPORTS.len(),
        reps: 1,
    };
    let units = grid.units();
    engine::run_units(
        campaign.scale.threads,
        &units,
        Simulator::arena,
        |sim, u, _| {
            run_population_unit(
                sim,
                campaign,
                &vps[u.vp],
                cohort_resolver(&vps[u.vp], population),
                u.page,
                POPULATION_TRANSPORTS[u.transport],
                u.rep,
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_query::run_unit_in;
    use doqlab_resolver::synthesize_dox_population;

    fn tiny_campaign() -> (PopulationsCampaign, Vec<ResolverProfile>) {
        let scale = Scale {
            clients: Some(256),
            threads: 2,
            ..Scale::quick()
        };
        let mut c = PopulationsCampaign::new(scale);
        // A compressed day keeps the test fast while preserving the
        // cacheable per-cohort rate (16 clients x 100 queries / 2 h).
        c.window = Duration::from_secs(7_200);
        (c, synthesize_dox_population(1))
    }

    #[test]
    fn campaign_produces_the_full_cohort_grid() {
        let (c, pop) = tiny_campaign();
        let samples = run_populations_campaign(&c, &pop);
        check_grid(&c, &samples);
        check_hit_ratio_grows_with_alpha(&c, &samples);
    }

    fn check_grid(c: &PopulationsCampaign, samples: &[PopulationSample]) {
        // 4 vps x 3 alphas x 4 transports.
        assert_eq!(samples.len(), 48);
        for s in samples {
            assert_eq!(s.clients, 16);
            assert!(s.stats.queries > 0, "{s:?}");
            // Conservation: every client query was a hit, a coalesced
            // join, an upstream query, or arrived while one of those
            // was still pending at day end.
            assert!(
                s.stats.cache_hits + s.stats.coalesced + s.stats.upstream_queries
                    == s.stats.queries,
                "{s:?}"
            );
            assert!(s.bytes_delivered > 0);
            assert!(s.resolver_queries > 0);
            assert!(!s.resolve_hist.is_empty());
            assert!(s.baseline.is_none());
        }
        // The stub cache must be doing real work somewhere.
        assert!(samples.iter().any(|s| s.stats.cache_hits > 0));
        assert!(samples.iter().any(|s| s.stats.negative_hits > 0));
        // Pooling must amortize handshakes on the encrypted transports.
        assert!(samples
            .iter()
            .filter(|s| s.transport != DnsTransport::DoUdp)
            .any(|s| s.pool_reuses > 0));
        let _ = c;
    }

    fn check_hit_ratio_grows_with_alpha(c: &PopulationsCampaign, samples: &[PopulationSample]) {
        let hit_ratio = |alpha_idx: usize| {
            let (hits, queries) = samples
                .iter()
                .filter(|s| s.alpha_idx == alpha_idx)
                .fold((0u64, 0u64), |(h, q), s| {
                    (h + s.stats.cache_hits, q + s.stats.queries)
                });
            hits as f64 / queries.max(1) as f64
        };
        let (lo, hi) = (hit_ratio(0), hit_ratio(2));
        assert!(lo > 0.0, "alpha {} produced no hits", c.alphas[0]);
        assert!(
            hi > lo,
            "hit ratio did not grow with alpha: {lo:.3} -> {hi:.3}"
        );
    }

    #[test]
    fn campaign_is_deterministic_and_thread_invariant() {
        let (mut c, pop) = tiny_campaign();
        // One alpha and a shorter day: the invariance contract doesn't
        // need the full sweep, and this test runs the campaign thrice.
        c.alphas = vec![0.9];
        c.window = Duration::from_secs(3_600);
        let mut c1 = c.clone();
        c1.scale.threads = 1;
        let mut c4 = c.clone();
        c4.scale.threads = 4;
        let a = run_populations_campaign(&c1, &pop);
        let b = run_populations_campaign(&c4, &pop);
        let again = run_populations_campaign(&c1, &pop);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "thread-variant output");
        assert_eq!(format!("{a:?}"), format!("{again:?}"), "run-variant output");
    }

    #[test]
    fn degenerate_campaign_reproduces_single_query_samples() {
        let scale = Scale {
            threads: 2,
            ..Scale::quick()
        };
        let c = PopulationsCampaign::degenerate(scale);
        let pop = synthesize_dox_population(1);
        let samples = run_populations_campaign(&c, &pop);
        // 4 vps x 1 alpha x 4 transports.
        assert_eq!(samples.len(), 16);
        let sq = c.single_query();
        let vps = vantage_points();
        let mut sim = Simulator::arena();
        for s in &samples {
            let profile = cohort_resolver(&vps[s.vp], &pop);
            assert_eq!(profile.index, s.resolver);
            let plain = run_unit_in(&mut sim, &sq, &vps[s.vp], profile, s.transport, 0);
            assert_eq!(
                format!("{:?}", s.baseline.as_ref().unwrap()),
                format!("{plain:?}"),
                "degenerate unit diverged from the single-query unit"
            );
        }
    }
}
