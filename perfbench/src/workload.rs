//! The four workloads: what set-up builds from a seed, and the unit call
//! each one makes into the program. The program receives only these
//! generated campaign inputs; grid sizes are fixed here, so every run of
//! a workload does the same work (README.md, "Why each workload exists").

use doqlab_dox::DnsTransport;
use doqlab_measure::engine::{GridUnit, UnitGrid};
use doqlab_measure::impairments::{
    run_impairment_unit, standard_sweep, ImpairmentSample, ImpairmentsCampaign,
};
use doqlab_measure::populations::{
    cohort_resolver, run_population_unit, PopulationSample, PopulationsCampaign,
    POPULATION_TRANSPORTS, POPULATION_VPS,
};
use doqlab_measure::single_query::{run_unit_in, SingleQueryCampaign, SingleQuerySample};
use doqlab_measure::webperf::{run_webperf_unit, WebperfCampaign, WebperfSample};
use doqlab_measure::{
    run_impairments_campaign, run_populations_campaign, run_single_query_campaign,
    run_webperf_campaign, vantage_points, Scale, VantagePoint,
};
use doqlab_resolver::{synthesize_dox_population, ResolverProfile};
use doqlab_simnet::{Duration, Simulator};
use doqlab_webperf::{tranco_top10, PageProfile};

/// Resolvers on the pageload grid (× 10 pages × 5 transports × 6 vantage
/// points).
const PAGELOAD_RESOLVERS: usize = 4;
/// Resolvers on the lossy grid (× 4 regimes × 5 transports × 6 vantage
/// points).
const LOSSY_RESOLVERS: usize = 40;
/// Simulated clients over the population grid's 16 cohort slots, sized so
/// that a whole one-worker pass over the 48 cohorts takes about a second
/// and a half. Their window is shortened to keep the quick scale's
/// per-cohort query rate (see [`population_window`]).
const POPULATION_CLIENTS: u64 = 240;
/// Workers of the population workload (README.md, "Post-mortem").
const POPULATION_WORKERS: usize = 1;
/// Workers of the other workloads: one per vCPU of the reference machine.
const WORKERS: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Handshake,
    Pageload,
    Population,
    Lossy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Handshake,
        Workload::Pageload,
        Workload::Population,
        Workload::Lossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Handshake => "handshake",
            Workload::Pageload => "pageload",
            Workload::Population => "population",
            Workload::Lossy => "lossy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine workers pulling this workload's units.
    pub fn workers(self) -> usize {
        match self {
            Workload::Population => POPULATION_WORKERS,
            _ => WORKERS,
        }
    }
}

/// The campaign configuration a workload's units run under.
pub enum Campaign {
    SingleQuery(SingleQueryCampaign),
    Webperf(WebperfCampaign),
    Populations(PopulationsCampaign),
    Impairments(ImpairmentsCampaign),
}

/// What one unit call returned.
#[derive(Debug)]
pub enum Sample {
    SingleQuery(SingleQuerySample),
    Webperf(WebperfSample),
    Population(PopulationSample),
    Impairment(ImpairmentSample),
}

/// Everything set-up builds from a seed.
pub struct Inputs {
    pub workload: Workload,
    pub vps: Vec<VantagePoint>,
    pub population: Vec<ResolverProfile>,
    pub pages: Vec<PageProfile>,
    /// Population indices of the resolvers on the grid's resolver axis;
    /// on the population grid, each vantage point's continent-local
    /// resolver instead.
    pub resolvers: Vec<usize>,
    pub campaign: Campaign,
    /// The unit grid, in the engine's canonical order.
    pub units: Vec<GridUnit>,
}

impl Inputs {
    /// Set-up: the seed's resolver population, the page profiles, the
    /// campaign and its unit grid, as the campaign function builds them.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let population = synthesize_dox_population(seed);
        let pages = tranco_top10();
        let mut vps = vantage_points();
        let quick = Scale {
            threads: workload.workers(),
            ..Scale::quick()
        };
        let positions = |scale: &Scale| -> Vec<usize> {
            scale
                .sample_resolvers(&population)
                .iter()
                .map(|p| p.index)
                .collect()
        };
        let (campaign, resolvers, grid) = match workload {
            Workload::Handshake => {
                let scale = Scale {
                    resolvers: None,
                    repetitions: 1,
                    ..quick
                };
                let resolvers = positions(&scale);
                let grid = UnitGrid {
                    vps: vps.len(),
                    resolvers: resolvers.len(),
                    pages: 1,
                    transports: DnsTransport::ALL.len(),
                    reps: scale.repetitions,
                };
                let mut c = SingleQueryCampaign::new(scale);
                c.seed = seed;
                (Campaign::SingleQuery(c), resolvers, grid)
            }
            Workload::Pageload => {
                let scale = Scale {
                    resolvers: Some(PAGELOAD_RESOLVERS),
                    pages: None,
                    rounds: 1,
                    loads_per_round: 1,
                    ..quick
                };
                let resolvers = positions(&scale);
                let grid = UnitGrid {
                    vps: vps.len(),
                    resolvers: resolvers.len(),
                    pages: pages.len(),
                    transports: DnsTransport::ALL.len(),
                    reps: scale.rounds,
                };
                let mut c = WebperfCampaign::new(scale);
                c.seed = seed;
                (Campaign::Webperf(c), resolvers, grid)
            }
            Workload::Population => {
                vps.truncate(POPULATION_VPS);
                let resolvers = vps
                    .iter()
                    .map(|vp| cohort_resolver(vp, &population).index)
                    .collect();
                let mut c = PopulationsCampaign::new(Scale {
                    clients: Some(POPULATION_CLIENTS),
                    ..quick
                });
                c.seed = seed;
                c.clients = POPULATION_CLIENTS;
                c.window = population_window(&c);
                let grid = UnitGrid {
                    vps: vps.len(),
                    resolvers: 1,
                    pages: c.alphas.len(),
                    transports: POPULATION_TRANSPORTS.len(),
                    reps: 1,
                };
                (Campaign::Populations(c), resolvers, grid)
            }
            Workload::Lossy => {
                let scale = Scale {
                    resolvers: Some(LOSSY_RESOLVERS),
                    repetitions: 1,
                    ..quick
                };
                let resolvers = positions(&scale);
                let mut c = ImpairmentsCampaign::new(scale);
                c.seed = seed;
                c.regimes = standard_sweep()
                    .into_iter()
                    .filter(|r| !r.is_zero())
                    .collect();
                let grid = UnitGrid {
                    vps: vps.len(),
                    resolvers: resolvers.len(),
                    pages: c.regimes.len(),
                    transports: DnsTransport::ALL.len(),
                    reps: c.scale.repetitions,
                };
                (Campaign::Impairments(c), resolvers, grid)
            }
        };
        Inputs {
            workload,
            vps,
            population,
            pages,
            resolvers,
            campaign,
            units: grid.units(),
        }
    }

    /// The resolver unit `u` measures.
    pub fn resolver(&self, u: &GridUnit) -> &ResolverProfile {
        let slot = match self.workload {
            Workload::Population => u.vp,
            _ => u.resolver,
        };
        &self.population[self.resolvers[slot]]
    }

    /// Page loads in one pageload unit (one resolution elsewhere).
    fn attempts_per_unit(&self) -> u64 {
        match &self.campaign {
            Campaign::Webperf(c) => c.scale.loads_per_round as u64,
            _ => 1,
        }
    }

    /// Run unit `u` in a worker's arena: the call the benchmark times.
    pub fn run_unit(&self, sim: &mut Simulator, u: &GridUnit) -> Sample {
        let resolver = self.resolver(u);
        match &self.campaign {
            Campaign::SingleQuery(c) => Sample::SingleQuery(run_unit_in(
                sim,
                c,
                &self.vps[u.vp],
                resolver,
                DnsTransport::ALL[u.transport],
                u.rep,
            )),
            Campaign::Webperf(c) => Sample::Webperf(run_webperf_unit(
                sim,
                c,
                u.vp,
                resolver,
                u.page,
                &self.pages[u.page],
                DnsTransport::ALL[u.transport],
                u.rep,
            )),
            Campaign::Populations(c) => Sample::Population(run_population_unit(
                sim,
                c,
                &self.vps[u.vp],
                resolver,
                u.page,
                POPULATION_TRANSPORTS[u.transport],
                u.rep,
            )),
            Campaign::Impairments(c) => Sample::Impairment(run_impairment_unit(
                sim,
                c,
                u.vp,
                resolver,
                u.page,
                DnsTransport::ALL[u.transport],
                u.rep,
            )),
        }
    }

    /// The same grid through the program's campaign function: the
    /// reference the benchmark's passes must reproduce sample for sample.
    pub fn run_campaign(&self) -> Vec<Sample> {
        match &self.campaign {
            Campaign::SingleQuery(c) => run_single_query_campaign(c, &self.population)
                .into_iter()
                .map(Sample::SingleQuery)
                .collect(),
            Campaign::Webperf(c) => run_webperf_campaign(c, &self.population, &self.pages)
                .into_iter()
                .map(Sample::Webperf)
                .collect(),
            Campaign::Populations(c) => run_populations_campaign(c, &self.population)
                .into_iter()
                .map(Sample::Population)
                .collect(),
            Campaign::Impairments(c) => run_impairments_campaign(c, &self.population)
                .into_iter()
                .map(Sample::Impairment)
                .collect(),
        }
    }
}

/// The campaign's day shortened in the ratio of the workload's clients to
/// the quick scale's, so that each cohort's stub sees quick's query rate.
/// The rate, not the client count, sets how often a cached answer is
/// still live when it is asked for again: at quick's rate the workload
/// reproduces quick's cache-hit, coalescing and pool-reuse shares
/// (README.md, "Why each workload exists") with an eighth of its queries.
fn population_window(c: &PopulationsCampaign) -> Duration {
    let quick_clients = Scale::quick()
        .clients
        .expect("the quick scale fixes its client count");
    let nanos = c.window.as_nanos() * u128::from(c.clients) / u128::from(quick_clients);
    Duration::from_nanos(nanos as u64)
}

impl Sample {
    /// Does the sample hold together as the result of unit `u`: its
    /// coordinates, the failure taxonomy, bytes moved, and the stub's
    /// query conservation?
    pub fn is_valid(&self, inputs: &Inputs, u: &GridUnit) -> bool {
        let resolver = inputs.resolver(u).index;
        let transport = DnsTransport::ALL[u.transport];
        let query_ok = |s: &SingleQuerySample| {
            s.vp == u.vp
                && s.resolver == resolver
                && s.transport == transport
                && s.failed == s.resolve_ms.is_none()
                && s.bytes.total() > 0
        };
        match self {
            Sample::SingleQuery(s) => query_ok(s),
            Sample::Impairment(s) => {
                s.regime == u.page && s.sample.failed == s.failure.is_some() && query_ok(&s.sample)
            }
            Sample::Webperf(s) => {
                s.vp == u.vp
                    && s.resolver == resolver
                    && s.page == u.page
                    && s.transport == transport
                    && s.loads_failed as u64 <= inputs.attempts_per_unit()
                    && (s.failed || (s.fcp_ms.is_finite() && s.plt_ms.is_finite()))
            }
            Sample::Population(s) => {
                let st = &s.stats;
                s.vp == u.vp
                    && s.resolver == resolver
                    && s.alpha_idx == u.page
                    && s.transport == POPULATION_TRANSPORTS[u.transport]
                    && st.queries > 0
                    && st.failed <= st.queries
                    && st.cache_hits + st.coalesced + st.upstream_queries == st.queries
            }
        }
    }

    /// `(successes, attempts)`: a resolution that ended with a valid
    /// answer, a page load that completed, or — in a population cohort —
    /// each client query answered, out of those attempted.
    pub fn outcome(&self, inputs: &Inputs) -> (u64, u64) {
        match self {
            Sample::SingleQuery(s) => (u64::from(!s.failed), 1),
            Sample::Impairment(s) => (u64::from(!s.sample.failed), 1),
            Sample::Webperf(s) => {
                let loads = inputs.attempts_per_unit();
                (loads.saturating_sub(s.loads_failed as u64), loads)
            }
            Sample::Population(s) => (
                s.stats.queries.saturating_sub(s.stats.failed),
                s.stats.queries,
            ),
        }
    }
}
