//! # doqlab-core — the public facade
//!
//! One entry point for the whole reproduction of *"DNS Privacy with
//! Speed? Evaluating DNS over QUIC and its Impact on Web Performance"*
//! (IMC 2022): configure a [`Study`], run the campaigns, reduce them to
//! the paper's tables and figures.
//!
//! ```
//! use doqlab_core::Study;
//!
//! let study = Study::quick(42);
//! let samples = study.run_single_query();
//! let table1 = doqlab_core::measure::report::table1(&samples);
//! println!("{}", doqlab_core::measure::report::render_table1(&table1));
//! ```
//!
//! The subsystem crates are re-exported for direct access:
//! [`simnet`] (the discrete-event simulator), [`dnswire`] (the DNS
//! codec), [`netstack`] (TCP/TLS/QUIC/HTTP2), [`dox`] (the five DNS
//! transports), [`resolver`], [`webperf`], [`measure`] and
//! [`telemetry`] (qlog event tracing and lock-free metrics).

pub use doqlab_dnswire as dnswire;
pub use doqlab_dox as dox;
pub use doqlab_measure as measure;
pub use doqlab_netstack as netstack;
pub use doqlab_resolver as resolver;
pub use doqlab_simnet as simnet;
pub use doqlab_telemetry as telemetry;
pub use doqlab_webperf as webperf;

use doqlab_dox::DnsTransport;
use doqlab_measure::discovery::DiscoveryReport;
use doqlab_measure::populations::{PopulationSample, PopulationsCampaign};
use doqlab_measure::single_query::{SingleQueryCampaign, SingleQuerySample};
use doqlab_measure::webperf::{WebperfCampaign, WebperfSample};
use doqlab_measure::{Regime, Scale, Sweep, SweepSample};
use doqlab_resolver::{
    synthesize_dox_population, synthesize_scan_population, ResolverProfile, ScannedHost,
};
use doqlab_webperf::{tranco_top10, PageProfile};

/// Everything the paper's methodology needs, in one place.
#[derive(Debug, Clone)]
pub struct Study {
    pub seed: u64,
    pub scale: Scale,
    /// §2: present Session Resumption material on measured queries.
    pub use_resumption: bool,
    /// §3.2: reproduce the dnsproxy DoT reconnect bug.
    pub dot_bug: bool,
    /// §4 future work: resolvers support 0-RTT.
    pub zero_rtt_resolvers: bool,
}

impl Study {
    /// Small-scale study (tests, examples): a representative subset.
    pub fn quick(seed: u64) -> Study {
        Study {
            seed,
            scale: Scale::quick(),
            use_resumption: true,
            dot_bug: true,
            zero_rtt_resolvers: false,
        }
    }

    /// Mid-size: the full resolver population, fewer repetitions.
    pub fn medium(seed: u64) -> Study {
        Study {
            scale: Scale::medium(),
            ..Study::quick(seed)
        }
    }

    /// The paper's full sample counts (~157k single-query samples and
    /// ~56k Web samples per protocol).
    pub fn paper(seed: u64) -> Study {
        Study {
            scale: Scale::paper(),
            ..Study::quick(seed)
        }
    }

    /// The 313 verified DoX resolvers (§2 distributions).
    pub fn population(&self) -> Vec<ResolverProfile> {
        synthesize_dox_population(self.seed)
    }

    /// The wider scan population (1,216 DoQ resolvers + QUIC hosts).
    pub fn scan_population(&self, extra_quic: usize) -> Vec<ScannedHost> {
        synthesize_scan_population(self.seed, extra_quic)
    }

    /// The Tranco top-10 page profiles.
    pub fn pages(&self) -> Vec<PageProfile> {
        tranco_top10()
    }

    /// §2 discovery funnel.
    pub fn run_discovery(&self, population: &[ScannedHost]) -> DiscoveryReport {
        doqlab_measure::run_discovery(population)
    }

    fn single_query_campaign(&self) -> SingleQueryCampaign {
        let mut c = SingleQueryCampaign::new(self.scale.clone());
        c.seed = self.seed;
        c.use_resumption = self.use_resumption;
        c.enable_0rtt_resolvers = self.zero_rtt_resolvers;
        c
    }

    /// §3.1 single-query campaign over the study population.
    pub fn run_single_query(&self) -> Vec<SingleQuerySample> {
        let population = self.population();
        doqlab_measure::run_single_query_campaign(&self.single_query_campaign(), &population)
    }

    /// qlog-trace one single-query unit per transport (`doqlab trace
    /// single-query`).
    pub fn trace_single_query(&self) -> doqlab_measure::TraceRun {
        let population = self.population();
        doqlab_measure::trace_single_query(&self.single_query_campaign(), &population)
    }

    /// A regime sweep (`doqlab measure impairments|mobility|whatif`):
    /// single-query units re-run under each regime, for example
    /// [`measure::impairments::standard_sweep`]. Shares the study seed
    /// and campaign flags with the single-query campaign, so a zero
    /// regime reproduces that campaign's samples bit for bit; a regime
    /// that sets a campaign flag overrides the study's.
    pub fn run_sweep(&self, regimes: Vec<Regime>) -> Vec<SweepSample> {
        let population = self.population();
        let sweep = Sweep {
            seed: self.seed,
            regimes,
            use_resumption: self.use_resumption,
            enable_0rtt_resolvers: self.zero_rtt_resolvers,
            ..Sweep::new(self.scale.clone())
        };
        doqlab_measure::run_sweep(&sweep, &population)
    }

    /// The population-scale campaign (`doqlab measure populations`):
    /// Zipf-workload client cohorts behind shared stub caches over
    /// pooled connections, one simulated day per cohort. Shares the
    /// study seed with the single-query campaign so the degenerate
    /// variant reproduces its samples bit for bit.
    pub fn run_populations(&self) -> Vec<PopulationSample> {
        let population = self.population();
        let mut c = PopulationsCampaign::new(self.scale.clone());
        c.seed = self.seed;
        doqlab_measure::run_populations_campaign(&c, &population)
    }

    fn webperf_campaign(&self) -> WebperfCampaign {
        let mut c = WebperfCampaign::new(self.scale.clone());
        c.seed = self.seed;
        c.dot_bug = self.dot_bug;
        c.enable_0rtt_resolvers = self.zero_rtt_resolvers;
        c
    }

    /// §3.2 Web-performance campaign.
    pub fn run_webperf(&self) -> Vec<WebperfSample> {
        doqlab_measure::run_webperf_campaign(
            &self.webperf_campaign(),
            &self.population(),
            &self.pages(),
        )
    }

    /// The Web half of the what-if sweep: the Web campaign with
    /// `use_doh3`, on the same unit seeds as [`Study::run_webperf`], so
    /// the two worlds pair unit by unit and the DoH column's FCP/PLT
    /// deltas are attributable to HTTP/3 alone.
    pub fn run_webperf_doh3(&self) -> Vec<WebperfSample> {
        let mut c = self.webperf_campaign();
        c.use_doh3 = true;
        doqlab_measure::run_webperf_campaign(&c, &self.population(), &self.pages())
    }
}

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::Study;
    pub use doqlab_dox::{ClientConfig, DnsTransport, SessionState};
    pub use doqlab_measure::report;
    pub use doqlab_measure::{median, percentile, vantage_points, Cdf, Scale};
    pub use doqlab_resolver::{synthesize_dox_population, ResolverProfile};
    pub use doqlab_simnet::{Coord, Duration, SimTime};
    pub use doqlab_webperf::{run_page_load, tranco_top10, PageLoadConfig};
}

/// The five transports, re-exported at the top level for convenience.
pub const TRANSPORTS: [DnsTransport; 5] = DnsTransport::ALL;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_runs_end_to_end() {
        let study = Study {
            scale: Scale {
                resolvers: Some(2),
                repetitions: 1,
                rounds: 1,
                loads_per_round: 1,
                pages: Some(1),
                clients: Some(512),
                threads: 4,
            },
            ..Study::quick(3)
        };
        let sq = study.run_single_query();
        assert_eq!(sq.len(), 6 * 2 * 5);
        let web = study.run_webperf();
        assert_eq!(web.len(), (6 * 2) * 5);
        let t1 = measure::report::table1(&sq);
        assert_eq!(t1.sample_counts.len(), 5);
    }

    #[test]
    fn population_is_stable_for_a_seed() {
        let study = Study::quick(1);
        let a = study.population();
        let b = study.population();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.ip == y.ip));
    }
}
