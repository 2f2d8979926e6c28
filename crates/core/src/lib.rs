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
//! [`artefacts`] lists every report the `doqlab` CLI prints (the
//! campaign reports and the paper's artefacts), each with the
//! campaigns it reads and its view over their samples.
//!
//! The subsystem crates are re-exported for direct access:
//! [`simnet`] (the discrete-event simulator), [`dnswire`] (the DNS
//! codec), [`netstack`] (TCP/TLS/QUIC/HTTP2), [`dox`] (the five DNS
//! transports), [`resolver`], [`webperf`], [`measure`] and
//! [`telemetry`] (qlog event tracing and lock-free metrics).

pub mod artefacts;
pub mod cli;

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

/// Everything the paper's methodology needs, in one place: a seed and
/// a scale. Each campaign runs the paper's configuration; a variant
/// (a regime, a Web campaign with other capabilities) is a value passed
/// to [`Study::run_sweep`] or [`Study::run_webperf_campaign`].
#[derive(Debug, Clone)]
pub struct Study {
    pub seed: u64,
    pub scale: Scale,
}

impl Study {
    /// Small-scale study (tests, examples): a representative subset.
    pub fn quick(seed: u64) -> Study {
        Study {
            seed,
            scale: Scale::quick(),
        }
    }

    /// Mid-size: the full resolver population, fewer repetitions.
    pub fn medium(seed: u64) -> Study {
        Study {
            seed,
            scale: Scale::medium(),
        }
    }

    /// The paper's full sample counts (~157k single-query samples and
    /// ~56k Web samples per protocol).
    pub fn paper(seed: u64) -> Study {
        Study {
            seed,
            scale: Scale::paper(),
        }
    }

    /// The 313 verified DoX resolvers (§2 distributions).
    pub fn population(&self) -> Vec<ResolverProfile> {
        synthesize_dox_population(self.seed)
    }

    /// The §2 scan population: the 1,216 DoQ resolvers and 500 other
    /// QUIC hosts.
    pub fn scan_population(&self) -> Vec<ScannedHost> {
        synthesize_scan_population(self.seed, 500)
    }

    /// The Tranco top-10 page profiles.
    pub fn pages(&self) -> Vec<PageProfile> {
        tranco_top10()
    }

    /// §2 discovery funnel.
    pub fn run_discovery(&self, population: &[ScannedHost]) -> DiscoveryReport {
        doqlab_measure::run_discovery(population, self.scale.threads)
    }

    fn single_query_campaign(&self) -> SingleQueryCampaign {
        SingleQueryCampaign {
            seed: self.seed,
            ..SingleQueryCampaign::new(self.scale.clone())
        }
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
    /// with the single-query campaign, so a zero regime reproduces that
    /// campaign's samples bit for bit.
    pub fn run_sweep(&self, regimes: Vec<Regime>) -> Vec<SweepSample> {
        let population = self.population();
        let sweep = Sweep {
            seed: self.seed,
            regimes,
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

    /// The §3.2 Web campaign at the study's seed and scale. A Web
    /// regime is this value with other `caps` or `dot_bug`, run through
    /// [`Study::run_webperf_campaign`] on the same unit seeds, so its
    /// samples pair unit by unit with [`Study::run_webperf`]'s.
    pub fn webperf_campaign(&self) -> WebperfCampaign {
        WebperfCampaign {
            seed: self.seed,
            ..WebperfCampaign::new(self.scale.clone())
        }
    }

    /// §3.2 Web-performance campaign.
    pub fn run_webperf(&self) -> Vec<WebperfSample> {
        self.run_webperf_campaign(&self.webperf_campaign())
    }

    /// A Web campaign, such as a variant of
    /// [`Study::webperf_campaign`], over the study's population and
    /// pages.
    pub fn run_webperf_campaign(&self, campaign: &WebperfCampaign) -> Vec<WebperfSample> {
        doqlab_measure::run_webperf_campaign(campaign, &self.population(), &self.pages())
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
