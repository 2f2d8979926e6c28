//! # doqlab-measure — the measurement harness
//!
//! Reproduces the paper's three campaigns over the simulated substrate:
//!
//! * [`discovery`] — the ZMap-style scan (version-0 QUIC probes on UDP
//!   784/853/8853, ALPN verification, per-protocol support checks)
//!   yielding the 1,216 → 313 funnel of §2 and Fig. 1's geography.
//! * [`single_query`] — §3.1: cache-warming + measured single queries
//!   from 6 vantage points to every verified resolver over all five
//!   transports, with Session Resumption; produces handshake times,
//!   resolve times, per-phase byte counts (Table 1, Fig. 2) and the
//!   protocol-version overview of §3.
//! * [`webperf`] — §3.2: Tranco top-10 page loads through the DNS
//!   proxy per [vantage point x resolver x protocol], median of N cold
//!   loads, relative FCP/PLT differences (Fig. 3, Fig. 4).
//! * [`populations`] — the population-scale campaign: whole client
//!   cohorts behind shared stub caches and pooled connections, issuing
//!   Zipf-popular queries over a simulated day; reports cache hit
//!   ratios, resolver load, client resolve-time quantiles and
//!   aggregate bytes per transport.
//! * [`sweep`] — regime sweeps: single-query units re-run under a list
//!   of [`Regime`]s, each plain data (a seed rule,
//!   [`single_query::UnitOptions`] and a resumption flag). Three standard
//!   sweeps ship as data:
//!   - [`impairments`] — deterministic burst loss, outages, reordering
//!     and duplication, reporting failure rates and response-time
//!     quantiles per regime and transport;
//!   - [`mobility`] — mid-query address changes (wifi → cellular),
//!     reporting which transports survive by connection migration,
//!     switchover latency, and the cost of reconnect and
//!     cross-transport failover recovery;
//!   - [`whatif`] — dormant capabilities switched on (TLS/QUIC 0-RTT,
//!     TCP Fast Open, edns-tcp-keepalive, DoH3) on the *same* unit
//!     seeds as the all-off baseline, reporting the resolve-time deltas
//!     the paper could not measure.
//!
//! [`stats`] holds the estimators (median, percentiles, CDFs) and
//! [`report`] the reducers and renderers of tables that mirror the
//! paper's layout, and [`report::Report`], the value every `doqlab`
//! report is, rendered as text or JSON. Campaign
//! size is controlled by [`Scale`]; `Scale::paper()` matches the
//! study's sample counts, `Scale::quick()` is for tests and examples.

pub mod discovery;
pub mod engine;
pub mod impairments;
pub mod mobility;
pub mod populations;
pub mod report;
pub mod single_query;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod vantage;
pub mod webperf;
pub mod whatif;

pub use discovery::{run_discovery, DiscoveryReport};
/// [`sweep::run_sweep`] under the name the benchmark calls.
pub use impairments::run_impairments_campaign;
pub use populations::{run_populations_campaign, PopulationSample, PopulationsCampaign};
pub use single_query::{run_single_query_campaign, SingleQueryCampaign, SingleQuerySample};
pub use stats::{cdf_points, median, percentile, Cdf};
pub use sweep::{run_sweep, Regime, Sweep, SweepSample};
pub use trace::{trace_single_query, TraceRun};
pub use vantage::{vantage_points, VantagePoint};
pub use webperf::{run_webperf_campaign, WebperfCampaign, WebperfSample};

/// Campaign scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Use only the first N resolvers (None = all 313).
    pub resolvers: Option<usize>,
    /// Single-query repetitions per [vp x resolver x protocol]
    /// (paper: every 2 h for a week = 84).
    pub repetitions: usize,
    /// Web-performance rounds per [vp x resolver x page x protocol]
    /// (paper: every 48 h for a week = 3).
    pub rounds: usize,
    /// Cold-start loads per round, of which the median is the sample
    /// (paper: 4).
    pub loads_per_round: usize,
    /// Pages (None = all ten).
    pub pages: Option<usize>,
    /// Simulated clients for the population campaign (None = the
    /// campaign's 10⁵ default; the binaries set it from
    /// `DOQLAB_CLIENTS`).
    pub clients: Option<u64>,
    /// OS threads to shard vantage points / units across.
    pub threads: usize,
}

impl Scale {
    /// The paper's full sample counts (~157k single-query samples and
    /// ~56k Web samples per protocol).
    pub fn paper() -> Scale {
        Scale {
            resolvers: None,
            repetitions: 84,
            rounds: 3,
            loads_per_round: 4,
            pages: None,
            clients: None,
            threads: Scale::default_threads(),
        }
    }

    /// Small but fully representative (for tests and examples).
    pub fn quick() -> Scale {
        Scale {
            resolvers: Some(12),
            repetitions: 1,
            rounds: 1,
            loads_per_round: 1,
            pages: Some(4),
            clients: Some(2_000),
            threads: Scale::default_threads(),
        }
    }

    /// A mid-size run: full resolver set, reduced repetitions.
    pub fn medium() -> Scale {
        Scale {
            resolvers: None,
            repetitions: 4,
            rounds: 1,
            loads_per_round: 2,
            pages: None,
            clients: Some(20_000),
            threads: Scale::default_threads(),
        }
    }

    /// One worker per available core: the default of [`Scale::threads`],
    /// which the binaries set from `--threads` or `DOQLAB_THREADS`.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    }

    /// The resolver subset a campaign runs against. The population is
    /// ordered by continent, so a reduced set is stride-subsampled —
    /// rather than truncated — to keep spanning all continents the way
    /// the full 313-resolver set does.
    pub fn sample_resolvers<'a, T>(&self, population: &'a [T]) -> Vec<&'a T> {
        match self.resolvers {
            None => population.iter().collect(),
            Some(n) => {
                let stride = population.len() / n.max(1);
                population.iter().step_by(stride.max(1)).take(n).collect()
            }
        }
    }

    /// The page subset a webperf campaign loads (the Tranco list is
    /// already rank-ordered, so a reduced set is a prefix).
    pub fn sample_pages<'a, T>(&self, pages: &'a [T]) -> Vec<&'a T> {
        match self.pages {
            None => pages.iter().collect(),
            Some(n) => pages.iter().take(n).collect(),
        }
    }
}
