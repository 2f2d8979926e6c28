//! §3.2 — the Web-performance campaign.
//!
//! One sample is the median FCP/PLT of `loads_per_round` cold-start
//! page loads for a `[vantage point : resolver : page : protocol]`
//! combination (the paper runs four loads per combination and repeats
//! every 48 hours). Relative differences against DoUDP (Fig. 3) and
//! against DoQ (Fig. 4) are computed per `[vantage point : resolver]`
//! pair by the experiment drivers.

use crate::engine;
use crate::vantage::vantage_points;
use crate::Scale;
use doqlab_dox::{Capabilities, DnsTransport};
use doqlab_resolver::ResolverProfile;
use doqlab_simnet::geo::Continent;
use doqlab_simnet::path::GeoPathParams;
use doqlab_simnet::{Duration, Simulator};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_webperf::{run_page_load_in, PageLoadConfig, PageProfile};

/// One Web-performance sample (already the median over the round's
/// loads).
#[derive(Debug, Clone)]
pub struct WebperfSample {
    pub vp: usize,
    pub vp_continent: Continent,
    pub resolver: usize,
    pub page: usize,
    pub page_name: String,
    pub page_dns_queries: usize,
    pub transport: DnsTransport,
    pub round: usize,
    pub fcp_ms: f64,
    pub plt_ms: f64,
    pub proxy_connections: u32,
    /// No load of the round succeeded (the medians are NaN).
    pub failed: bool,
    /// How many of the round's loads failed. Partially-failed rounds
    /// used to be silently absorbed into the medians (a failed load's
    /// NaN FCP/PLT is ignored by [`crate::stats::median`]), biasing
    /// results low; now failed loads are excluded explicitly and
    /// counted here.
    pub loads_failed: usize,
}

/// Campaign configuration. A Web regime is one more value of it: the
/// same campaign with other `caps` or `dot_bug` runs on the same unit
/// seeds, so two runs pair unit by unit.
#[derive(Debug, Clone)]
pub struct WebperfCampaign {
    pub seed: u64,
    pub scale: Scale,
    /// Reproduce the dnsproxy DoT reconnect bug (ablation A2 turns it
    /// off).
    pub dot_bug: bool,
    /// Capabilities switched on for every unit's resolver and proxy
    /// (the what-if Web half runs DoH as DoH3, ablation A4 DoTCP with
    /// TFO and keepalive).
    pub caps: Capabilities,
    pub path_params: GeoPathParams,
}

impl WebperfCampaign {
    pub fn new(scale: Scale) -> Self {
        WebperfCampaign {
            seed: 0x3EB_2022,
            scale,
            dot_bug: true,
            caps: Capabilities::default(),
            path_params: GeoPathParams::default(),
        }
    }
}

/// Domain separation from the single-query campaign's seeds.
const WEBPERF_SEED_DOMAIN: u64 = 0xA5A5_5A5A_DEAD_BEEF;

/// Per-unit RNG seed: every coordinate of the `[vp : resolver : page :
/// protocol : round]` tuple is hashed separately. (An earlier version
/// packed page and protocol into one integer as `pi * 16 + t`, which
/// collides as soon as the page list outgrows the packing radix.)
fn unit_seed(
    seed: u64,
    vp: usize,
    resolver: usize,
    page: usize,
    t: DnsTransport,
    round: usize,
) -> u64 {
    engine::unit_seed(
        seed ^ WEBPERF_SEED_DOMAIN,
        &[
            vp as u64,
            resolver as u64,
            page as u64,
            t as u64,
            round as u64,
        ],
    )
}

/// Run one `[vp : resolver : page : protocol : round]` unit in a
/// reusable simulator arena.
#[allow(clippy::too_many_arguments)] // the unit tuple is the argument list
pub fn run_webperf_unit(
    sim: &mut Simulator,
    campaign: &WebperfCampaign,
    vp: usize,
    profile: &ResolverProfile,
    pi: usize,
    page: &PageProfile,
    t: DnsTransport,
    round: usize,
) -> WebperfSample {
    let vps = vantage_points();
    // The unit seed derives from the nominal transport; the page load
    // substitutes DoH3 after it, so a doh3 unit replays the exact draws
    // of its DoH twin and FCP/PLT deltas are attributable to HTTP/3.
    let cfg = PageLoadConfig {
        seed: unit_seed(campaign.seed, vp, profile.index, pi, t, round),
        transport: t,
        page: page.clone(),
        resolver: profile.server_config(),
        recursion: Default::default(),
        vp_location: vps[vp].location,
        resolver_location: profile.location,
        dot_bug: campaign.dot_bug,
        caps: campaign.caps,
        measured_loads: campaign.scale.loads_per_round,
        load_timeout: Duration::from_secs(30),
        path_params: campaign.path_params.clone(),
    };
    metrics::count(Counter::UnitsRun, 1);
    let loads = run_page_load_in(sim, &cfg);
    // Medians over the successful loads only: a failed load must not
    // contribute a partial FCP/PLT, and its NaNs must not be silently
    // dropped as if the round were smaller than configured.
    let ok_loads: Vec<_> = loads.iter().filter(|l| !l.failed).collect();
    let loads_failed = loads.len() - ok_loads.len();
    let fcp = crate::stats::median(&ok_loads.iter().map(|l| l.fcp_ms).collect::<Vec<_>>());
    let plt = crate::stats::median(&ok_loads.iter().map(|l| l.plt_ms).collect::<Vec<_>>());
    let failed = ok_loads.is_empty() || fcp.is_none() || plt.is_none();
    WebperfSample {
        vp,
        vp_continent: vps[vp].continent,
        resolver: profile.index,
        page: pi,
        page_name: page.name.clone(),
        page_dns_queries: page.dns_query_count(),
        transport: campaign.caps.transport(t),
        round,
        fcp_ms: fcp.unwrap_or(f64::NAN),
        plt_ms: plt.unwrap_or(f64::NAN),
        proxy_connections: loads.iter().map(|l| l.proxy_connections).max().unwrap_or(0),
        failed,
        loads_failed,
    }
}

/// Run the campaign: every vantage point x resolver x page x protocol
/// x round, scheduled by the work-stealing engine on per-worker
/// simulator arenas. Output order (and content) is independent of
/// thread count.
pub fn run_webperf_campaign(
    campaign: &WebperfCampaign,
    population: &[ResolverProfile],
    pages: &[PageProfile],
) -> Vec<WebperfSample> {
    let vps = vantage_points();
    let resolvers = campaign.scale.sample_resolvers(population);
    let pages = campaign.scale.sample_pages(pages);
    let grid = engine::UnitGrid {
        vps: vps.len(),
        resolvers: resolvers.len(),
        pages: pages.len(),
        transports: DnsTransport::ALL.len(),
        reps: campaign.scale.rounds,
    };
    let units = grid.units();
    engine::run_units(
        campaign.scale.threads,
        &units,
        Simulator::arena,
        |sim, u, _| {
            run_webperf_unit(
                sim,
                campaign,
                u.vp,
                resolvers[u.resolver],
                u.page,
                pages[u.page],
                DnsTransport::ALL[u.transport],
                u.rep,
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use doqlab_resolver::synthesize_dox_population;
    use doqlab_webperf::tranco_top10;

    #[test]
    fn quick_campaign_produces_expected_grid() {
        let scale = Scale {
            resolvers: Some(2),
            pages: Some(2),
            rounds: 1,
            loads_per_round: 1,
            threads: 4,
            ..Scale::quick()
        };
        let campaign = WebperfCampaign::new(scale);
        let pop = synthesize_dox_population(1);
        let pages = tranco_top10();
        let samples = run_webperf_campaign(&campaign, &pop, &pages);
        // 6 vps x 2 resolvers x 2 pages x 5 protocols x 1 round.
        assert_eq!(samples.len(), 120);
        let ok = samples.iter().filter(|s| !s.failed).count();
        assert!(ok as f64 / samples.len() as f64 > 0.9, "ok = {ok}/120");
        // Simple page (wikipedia) has exactly 1 DNS query recorded.
        assert!(samples
            .iter()
            .filter(|s| s.page == 0)
            .all(|s| s.page_dns_queries == 1));
        // Failed-load accounting: with one load per round, a sample is
        // failed exactly when its only load failed; successful samples
        // carry finite medians and a zero failed-load count.
        for s in &samples {
            if s.failed {
                assert_eq!(s.loads_failed, 1);
                assert!(s.fcp_ms.is_nan() && s.plt_ms.is_nan());
            } else {
                assert_eq!(s.loads_failed, 0);
                assert!(s.fcp_ms.is_finite() && s.plt_ms.is_finite());
            }
        }
    }

    #[test]
    fn doh3_toggle_upgrades_doh_units_and_leaves_the_rest_alone() {
        let scale = Scale {
            resolvers: Some(1),
            pages: Some(1),
            rounds: 1,
            loads_per_round: 1,
            threads: 2,
            ..Scale::quick()
        };
        let mut campaign = WebperfCampaign::new(scale);
        campaign.caps.doh3 = true;
        let pop = synthesize_dox_population(1);
        let pages = tranco_top10();
        let samples = run_webperf_campaign(&campaign, &pop, &pages);
        // 6 vps x 1 resolver x 1 page x 5 protocols x 1 round.
        assert_eq!(samples.len(), 30);
        let h3: Vec<_> = samples
            .iter()
            .filter(|s| s.transport == DnsTransport::DoH3)
            .collect();
        assert_eq!(h3.len(), 6, "every DoH unit became DoH3");
        assert!(samples.iter().all(|s| s.transport != DnsTransport::DoH));
        assert!(h3.iter().all(|s| !s.failed), "DoH3 page loads succeed");
    }
}
