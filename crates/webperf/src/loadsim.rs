//! One page-load measurement as a micro-simulation.
//!
//! Reproduces §2's Web-performance methodology:
//!
//! 1. set up the DNS proxy as the browser's resolver, forwarding to one
//!    upstream DoX resolver; OS and proxy caches are disabled;
//! 2. navigate once to warm the *resolver's* cache (recursion happens
//!    here) and to collect TLS/QUIC resumption material;
//! 3. reset the proxy's sessions: each navigation gets a fresh proxy,
//!    seeded with the tickets/tokens/versions the last one captured;
//! 4. navigate again, cold browser, measuring FCP and PLT — repeated
//!    `measured_loads` times (the paper performs four and takes the
//!    median).

use crate::browser::{origin_ip, BrowserHost, PageLoadResult};
use crate::origin::OriginHost;
use crate::page::PageProfile;
use crate::proxy::DnsProxy;
use doqlab_dox::{Capabilities, ClientConfig, DnsTransport};
use doqlab_resolver::{RecursionModel, ResolverHost};
use doqlab_simnet::path::{GeoPathModel, GeoPathParams};
use doqlab_simnet::{Coord, Duration, Ipv4Addr, Simulator, SocketAddr};
use std::collections::{BTreeMap, HashMap};

/// Configuration of one [vantage point : resolver : protocol : page]
/// measurement unit.
#[derive(Debug, Clone)]
pub struct PageLoadConfig {
    pub seed: u64,
    pub transport: DnsTransport,
    pub page: PageProfile,
    pub resolver: doqlab_dox::ServerConfig,
    pub recursion: RecursionModel,
    pub vp_location: Coord,
    pub resolver_location: Coord,
    /// Reproduce the dnsproxy DoT reconnect bug (§3.2).
    pub dot_bug: bool,
    /// Capabilities switched on for the resolver, each navigation's
    /// proxy and the transport (with `tfo` and `keepalive`, RFC 9210
    /// DoTCP: the proxy re-uses the connection — ablation A4).
    pub caps: Capabilities,
    /// Measured navigations after the warming one.
    pub measured_loads: usize,
    /// Give up on a navigation after this much simulated time.
    pub load_timeout: Duration,
    pub path_params: GeoPathParams,
}

impl PageLoadConfig {
    pub fn new(page: PageProfile, transport: DnsTransport) -> Self {
        PageLoadConfig {
            seed: 1,
            transport,
            page,
            resolver: doqlab_dox::ServerConfig::default(),
            recursion: RecursionModel::default(),
            vp_location: Coord::new(50.1, 8.7),
            resolver_location: Coord::new(48.1, 11.6),
            dot_bug: true,
            caps: Capabilities::default(),
            measured_loads: 1,
            load_timeout: Duration::from_secs(30),
            path_params: GeoPathParams::default(),
        }
    }
}

/// Run the warming navigation plus `measured_loads` measured ones in a
/// simulator of their own. Returns one result per measured navigation.
pub fn run_page_load(cfg: &PageLoadConfig) -> Vec<PageLoadResult> {
    let mut sim = Simulator::arena();
    run_page_load_in(&mut sim, cfg)
}

/// Run the warming navigation plus `measured_loads` measured ones in a
/// reusable simulator arena: the arena is reset (reusing its
/// allocations across page loads) and left holding the final state.
pub fn run_page_load_in(sim: &mut Simulator, cfg: &PageLoadConfig) -> Vec<PageLoadResult> {
    // --- topology -------------------------------------------------------
    let mut path = GeoPathModel::new(cfg.path_params.clone());
    let resolver_cfg = cfg.caps.server(cfg.resolver.clone());
    let resolver_ip = resolver_cfg.ip;
    path.place(resolver_ip, cfg.resolver_location);

    // Browser machines: one IP per navigation (the simulator binds an
    // address once), all at the vantage point.
    let nav_count = 1 + cfg.measured_loads;
    let client_ips: Vec<Ipv4Addr> = (0..nav_count)
        .map(|i| Ipv4Addr::new(10, 99, 0, i as u8 + 1))
        .collect();
    for ip in &client_ips {
        path.place(*ip, cfg.vp_location);
    }

    // Origins: CDN-like, near the vantage point. BTreeMap so host
    // creation order (and thus server ids and event interleaving) is a
    // pure function of the page, not of hash-seed iteration order.
    let mut origin_sizes: BTreeMap<Ipv4Addr, HashMap<String, usize>> = BTreeMap::new();
    for r in &cfg.page.resources {
        origin_sizes
            .entry(origin_ip(&r.domain))
            .or_default()
            .insert(r.path.clone(), r.size);
    }
    sim.reset(cfg.seed, Box::new(path.clone()));
    for (i, (ip, sizes)) in origin_sizes.into_iter().enumerate() {
        sim.add_host(
            Box::new(OriginHost::new(ip, 0x0419 + i as u64, sizes)),
            &[ip],
        );
    }
    // (Origins share the vantage point placement default: co-located
    // with the client up to the base delay — a CDN edge.)

    let resolver = ResolverHost::new(resolver_cfg, cfg.recursion.clone());
    sim.add_host(Box::new(resolver), &[resolver_ip]);

    // --- navigations ------------------------------------------------------
    let transport = cfg.caps.transport(cfg.transport);
    let upstream = SocketAddr::new(resolver_ip, transport.port());
    let mut session = doqlab_dox::SessionState::default();
    let mut results = Vec::new();
    for (nav, &client_ip) in client_ips.iter().enumerate() {
        let client_cfg = ClientConfig {
            session: session.clone(),
            ..cfg.caps.client()
        };
        let proxy = DnsProxy::new(client_ip, upstream, transport, client_cfg, cfg.dot_bug);
        let browser = BrowserHost::new(client_ip, cfg.page.clone(), proxy);
        let bid = sim.add_host(Box::new(browser), &[client_ip]);
        let start = sim.now();
        sim.with_host::<BrowserHost, _>(bid, |b, ctx| b.navigate(ctx));
        let deadline = start + cfg.load_timeout;
        // Run until the page completes (or fails) or the deadline hits.
        loop {
            let b = sim.host::<BrowserHost>(bid);
            if b.is_complete() || sim.now() >= deadline {
                break;
            }
            let step = (sim.now() + Duration::from_millis(200)).min(deadline);
            sim.run_until(step);
            if sim.is_idle() {
                break;
            }
        }
        let browser = sim.host_mut::<BrowserHost>(bid);
        let result = browser.result();
        // Carry resumption material to the next navigation's proxy (the
        // reset keeps tickets, drops connections).
        session.merge(browser.proxy.take_session());
        if nav > 0 {
            results.push(result);
        }
        // Let in-flight transport teardown settle briefly before the
        // next navigation.
        let settle = sim.now() + Duration::from_millis(50);
        sim.run_until(settle);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::tranco_top10;
    use doqlab_telemetry::metrics::{self, Counter};

    fn base(transport: DnsTransport) -> PageLoadConfig {
        let page = tranco_top10().remove(0); // wikipedia.org
        PageLoadConfig {
            seed: 7,
            ..PageLoadConfig::new(page, transport)
        }
    }

    #[test]
    fn wikipedia_loads_over_every_transport() {
        for transport in DnsTransport::ALL {
            let results = run_page_load(&base(transport));
            assert_eq!(results.len(), 1);
            let r = results[0];
            assert!(!r.failed, "{transport} failed");
            assert!(r.fcp_ms > 0.0 && r.fcp_ms <= r.plt_ms, "{transport}: {r:?}");
            assert_eq!(r.dns_queries, 1, "{transport}");
        }
    }

    #[test]
    fn complex_page_issues_many_dns_queries() {
        let page = tranco_top10().pop().unwrap(); // youtube.com
        let cfg = PageLoadConfig {
            seed: 9,
            ..PageLoadConfig::new(page, DnsTransport::DoQ)
        };
        let r = run_page_load(&cfg)[0];
        assert!(!r.failed);
        assert_eq!(r.dns_queries, 11);
        assert!(r.plt_ms >= r.fcp_ms);
    }

    #[test]
    fn doudp_beats_doq_slightly_on_simple_pages() {
        let udp = run_page_load(&base(DnsTransport::DoUdp))[0];
        let doq = run_page_load(&base(DnsTransport::DoQ))[0];
        assert!(!udp.failed && !doq.failed);
        assert!(
            doq.plt_ms >= udp.plt_ms,
            "DoQ {} should not beat DoUDP {} without 0-RTT",
            doq.plt_ms,
            udp.plt_ms
        );
    }

    #[test]
    fn doq_beats_doh_on_simple_pages() {
        let doh = run_page_load(&base(DnsTransport::DoH))[0];
        let doq = run_page_load(&base(DnsTransport::DoQ))[0];
        assert!(!doh.failed && !doq.failed);
        assert!(
            doq.plt_ms < doh.plt_ms,
            "DoQ {} vs DoH {}",
            doq.plt_ms,
            doh.plt_ms
        );
    }

    #[test]
    fn dot_bug_opens_extra_connections_on_multi_domain_pages() {
        let page = tranco_top10().pop().unwrap(); // youtube: many queries
        let mut cfg = PageLoadConfig {
            seed: 3,
            ..PageLoadConfig::new(page, DnsTransport::DoT)
        };
        cfg.dot_bug = true;
        let buggy = run_page_load(&cfg)[0];
        cfg.dot_bug = false;
        let fixed = run_page_load(&cfg)[0];
        assert!(
            buggy.proxy_connections > fixed.proxy_connections,
            "bug {} vs fixed {}",
            buggy.proxy_connections,
            fixed.proxy_connections
        );
        assert_eq!(fixed.proxy_connections, 1);
    }

    #[test]
    fn dotcp_opens_one_connection_per_query() {
        let page = tranco_top10().remove(8); // microsoft.com, 9 queries
        let cfg = PageLoadConfig {
            seed: 3,
            ..PageLoadConfig::new(page, DnsTransport::DoTcp)
        };
        let r = run_page_load(&cfg)[0];
        assert!(!r.failed);
        assert_eq!(r.proxy_connections, r.dns_queries);
    }

    #[test]
    fn rfc9210_dotcp_reuses_one_connection_and_loads_sooner() {
        // Ablation A4's path: with TFO and keepalive switched on, the
        // resolver holds the connection open and the proxy re-uses it.
        // A jitter- and loss-free path keeps a retransmission timeout
        // elsewhere in the page from hiding the saved handshakes.
        let page = tranco_top10().remove(8); // microsoft.com, 9 queries
        let observed = PageLoadConfig {
            seed: 3,
            path_params: GeoPathParams {
                jitter_frac: 0.0,
                loss: 0.0,
                ..GeoPathParams::default()
            },
            ..PageLoadConfig::new(page, DnsTransport::DoTcp)
        };
        let rfc9210 = PageLoadConfig {
            caps: Capabilities {
                tfo: true,
                keepalive: true,
                ..Capabilities::default()
            },
            ..observed.clone()
        };
        let (before, after) = (run_page_load(&observed)[0], run_page_load(&rfc9210)[0]);
        assert!(!before.failed && !after.failed);
        assert_eq!(after.proxy_connections, 1);
        assert!(
            after.plt_ms < before.plt_ms,
            "RFC 9210 {} ms vs observed {} ms",
            after.plt_ms,
            before.plt_ms
        );
    }

    #[test]
    fn tfo_puts_a_later_navigations_first_query_on_the_syn() {
        // The TFO cookie the warming navigation's DoTCP connection
        // earns is carried to the measured navigation, whose first
        // query then rides the SYN: one round trip sooner than with
        // keepalive alone. Same jitter- and loss-free path as above.
        let page = tranco_top10().remove(8); // microsoft.com
        let keepalive = PageLoadConfig {
            seed: 3,
            path_params: GeoPathParams {
                jitter_frac: 0.0,
                loss: 0.0,
                ..GeoPathParams::default()
            },
            caps: Capabilities {
                keepalive: true,
                ..Capabilities::default()
            },
            ..PageLoadConfig::new(page, DnsTransport::DoTcp)
        };
        let tfo = PageLoadConfig {
            caps: Capabilities {
                tfo: true,
                ..keepalive.caps
            },
            ..keepalive.clone()
        };
        metrics::set_enabled(true);
        let before = metrics::snapshot().counter(Counter::TfoSynData);
        let with_tfo = run_page_load(&tfo)[0];
        assert!(
            metrics::snapshot().counter(Counter::TfoSynData) > before,
            "a SYN carried a query"
        );
        let without = run_page_load(&keepalive)[0];
        assert!(!with_tfo.failed && !without.failed);
        assert!(
            with_tfo.plt_ms < without.plt_ms,
            "TFO {} ms vs keepalive alone {} ms",
            with_tfo.plt_ms,
            without.plt_ms
        );
    }

    #[test]
    fn multiple_measured_loads_supported() {
        let mut cfg = base(DnsTransport::DoQ);
        cfg.measured_loads = 3;
        let results = run_page_load(&cfg);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| !r.failed));
    }
}
