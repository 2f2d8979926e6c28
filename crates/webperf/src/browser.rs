//! The browser model: a Chromium-like page loader.
//!
//! One navigation = resolve domains through the local [`DnsProxy`]
//! (deduplicated per navigation, like Chromium's host cache), open one
//! HTTP/2 connection per origin, fetch resources as the dependency
//! graph reveals them, and record:
//!
//! * **FCP** — when the root document and every render-blocking
//!   resource have arrived, plus a fixed render delay;
//! * **PLT** — `LoadEventStart - NavigationStart`: when every resource
//!   of the page has arrived, plus a fixed event-dispatch delay.

use crate::http::HttpsClientConn;
use crate::page::PageProfile;
use crate::proxy::DnsProxy;
use doqlab_resolver::ip_for_domain;
use doqlab_simnet::{Ctx, Duration, Host, Ipv4Addr, Packet, SimTime, SocketAddr};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};

// Render and onload main-thread work come from the page profile
// (identical across DNS protocols, so they only scale the *relative*
// impact of DNS — exactly the amortization effect §3.2 describes).

/// Outcome of one navigation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageLoadResult {
    /// First Contentful Paint, ms from navigation start.
    pub fcp_ms: f64,
    /// Page Load Time, ms from navigation start.
    pub plt_ms: f64,
    /// Upstream DNS queries issued.
    pub dns_queries: u32,
    /// Upstream connections the proxy opened (DoT-bug observability).
    pub proxy_connections: u32,
    pub failed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ResourceState {
    Undiscovered,
    /// Waiting on DNS for its domain.
    WaitingDns,
    /// Requested on an origin connection.
    Requested,
    Done,
}

struct OriginConn {
    conn: HttpsClientConn,
    port: u16,
}

/// The browser + proxy, as one simulator host (they share a machine).
pub struct BrowserHost {
    ip: Ipv4Addr,
    page: PageProfile,
    pub proxy: DnsProxy,
    states: Vec<ResourceState>,
    dns_cache: HashMap<String, Option<Ipv4Addr>>,
    dns_inflight: HashMap<String, ()>,
    /// Ordered by domain, so polls emit packets in the same order on
    /// every run.
    origins: BTreeMap<String, OriginConn>,
    next_port: u16,
    nav_start: Option<SimTime>,
    fcp: Option<SimTime>,
    plt: Option<SimTime>,
    failed: bool,
}

impl BrowserHost {
    pub fn new(ip: Ipv4Addr, page: PageProfile, proxy: DnsProxy) -> Self {
        let n = page.resources.len();
        BrowserHost {
            ip,
            page,
            proxy,
            states: vec![ResourceState::Undiscovered; n],
            dns_cache: HashMap::new(),
            dns_inflight: HashMap::new(),
            origins: BTreeMap::new(),
            next_port: 50_000,
            nav_start: None,
            fcp: None,
            plt: None,
            failed: false,
        }
    }

    /// Begin the navigation.
    pub fn navigate(&mut self, ctx: &mut Ctx<'_>) {
        assert!(self.nav_start.is_none(), "navigate twice");
        self.nav_start = Some(ctx.now);
        let mut out = Vec::new();
        let roots: Vec<usize> = self
            .page
            .resources
            .iter()
            .filter(|r| r.discovered_by.is_none())
            .map(|r| r.id)
            .collect();
        for id in roots {
            self.discover(ctx.now, ctx.rng, id, &mut out);
        }
        for p in out {
            ctx.send(p);
        }
    }

    fn discover(
        &mut self,
        now: SimTime,
        rng: &mut doqlab_simnet::SimRng,
        id: usize,
        out: &mut Vec<Packet>,
    ) {
        if self.states[id] != ResourceState::Undiscovered {
            return;
        }
        let domain = self.page.resources[id].domain.clone();
        match self.dns_cache.get(&domain) {
            Some(Some(ip)) => {
                let ip = *ip;
                self.request(now, id, ip, out);
            }
            Some(None) => {
                self.states[id] = ResourceState::WaitingDns;
                self.failed = true;
            }
            None => {
                self.states[id] = ResourceState::WaitingDns;
                if self.dns_inflight.insert(domain.clone(), ()).is_none() {
                    self.proxy.resolve(now, rng, &domain, out);
                }
            }
        }
    }

    fn request(&mut self, now: SimTime, id: usize, ip: Ipv4Addr, out: &mut Vec<Packet>) {
        let (domain, path) = {
            let r = &self.page.resources[id];
            (r.domain.clone(), r.path.clone())
        };
        if !self.origins.contains_key(&domain) {
            let port = self.next_port;
            self.next_port += 1;
            let mut conn = HttpsClientConn::new(
                SocketAddr::new(self.ip, port),
                SocketAddr::new(ip, 443),
                &domain,
            );
            conn.start(now, out);
            self.origins
                .insert(domain.clone(), OriginConn { conn, port });
        }
        let origin = self.origins.get_mut(&domain).expect("just ensured");
        origin.conn.request(id, &path);
        self.states[id] = ResourceState::Requested;
        let mut extra = Vec::new();
        origin.conn.poll(now, &mut extra);
        out.append(&mut extra);
    }

    /// Handle DNS completions, fetch completions and dependent
    /// discovery; update FCP/PLT.
    fn progress(&mut self, now: SimTime, rng: &mut doqlab_simnet::SimRng, out: &mut Vec<Packet>) {
        // DNS results.
        for (domain, ip) in self.proxy.take_resolved() {
            self.dns_inflight.remove(&domain);
            self.dns_cache.insert(domain.clone(), ip);
            match ip {
                Some(ip) => {
                    let waiting: Vec<usize> = self
                        .page
                        .resources
                        .iter()
                        .filter(|r| {
                            r.domain == domain && self.states[r.id] == ResourceState::WaitingDns
                        })
                        .map(|r| r.id)
                        .collect();
                    for id in waiting {
                        self.request(now, id, ip, out);
                    }
                }
                None => self.failed = true,
            }
        }
        // Fetch completions.
        let mut completed = Vec::new();
        for origin in self.origins.values_mut() {
            completed.extend(origin.conn.take_completed());
            if origin.conn.failed() {
                self.failed = true;
            }
        }
        for done in completed {
            self.states[done.resource_id] = ResourceState::Done;
            let children: Vec<usize> = self
                .page
                .resources
                .iter()
                .filter(|r| r.discovered_by == Some(done.resource_id))
                .map(|r| r.id)
                .collect();
            for child in children {
                self.discover(now, rng, child, out);
            }
        }
        // FCP: all render-blocking resources done.
        if self.fcp.is_none() {
            let blocking_done = self
                .page
                .resources
                .iter()
                .filter(|r| r.render_blocking)
                .all(|r| self.states[r.id] == ResourceState::Done);
            if blocking_done {
                self.fcp = Some(now + Duration::from_millis(self.page.render_ms));
            }
        }
        // PLT: everything done. The load event cannot fire before first
        // paint, so PLT is floored at FCP.
        if self.plt.is_none() && self.states.iter().all(|s| *s == ResourceState::Done) {
            let plt = now + Duration::from_millis(self.page.onload_ms);
            self.plt = Some(match self.fcp {
                Some(fcp) => plt.max(fcp),
                None => plt,
            });
        }
    }

    pub fn is_complete(&self) -> bool {
        self.plt.is_some()
    }

    /// Debug view of origin connections.
    pub fn debug_origins(&self) -> Vec<(String, String)> {
        self.origins
            .iter()
            .map(|(d, o)| (d.clone(), o.conn.debug_summary()))
            .collect()
    }

    /// Debug view: (resource id, domain, state).
    pub fn debug_states(&self) -> Vec<(usize, String, &'static str)> {
        self.page
            .resources
            .iter()
            .map(|r| {
                let state = match self.states[r.id] {
                    ResourceState::Undiscovered => "undiscovered",
                    ResourceState::WaitingDns => "waiting-dns",
                    ResourceState::Requested => "requested",
                    ResourceState::Done => "done",
                };
                (r.id, r.domain.clone(), state)
            })
            .collect()
    }

    /// The navigation's metrics (call after the simulation settles).
    pub fn result(&self) -> PageLoadResult {
        let start = self.nav_start.unwrap_or(SimTime::ZERO);
        match (self.fcp, self.plt) {
            (Some(fcp), Some(plt)) if !self.failed => PageLoadResult {
                fcp_ms: (fcp - start).as_secs_f64() * 1000.0,
                plt_ms: (plt - start).as_secs_f64() * 1000.0,
                dns_queries: self.proxy.queries_sent,
                proxy_connections: self.proxy.connections_opened,
                failed: false,
            },
            _ => PageLoadResult {
                fcp_ms: f64::NAN,
                plt_ms: f64::NAN,
                dns_queries: self.proxy.queries_sent,
                proxy_connections: self.proxy.connections_opened,
                failed: true,
            },
        }
    }
}

impl Host for BrowserHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut out = Vec::new();
        if self.proxy.owns_port(pkt.dst.port) {
            self.proxy.on_packet(ctx.now, &pkt, &mut out);
        } else if let Some(origin) = self.origins.values_mut().find(|o| o.port == pkt.dst.port) {
            origin.conn.on_packet(ctx.now, &pkt, &mut out);
        }
        self.progress(ctx.now, ctx.rng, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        self.proxy.poll(ctx.now, &mut out);
        for origin in self.origins.values_mut() {
            origin.conn.poll(ctx.now, &mut out);
        }
        self.progress(ctx.now, ctx.rng, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let mut t = self.proxy.next_timeout();
        for origin in self.origins.values() {
            t = match (t, origin.conn.next_timeout()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        t
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Origin IP for a page domain (via the shared deterministic DNS map).
pub fn origin_ip(domain: &str) -> Ipv4Addr {
    ip_for_domain(domain)
}
