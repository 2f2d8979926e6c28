//! The population-side stub resolver: a simulator host multiplexing a
//! whole client cohort behind one shared cache and one pooled upstream
//! connection.
//!
//! Real client populations do not talk to public resolvers directly —
//! they sit behind a stub/forwarder (the OS resolver, a home router, an
//! enterprise forwarder) whose cache absorbs the popular head of the
//! Zipf workload and whose connection pool amortizes the TLS/QUIC
//! handshake across queries. [`StubResolverHost`] models exactly that
//! front-end:
//!
//! * a [`WorkloadGen`] drives deterministic client arrivals;
//! * a shared [`DnsCache`] answers repeats — positive entries and
//!   RFC 2308 negative verdicts alike — without upstream traffic;
//! * identical concurrent misses are **coalesced** onto one in-flight
//!   upstream query;
//! * misses ride a pooled [`Upstream`]
//!   ([`UpstreamPolicy::pool`](doqlab_dox::UpstreamPolicy::pool)), so
//!   handshakes happen on first use and after idle evictions, not per
//!   query;
//! * per-client resolve times land in a local logarithmic histogram
//!   (the same buckets as `doqlab-telemetry`), cache hits counting as
//!   zero-latency resolutions.

use crate::cache::{CachedAnswer, DnsCache};
use crate::host::NEGATIVE_TTL;
use crate::workload::WorkloadGen;
use doqlab_dnswire::{Message, NameId, RData, Rcode, RecordType};
use doqlab_dox::Upstream;
use doqlab_simnet::{Ctx, Host, Packet, SimTime};
use doqlab_telemetry::metrics::bucket_index;
use std::any::Any;

/// Per-cohort accounting, exported into the campaign sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StubStats {
    /// Client queries presented to the stub.
    pub queries: u64,
    /// Served from the shared cache (positive or negative entry).
    pub cache_hits: u64,
    /// Subset of `cache_hits` served from a negative entry.
    pub negative_hits: u64,
    /// Misses that joined an already in-flight upstream query.
    pub coalesced: u64,
    /// Queries actually sent upstream.
    pub upstream_queries: u64,
    /// Upstream answers received (positive or negative).
    pub upstream_answered: u64,
    /// Client queries abandoned because the pool gave up on them.
    pub failed: u64,
}

/// One in-flight upstream query and the client arrivals waiting on it.
#[derive(Debug)]
struct Inflight {
    id: u16,
    /// Interned handle from the workload generator — coalescing
    /// compares 4-byte ids, not heap label vectors.
    name_id: NameId,
    rtype: RecordType,
    /// Issue time of every waiting client query (first = the one that
    /// triggered the upstream query, rest = coalesced joiners).
    waiters: Vec<SimTime>,
}

/// The stub/forwarder simulator host.
pub struct StubResolverHost {
    upstream: Upstream,
    cache: DnsCache,
    cache_enabled: bool,
    gen: WorkloadGen,
    next_arrival: Option<SimTime>,
    inflight: Vec<Inflight>,
    next_id: u16,
    stats: StubStats,
    /// Logarithmic resolve-time histogram (`bucket_index` buckets),
    /// grown on demand.
    hist: Vec<u64>,
}

impl StubResolverHost {
    /// Build a stub for one cohort. `upstream` should carry a pool
    /// policy; `cache_enabled: false` degrades the stub to a pure
    /// forwarder (every query goes upstream).
    pub fn new(upstream: Upstream, gen: WorkloadGen, cache_enabled: bool) -> Self {
        StubResolverHost {
            upstream,
            cache: DnsCache::new(),
            cache_enabled,
            gen,
            next_arrival: None,
            inflight: Vec::new(),
            next_id: 1,
            stats: StubStats::default(),
            hist: Vec::new(),
        }
    }

    /// Anchor the workload window at the current simulated time and arm
    /// the first arrival. Call once, right after adding the host:
    /// without it the stub never wakes up.
    pub fn prime(&mut self, ctx: &mut Ctx<'_>) {
        self.gen.anchor(ctx.now);
        self.next_arrival = self.gen.next_arrival(ctx.now, ctx.rng);
    }

    pub fn stats(&self) -> StubStats {
        self.stats
    }

    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    pub fn upstream(&self) -> &Upstream {
        &self.upstream
    }

    /// The resolve-time histogram as sparse `(bucket, count)` pairs.
    /// Cache hits are recorded as zero-latency resolutions (bucket 0).
    pub fn resolve_hist(&self) -> Vec<(u32, u64)> {
        self.hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    fn record_resolve(&mut self, ns: u64) {
        let i = bucket_index(ns);
        if i >= self.hist.len() {
            self.hist.resize(i + 1, 0);
        }
        self.hist[i] += 1;
    }

    fn alloc_id(&mut self) -> u16 {
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            if !self.inflight.iter().any(|f| f.id == id) {
                return id;
            }
        }
    }

    /// One client query arrives: try the cache, then coalesce onto an
    /// in-flight upstream query, then go upstream.
    fn on_client_query(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.queries += 1;
        let rank = self.gen.sample_rank(ctx.rng);
        let (name_id, rtype) = self.gen.query_id_for_rank(rank);
        if self.cache_enabled {
            match self.cache.get_answer_id(ctx.now, name_id, rtype) {
                Some(CachedAnswer::Records(_)) => {
                    self.stats.cache_hits += 1;
                    self.record_resolve(0);
                    return;
                }
                Some(CachedAnswer::Negative(_)) => {
                    self.stats.cache_hits += 1;
                    self.stats.negative_hits += 1;
                    self.record_resolve(0);
                    return;
                }
                None => {}
            }
        }
        if let Some(f) = self
            .inflight
            .iter_mut()
            .find(|f| f.rtype == rtype && f.name_id == name_id)
        {
            f.waiters.push(ctx.now);
            self.stats.coalesced += 1;
            return;
        }
        let id = self.alloc_id();
        // The one place an owned Name is needed: the wire query.
        let msg = Message::query(id, self.gen.name_of(name_id).clone(), rtype);
        self.inflight.push(Inflight {
            id,
            name_id,
            rtype,
            waiters: vec![ctx.now],
        });
        self.stats.upstream_queries += 1;
        self.upstream.start_with_query(ctx, &msg);
    }

    /// Negative TTL for a response, RFC 2308 style: `min(SOA TTL, SOA
    /// MINIMUM)` from the authority section, defaulting to the
    /// simulated zone's [`NEGATIVE_TTL`].
    fn negative_ttl(resp: &Message) -> u32 {
        resp.authorities
            .iter()
            .find_map(|rr| match &rr.rdata {
                RData::Soa { minimum, .. } => Some(rr.ttl.min(*minimum)),
                _ => None,
            })
            .unwrap_or(NEGATIVE_TTL)
    }

    /// Fold upstream progress back into the stub: retire answered
    /// in-flight queries (filling the cache, timing every waiter) and
    /// fail the ones the pool abandoned.
    fn collect_upstream(&mut self) {
        for (at, resp) in std::mem::take(&mut self.upstream.responses) {
            let Some(pos) = self.inflight.iter().position(|f| f.id == resp.header.id) else {
                continue;
            };
            let f = self.inflight.swap_remove(pos);
            self.stats.upstream_answered += 1;
            if self.cache_enabled {
                match (resp.header.rcode, resp.answers.is_empty()) {
                    (Rcode::NoError, false) => {
                        self.cache
                            .put_id(at, f.name_id, f.rtype, resp.answers.clone());
                    }
                    (Rcode::NoError, true) | (Rcode::NxDomain, _) => {
                        self.cache.put_negative_id(
                            at,
                            f.name_id,
                            f.rtype,
                            resp.header.rcode,
                            Self::negative_ttl(&resp),
                        );
                    }
                    // Other rcodes (FORMERR, SERVFAIL …) are not
                    // cacheable verdicts.
                    _ => {}
                }
            }
            for issued in f.waiters {
                self.record_resolve((at - issued).as_nanos() as u64);
            }
        }
        for q in self.upstream.take_abandoned() {
            if let Some(pos) = self.inflight.iter().position(|f| f.id == q.header.id) {
                let f = self.inflight.swap_remove(pos);
                self.stats.failed += f.waiters.len() as u64;
            }
        }
    }
}

impl Host for StubResolverHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.upstream.on_packet(ctx, pkt);
        self.collect_upstream();
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        // Issue every arrival that is due; ctx.now is exactly the
        // armed arrival time unless upstream timers coincided.
        while let Some(t) = self.next_arrival {
            if t > ctx.now {
                break;
            }
            self.on_client_query(ctx);
            self.next_arrival = self.gen.next_arrival(t, ctx.rng);
        }
        self.upstream.on_wakeup(ctx);
        self.collect_upstream();
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        match (self.next_arrival, self.upstream.next_wakeup()) {
            (Some(a), Some(u)) => Some(a.min(u)),
            (a, u) => a.or(u),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{RecursionModel, ResolverHost};
    use crate::workload::WorkloadSpec;
    use doqlab_dox::server::ServerConfig;
    use doqlab_dox::{ClientConfig, DnsTransport, UpstreamPolicy};
    use doqlab_simnet::path::FixedPathModel;
    use doqlab_simnet::{Duration, Ipv4Addr, Simulator, SocketAddr};

    #[derive(Debug, PartialEq)]
    struct RunOutcome {
        stats: StubStats,
        cache: (u64, u64),
        negative: u64,
        reuses: u64,
        evictions: u32,
        reconnects: u32,
        hist: Vec<(u32, u64)>,
        /// Distinct source ports the stub sent from.
        source_ports: usize,
    }

    fn run_population(
        transport: DnsTransport,
        spec: WorkloadSpec,
        cache_enabled: bool,
        seed: u64,
    ) -> RunOutcome {
        run_against(
            transport,
            spec,
            cache_enabled,
            seed,
            ServerConfig::default(),
        )
    }

    fn run_against(
        transport: DnsTransport,
        spec: WorkloadSpec,
        cache_enabled: bool,
        seed: u64,
        server: ServerConfig,
    ) -> RunOutcome {
        let resolver_ip = Ipv4Addr::new(192, 0, 2, 1);
        let stub_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut sim = Simulator::new(
            seed,
            Box::new(FixedPathModel::new(Duration::from_millis(10))),
        );
        sim.enable_trace();
        let resolver = ResolverHost::new(
            ServerConfig {
                ip: resolver_ip,
                ..server
            },
            RecursionModel::default(),
        );
        sim.add_host(Box::new(resolver), &[resolver_ip]);
        let upstream = Upstream::new(
            transport,
            SocketAddr::new(stub_ip, 40_000),
            SocketAddr::new(resolver_ip, transport.port()),
            ClientConfig::default(),
            UpstreamPolicy::pool(
                std::time::Duration::from_secs(10),
                2,
                std::time::Duration::from_millis(250),
            ),
        );
        let window = spec.window;
        let stub = StubResolverHost::new(upstream, WorkloadGen::new(spec), cache_enabled);
        let sid = sim.add_host(Box::new(stub), &[stub_ip]);
        sim.with_host::<StubResolverHost, _>(sid, |s, ctx| s.prime(ctx));
        sim.run_until(SimTime::ZERO + window + Duration::from_secs(60));
        let mut ports: Vec<u16> = sim
            .trace()
            .expect("tracing enabled")
            .records()
            .iter()
            .filter(|r| r.src.ip == stub_ip)
            .map(|r| r.src.port)
            .collect();
        ports.sort_unstable();
        ports.dedup();
        let stub = sim.host::<StubResolverHost>(sid);
        RunOutcome {
            stats: stub.stats(),
            cache: stub.cache().stats(),
            negative: stub.cache().negative_hits(),
            reuses: stub.upstream().pool_reuses(),
            evictions: stub.upstream().pool_evictions(),
            reconnects: stub.upstream().reconnects(),
            hist: stub.resolve_hist(),
            source_ports: ports.len(),
        }
    }

    fn busy_spec() -> WorkloadSpec {
        WorkloadSpec {
            clients: 20,
            queries_per_client: 30.0,
            window: Duration::from_secs(600),
            alpha: 1.0,
            domains: 40,
            nxdomain_tail: 0.25,
        }
    }

    #[test]
    fn cohort_day_hits_cache_and_reuses_connections() {
        let out = run_population(DnsTransport::DoT, busy_spec(), true, 42);
        // ~600 expected queries at 1/s against TTL-300 records: the
        // popular head must hit, misses must coalesce or pool.
        let expect = 20.0 * 30.0;
        let n = out.stats.queries as f64;
        assert!(n > 0.8 * expect && n < 1.2 * expect, "{:?}", out.stats);
        assert!(out.stats.cache_hits > 0, "no cache hits: {:?}", out.stats);
        assert!(
            out.stats.upstream_queries < out.stats.queries,
            "{:?}",
            out.stats
        );
        assert_eq!(
            out.stats.queries,
            out.stats.cache_hits + out.stats.coalesced + out.stats.upstream_queries,
            "{:?}",
            out.stats
        );
        assert!(out.reuses > 0, "pool never reused a connection");
        assert!(!out.hist.is_empty());
        // Bucket 0 = zero-latency cache hits.
        assert_eq!(out.hist[0].0, 0);
        assert!(out.hist[0].1 >= out.stats.cache_hits);
    }

    #[test]
    fn idle_eviction_is_not_a_reconnect() {
        // After the window's last response the connection sits idle and
        // must be evicted — bookkept as an eviction, never a reconnect.
        // DoUDP on a clean network cannot fail, so any nonzero
        // reconnect count here could only be a miscounted eviction.
        let out = run_population(DnsTransport::DoUdp, busy_spec(), true, 42);
        assert!(out.evictions >= 1, "no idle eviction: {out:?}");
        assert_eq!(out.reconnects, 0, "eviction counted as reconnect");
    }

    #[test]
    fn a_refused_transport_exhausts_the_pool_and_fails_every_client() {
        // The resolver drops every packet of the stub's transport. Each
        // query flow dials, redials twice (two reconnects, each from a
        // fresh source port), then abandons its queries and fails their
        // clients; the next query starts a new flow with a fresh budget.
        let spec = WorkloadSpec {
            clients: 4,
            queries_per_client: 5.0,
            window: Duration::from_secs(120),
            ..busy_spec()
        };
        let refused = [
            (
                DnsTransport::DoT,
                ServerConfig {
                    supports_dot: false,
                    ..ServerConfig::default()
                },
            ),
            (
                DnsTransport::DoQ,
                ServerConfig {
                    supports_doq: false,
                    ..ServerConfig::default()
                },
            ),
            (
                DnsTransport::DoH,
                ServerConfig {
                    supports_doh: false,
                    ..ServerConfig::default()
                },
            ),
        ];
        for (transport, server) in refused {
            let out = run_against(transport, spec.clone(), true, 42, server);
            assert_eq!(out.reconnects, 14, "{transport}: {out:?}");
            assert_eq!(out.source_ports, 21, "{transport}: {out:?}");
            assert_eq!(out.evictions, 0, "{transport}: {out:?}");
            assert_eq!(out.stats.upstream_answered, 0, "{transport}: {out:?}");
            assert_eq!(out.stats.failed, out.stats.queries, "{transport}: {out:?}");
        }
    }

    #[test]
    fn nxdomain_tail_populates_the_negative_cache() {
        let spec = WorkloadSpec {
            clients: 50,
            queries_per_client: 20.0,
            window: Duration::from_secs(120),
            alpha: 1.2,
            domains: 10,
            nxdomain_tail: 0.9,
        };
        let out = run_population(DnsTransport::DoUdp, spec, true, 7);
        assert!(out.negative > 0, "no negative hits: {out:?}");
    }

    #[test]
    fn disabling_the_cache_forwards_everything() {
        let out = run_population(DnsTransport::DoUdp, busy_spec(), false, 42);
        assert_eq!(out.cache, (0, 0));
        assert_eq!(out.stats.cache_hits, 0);
        // Every query either went upstream or coalesced onto one.
        assert_eq!(
            out.stats.queries,
            out.stats.upstream_queries + out.stats.coalesced
        );
    }

    #[test]
    fn cohort_runs_are_deterministic() {
        let a = run_population(DnsTransport::DoQ, busy_spec(), true, 1234);
        let b = run_population(DnsTransport::DoQ, busy_spec(), true, 1234);
        assert_eq!(a, b);
        let c = run_population(DnsTransport::DoQ, busy_spec(), true, 1235);
        assert_ne!(a, c);
    }
}
