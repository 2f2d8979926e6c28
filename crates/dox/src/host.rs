//! Simulator-host glue: wraps any [`DnsClientConn`] as a
//! [`doqlab_simnet::Host`], which is how the measurement harness and
//! the DNS proxy drive client connections.
//!
//! Beyond forwarding packets and timers, the host is the resilience
//! layer shared by all five transports: it enforces the per-query
//! deadline ([`ClientConfig::query_deadline`]), and when the underlying
//! connection fails permanently it can tear it down and dial a fresh
//! one with exponential backoff ([`ClientConfig::reconnect_max`]),
//! re-issuing the pending queries and carrying forward any session
//! ticket the failed attempt managed to gather. With both knobs at
//! their defaults (no deadline, no reconnects) the host behaves exactly
//! as it did before the resilience layer existed.
//!
//! With [`ClientConfig::pool_idle_timeout`] set the host switches to
//! **pooled mode** for population-scale workloads: the connection stays
//! open across queries (amortizing the TLS/QUIC handshake — counted as
//! `pool.reuse`), a connection idle past the timeout is closed and
//! bookkept as a pool eviction (`pool.evict_idle`, never a reconnect),
//! and the next query after an eviction or failure dials fresh,
//! presenting whatever session ticket earlier connections captured.
//! Pooled failure redials re-issue only the still-unanswered queries.

use crate::client::{
    ClientConfig, DnsClientConn, DnsTransport, FailureKind, SessionCache, SessionState,
};
use crate::doh::DoHClient;
use crate::doh3::DoH3Client;
use crate::doq::DoQClient;
use crate::dot::DoTClient;
use crate::tcp::DoTcpClient;
use crate::udp::DoUdpClient;
use doqlab_dnswire::Message;
use doqlab_simnet::{Ctx, Host, Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::any::Any;

/// Construct a client connection for any of the five transports.
pub fn make_client(
    transport: DnsTransport,
    local: SocketAddr,
    remote: SocketAddr,
    cfg: &ClientConfig,
) -> Box<dyn DnsClientConn> {
    match transport {
        DnsTransport::DoUdp => Box::new(DoUdpClient::new(local, remote, cfg)),
        DnsTransport::DoTcp => Box::new(DoTcpClient::new(local, remote, cfg)),
        DnsTransport::DoT => Box::new(DoTClient::new(local, remote, cfg)),
        DnsTransport::DoH => Box::new(DoHClient::new(local, remote, cfg)),
        DnsTransport::DoQ => Box::new(DoQClient::new(local, remote, cfg)),
        DnsTransport::DoH3 => Box::new(DoH3Client::new(local, remote, cfg)),
    }
}

/// A simulator host owning one DNS client connection.
pub struct DnsClientHost {
    pub conn: Box<dyn DnsClientConn>,
    /// Responses accumulated across the connection's lifetime.
    pub responses: Vec<(SimTime, Message)>,
    started_at: Option<SimTime>,
    // Everything needed to dial a replacement connection.
    transport: DnsTransport,
    local: SocketAddr,
    remote: SocketAddr,
    cfg: ClientConfig,
    /// Queries issued so far, re-sent on a reconnected connection.
    issued: Vec<Message>,
    /// Absolute per-query deadline, armed at start.
    deadline: Option<SimTime>,
    /// Pending reconnect: dial again at this time.
    reconnect_at: Option<SimTime>,
    reconnects_done: u32,
    /// Terminal verdict; once set the host goes quiet.
    terminal: Option<FailureKind>,
    // --- pooled mode (cfg.pool_idle_timeout = Some) -------------------
    /// Unanswered queries with their issue times; a pool redial
    /// re-issues only these, never the full history.
    pending: Vec<(SimTime, Message)>,
    /// Last query issue or response arrival; the idle clock.
    last_activity: SimTime,
    /// A live (dialed, not evicted) connection exists.
    dialed: bool,
    /// When the live connection was dialed (handshake-deadline clock).
    dialed_at: SimTime,
    /// The source port of the first dial; each pool redial binds a
    /// fresh port above it, as a real stub's sockets would.
    base_port: u16,
    /// Pooled dials so far (drives the source-port rotation).
    dials: u32,
    /// Reconnect budget consumed by the current query flow (reset once
    /// the flow completes, unlike the monotonic `reconnects_done`).
    pool_budget_used: u32,
    pool_evictions: u32,
    /// Queries issued on an already-established pooled connection.
    pool_reuses: u64,
    /// Queries abandoned after the reconnect budget was exhausted.
    failed_queries: u64,
    /// The abandoned queries themselves, for the owner to collect.
    abandoned: Vec<Message>,
    /// Resumption material captured so far, keyed by resolver address;
    /// carried across pool evictions, redials and reconnects, and
    /// exportable so a later host can resume where this one left off.
    sessions: SessionCache,
    // --- cross-transport failover (cfg.failover = Some) ---------------
    /// Fallback connections raced against the primary, in ladder order.
    racers: Vec<Racer>,
    /// Transport that produced the first response (set once).
    winner: Option<DnsTransport>,
    /// Bytes spent on connections that did not win (all bytes if the
    /// whole race failed).
    wasted_bytes: u64,
    /// Bytes the primary connection moved (tracked only while racing).
    primary_bytes: u64,
    /// The race is over (won, failed, or deadline); losers are closed.
    race_settled: bool,
}

/// One fallback rung of the failover ladder: a full client connection
/// on its own source port, racing the primary.
struct Racer {
    transport: DnsTransport,
    conn: Box<dyn DnsClientConn>,
    local: SocketAddr,
    bytes: u64,
}

impl DnsClientHost {
    pub fn new(
        transport: DnsTransport,
        local: SocketAddr,
        remote: SocketAddr,
        cfg: &ClientConfig,
    ) -> Self {
        // Resumption material handed in via the config belongs in the
        // cache too: a redial must not forget what the caller knew.
        let mut sessions = SessionCache::default();
        sessions.store(remote, cfg.session.clone());
        DnsClientHost {
            conn: make_client(transport, local, remote, cfg),
            responses: Vec::new(),
            started_at: None,
            transport,
            local,
            remote,
            cfg: cfg.clone(),
            issued: Vec::new(),
            deadline: None,
            reconnect_at: None,
            reconnects_done: 0,
            terminal: None,
            pending: Vec::new(),
            last_activity: SimTime::ZERO,
            dialed: false,
            dialed_at: SimTime::ZERO,
            base_port: local.port,
            dials: 0,
            pool_budget_used: 0,
            pool_evictions: 0,
            pool_reuses: 0,
            failed_queries: 0,
            abandoned: Vec::new(),
            sessions,
            racers: Vec::new(),
            winner: None,
            wasted_bytes: 0,
            primary_bytes: 0,
            race_settled: false,
        }
    }

    /// Pooling is on: the host keeps the connection across queries.
    fn pooled(&self) -> bool {
        self.cfg.pool_idle_timeout.is_some()
    }

    /// Queue a query and open the connection (idempotent open).
    pub fn start_with_query(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        if self.pooled() {
            self.pool_query(ctx, msg);
            return;
        }
        self.issued.push(msg.clone());
        self.conn.query(ctx.now, msg);
        let mut out = Vec::new();
        if self.started_at.is_none() {
            self.started_at = Some(ctx.now);
            if let Some(d) = self.cfg.query_deadline {
                self.deadline = Some(ctx.now + d);
            }
            self.conn.start(ctx.now, ctx.rng, &mut out);
        }
        self.conn.poll(ctx.now, &mut out);
        if self.racing() {
            for p in &out {
                self.primary_bytes += p.payload.len() as u64;
            }
        }
        for p in out {
            ctx.send(p);
        }
    }

    /// When the connection attempt began.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Time from first packet to usable session.
    pub fn handshake_time(&self) -> Option<doqlab_simnet::Duration> {
        Some(self.conn.handshake_done_at()? - self.started_at?)
    }

    /// Resumption material captured so far for this host's resolver:
    /// the live connection's capture merged over anything earlier
    /// dials (or the config) contributed.
    pub fn session_state(&mut self) -> SessionState {
        self.capture_session();
        self.sessions.get(self.remote).cloned().unwrap_or_default()
    }

    /// Why the query run failed, if it did: the host-level verdict
    /// (deadline exceeded, reconnects exhausted) or, failing that, the
    /// live connection's own classification. `None` once any response
    /// arrived.
    pub fn failure(&self) -> Option<FailureKind> {
        if !self.responses.is_empty() {
            return None;
        }
        self.terminal.or_else(|| self.conn.failure())
    }

    /// How many replacement connections were dialed.
    pub fn reconnects(&self) -> u32 {
        self.reconnects_done
    }

    /// Resilience supervision, run after every event: enforce the
    /// per-query deadline, detect a dead connection and schedule or
    /// perform the reconnect. A no-op for default configs.
    fn supervise(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        if self.terminal.is_some() {
            return;
        }
        if let Some(d) = self.deadline {
            if !self.responses.is_empty() {
                self.deadline = None;
            } else if now >= d {
                // The deadline is terminal: abandon the query whatever
                // the transport is doing.
                self.deadline = None;
                self.reconnect_at = None;
                // If the transport already knows why it died, keep that
                // diagnosis; otherwise the deadline itself is the cause.
                self.terminal = Some(self.conn.failure().unwrap_or(FailureKind::DeadlineExceeded));
                self.conn.close(now, out);
                return;
            }
        }
        if let Some(at) = self.reconnect_at {
            if now >= at {
                self.reconnect_at = None;
                self.reconnect(now, rng, out);
            }
            return;
        }
        if self.cfg.reconnect_max > 0 && self.responses.is_empty() && self.conn.failed() {
            if self.reconnects_done < self.cfg.reconnect_max {
                // Exponential backoff: base * 2^attempts.
                let backoff = self
                    .cfg
                    .reconnect_backoff
                    .saturating_mul(1u32 << self.reconnects_done.min(16));
                self.reconnect_at = Some(now + backoff);
            } else {
                self.terminal = self.conn.failure();
            }
        }
    }

    /// Replace the dead connection with a fresh one, re-issuing every
    /// query and reusing any resumption material gathered so far.
    fn reconnect(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        metrics::count(Counter::Reconnects, 1);
        self.capture_session();
        let mut cfg = self.cfg.clone();
        if let Some(s) = self.sessions.get(self.remote) {
            cfg.session = s.clone();
        }
        self.conn = make_client(self.transport, self.local, self.remote, &cfg);
        self.reconnects_done += 1;
        for q in &self.issued {
            self.conn.query(now, q);
        }
        self.conn.start(now, rng, out);
        self.conn.poll(now, out);
    }

    // --- pooled mode --------------------------------------------------

    /// Pool evictions performed (idle-timeout closes). Never counted
    /// into [`DnsClientHost::reconnects`]: an idle eviction is not a
    /// failure.
    pub fn pool_evictions(&self) -> u32 {
        self.pool_evictions
    }

    /// Queries abandoned after the reconnect budget ran out (pooled
    /// mode only).
    pub fn failed_queries(&self) -> u64 {
        self.failed_queries
    }

    /// Queries that rode an already-established pooled connection — the
    /// handshakes the pool amortized away.
    pub fn pool_reuses(&self) -> u64 {
        self.pool_reuses
    }

    /// Drain the queries the pool abandoned (budget exhausted), so the
    /// owning stub can fail the waiting clients instead of leaking them.
    pub fn take_abandoned(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.abandoned)
    }

    /// Fold the live connection's resumption material into the session
    /// cache under the resolver it came from.
    fn capture_session(&mut self) {
        let s = self.conn.session_state();
        self.sessions.store(self.remote, s);
    }

    /// Export the session cache (folding in whatever the live
    /// connection holds first), e.g. to seed a later host's cache.
    pub fn export_sessions(&mut self) -> SessionCache {
        self.capture_session();
        self.sessions.clone()
    }

    /// Issue a query on the pooled connection, dialing one if none is
    /// live. Reuse of an established connection is the pooling payoff
    /// and is counted as such.
    fn pool_query(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        self.pending.push((ctx.now, msg.clone()));
        self.last_activity = ctx.now;
        let mut out = Vec::new();
        if self.dialed {
            if self.conn.handshake_done_at().is_some() {
                self.pool_reuses += 1;
                metrics::count(Counter::PoolReuse, 1);
            }
            self.conn.query(ctx.now, msg);
            self.conn.poll(ctx.now, &mut out);
        } else {
            self.pool_dial(ctx.now, ctx.rng, &mut out);
        }
        for p in out {
            ctx.send(p);
        }
    }

    /// Dial a fresh pooled connection and issue every pending query on
    /// it, presenting any session material captured so far.
    fn pool_dial(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        let mut cfg = self.cfg.clone();
        if let Some(s) = self.sessions.get(self.remote) {
            cfg.session = s.clone();
        }
        // Every dial binds a fresh source port, as a real stub's socket
        // would. Reusing the 4-tuple would hand the new handshake to
        // whatever stale state the server still holds for it — e.g.
        // when the previous connection's CLOSE was lost in transit, a
        // QUIC server keeps routing the old connection by 4-tuple and
        // the new handshake retries forever against it.
        self.local = SocketAddr::new(
            self.local.ip,
            self.base_port.wrapping_add((self.dials % 16_384) as u16),
        );
        self.dials += 1;
        self.dialed_at = now;
        self.conn = make_client(self.transport, self.local, self.remote, &cfg);
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        let pending: Vec<Message> = self.pending.iter().map(|(_, q)| q.clone()).collect();
        for q in &pending {
            self.conn.query(now, q);
        }
        self.conn.start(now, rng, out);
        self.conn.poll(now, out);
        self.dialed = true;
    }

    /// Failure recovery for the pooled connection: dial a replacement
    /// and re-issue only the *pending* queries. This is a genuine
    /// reconnect and counts as one — unlike a pool eviction.
    fn pool_failure_redial(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        metrics::count(Counter::Reconnects, 1);
        self.capture_session();
        self.reconnects_done += 1;
        self.pool_budget_used += 1;
        self.dialed = false;
        self.pool_dial(now, rng, out);
    }

    /// Pooled-mode supervision: recover from transport failures within
    /// the reconnect budget, and close connections that sat idle past
    /// `pool_idle_timeout` (bookkept as evictions, never reconnects).
    fn supervise_pooled(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        let idle = self.cfg.pool_idle_timeout.expect("pooled");
        if let Some(at) = self.reconnect_at {
            if now >= at {
                self.reconnect_at = None;
                self.pool_failure_redial(now, rng, out);
            }
            return;
        }
        // A handshake that neither completes nor reaches a terminal
        // error within the budget (e.g. endless PTO retries against a
        // peer that will never answer) is treated as a failure.
        let hs_overdue = self.dialed
            && self.conn.handshake_done_at().is_none()
            && now >= self.dialed_at + self.cfg.pool_handshake_timeout;
        if self.dialed && (self.conn.failed() || hs_overdue) {
            if !self.pending.is_empty()
                && self.cfg.reconnect_max > 0
                && self.pool_budget_used < self.cfg.reconnect_max
            {
                let backoff = self
                    .cfg
                    .reconnect_backoff
                    .saturating_mul(1u32 << self.pool_budget_used.min(16));
                self.reconnect_at = Some(now + backoff);
            } else {
                // Budget exhausted (or nothing in flight): abandon the
                // pending queries and tear the connection down; the
                // next query dials fresh with a fresh budget.
                self.failed_queries += self.pending.len() as u64;
                self.abandoned
                    .extend(self.pending.drain(..).map(|(_, q)| q));
                self.capture_session();
                self.conn.close(now, out);
                self.dialed = false;
                self.pool_budget_used = 0;
            }
            return;
        }
        if self.dialed && self.pending.is_empty() && now >= self.last_activity + idle {
            self.capture_session();
            self.conn.close(now, out);
            self.dialed = false;
            self.pool_evictions += 1;
            self.pool_budget_used = 0;
            metrics::count(Counter::PoolEvictIdle, 1);
        }
    }

    /// Fold freshly-taken responses into the host: in pooled mode they
    /// retire their pending queries (matched by message id) and restart
    /// the idle clock.
    fn absorb_responses(&mut self, taken: Vec<(SimTime, Message)>) {
        if self.pooled() && !taken.is_empty() {
            for (at, resp) in &taken {
                self.pending.retain(|(_, q)| q.header.id != resp.header.id);
                self.last_activity = *at;
            }
            self.pool_budget_used = 0;
        }
        self.responses.extend(taken);
    }

    // --- cross-transport failover racing ------------------------------

    /// Failover racing is active: a ladder is configured and the host
    /// is in non-pooled (single query flow) mode. Racing and pooling
    /// are mutually exclusive; racing configs should also leave
    /// `reconnect_max` at 0 — the ladder *is* the recovery strategy.
    fn racing(&self) -> bool {
        self.cfg.failover.is_some() && !self.pooled()
    }

    /// Transport that produced the first response, once the race is
    /// decided. `None` while undecided or when everything failed.
    pub fn winner(&self) -> Option<DnsTransport> {
        self.winner
    }

    /// Bytes moved by connections that did not produce the winning
    /// response (every connection, if the whole race failed).
    pub fn wasted_bytes(&self) -> u64 {
        self.wasted_bytes
    }

    /// Fallback rungs actually dialed.
    pub fn rungs_dialed(&self) -> u32 {
        self.racers.len() as u32
    }

    /// Source address for ladder rung `k`: the primary's current IP,
    /// one port per rung above the primary's.
    fn rung_local(&self, k: usize) -> SocketAddr {
        SocketAddr::new(self.local.ip, self.local.port.wrapping_add(k as u16 + 1))
    }

    /// When rung `k` becomes eligible by stagger alone. `None` once the
    /// ladder is exhausted or before the first query started.
    fn rung_due(&self, k: usize) -> Option<SimTime> {
        let policy = self.cfg.failover.as_ref()?;
        if k >= policy.ladder.len() {
            return None;
        }
        Some(self.started_at? + policy.stagger * (k as u32 + 1))
    }

    /// Dial the next ladder rung: a fresh connection on its own source
    /// port, aimed at the fallback transport's well-known server port,
    /// carrying every query issued so far.
    fn dial_rung(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        let Some(policy) = self.cfg.failover.clone() else {
            return;
        };
        let k = self.racers.len();
        let Some(&transport) = policy.ladder.get(k) else {
            return;
        };
        let local = self.rung_local(k);
        let remote = SocketAddr::new(self.remote.ip, transport.port());
        let mut cfg = self.cfg.clone();
        cfg.failover = None;
        cfg.session = SessionState::default();
        let primary = self.transport;
        sink::emit(now.as_nanos(), || Event::FailoverRaced {
            from: primary.name(),
            to: transport.name(),
        });
        metrics::count(Counter::FailoverRaced, 1);
        let mut conn = make_client(transport, local, remote, &cfg);
        for q in &self.issued {
            conn.query(now, q);
        }
        let mut sent = Vec::new();
        conn.start(now, rng, &mut sent);
        conn.poll(now, &mut sent);
        let bytes = sent.iter().map(|p| p.payload.len() as u64).sum();
        out.extend(sent);
        self.racers.push(Racer {
            transport,
            conn,
            local,
            bytes,
        });
    }

    /// Pump a racer's timers and collect its responses. The first
    /// response from any racer decides the race.
    fn poll_racers(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        for i in 0..self.racers.len() {
            let taken = {
                let r = &mut self.racers[i];
                let before = out.len();
                r.conn.poll(now, out);
                for p in &out[before..] {
                    r.bytes += p.payload.len() as u64;
                }
                r.conn.take_responses()
            };
            if !taken.is_empty() && self.winner.is_none() {
                self.winner = Some(self.racers[i].transport);
            }
            self.absorb_responses(taken);
        }
    }

    /// Race supervision, run after every event while racing: decide a
    /// settled race, dial the next rung when its stagger elapses (or
    /// sooner, if everything already dialed has failed), and give the
    /// whole race a terminal verdict once the ladder is exhausted.
    fn supervise_failover(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        if self.race_settled {
            return;
        }
        if !self.responses.is_empty() {
            let winner = self.winner.unwrap_or(self.transport);
            self.settle_race(now, winner, out);
            return;
        }
        if self.terminal.is_some() {
            // Host-level verdict (per-query deadline): race over.
            self.settle_race_failed(now, out);
            return;
        }
        let k = self.racers.len();
        let primary_dead = self.conn.failed();
        let racers_dead = self.racers.iter().all(|r| r.conn.failed());
        if self.rung_due(k).is_some() {
            // Ladder not yet exhausted: dial on stagger expiry, or
            // immediately once everything already running is dead.
            let due = self.rung_due(k).is_some_and(|d| now >= d);
            if due || (primary_dead && racers_dead) {
                self.dial_rung(now, rng, out);
            }
        } else if primary_dead && racers_dead {
            self.terminal = Some(
                self.conn
                    .failure()
                    .or_else(|| self.racers.iter().find_map(|r| r.conn.failure()))
                    .unwrap_or(FailureKind::Timeout),
            );
            self.settle_race_failed(now, out);
        }
    }

    /// A response arrived: record the winner, close every loser, and
    /// book the bytes the losers moved as waste.
    fn settle_race(&mut self, now: SimTime, winner: DnsTransport, out: &mut Vec<Packet>) {
        self.race_settled = true;
        self.winner = Some(winner);
        if winner != self.transport {
            self.wasted_bytes += self.primary_bytes;
            self.conn.close(now, out);
        }
        for r in &mut self.racers {
            if r.transport != winner {
                self.wasted_bytes += r.bytes;
                r.conn.close(now, out);
            }
        }
    }

    /// The whole race failed: everything was waste.
    fn settle_race_failed(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.race_settled = true;
        self.wasted_bytes += self.primary_bytes;
        for r in &mut self.racers {
            self.wasted_bytes += r.bytes;
            r.conn.close(now, out);
        }
        self.conn.close(now, out);
    }

    /// A packet addressed to one of the racer ports.
    fn racer_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Some(i) = self.racers.iter().position(|r| r.local == pkt.dst) else {
            return;
        };
        let mut out = Vec::new();
        if !self.race_settled {
            let taken = {
                let r = &mut self.racers[i];
                r.bytes += pkt.payload.len() as u64;
                r.conn.on_packet(ctx.now, &pkt, &mut out);
                r.conn.poll(ctx.now, &mut out);
                for p in &out {
                    r.bytes += p.payload.len() as u64;
                }
                r.conn.take_responses()
            };
            if !taken.is_empty() && self.winner.is_none() {
                self.winner = Some(self.racers[i].transport);
            }
            self.absorb_responses(taken);
            self.supervise_failover(ctx.now, ctx.rng, &mut out);
        }
        for p in out {
            ctx.send(p);
        }
    }

    /// Move the host's primary socket to a new local IP — the endpoint
    /// half of the simulator's `rebind_host` (which moves the address
    /// the network delivers to). QUIC transports migrate the live
    /// connection (RFC 9000 §9); the rest inherit the default no-op
    /// [`DnsClientConn::rebind`] and are left with a stranded socket
    /// that only reconnects or failover racing can recover from.
    pub fn rebind_local(&mut self, ctx: &mut Ctx<'_>, new_ip: doqlab_simnet::Ipv4Addr) {
        self.local = SocketAddr::new(new_ip, self.local.port);
        let mut out = Vec::new();
        self.conn.rebind(ctx.now, self.local, &mut out);
        if self.racing() {
            for p in &out {
                self.primary_bytes += p.payload.len() as u64;
            }
        }
        // Rungs dialed before the change are as stranded as the
        // primary (only QUIC migrates): redial each one from the new
        // address, like a stub re-racing after a network change. The
        // old rung's bytes are already waste; its dying socket can't
        // emit anything onto the vanished interface, so its close
        // output is discarded.
        if self.racing() && !self.race_settled {
            for i in 0..self.racers.len() {
                let transport = self.racers[i].transport;
                let local = SocketAddr::new(new_ip, self.racers[i].local.port);
                let mut cfg = self.cfg.clone();
                cfg.failover = None;
                cfg.session = SessionState::default();
                let remote = SocketAddr::new(self.remote.ip, transport.port());
                let mut conn = make_client(transport, local, remote, &cfg);
                for q in &self.issued {
                    conn.query(ctx.now, q);
                }
                let mut sent = Vec::new();
                conn.start(ctx.now, ctx.rng, &mut sent);
                conn.poll(ctx.now, &mut sent);
                let bytes = sent.iter().map(|p| p.payload.len() as u64).sum();
                out.extend(sent);
                let old = std::mem::replace(
                    &mut self.racers[i],
                    Racer {
                        transport,
                        conn,
                        local,
                        bytes,
                    },
                );
                self.wasted_bytes += old.bytes;
            }
        }
        for p in out {
            ctx.send(p);
        }
    }
}

impl Host for DnsClientHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        // Only the current sockets receive: racing rungs listen on
        // their own addresses, and anything else is retired — a pooled
        // dial's rotated-away port, or (after a rebind) the primary's
        // old address that already-routed in-flight packets still
        // carry. A real stack's stranded socket would never see those.
        if pkt.dst != self.local {
            if self.racing() && self.racers.iter().any(|r| r.local == pkt.dst) {
                self.racer_packet(ctx, pkt);
            }
            return;
        }
        let mut out = Vec::new();
        // Once the verdict is terminal or a replacement dial is
        // pending, the connection is dead: late packets addressed to it
        // are dropped instead of pumped into closed state machines.
        if self.terminal.is_none() && self.reconnect_at.is_none() {
            self.conn.on_packet(ctx.now, &pkt, &mut out);
            self.conn.poll(ctx.now, &mut out);
            if self.racing() {
                self.primary_bytes += pkt.payload.len() as u64;
                for p in &out {
                    self.primary_bytes += p.payload.len() as u64;
                }
            }
            let taken = self.conn.take_responses();
            self.absorb_responses(taken);
        }
        if self.pooled() {
            self.supervise_pooled(ctx.now, ctx.rng, &mut out);
        } else {
            self.supervise(ctx.now, ctx.rng, &mut out);
            if self.racing() {
                self.supervise_failover(ctx.now, ctx.rng, &mut out);
            }
        }
        for p in out {
            ctx.send(p);
        }
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        if self.terminal.is_none() && self.reconnect_at.is_none() {
            self.conn.poll(ctx.now, &mut out);
            if self.racing() {
                for p in &out {
                    self.primary_bytes += p.payload.len() as u64;
                }
            }
            let taken = self.conn.take_responses();
            self.absorb_responses(taken);
        }
        if self.racing() && !self.race_settled {
            self.poll_racers(ctx.now, &mut out);
        }
        if self.pooled() {
            self.supervise_pooled(ctx.now, ctx.rng, &mut out);
        } else {
            self.supervise(ctx.now, ctx.rng, &mut out);
            if self.racing() {
                self.supervise_failover(ctx.now, ctx.rng, &mut out);
            }
        }
        for p in out {
            ctx.send(p);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        if self.pooled() {
            // Pooled connections never go terminal; their timers are
            // the live connection's, the pending failure redial, and
            // the idle-eviction sweep.
            let mut next = match self.reconnect_at {
                Some(at) => Some(at),
                None if self.dialed => self.conn.next_timeout(),
                None => None,
            };
            if self.dialed && self.reconnect_at.is_none() && self.pending.is_empty() {
                let evict = self.last_activity + self.cfg.pool_idle_timeout.expect("pooled");
                next = Some(next.map_or(evict, |n| n.min(evict)));
            }
            if self.dialed && self.reconnect_at.is_none() && self.conn.handshake_done_at().is_none()
            {
                let hs = self.dialed_at + self.cfg.pool_handshake_timeout;
                next = Some(next.map_or(hs, |n| n.min(hs)));
            }
            return next;
        }
        // Once terminal, the host goes quiet: re-advertising the dead
        // connection's timers would spin the event loop forever.
        if self.terminal.is_some() {
            return None;
        }
        // While a replacement dial is pending the dead connection's
        // timers are irrelevant (and would spin the loop, since its
        // wakeups are no longer delivered).
        let mut next = match self.reconnect_at {
            Some(at) => Some(at),
            None => self.conn.next_timeout(),
        };
        if self.responses.is_empty() {
            if let Some(d) = self.deadline {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        if self.racing() && !self.race_settled {
            // Racer timers, plus the next rung's stagger expiry.
            for r in &self.racers {
                if let Some(t) = r.conn.next_timeout() {
                    next = Some(next.map_or(t, |n| n.min(t)));
                }
            }
            if let Some(due) = self.rung_due(self.racers.len()) {
                next = Some(next.map_or(due, |n| n.min(due)));
            }
        }
        next
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
