//! The upstream manager: the DNS client connections a host keeps to its
//! resolver, and the policy that opens, reuses, redials, races and
//! closes them.
//!
//! [`Upstream`] serves the study's three clients, each one value of
//! [`UpstreamPolicy`]:
//!
//! * **The measured client** (the default policy, plus a regime's
//!   deadline, reconnect budget and failover ladder): one query on one
//!   connection. A failed connection is redialed from the same address
//!   with exponential backoff, re-issuing the query and presenting the
//!   session material gathered so far; once the budget is spent the
//!   verdict is terminal and the manager goes quiet. A failover ladder
//!   races fallback transports against it.
//! * **A stub's pool** ([`UpstreamPolicy::pool`]): the connection stays
//!   open across queries (amortizing the TLS/QUIC handshake, counted as
//!   `pool.reuse`), is closed once idle (`pool.evict_idle`, never a
//!   reconnect), and the next query dials fresh. A query flow whose
//!   budget runs out is abandoned ([`Upstream::take_abandoned`]); the
//!   next query starts over with a fresh budget.
//! * **The page-load proxy** ([`UpstreamPolicy::proxy`]): the paper's
//!   dnsproxy (§3.2) never redials; its reuse rule opens a fresh DoTCP
//!   connection per query and, with the DoT bug, a second DoT connection
//!   while the first has a query in flight.
//!
//! Each connection sits in a slot with its transport, source address,
//! bytes moved and queries in flight. Packets reach a slot by its source
//! address; slots are polled and harvested in dial order.

use crate::client::{
    ClientConfig, ConnMetadata, DnsClientConn, DnsTransport, FailoverPolicy, FailureKind,
    SessionState,
};
use crate::doh::DoHClient;
use crate::doh3::DoH3Client;
use crate::doq::DoQClient;
use crate::dot::DoTClient;
use crate::tcp::DoTcpClient;
use crate::udp::DoUdpClient;
use doqlab_dnswire::Message;
use doqlab_simnet::{Ctx, Host, Ipv4Addr, Packet, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::any::Any;
use std::time::Duration;

/// A pooled connection that neither completes its handshake nor reaches
/// a terminal error within this long (e.g. endless PTO retries against a
/// peer that will never answer) is treated as failed. A single flow has
/// its query deadline for that.
const HANDSHAKE_GUARD: Duration = Duration::from_secs(4);

/// Construct a client connection for any of the six transports.
fn make_client(
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

/// When a query opens a connection of its own instead of riding an open
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Reuse {
    /// Every query rides the first open connection.
    #[default]
    Persistent,
    /// Every query opens its own connection.
    PerQuery,
    /// A query opens another connection while the open one has a query
    /// in flight: the dnsproxy DoT bug (§3.2).
    NewWhileBusy,
}

/// How an [`Upstream`] uses its connections, as data. The default is the
/// plain measured client: one persistent connection, no deadline, no
/// redial, no ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct UpstreamPolicy {
    pub reuse: Reuse,
    /// Pooling: keep connections across queries and close one that sat
    /// idle (no query in flight) this long; the next query dials fresh.
    /// A pool also binds every dial to a fresh source port, gives up on a
    /// handshake after a 4 s guard, counts a query on an established
    /// connection as a reuse, and abandons a query flow whose budget runs
    /// out instead of ending with a verdict.
    pub idle_timeout: Option<Duration>,
    /// Redials of a failed connection per query flow; `0` never redials.
    pub reconnect_max: u32,
    /// Backoff before the first redial; doubles per attempt.
    pub reconnect_backoff: Duration,
    /// Per-query deadline, armed by the first query and disarmed by the
    /// first response. If it expires first the query fails with
    /// [`FailureKind::DeadlineExceeded`], or with the transport's own
    /// diagnosis if it has one.
    pub query_deadline: Option<Duration>,
    /// Fallback transports raced against the primary connection.
    pub failover: Option<FailoverPolicy>,
}

impl Default for UpstreamPolicy {
    fn default() -> Self {
        UpstreamPolicy {
            reuse: Reuse::Persistent,
            idle_timeout: None,
            reconnect_max: 0,
            reconnect_backoff: Duration::from_millis(250),
            query_deadline: None,
            failover: None,
        }
    }
}

impl UpstreamPolicy {
    /// A stub's pool: connections idle for `idle` are evicted, and a
    /// failed one is redialed up to `reconnect_max` times per query flow.
    pub fn pool(idle: Duration, reconnect_max: u32, reconnect_backoff: Duration) -> Self {
        UpstreamPolicy {
            idle_timeout: Some(idle),
            reconnect_max,
            reconnect_backoff,
            ..UpstreamPolicy::default()
        }
    }

    /// The page-load proxy's rules (§3.2): a fresh DoTCP connection per
    /// query unless the client asks for keepalive (RFC 7828; no resolver
    /// honours it by default), with `dot_bug` a second DoT connection
    /// while the first is busy, and one persistent connection otherwise.
    pub fn proxy(transport: DnsTransport, keepalive: bool, dot_bug: bool) -> Self {
        let reuse = match transport {
            DnsTransport::DoTcp if !keepalive => Reuse::PerQuery,
            DnsTransport::DoT if dot_bug => Reuse::NewWhileBusy,
            _ => Reuse::Persistent,
        };
        UpstreamPolicy {
            reuse,
            ..UpstreamPolicy::default()
        }
    }
}

/// What still reaches a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// Packets, polls and its own timers.
    Live,
    /// Packets and polls but not its timers: a pool's closed connection
    /// finishing its teardown until the next dial takes its place.
    Closing,
    /// Nothing: a connection awaiting its redial, a settled rung, a flow
    /// that has given up.
    Ignored,
}

/// One connection and its bookkeeping.
struct Slot {
    transport: DnsTransport,
    conn: Box<dyn DnsClientConn>,
    local: SocketAddr,
    opened: SimTime,
    /// Bytes the connection sent and received.
    bytes: u64,
    /// Queries issued on it and not yet answered.
    inflight: usize,
    reach: Reach,
}

impl Slot {
    /// Feed the connection a packet (if any) and flush it, counting the
    /// bytes both ways.
    fn pump(&mut self, now: SimTime, pkt: Option<&Packet>, out: &mut Vec<Packet>) {
        let before = out.len();
        if let Some(pkt) = pkt {
            self.bytes += pkt.payload.len() as u64;
            self.conn.on_packet(now, pkt, out);
        }
        self.conn.poll(now, out);
        self.bytes += bytes_of(&out[before..]);
    }
}

fn bytes_of(packets: &[Packet]) -> u64 {
    packets.iter().map(|p| p.payload.len() as u64).sum()
}

/// The upstream manager, also a simulator host of its own.
pub struct Upstream {
    transport: DnsTransport,
    remote: SocketAddr,
    /// What every dial of the primary transport presents; its session is
    /// the resumption material captured so far, carried across
    /// redials, evictions and export.
    cfg: ClientConfig,
    policy: UpstreamPolicy,
    /// The first dial's source address; each later dial binds the next
    /// port above it.
    base: SocketAddr,
    dials: u32,
    slots: Vec<Slot>,
    /// Queries not yet answered; a redial or a rung re-issues them.
    pending: Vec<Message>,
    /// Responses accumulated across the manager's lifetime.
    pub responses: Vec<(SimTime, Message)>,
    started_at: Option<SimTime>,
    deadline: Option<SimTime>,
    redial_at: Option<SimTime>,
    /// Redials spent by the current query flow (reset once it completes,
    /// unlike the monotonic `reconnects`).
    budget_used: u32,
    reconnects: u32,
    /// Terminal verdict; once set the manager goes quiet.
    terminal: Option<FailureKind>,
    /// Last query issue or response arrival: the idle clock.
    last_activity: SimTime,
    evictions: u32,
    reuses: u64,
    /// Queries abandoned after the budget ran out, for the owner to
    /// collect.
    abandoned: Vec<Message>,
    rungs: usize,
    /// Transport that produced the first response under a ladder.
    winner: Option<DnsTransport>,
    /// Bytes spent on connections that did not win the race (all of
    /// them, if the whole race failed).
    wasted_bytes: u64,
    race_settled: bool,
}

impl Upstream {
    pub fn new(
        transport: DnsTransport,
        local: SocketAddr,
        remote: SocketAddr,
        cfg: ClientConfig,
        policy: UpstreamPolicy,
    ) -> Self {
        Upstream {
            transport,
            remote,
            cfg,
            policy,
            base: local,
            dials: 0,
            slots: Vec::new(),
            pending: Vec::new(),
            responses: Vec::new(),
            started_at: None,
            deadline: None,
            redial_at: None,
            budget_used: 0,
            reconnects: 0,
            terminal: None,
            last_activity: SimTime::ZERO,
            evictions: 0,
            reuses: 0,
            abandoned: Vec::new(),
            rungs: 0,
            winner: None,
            wasted_bytes: 0,
            race_settled: false,
        }
    }

    /// Issue a query: on an open connection if the reuse rule allows,
    /// else on a fresh dial. A query arriving while a redial is pending
    /// waits for it.
    pub fn query(&mut self, now: SimTime, rng: &mut SimRng, msg: Message, out: &mut Vec<Packet>) {
        if self.started_at.is_none() {
            self.started_at = Some(now);
            self.deadline = self.policy.query_deadline.map(|d| now + d);
        }
        self.last_activity = now;
        self.pending.push(msg);
        let q = self.pending.len() - 1;
        let open = match self.policy.reuse {
            Reuse::PerQuery => None,
            rule => self
                .slots
                .iter()
                .position(|s| {
                    s.transport == self.transport && s.reach == Reach::Live && !s.conn.failed()
                })
                .filter(|&i| rule == Reuse::Persistent || self.slots[i].inflight == 0),
        };
        if let Some(i) = open {
            let s = &mut self.slots[i];
            if self.policy.idle_timeout.is_some() && s.conn.handshake_done_at().is_some() {
                self.reuses += 1;
                metrics::count(Counter::PoolReuse, 1);
            }
            s.inflight += 1;
            s.conn.query(now, &self.pending[q]);
            s.pump(now, None, out);
        } else if self.redial_at.is_none() {
            let local = self.next_local();
            let slot = self.dial(now, rng, self.transport, local, q, out);
            // A fresh dial takes the place of a pool's closed connection.
            match self.slots.iter().position(|s| s.reach == Reach::Closing) {
                Some(i) => self.slots[i] = slot,
                None => self.slots.push(slot),
            }
        }
        self.harvest();
    }

    /// Queue a query from inside a simulator callback.
    pub fn start_with_query(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let mut out = Vec::new();
        self.query(ctx.now, ctx.rng, msg.clone(), &mut out);
        send(ctx, out);
    }

    /// A packet for one of the manager's sockets: pump its slot, then
    /// supervise. A packet for no slot (a port a pool has moved on from,
    /// the address a rebind left) is dropped unseen, as a real stack's
    /// closed socket would.
    pub fn receive(&mut self, now: SimTime, rng: &mut SimRng, pkt: &Packet, out: &mut Vec<Packet>) {
        let Some(s) = self.slots.iter_mut().find(|s| s.local == pkt.dst) else {
            return;
        };
        if s.reach != Reach::Ignored {
            s.pump(now, Some(pkt), out);
        }
        self.harvest();
        self.supervise(now, rng, out);
        self.race(now, rng, out);
    }

    /// Run every slot's timers, then supervise.
    pub fn poll(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        for s in &mut self.slots {
            if s.reach != Reach::Ignored {
                s.pump(now, None, out);
            }
        }
        self.harvest();
        self.supervise(now, rng, out);
        self.race(now, rng, out);
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        let live = |s: &&Slot| s.reach == Reach::Live;
        let pool = self
            .slots
            .first()
            .filter(live)
            .zip(self.policy.idle_timeout);
        let evict = pool
            .filter(|_| self.pending.is_empty())
            .map(|(_, idle)| self.last_activity + idle);
        let guard = pool
            .filter(|(p, _)| p.conn.handshake_done_at().is_none())
            .map(|(p, _)| p.opened + HANDSHAKE_GUARD);
        let rung = self
            .next_rung()
            .filter(|_| !self.race_settled)
            .map(|(_, due)| due);
        self.slots
            .iter()
            .filter(live)
            .filter_map(|s| s.conn.next_timeout())
            .chain(
                [self.deadline, self.redial_at, evict, guard, rung]
                    .into_iter()
                    .flatten(),
            )
            .min()
    }

    /// The next dial's source address: one port up per dial, as a real
    /// stub's sockets would bind.
    fn next_local(&mut self) -> SocketAddr {
        let port = self.base.port.wrapping_add((self.dials % 16_384) as u16);
        self.dials += 1;
        SocketAddr::new(self.base.ip, port)
    }

    /// Open `transport` from `local` and issue the unanswered queries
    /// from index `from` on: a fresh dial carries its own query, a redial
    /// or a rung all of them. The primary transport presents the session
    /// material captured so far, a rung none.
    fn dial(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        transport: DnsTransport,
        local: SocketAddr,
        from: usize,
        out: &mut Vec<Packet>,
    ) -> Slot {
        let rung = transport != self.transport;
        let remote = match rung {
            true => SocketAddr::new(self.remote.ip, transport.port()),
            false => self.remote,
        };
        let session = rung.then(|| std::mem::take(&mut self.cfg.session));
        let mut conn = make_client(transport, local, remote, &self.cfg);
        if let Some(s) = session {
            self.cfg.session = s;
        }
        for q in &self.pending[from..] {
            conn.query(now, q);
        }
        let before = out.len();
        conn.start(now, rng, out);
        conn.poll(now, out);
        Slot {
            transport,
            conn,
            local,
            opened: now,
            bytes: bytes_of(&out[before..]),
            inflight: self.pending.len() - from,
            reach: Reach::Live,
        }
    }

    /// Replace the failed primary with a fresh connection carrying every
    /// unanswered query. A genuine reconnect, unlike an eviction.
    fn redial(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        metrics::count(Counter::Reconnects, 1);
        self.capture();
        self.reconnects += 1;
        self.budget_used += 1;
        // A single flow redials from its own address. A pool binds a
        // fresh port: reusing the 4-tuple would hand the new handshake to
        // whatever stale state the server still holds for it — e.g. when
        // the previous connection's CLOSE was lost in transit, a QUIC
        // server keeps routing the old connection by 4-tuple and the new
        // handshake retries forever against it.
        let local = match self.policy.idle_timeout {
            Some(_) => self.next_local(),
            None => self.slots[0].local,
        };
        self.slots[0] = self.dial(now, rng, self.transport, local, 0, out);
    }

    /// Fold the session material the primary transport's connections
    /// gathered into what every later dial presents.
    pub fn capture(&mut self) {
        for s in &mut self.slots {
            if s.transport == self.transport {
                self.cfg.session.merge(s.conn.session_state());
            }
        }
    }

    /// Everything captured so far, e.g. to seed a later client.
    pub fn take_session(&mut self) -> SessionState {
        self.capture();
        std::mem::take(&mut self.cfg.session)
    }

    /// Take every slot's responses: retire their queries, disarm the
    /// deadline and, under a ladder, note which transport answered first.
    fn harvest(&mut self) {
        for s in &mut self.slots {
            let taken = s.conn.take_responses();
            if taken.is_empty() {
                continue;
            }
            s.inflight = s.inflight.saturating_sub(taken.len());
            if self.policy.failover.is_some() {
                self.winner.get_or_insert(s.transport);
            }
            for (at, resp) in &taken {
                self.pending.retain(|q| q.header.id != resp.header.id);
                self.last_activity = *at;
            }
            self.deadline = None;
            self.budget_used = 0;
            self.responses.extend(taken);
        }
    }

    /// The verdict is terminal: stop listening and stop every timer.
    fn give_up(&mut self, kind: FailureKind) {
        self.terminal = Some(kind);
        self.deadline = None;
        self.redial_at = None;
        for s in &mut self.slots {
            s.reach = Reach::Ignored;
        }
    }

    /// Enforce the deadline, redial a failed primary within the budget
    /// and evict an idle pooled connection. Run after every event.
    fn supervise(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        if self.terminal.is_some() {
            return;
        }
        if self.deadline.is_some_and(|d| now >= d) {
            // The deadline is terminal whatever the transport is doing;
            // a diagnosis the transport already made is kept.
            let kind = self.slots[0].conn.failure();
            self.give_up(kind.unwrap_or(FailureKind::DeadlineExceeded));
            self.slots[0].conn.close(now, out);
            return;
        }
        if let Some(at) = self.redial_at {
            if now >= at {
                self.redial_at = None;
                self.redial(now, rng, out);
            }
            return;
        }
        let Some(primary) = self.slots.first_mut().filter(|s| s.reach == Reach::Live) else {
            return;
        };
        let idle = self.policy.idle_timeout;
        let stuck = idle.is_some()
            && primary.conn.handshake_done_at().is_none()
            && now >= primary.opened + HANDSHAKE_GUARD;
        if primary.conn.failed() || stuck {
            if !self.pending.is_empty() && self.budget_used < self.policy.reconnect_max {
                let backoff = (self.policy.reconnect_backoff)
                    .saturating_mul(1u32 << self.budget_used.min(16));
                self.redial_at = Some(now + backoff);
                primary.reach = Reach::Ignored;
            } else if idle.is_some() {
                // Abandon the flow and tear the connection down; the
                // next query dials fresh with a fresh budget.
                self.abandoned.append(&mut self.pending);
                self.close_idle(now, out);
            } else if self.policy.reconnect_max > 0 && !self.pending.is_empty() {
                let kind = primary.conn.failure();
                self.give_up(kind.expect("a failed connection names its failure"));
            }
            return;
        }
        if idle.is_some_and(|idle| self.pending.is_empty() && now >= self.last_activity + idle) {
            self.close_idle(now, out);
            self.evictions += 1;
            metrics::count(Counter::PoolEvictIdle, 1);
        }
    }

    /// Close the pool's connection, keeping what it captured.
    fn close_idle(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.capture();
        self.slots[0].conn.close(now, out);
        self.slots[0].reach = Reach::Closing;
        self.budget_used = 0;
    }

    /// The next ladder rung and when its stagger alone makes it due;
    /// `None` once the ladder is spent or before the first query.
    fn next_rung(&self) -> Option<(DnsTransport, SimTime)> {
        let f = self.policy.failover.as_ref()?;
        let &to = f.ladder.get(self.rungs)?;
        Some((to, self.started_at? + f.stagger * (self.rungs as u32 + 1)))
    }

    /// Failover supervision: settle a decided race, dial the next rung
    /// when its stagger elapses (or at once, when everything dialed has
    /// failed) and fail the race once the ladder is spent.
    fn race(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<Packet>) {
        if self.policy.failover.is_none() || self.race_settled {
            return;
        }
        if let Some(winner) = self.winner {
            return self.settle(now, Some(winner), out);
        }
        if self.terminal.is_some() {
            return self.settle(now, None, out);
        }
        let dead = self.slots.iter().all(|s| s.conn.failed());
        match self.next_rung() {
            Some((to, due)) if now >= due || dead => self.dial_rung(now, rng, to, out),
            None if dead => {
                let kind = self.slots.iter().find_map(|s| s.conn.failure());
                self.give_up(kind.unwrap_or(FailureKind::Timeout));
                self.settle(now, None, out);
            }
            _ => {}
        }
    }

    /// Dial the next ladder rung from the primary's port + k + 1, aimed
    /// at the fallback transport's well-known port, carrying every
    /// unanswered query.
    fn dial_rung(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        to: DnsTransport,
        out: &mut Vec<Packet>,
    ) {
        let k = self.rungs;
        let from = self.transport;
        sink::emit(now.as_nanos(), || Event::FailoverRaced {
            from: from.name(),
            to: to.name(),
        });
        metrics::count(Counter::FailoverRaced, 1);
        let p = self.slots[0].local;
        let local = SocketAddr::new(p.ip, p.port.wrapping_add(k as u16 + 1));
        let slot = self.dial(now, rng, to, local, 0, out);
        self.slots.push(slot);
        self.rungs += 1;
    }

    /// End the race: close every connection of a losing transport and
    /// book its bytes as waste (every connection, rungs first, if the
    /// race failed). Rungs stop listening; a losing primary finishes its
    /// teardown.
    fn settle(&mut self, now: SimTime, winner: Option<DnsTransport>, out: &mut Vec<Packet>) {
        self.race_settled = true;
        let first = usize::from(winner.is_none());
        for i in (first..self.slots.len()).chain(0..first) {
            let s = &mut self.slots[i];
            if winner != Some(s.transport) {
                self.wasted_bytes += s.bytes;
                s.conn.close(now, out);
            }
            if s.transport != self.transport {
                s.reach = Reach::Ignored;
            }
        }
    }

    /// Move the host to a new local IP: the endpoint half of the
    /// simulator's `rebind_host`. QUIC transports migrate the live
    /// connection (RFC 9000 §9); the rest keep the no-op
    /// [`DnsClientConn::rebind`] and are left with a stranded socket that
    /// only a redial or the ladder recovers from. Rungs still racing are
    /// as stranded, so each is redialed from the new IP on its old port,
    /// like a stub re-racing after a network change. The old rung's bytes
    /// are already waste; its dying socket can emit nothing onto the
    /// vanished interface, so it is dropped unclosed.
    pub fn rebind_local(&mut self, ctx: &mut Ctx<'_>, new_ip: Ipv4Addr) {
        self.base.ip = new_ip;
        let mut out = Vec::new();
        for i in 0..self.slots.len() {
            let s = &mut self.slots[i];
            let local = SocketAddr::new(new_ip, s.local.port);
            if s.transport == self.transport {
                s.local = local;
                let before = out.len();
                s.conn.rebind(ctx.now, local, &mut out);
                s.bytes += bytes_of(&out[before..]);
            } else if !self.race_settled {
                self.wasted_bytes += s.bytes;
                let transport = s.transport;
                self.slots[i] = self.dial(ctx.now, ctx.rng, transport, local, 0, &mut out);
            }
        }
        send(ctx, out);
    }

    /// When the first query was issued.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// When the primary connection's session became usable.
    pub fn handshake_done_at(&self) -> Option<SimTime> {
        self.slots.first()?.conn.handshake_done_at()
    }

    /// Time from first packet to usable session.
    pub fn handshake_time(&self) -> Option<Duration> {
        Some(self.handshake_done_at()? - self.started_at?)
    }

    /// The primary connection's negotiated-protocol metadata.
    pub fn metadata(&self) -> ConnMetadata {
        self.slots
            .first()
            .map(|s| s.conn.metadata())
            .unwrap_or_default()
    }

    /// Why the query run failed, if it did: the terminal verdict
    /// (deadline, budget or ladder spent) or, failing that, the primary
    /// connection's own classification. `None` once any response
    /// arrived.
    pub fn failure(&self) -> Option<FailureKind> {
        if !self.responses.is_empty() {
            return None;
        }
        self.terminal.or_else(|| self.slots.first()?.conn.failure())
    }

    /// How many replacement connections were dialed.
    pub fn reconnects(&self) -> u32 {
        self.reconnects
    }

    /// Connections dialed for queries (redials of a pool included, rungs
    /// and a single flow's redials not).
    pub fn dials(&self) -> u32 {
        self.dials
    }

    /// Idle-timeout closes. Never counted into
    /// [`Upstream::reconnects`]: an idle eviction is not a failure.
    pub fn pool_evictions(&self) -> u32 {
        self.evictions
    }

    /// Queries that rode an already-established pooled connection: the
    /// handshakes the pool amortized away.
    pub fn pool_reuses(&self) -> u64 {
        self.reuses
    }

    /// Drain the queries the pool abandoned (budget exhausted), so the
    /// owning stub can fail the waiting clients instead of leaking them.
    pub fn take_abandoned(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.abandoned)
    }

    /// Transport that produced the first response, once the race is
    /// decided. `None` while undecided, when everything failed, or
    /// without a ladder.
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
        self.rungs as u32
    }

    /// True if `addr` is one of the manager's sockets.
    pub fn owns(&self, addr: SocketAddr) -> bool {
        self.slots.iter().any(|s| s.local == addr)
    }
}

fn send(ctx: &mut Ctx<'_>, out: Vec<Packet>) {
    for p in out {
        ctx.send(p);
    }
}

impl Host for Upstream {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut out = Vec::new();
        self.receive(ctx.now, ctx.rng, &pkt, &mut out);
        send(ctx, out);
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        self.poll(ctx.now, ctx.rng, &mut out);
        send(ctx, out);
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.next_timeout()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
