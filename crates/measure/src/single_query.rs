//! §3.1 — the single-query campaign.
//!
//! One measurement unit is `[vantage point : resolver : protocol :
//! repetition]`. Following §2's methodology, each unit runs in its own
//! micro-simulation:
//!
//! 1. a **cache-warming query** for `google.com` over a fresh
//!    connection: the resolver recurses and caches; the client captures
//!    the TLS session ticket, the QUIC NEW_TOKEN and the negotiated
//!    QUIC version;
//! 2. the **measured query** over a new connection that presents the
//!    captured material (Session Resumption + token, per the DoQ RFC's
//!    recommendation), answered from the warm cache.
//!
//! The sample records the handshake time (first transport packet ->
//! session established), the resolve time (first DNS-query packet ->
//! valid response) and the per-direction, per-phase IP payload bytes
//! of Table 1. Byte accounting is streaming: a [`PhaseByteTap`]
//! classifies packets as the simulator routes them, so a unit never
//! retains its full packet trace. The campaign itself is a unit grid
//! executed by [`crate::engine`] on reusable simulator arenas.

use crate::engine;
use crate::vantage::{vantage_points, VantagePoint};
use crate::Scale;
use doqlab_dnswire::{Message, Name, RecordType};
use doqlab_dox::{
    Capabilities, ClientConfig, ConnMetadata, DnsClientHost, DnsTransport, FailoverPolicy,
    FailureKind, SessionState,
};
use doqlab_resolver::{RecursionModel, ResolverHost, ResolverProfile};
use doqlab_simnet::geo::Continent;
use doqlab_simnet::path::{GeoPathModel, GeoPathParams, PathProfile};
use doqlab_simnet::{
    Duration, ImpairmentSchedule, Ipv4Addr, OutageWindow, PacketRecord, PacketTap, SimTime,
    Simulator, SocketAddr,
};
use doqlab_telemetry::metrics::{self, Counter, Series};

/// Byte totals per phase and direction (IP payload, like Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBytes {
    pub handshake_c2r: usize,
    pub handshake_r2c: usize,
    pub query_c2r: usize,
    pub response_r2c: usize,
}

impl PhaseBytes {
    pub fn total(&self) -> usize {
        self.handshake_c2r + self.handshake_r2c + self.query_c2r + self.response_r2c
    }
}

/// Streaming Table-1 byte accounting.
///
/// Installed as the simulator's [`PacketTap`] for the measured phase of
/// a unit, it classifies every client<->resolver packet into the four
/// [`PhaseBytes`] buckets the moment it is routed. It replaces the
/// retained [`doqlab_simnet::PacketTrace`] + post-hoc scan the campaign
/// used to do per unit, and produces bit-identical totals:
///
/// * **DoQ** — the long-header bit of the first payload byte marks
///   Initial/Handshake datagrams; short headers carry the 1-RTT query
///   and response.
/// * **Stream transports** — packets sent before the handshake
///   completed are handshake bytes. Until completion is observed the
///   split is unknown, so packets buffer in `pending` (a handful of
///   handshake flights at most) and are classified when
///   [`PhaseByteTap::set_split`] delivers the completion time. If the
///   handshake never completes, [`PhaseByteTap::finish`] classifies
///   everything as query/response — exactly the historical
///   `split = started` accounting for failed handshakes, and for
///   connectionless DoUDP.
#[derive(Debug)]
pub struct PhaseByteTap {
    /// Client addresses, in bind order: the measured client's original
    /// address plus any it rebound to mid-run (mobility units). Almost
    /// always length 1.
    clients: Vec<Ipv4Addr>,
    resolver: Ipv4Addr,
    mode: TapMode,
    /// `(sent_at, client-to-resolver, ip_payload_len)` of packets seen
    /// before the time split is known.
    pending: Vec<(SimTime, bool, usize)>,
    bytes: PhaseBytes,
}

#[derive(Debug, Clone, Copy)]
enum TapMode {
    /// QUIC: classify by the long-header bit, no time split needed.
    QuicHeader,
    /// Stream transports: classify by send time against the handshake
    /// completion instant (`None` while still unobserved).
    TimeSplit(Option<SimTime>),
}

impl PhaseByteTap {
    /// Accounting for DoQ (long/short header classification).
    pub fn quic(client: Ipv4Addr, resolver: Ipv4Addr) -> Self {
        PhaseByteTap {
            clients: vec![client],
            resolver,
            mode: TapMode::QuicHeader,
            pending: Vec::new(),
            bytes: PhaseBytes::default(),
        }
    }

    /// Accounting for stream transports and DoUDP: the handshake/data
    /// split instant is delivered later via [`PhaseByteTap::set_split`].
    pub fn deferred_split(client: Ipv4Addr, resolver: Ipv4Addr) -> Self {
        PhaseByteTap {
            clients: vec![client],
            resolver,
            mode: TapMode::TimeSplit(None),
            pending: Vec::new(),
            bytes: PhaseBytes::default(),
        }
    }

    /// Register an additional client address (a mid-run rebind): bytes
    /// to and from it keep counting toward the same unit.
    pub fn add_client(&mut self, ip: Ipv4Addr) {
        if !self.clients.contains(&ip) {
            self.clients.push(ip);
        }
    }

    /// Deliver the handshake completion instant: buffered packets sent
    /// strictly before `split` are handshake bytes, the rest (and all
    /// subsequent packets) are query/response bytes.
    pub fn set_split(&mut self, split: SimTime) {
        if let TapMode::TimeSplit(slot @ None) = &mut self.mode {
            *slot = Some(split);
            for (sent_at, c2r, len) in std::mem::take(&mut self.pending) {
                self.account(sent_at >= split, c2r, len);
            }
        }
    }

    /// Finalize and return the totals. Packets still pending — the
    /// handshake never completed — all count as query/response, which
    /// is what the historical trace scan did (`split = started`).
    pub fn finish(&mut self) -> PhaseBytes {
        for (_, c2r, len) in std::mem::take(&mut self.pending) {
            self.account(true, c2r, len);
        }
        self.bytes
    }

    fn account(&mut self, app: bool, c2r: bool, len: usize) {
        match (app, c2r) {
            (false, true) => self.bytes.handshake_c2r += len,
            (false, false) => self.bytes.handshake_r2c += len,
            (true, true) => self.bytes.query_c2r += len,
            (true, false) => self.bytes.response_r2c += len,
        }
    }
}

impl PacketTap for PhaseByteTap {
    fn on_packet(&mut self, rec: &PacketRecord) {
        let c2r = self.clients.contains(&rec.src.ip) && rec.dst.ip == self.resolver;
        let r2c = rec.src.ip == self.resolver && self.clients.contains(&rec.dst.ip);
        if !c2r && !r2c {
            return;
        }
        match self.mode {
            TapMode::QuicHeader => {
                self.account(!rec.is_quic_long_header(), c2r, rec.ip_payload_len);
            }
            TapMode::TimeSplit(Some(split)) => {
                self.account(rec.sent_at >= split, c2r, rec.ip_payload_len);
            }
            TapMode::TimeSplit(None) => {
                self.pending.push((rec.sent_at, c2r, rec.ip_payload_len));
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One measurement.
#[derive(Debug, Clone)]
pub struct SingleQuerySample {
    pub vp: usize,
    pub vp_continent: Continent,
    pub resolver: usize,
    pub resolver_continent: Continent,
    pub transport: DnsTransport,
    /// `None` for DoUDP (connectionless) and for failed handshakes.
    pub handshake_ms: Option<f64>,
    /// First DNS-query packet to valid response.
    pub resolve_ms: Option<f64>,
    pub bytes: PhaseBytes,
    pub metadata: ConnMetadata,
    pub failed: bool,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct SingleQueryCampaign {
    pub seed: u64,
    pub scale: Scale,
    /// Present captured session material on the measured connection
    /// (disable to reproduce the preliminary study's amplification
    /// penalty — ablation A1).
    pub use_resumption: bool,
    pub path_params: GeoPathParams,
}

impl SingleQueryCampaign {
    pub fn new(scale: Scale) -> Self {
        SingleQueryCampaign {
            seed: 0xD05_2022,
            scale,
            use_resumption: true,
            path_params: GeoPathParams::default(),
        }
    }
}

/// Per-unit overrides: everything a regime of a [`crate::sweep`] changes
/// about the unit, as plain data. The default is the vanilla unit:
/// standard seed, no impairment, no resilience policy — under which
/// [`run_unit_custom`] is bit-identical to the plain unit runner.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOptions {
    /// Seed override (`None` → the campaign's standard unit seed).
    pub seed: Option<u64>,
    /// Impairment for the measured phase. Its outage windows are
    /// offsets from the phase's start (`SimTime::ZERO` is the measured
    /// client's first flight); [`run_unit_custom`] anchors them there.
    /// The warm phase always runs unimpaired, and an inert schedule is
    /// never installed.
    pub impairment: ImpairmentSchedule,
    /// Per-query deadline for the measured connection.
    pub query_deadline: Option<Duration>,
    /// Reconnect budget for the measured connection.
    pub reconnect_max: u32,
    pub reconnect_backoff: Duration,
    /// How long the measured phase may run in simulated time.
    pub run_deadline: Duration,
    /// Mobility schedule: address rebinds applied to the measured
    /// client, each `(offset, profile)` an offset from handshake
    /// completion (from the phase start for DoUDP) onto a fresh address
    /// with the given path overlay. Empty → no mobility, bit-identical
    /// to the vanilla unit.
    pub rebinds: Vec<(Duration, PathProfile)>,
    /// Cross-transport happy-eyeballs ladder for the measured
    /// connection.
    pub failover: Option<FailoverPolicy>,
    /// Capabilities switched on for the resolver and both clients. With
    /// TFO the measured DoTCP connection puts the query on the SYN using
    /// the cookie the warming connection cached — carried even when the
    /// campaign disables TLS resumption, since TFO is an independent
    /// mechanism.
    pub caps: Capabilities,
}

impl Default for UnitOptions {
    fn default() -> Self {
        let cfg = ClientConfig::default();
        UnitOptions {
            seed: None,
            impairment: ImpairmentSchedule::new(),
            query_deadline: cfg.query_deadline,
            reconnect_max: cfg.reconnect_max,
            reconnect_backoff: cfg.reconnect_backoff,
            run_deadline: Duration::from_secs(20),
            rebinds: Vec::new(),
            failover: None,
            caps: Capabilities::default(),
        }
    }
}

/// Everything a unit run produces beyond the sample itself.
pub struct UnitOutcome {
    pub sample: SingleQuerySample,
    /// The failure taxonomy verdict for the measured query, `None` on
    /// success.
    pub failure: Option<FailureKind>,
    /// Replacement connections the measured client dialed.
    pub reconnects: u32,
    /// When the measured phase started.
    pub started: SimTime,
    /// When the measured handshake completed.
    pub hs_done: Option<SimTime>,
    /// Address rebinds actually applied (a schedule entry past the run
    /// deadline is skipped).
    pub rebinds_applied: u32,
    /// When the first rebind landed.
    pub first_rebind_at: Option<SimTime>,
    /// Bytes spent on losing failover rungs and dead primaries.
    pub wasted_bytes: u64,
    /// The transport that delivered the answer under a failover race.
    pub winner: Option<DnsTransport>,
}

/// Run a single measurement unit in a simulator of its own.
pub fn run_unit(
    campaign: &SingleQueryCampaign,
    vp: &VantagePoint,
    profile: &ResolverProfile,
    transport: DnsTransport,
    rep: usize,
) -> SingleQuerySample {
    let mut sim = Simulator::arena();
    run_unit_in(&mut sim, campaign, vp, profile, transport, rep)
}

/// Run a single measurement unit in a reusable simulator arena: the
/// arena is reset (reusing its allocations) and left holding the
/// unit's final state.
pub fn run_unit_in(
    sim: &mut Simulator,
    campaign: &SingleQueryCampaign,
    vp: &VantagePoint,
    profile: &ResolverProfile,
    transport: DnsTransport,
    rep: usize,
) -> SingleQuerySample {
    run_unit_inner(sim, campaign, vp, profile, transport, rep).0
}

/// The unit body; also returns the measured-phase start and handshake
/// completion instants so tests can replay the historical trace-based
/// byte accounting against the tap's.
fn run_unit_inner(
    sim: &mut Simulator,
    campaign: &SingleQueryCampaign,
    vp: &VantagePoint,
    profile: &ResolverProfile,
    transport: DnsTransport,
    rep: usize,
) -> (SingleQuerySample, SimTime, Option<SimTime>) {
    let o = run_unit_custom(
        sim,
        campaign,
        vp,
        profile,
        transport,
        rep,
        &UnitOptions::default(),
    );
    (o.sample, o.started, o.hs_done)
}

/// The parameterized unit body: the plain single-query unit plus the
/// [`UnitOptions`] overrides (seed, measured-phase impairment,
/// resilience policy, rebinds, failover, capabilities). With
/// default options this is exactly the vanilla unit — no extra RNG
/// draws, identical samples.
#[allow(clippy::too_many_arguments)] // the unit tuple is the argument list
pub fn run_unit_custom(
    sim: &mut Simulator,
    campaign: &SingleQueryCampaign,
    vp: &VantagePoint,
    profile: &ResolverProfile,
    transport: DnsTransport,
    rep: usize,
    opts: &UnitOptions,
) -> UnitOutcome {
    let seed = opts.seed.unwrap_or_else(|| {
        engine::unit_seed(
            campaign.seed,
            &[
                vp.index as u64,
                profile.index as u64,
                transport as u64,
                rep as u64,
            ],
        )
    });
    // After the seed: a DoH3 unit shares its seed — path draws, jitter,
    // everything — with the DoH unit it counterfactually replaces.
    let transport = opts.caps.transport(transport);
    let mut path = GeoPathModel::new(campaign.path_params.clone());
    let warm_ip = Ipv4Addr::new(10, 10, vp.index as u8 + 1, 2);
    let meas_ip = Ipv4Addr::new(10, 10, vp.index as u8 + 1, 3);
    path.place(warm_ip, vp.location);
    path.place(meas_ip, vp.location);
    path.place(profile.ip, profile.location);
    if !opts.rebinds.is_empty() {
        // Pre-place the cellular-side addresses the mobility schedule
        // will rebind onto (gated so a vanilla unit's path model is
        // untouched).
        for k in 0..opts.rebinds.len() {
            path.place(rebind_ip(vp.index, k), vp.location);
        }
    }
    sim.reset(seed, Box::new(path));

    let server_cfg = opts.caps.server(profile.server_config());
    sim.add_host(
        Box::new(ResolverHost::new(server_cfg, RecursionModel::default())),
        &[profile.ip],
    );

    let query = Message::query(0x5151, Name::parse("google.com").unwrap(), RecordType::A);
    let remote = SocketAddr::new(profile.ip, transport.port());

    // --- cache warming ----------------------------------------------------
    let warm_cfg = opts.caps.client();
    let warm = DnsClientHost::new(
        transport,
        SocketAddr::new(warm_ip, 40_000),
        remote,
        &warm_cfg,
    );
    let wid = sim.add_host(Box::new(warm), &[warm_ip]);
    sim.with_host::<DnsClientHost, _>(wid, |c, ctx| c.start_with_query(ctx, &query));
    let warm_deadline = sim.now() + Duration::from_secs(20);
    sim.run_until(warm_deadline);
    // Harvest the warming connection's resumption material through the
    // host's per-resolver session cache, as a long-lived stub would.
    let sessions = {
        let warm = sim.host_mut::<DnsClientHost>(wid);
        if warm.responses.is_empty() {
            doqlab_dox::SessionCache::default()
        } else {
            warm.export_sessions()
        }
    };
    let session = sessions.get(remote).cloned().unwrap_or_default();

    // --- measured query -----------------------------------------------------
    let tap = match transport {
        DnsTransport::DoQ => PhaseByteTap::quic(meas_ip, profile.ip),
        _ => PhaseByteTap::deferred_split(meas_ip, profile.ip),
    };
    sim.set_tap(Box::new(tap));
    let meas_session = if campaign.use_resumption {
        session
    } else {
        // TFO is independent of TLS resumption: the cookie carries even
        // under the no-resumption ablation, like a kernel's TFO cache
        // surviving a cleared TLS session store.
        SessionState {
            tfo_cookie: session.tfo_cookie.filter(|_| opts.caps.tfo),
            ..SessionState::default()
        }
    };
    let meas_cfg = ClientConfig {
        session: meas_session,
        query_deadline: opts.query_deadline,
        reconnect_max: opts.reconnect_max,
        reconnect_backoff: opts.reconnect_backoff,
        failover: opts.failover.clone(),
        ..opts.caps.client()
    };
    let meas = DnsClientHost::new(
        transport,
        SocketAddr::new(meas_ip, 40_000),
        remote,
        &meas_cfg,
    );
    let mid = sim.add_host(Box::new(meas), &[meas_ip]);
    let started = sim.now();
    // The impairment covers the measured phase only: installed before
    // the measured client's first flight, torn down once the phase ends.
    let impaired = !opts.impairment.is_inert();
    if impaired {
        let mut schedule = opts.impairment.clone();
        for w in &mut schedule.outages {
            *w = OutageWindow::new(
                started + w.start.duration_since(SimTime::ZERO),
                started + w.end.duration_since(SimTime::ZERO),
            );
        }
        sim.set_impairment(Box::new(schedule));
    }
    sim.with_host::<DnsClientHost, _>(mid, |c, ctx| c.start_with_query(ctx, &query));
    let deadline = started + opts.run_deadline;
    let mut hs_at = None;
    if transport != DnsTransport::DoQ || !opts.rebinds.is_empty() {
        // Step one event at a time until the handshake completes, then
        // hand the tap its phase split (a no-op for the DoQ tap, which
        // splits on header form). Stepping dispatches in exactly
        // run_until's order, so the simulation is unchanged. A mobility
        // schedule needs the instant too: its offsets anchor there.
        loop {
            let hs = sim.host::<DnsClientHost>(mid).conn.handshake_done_at();
            if let Some(t) = hs {
                if let Some(tap) = sim.tap_mut::<PhaseByteTap>() {
                    tap.set_split(t);
                }
                hs_at = Some(t);
                break;
            }
            if !sim.step_until(deadline) {
                break;
            }
        }
    }
    let mut rebinds_applied = 0u32;
    let mut first_rebind_at = None;
    if let (false, Some(hs)) = (opts.rebinds.is_empty(), hs_at) {
        // Drive the mobility schedule: run to each rebind instant, move
        // the client onto the next address, and tell the tap so byte
        // accounting follows the host across paths.
        let mut cur_ip = meas_ip;
        for (k, (offset, profile)) in opts.rebinds.iter().enumerate() {
            let at = hs + *offset;
            if at >= deadline {
                break;
            }
            sim.run_until(at);
            let new_ip = rebind_ip(vp.index, k);
            sim.rebind_host(mid, cur_ip, new_ip, *profile);
            sim.with_host::<DnsClientHost, _>(mid, |c, ctx| c.rebind_local(ctx, new_ip));
            if let Some(tap) = sim.tap_mut::<PhaseByteTap>() {
                tap.add_client(new_ip);
            }
            first_rebind_at.get_or_insert(at);
            rebinds_applied += 1;
            cur_ip = new_ip;
        }
    }
    sim.run_until(deadline);
    if impaired {
        sim.clear_impairment();
    }

    let meas = sim.host::<DnsClientHost>(mid);
    let hs_done = meas.conn.handshake_done_at();
    let response_at = meas.responses.first().map(|(t, _)| *t);
    let metadata = meas.conn.metadata();
    let failure = meas.failure();
    let reconnects = meas.reconnects();
    let wasted_bytes = meas.wasted_bytes();
    let winner = meas.winner();
    let failed = response_at.is_none();
    let handshake_ms = match transport {
        DnsTransport::DoUdp => None,
        _ => hs_done.map(|t| (t - started).as_secs_f64() * 1000.0),
    };
    let resolve_from = hs_done.unwrap_or(started);
    let resolve_ms = response_at.map(|t| (t - resolve_from).as_secs_f64() * 1000.0);

    let mut tap = sim.take_tap().expect("tap installed for measured phase");
    let bytes = tap
        .as_any_mut()
        .downcast_mut::<PhaseByteTap>()
        .expect("phase-byte tap")
        .finish();

    metrics::count(Counter::UnitsRun, 1);
    if failed {
        metrics::count(Counter::UnitsFailed, 1);
    }
    if let Some(kind) = failure {
        metrics::count(failure_counter(kind), 1);
    }
    if transport != DnsTransport::DoUdp {
        if let Some(t) = hs_done {
            metrics::record(Series::HandshakeNs, (t - started).as_nanos() as u64);
        }
    }
    if let Some(t) = response_at {
        metrics::record(Series::ResolveNs, (t - resolve_from).as_nanos() as u64);
    }
    metrics::count(transport_byte_counter(transport), bytes.total() as u64);
    // 0-RTT bookkeeping: the measured connection attempted early data
    // iff it presented a ticket that permits it; the connection
    // metadata says whether the server accepted or forced the replay.
    let attempted_early = meas_cfg.enable_0rtt
        && meas_cfg
            .session
            .tls_ticket
            .as_ref()
            .is_some_and(|t| t.allows_early_data);
    if attempted_early {
        metrics::count(
            if metadata.zero_rtt {
                Counter::ZeroRttAccepted
            } else {
                Counter::ZeroRttRejected
            },
            1,
        );
    }

    let sample = SingleQuerySample {
        vp: vp.index,
        vp_continent: vp.continent,
        resolver: profile.index,
        resolver_continent: profile.continent,
        transport,
        handshake_ms,
        resolve_ms,
        bytes,
        metadata,
        failed,
    };
    UnitOutcome {
        sample,
        failure,
        reconnects,
        started,
        hs_done,
        rebinds_applied,
        first_rebind_at,
        wasted_bytes,
        winner,
    }
}

/// The k-th address a mobility schedule rebinds the measured client
/// onto (the "cellular" side of the vantage point).
fn rebind_ip(vp_index: usize, k: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 10, vp_index as u8 + 1, 4 + k as u8)
}

/// The failure-taxonomy counter a unit's terminal verdict folds into.
fn failure_counter(kind: FailureKind) -> Counter {
    match kind {
        FailureKind::Timeout => Counter::FailTimeout,
        FailureKind::Reset => Counter::FailReset,
        FailureKind::HandshakeFail => Counter::FailHandshake,
        FailureKind::DeadlineExceeded => Counter::FailDeadline,
    }
}

/// The per-transport byte-total counter a unit's traffic folds into.
pub(crate) fn transport_byte_counter(transport: DnsTransport) -> Counter {
    match transport {
        DnsTransport::DoUdp => Counter::BytesDoUdp,
        DnsTransport::DoTcp => Counter::BytesDoTcp,
        DnsTransport::DoT => Counter::BytesDoT,
        DnsTransport::DoH | DnsTransport::DoH3 => Counter::BytesDoH,
        DnsTransport::DoQ => Counter::BytesDoQ,
    }
}

/// The pre-tap byte accounting: scan a retained trace after the run.
/// Kept (test-only) as the reference the streaming tap must match.
#[cfg(test)]
fn trace_phase_bytes(
    trace: &doqlab_simnet::PacketTrace,
    transport: DnsTransport,
    meas_ip: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    started: SimTime,
    hs_done: Option<SimTime>,
) -> PhaseBytes {
    if transport == DnsTransport::DoQ {
        let mut b = PhaseBytes::default();
        for rec in trace.records() {
            if rec.sent_at < started {
                continue;
            }
            let long = rec.is_quic_long_header();
            let c2r = rec.src.ip == meas_ip && rec.dst.ip == resolver_ip;
            let r2c = rec.src.ip == resolver_ip && rec.dst.ip == meas_ip;
            match (c2r, r2c, long) {
                (true, _, true) => b.handshake_c2r += rec.ip_payload_len,
                (true, _, false) => b.query_c2r += rec.ip_payload_len,
                (_, true, true) => b.handshake_r2c += rec.ip_payload_len,
                (_, true, false) => b.response_r2c += rec.ip_payload_len,
                _ => {}
            }
        }
        b
    } else {
        let c = SocketAddr::new(meas_ip, 0);
        let r = SocketAddr::new(resolver_ip, 0);
        let split = hs_done
            .filter(|_| transport != DnsTransport::DoUdp)
            .unwrap_or(started);
        let far = SimTime::from_secs(1_000_000);
        PhaseBytes {
            handshake_c2r: trace.bytes_between(c, r, started, split),
            handshake_r2c: trace.bytes_between(r, c, started, split),
            query_c2r: trace.bytes_between(c, r, split, far),
            response_r2c: trace.bytes_between(r, c, split, far),
        }
    }
}

/// Run the full campaign: every vantage point x resolver x protocol x
/// repetition, scheduled by the work-stealing engine on per-worker
/// simulator arenas. Output order (and content) is independent of
/// thread count.
pub fn run_single_query_campaign(
    campaign: &SingleQueryCampaign,
    population: &[ResolverProfile],
) -> Vec<SingleQuerySample> {
    let vps = vantage_points();
    let resolvers = campaign.scale.sample_resolvers(population);
    let grid = engine::UnitGrid {
        vps: vps.len(),
        resolvers: resolvers.len(),
        pages: 1,
        transports: DnsTransport::ALL.len(),
        reps: campaign.scale.repetitions,
    };
    let units = grid.units();
    engine::run_units(
        campaign.scale.threads,
        &units,
        Simulator::arena,
        |sim, u, _| {
            run_unit_in(
                sim,
                campaign,
                &vps[u.vp],
                resolvers[u.resolver],
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

    fn tiny_campaign() -> (SingleQueryCampaign, Vec<ResolverProfile>) {
        let scale = Scale {
            resolvers: Some(3),
            repetitions: 1,
            threads: 2,
            ..Scale::quick()
        };
        (
            SingleQueryCampaign::new(scale),
            synthesize_dox_population(1),
        )
    }

    #[test]
    fn campaign_produces_all_units() {
        let (c, pop) = tiny_campaign();
        let samples = run_single_query_campaign(&c, &pop);
        // 6 vps x 3 resolvers x 5 protocols x 1 rep.
        assert_eq!(samples.len(), 90);
        let ok = samples.iter().filter(|s| !s.failed).count();
        assert!(ok as f64 / samples.len() as f64 > 0.95, "ok = {ok}/90");
    }

    #[test]
    fn handshake_ordering_matches_paper() {
        let (c, pop) = tiny_campaign();
        let samples = run_single_query_campaign(&c, &pop);
        let med = |t: DnsTransport| {
            crate::stats::median(
                &samples
                    .iter()
                    .filter(|s| s.transport == t && !s.failed)
                    .filter_map(|s| s.handshake_ms)
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let (tcp, doq, dot, doh) = (
            med(DnsTransport::DoTcp),
            med(DnsTransport::DoQ),
            med(DnsTransport::DoT),
            med(DnsTransport::DoH),
        );
        // Fig. 2a: DoTCP ~ DoQ ~ half of DoT ~ DoH.
        assert!((doq / tcp - 1.0).abs() < 0.2, "DoQ {doq} vs DoTCP {tcp}");
        assert!(dot / doq > 1.6, "DoT {dot} vs DoQ {doq}");
        assert!(doh / doq > 1.6, "DoH {doh} vs DoQ {doq}");
        assert!((dot / doh - 1.0).abs() < 0.2, "DoT {dot} vs DoH {doh}");
    }

    #[test]
    fn resolve_times_similar_across_protocols() {
        let (c, pop) = tiny_campaign();
        let samples = run_single_query_campaign(&c, &pop);
        let med = |t: DnsTransport| {
            crate::stats::median(
                &samples
                    .iter()
                    .filter(|s| s.transport == t)
                    .filter_map(|s| s.resolve_ms)
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let meds: Vec<f64> = DnsTransport::ALL.iter().map(|t| med(*t)).collect();
        let max = meds.iter().cloned().fold(f64::MIN, f64::max);
        let min = meds.iter().cloned().fold(f64::MAX, f64::min);
        // Fig. 2b: cached answers -> all protocols within ~1 RTT band.
        assert!(max / min < 1.5, "medians spread too wide: {meds:?}");
    }

    #[test]
    fn doq_uses_resumption_and_remembered_version() {
        let (c, pop) = tiny_campaign();
        let samples = run_single_query_campaign(&c, &pop);
        let doq: Vec<_> = samples
            .iter()
            .filter(|s| s.transport == DnsTransport::DoQ && !s.failed)
            .collect();
        assert!(!doq.is_empty());
        assert!(
            doq.iter().all(|s| s.metadata.resumed),
            "all DoQ measured queries resume"
        );
        assert!(doq.iter().all(|s| s.metadata.quic_version.is_some()));
        assert!(doq.iter().all(|s| s.metadata.doq_alpn.is_some()));
    }

    #[test]
    fn byte_shape_matches_table1() {
        let (c, pop) = tiny_campaign();
        let samples = run_single_query_campaign(&c, &pop);
        let med_total = |t: DnsTransport| {
            crate::stats::median(
                &samples
                    .iter()
                    .filter(|s| s.transport == t && !s.failed)
                    .map(|s| s.bytes.total() as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let udp = med_total(DnsTransport::DoUdp);
        let tcp = med_total(DnsTransport::DoTcp);
        let doq = med_total(DnsTransport::DoQ);
        let doh = med_total(DnsTransport::DoH);
        let dot = med_total(DnsTransport::DoT);
        assert!(
            udp < tcp && tcp < dot && dot < doh && doh < doq,
            "Table 1 ordering: udp {udp} tcp {tcp} dot {dot} doh {doh} doq {doq}"
        );
        // DoQ handshake roughly doubles DoH's total (1200-byte padding).
        assert!(doq / doh > 1.5, "doq {doq} vs doh {doh}");
    }

    #[test]
    fn no_resumption_ablation_increases_doq_handshake_sometimes() {
        let scale = Scale {
            resolvers: Some(8),
            repetitions: 1,
            threads: 2,
            ..Scale::quick()
        };
        let pop = synthesize_dox_population(1);
        let with = SingleQueryCampaign::new(scale.clone());
        let without = SingleQueryCampaign {
            use_resumption: false,
            ..SingleQueryCampaign::new(scale)
        };
        let s_with = run_single_query_campaign(&with, &pop);
        let s_without = run_single_query_campaign(&without, &pop);
        let med = |ss: &[SingleQuerySample]| {
            crate::stats::median(
                &ss.iter()
                    .filter(|s| s.transport == DnsTransport::DoQ)
                    .filter_map(|s| s.handshake_ms)
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        // Without resumption, large certificates hit the amplification
        // limit: the handshake median rises.
        assert!(
            med(&s_without) > med(&s_with) * 1.1,
            "without {} vs with {}",
            med(&s_without),
            med(&s_with)
        );
    }

    #[test]
    fn tap_accounting_matches_retained_trace() {
        // The streaming PhaseByteTap must reproduce, bit for bit, the
        // retained-trace scan it replaced — for every transport,
        // including DoUDP (no handshake) and across arena reuse.
        let (c, pop) = tiny_campaign();
        let vps = vantage_points();
        let mut sim = Simulator::arena();
        sim.enable_trace();
        for t in DnsTransport::ALL {
            for profile in pop.iter().step_by(37).take(3) {
                let (sample, started, hs_done) =
                    run_unit_inner(&mut sim, &c, &vps[1], profile, t, 0);
                let meas_ip = Ipv4Addr::new(10, 10, 2, 3);
                let trace = sim.trace().expect("trace enabled on the arena");
                let legacy = trace_phase_bytes(trace, t, meas_ip, profile.ip, started, hs_done);
                assert_eq!(
                    sample.bytes, legacy,
                    "tap vs trace mismatch: {t:?} resolver {}",
                    profile.index
                );
                assert!(sample.bytes.total() > 0, "{t:?} moved no bytes");
            }
        }
    }

    #[test]
    fn failed_handshake_bytes_all_count_as_query_phase() {
        // A tap whose split never arrives classifies everything as
        // query/response — the historical `split = started` rule.
        let client = Ipv4Addr::new(10, 0, 0, 1);
        let resolver = Ipv4Addr::new(10, 0, 0, 2);
        let mut tap = PhaseByteTap::deferred_split(client, resolver);
        let rec = |src: Ipv4Addr, dst: Ipv4Addr, len: usize| PacketRecord {
            sent_at: SimTime::from_millis(5),
            src: SocketAddr::new(src, 1),
            dst: SocketAddr::new(dst, 2),
            transport: doqlab_simnet::Transport::Tcp,
            ip_payload_len: len,
            first_byte: Some(0x16),
            dropped: false,
        };
        tap.on_packet(&rec(client, resolver, 100));
        tap.on_packet(&rec(resolver, client, 60));
        // Unrelated traffic is ignored entirely.
        tap.on_packet(&rec(Ipv4Addr::new(10, 0, 0, 9), resolver, 999));
        let bytes = tap.finish();
        assert_eq!(bytes.handshake_c2r + bytes.handshake_r2c, 0);
        assert_eq!(bytes.query_c2r, 100);
        assert_eq!(bytes.response_r2c, 60);
    }
}
