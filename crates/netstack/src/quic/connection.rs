//! The QUIC connection state machine and server endpoint.
//!
//! One [`QuicConnection`] is one 4-tuple. The embedded handshake reuses
//! the TLS 1.3 message model from [`crate::tls`] but carries the
//! messages in CRYPTO frames across the Initial/Handshake/1-RTT packet
//! number spaces, exactly like RFC 9001. Loss recovery is PTO-based
//! with a packet-reordering threshold, per RFC 9002, with the 1 s
//! initial timeout the paper cites.

use super::frame::Frame;
use super::packet::{Packet, PacketType, VersionNegotiation, CID_LEN};
use super::{draft_version, AMPLIFICATION_FACTOR, MIN_INITIAL_SIZE, PACKET_TAG_LEN, QUIC_V1};
use crate::tls::{HandshakeMessage, HandshakePayload, SessionTicket, TlsConfig, TlsVersion};
use doqlab_simnet::{Duration, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// qlog packet-type label.
fn ptype_str(ptype: PacketType) -> &'static str {
    match ptype {
        PacketType::Initial => "initial",
        PacketType::Handshake => "handshake",
        PacketType::ZeroRtt => "0RTT",
        PacketType::OneRtt => "1RTT",
        PacketType::Retry => "retry",
    }
}

/// qlog packet-number-space label for an epoch index.
fn epoch_str(epoch: usize) -> &'static str {
    match epoch {
        EPOCH_INITIAL => "initial",
        EPOCH_HANDSHAKE => "handshake",
        _ => "application_data",
    }
}

/// Connection parameters.
#[derive(Debug, Clone)]
pub struct QuicConfig {
    /// Supported versions, preference order. Servers negotiate; clients
    /// dial with `initial_version`.
    pub versions: Vec<u32>,
    pub tls: TlsConfig,
    /// Initial probe timeout (RFC 9002: ~3x initial RTT ≈ 1 s).
    pub initial_pto: Duration,
    /// Idle timeout.
    pub max_idle: Duration,
    /// Server sends Retry to unvalidated clients (address validation
    /// before any state; costs 1 RTT).
    pub retry_required: bool,
    /// Server hands out a NEW_TOKEN after the handshake (the mechanism
    /// the paper's client reuses together with Session Resumption).
    pub issue_new_token: bool,
    /// Maximum UDP datagram size.
    pub max_datagram: usize,
}

impl Default for QuicConfig {
    fn default() -> Self {
        QuicConfig {
            versions: vec![
                QUIC_V1,
                draft_version(34),
                draft_version(32),
                draft_version(29),
            ],
            tls: TlsConfig::default(),
            initial_pto: Duration::from_secs(1),
            max_idle: Duration::from_secs(30),
            retry_required: false,
            issue_new_token: true,
            max_datagram: 1200,
        }
    }
}

/// Terminal connection errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicError {
    NoCommonVersion,
    NoCommonAlpn,
    HandshakeFailed(&'static str),
    IdleTimeout,
    PeerClosed(u64),
    TooManyRetries,
    /// Path validation (RFC 9000 §8.2) exhausted its probe retries:
    /// the new path never echoed our PATH_CHALLENGE.
    PathValidationFailed,
}

const EPOCH_INITIAL: usize = 0;
const EPOCH_HANDSHAKE: usize = 1;
const EPOCH_APP: usize = 2;

/// Probe retransmissions before a path validation attempt is abandoned.
const PATH_PROBE_MAX_RETRIES: u32 = 5;

/// Offset-indexed send buffer with loss retransmission.
#[derive(Debug, Default)]
struct SendBuf {
    data: Vec<u8>,
    next: u64,
    retx: BTreeMap<u64, Vec<u8>>,
}

impl SendBuf {
    fn queue(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Next chunk to transmit (retransmissions first), at most `max`
    /// bytes.
    fn next_chunk(&mut self, max: usize) -> Option<(u64, Vec<u8>)> {
        if max == 0 {
            return None;
        }
        if let Some((&off, _)) = self.retx.first_key_value() {
            let chunk = self.retx.remove(&off).expect("peeked");
            if chunk.len() > max {
                self.retx.insert(off + max as u64, chunk[max..].to_vec());
                return Some((off, chunk[..max].to_vec()));
            }
            return Some((off, chunk));
        }
        let avail = self.data.len() as u64 - self.next;
        if avail == 0 {
            return None;
        }
        let n = (avail as usize).min(max);
        let off = self.next;
        let chunk = self.data[off as usize..off as usize + n].to_vec();
        self.next += n as u64;
        Some((off, chunk))
    }

    fn on_lost(&mut self, offset: u64, data: Vec<u8>) {
        self.retx.entry(offset).or_insert(data);
    }
}

/// Offset-indexed receive buffer with overlap trimming.
#[derive(Debug, Default)]
struct RecvBuf {
    segments: BTreeMap<u64, Vec<u8>>,
    next: u64,
    assembled: Vec<u8>,
}

impl RecvBuf {
    fn insert(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() || offset + data.len() as u64 <= self.next {
            return;
        }
        let (offset, data) = if offset < self.next {
            let skip = (self.next - offset) as usize;
            (self.next, &data[skip..])
        } else {
            (offset, data)
        };
        if offset == self.next {
            self.assembled.extend_from_slice(data);
            self.next += data.len() as u64;
            while let Some((&off, _)) = self.segments.first_key_value() {
                if off > self.next {
                    break;
                }
                let (off, seg) = self.segments.pop_first().expect("peeked");
                let skip = (self.next - off) as usize;
                if skip < seg.len() {
                    self.assembled.extend_from_slice(&seg[skip..]);
                    self.next += (seg.len() - skip) as u64;
                }
            }
        } else {
            self.segments.entry(offset).or_insert_with(|| data.to_vec());
        }
    }

    fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.assembled)
    }
}

/// A bidirectional stream.
#[derive(Debug, Default)]
struct Stream {
    send: SendBuf,
    /// FIN requested by the application.
    fin_queued: bool,
    /// Offset at which our FIN sits, once reserved.
    fin_offset: Option<u64>,
    fin_sent: bool,
    recv: RecvBuf,
    /// Final size signalled by the peer's FIN.
    rx_fin: Option<u64>,
    rx_fin_delivered: bool,
}

impl Stream {
    fn rx_complete(&self) -> bool {
        self.rx_fin.is_some_and(|f| self.recv.next >= f)
    }
}

#[derive(Debug)]
struct SentPacket {
    time: SimTime,
    ack_eliciting: bool,
    frames: Vec<Frame>,
}

#[derive(Debug, Default)]
struct Space {
    next_pn: u64,
    sent: BTreeMap<u64, SentPacket>,
    /// Every pn we have received (for ACK frames and dedup).
    received: BTreeSet<u64>,
    ack_owed: bool,
    crypto_tx: SendBuf,
    crypto_rx: RecvBuf,
    /// Contiguous handshake bytes not yet forming a complete message.
    hs_partial: Vec<u8>,
}

impl Space {
    /// Build descending ACK ranges from the received set.
    fn ack_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &pn in self.received.iter().rev() {
            match ranges.last_mut() {
                Some((_hi, lo)) if *lo == pn + 1 => *lo = pn,
                _ => ranges.push((pn, pn)),
            }
        }
        ranges
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Client,
    Server,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HsState {
    /// Client: CH sent. Server: waiting for CH.
    Initial,
    /// Server flight sent / being received.
    WaitFinished,
    Done,
    Failed,
}

/// A QUIC connection endpoint.
#[derive(Debug)]
pub struct QuicConnection {
    cfg: QuicConfig,
    role: Role,
    pub local: SocketAddr,
    pub remote: SocketAddr,
    version: u32,
    dcid: [u8; CID_LEN],
    scid: [u8; CID_LEN],
    spaces: [Space; 3],
    streams: BTreeMap<u64, Stream>,
    next_stream_id: u64,
    next_uni_stream_id: u64,
    /// Stream ids this endpoint opened (anything else is peer-opened).
    locally_opened: std::collections::HashSet<u64>,
    /// Streams opened by the peer not yet handed to the application.
    new_peer_streams: VecDeque<u64>,
    hs: HsState,
    established_at: Option<SimTime>,
    handshake_confirmed: bool,
    error: Option<QuicError>,
    close_queued: Option<u64>,
    close_sent: bool,
    draining: bool,

    // TLS-equivalent negotiation state.
    ticket: Option<SessionTicket>,
    alpn: Option<Vec<u8>>,
    tickets_rx: Vec<SessionTicket>,
    early_permitted: bool,
    early_accepted: Option<bool>,
    early_stream_frames: Vec<(u64, u64, Vec<u8>, bool)>,
    resumed: bool,

    // Address validation / amplification (server).
    validated: bool,
    bytes_received: usize,
    bytes_sent: usize,
    /// Token to include in our Initials (client).
    token: Option<Vec<u8>>,
    /// NEW_TOKEN received for *future* connections (client).
    new_token_rx: Option<Vec<u8>>,
    new_token_queued: bool,
    handshake_done_queued: bool,
    ping_queued: bool,

    // Path validation (RFC 9000 §8.2 / §9): state of the probe on the
    // current path after a rebind (client) or peer migration (server).
    /// Challenge data the peer must echo; `Some` while validating.
    path_challenge_pending: Option<[u8; 8]>,
    /// A PATH_CHALLENGE frame should go out in the next datagram.
    path_challenge_queued: bool,
    /// Echo owed for a PATH_CHALLENGE we received.
    path_response_queued: Option<[u8; 8]>,
    /// When to retransmit (or give up on) the outstanding probe.
    path_probe_deadline: Option<SimTime>,
    /// Probe retransmissions for the current validation attempt.
    path_probe_retries: u32,
    /// Monotonic count of paths this end has validated on; feeds the
    /// deterministic challenge data so successive probes differ.
    path_seq: u64,

    // Recovery.
    pto_backoff: u32,
    srtt: Option<Duration>,
    vn_done: bool,
    /// Client received Retry and restarted (at most once).
    retried: bool,
    last_activity: SimTime,
    idle_deadline: Option<SimTime>,
    pto_deadline: Option<SimTime>,
    /// Statistics: version negotiation round trips observed.
    pub vn_round_trips: u32,
}

impl QuicConnection {
    /// Dial: the caller picks the initial version (e.g. a remembered one
    /// from a previous connection) and may supply a session ticket and
    /// address-validation token from a previous connection.
    #[allow(clippy::too_many_arguments)]
    pub fn client(
        cfg: QuicConfig,
        local: SocketAddr,
        remote: SocketAddr,
        initial_version: u32,
        ticket: Option<SessionTicket>,
        token: Option<Vec<u8>>,
        rng: &mut SimRng,
        now: SimTime,
    ) -> Self {
        let mut c = QuicConnection::new(cfg, Role::Client, local, remote, initial_version, now);
        c.dcid = rng.next_u64().to_be_bytes();
        c.scid = rng.next_u64().to_be_bytes();
        c.ticket = ticket;
        c.token = token;
        c.start_handshake(now);
        c
    }

    fn server(
        cfg: QuicConfig,
        local: SocketAddr,
        remote: SocketAddr,
        version: u32,
        scid: [u8; CID_LEN],
        dcid: [u8; CID_LEN],
        now: SimTime,
    ) -> Self {
        let mut c = QuicConnection::new(cfg, Role::Server, local, remote, version, now);
        c.scid = scid;
        c.dcid = dcid;
        c
    }

    fn new(
        cfg: QuicConfig,
        role: Role,
        local: SocketAddr,
        remote: SocketAddr,
        version: u32,
        now: SimTime,
    ) -> Self {
        let max_idle = cfg.max_idle;
        QuicConnection {
            cfg,
            role,
            local,
            remote,
            version,
            dcid: [0; CID_LEN],
            scid: [0; CID_LEN],
            spaces: Default::default(),
            streams: BTreeMap::new(),
            next_stream_id: 0,
            next_uni_stream_id: 0,
            locally_opened: std::collections::HashSet::new(),
            new_peer_streams: VecDeque::new(),
            hs: HsState::Initial,
            established_at: None,
            handshake_confirmed: false,
            error: None,
            close_queued: None,
            close_sent: false,
            draining: false,
            ticket: None,
            alpn: None,
            tickets_rx: Vec::new(),
            early_permitted: false,
            early_accepted: None,
            early_stream_frames: Vec::new(),
            resumed: false,
            validated: role == Role::Client,
            bytes_received: 0,
            bytes_sent: 0,
            token: None,
            new_token_rx: None,
            new_token_queued: false,
            handshake_done_queued: false,
            ping_queued: false,
            path_challenge_pending: None,
            path_challenge_queued: false,
            path_response_queued: None,
            path_probe_deadline: None,
            path_probe_retries: 0,
            path_seq: 0,
            pto_backoff: 0,
            srtt: None,
            vn_done: false,
            retried: false,
            last_activity: now,
            idle_deadline: Some(now + max_idle),
            pto_deadline: None,
            vn_round_trips: 0,
        }
    }

    fn start_handshake(&mut self, now: SimTime) {
        let psk = self
            .ticket
            .clone()
            .filter(|t| t.is_valid_at(now) && t.version == TlsVersion::Tls13);
        self.early_permitted =
            self.cfg.tls.enable_0rtt && psk.as_ref().is_some_and(|t| t.allows_early_data);
        let ch = HandshakePayload::ClientHello {
            versions: vec![TlsVersion::Tls13],
            alpn: self.cfg.tls.alpn.clone(),
            psk,
            early_data: self.early_permitted,
            // ~100 bytes of QUIC transport parameters.
            pad: 100 + self.cfg.tls.extra_client_hello_pad,
        };
        let mut bytes = Vec::new();
        HandshakeMessage::new(ch).encode(&mut bytes);
        self.spaces[EPOCH_INITIAL].crypto_tx.queue(&bytes);
        let flight_len = bytes.len();
        sink::emit(now.as_nanos(), || Event::TlsFlightSent {
            flight: "client_hello",
            bytes: flight_len,
        });
    }

    // ---- public state ----------------------------------------------------

    pub fn is_established(&self) -> bool {
        self.hs == HsState::Done
    }

    pub fn established_at(&self) -> Option<SimTime> {
        self.established_at
    }

    pub fn error(&self) -> Option<&QuicError> {
        self.error.as_ref()
    }

    pub fn is_closed(&self) -> bool {
        self.draining
    }

    pub fn version(&self) -> u32 {
        self.version
    }

    pub fn negotiated_alpn(&self) -> Option<&[u8]> {
        self.alpn.as_deref()
    }

    /// The handshake resumed a TLS session (no certificate flight).
    pub fn is_resumption(&self) -> bool {
        self.resumed
    }

    pub fn early_data_accepted(&self) -> Option<bool> {
        self.early_accepted
    }

    /// Session tickets received from the server (drained).
    pub fn take_tickets(&mut self) -> Vec<SessionTicket> {
        std::mem::take(&mut self.tickets_rx)
    }

    /// Address-validation token for future connections (drained).
    pub fn take_new_token(&mut self) -> Option<Vec<u8>> {
        self.new_token_rx.take()
    }

    // ---- streams ----------------------------------------------------------

    /// Open a bidirectional stream (client ids 0, 4, 8, ...; server ids
    /// 1, 5, 9, ...).
    pub fn open_bi(&mut self) -> u64 {
        let base = if self.role == Role::Client { 0 } else { 1 };
        let id = self.next_stream_id * 4 + base;
        self.next_stream_id += 1;
        self.locally_opened.insert(id);
        self.streams.entry(id).or_default();
        id
    }

    /// Open a unidirectional stream (client ids 2, 6, ...; server ids
    /// 3, 7, ...) — HTTP/3 control streams ride on these.
    pub fn open_uni(&mut self) -> u64 {
        let base = if self.role == Role::Client { 2 } else { 3 };
        let id = self.next_uni_stream_id * 4 + base;
        self.next_uni_stream_id += 1;
        self.locally_opened.insert(id);
        self.streams.entry(id).or_default();
        id
    }

    /// Queue stream data. Before the handshake completes this is only
    /// transmitted when 0-RTT is permitted (otherwise it waits).
    pub fn stream_send(&mut self, id: u64, data: &[u8], fin: bool) {
        let stream = self.streams.entry(id).or_default();
        stream.send.queue(data);
        if fin {
            stream.fin_queued = true;
        }
    }

    /// Read assembled stream data; `bool` reports whether the peer
    /// finished the stream and everything has been delivered.
    pub fn stream_recv(&mut self, id: u64) -> (Vec<u8>, bool) {
        match self.streams.get_mut(&id) {
            Some(s) => {
                let complete = s.rx_complete();
                if complete {
                    s.rx_fin_delivered = true;
                }
                (s.recv.take(), complete)
            }
            None => (Vec::new(), false),
        }
    }

    /// Streams the peer opened since the last call.
    pub fn take_new_peer_streams(&mut self) -> Vec<u64> {
        self.new_peer_streams.drain(..).collect()
    }

    /// Begin closing with an application error code.
    pub fn close(&mut self, code: u64) {
        if self.close_queued.is_none() && !self.draining {
            self.close_queued = Some(code);
        }
    }

    // ---- connection migration (RFC 9000 §9) --------------------------------

    /// The client's local address changed (wifi→cellular style rebind):
    /// adopt the new address and start validating the new path. RTT and
    /// PTO state are reset because the old path's estimates say nothing
    /// about the new one (§9.4).
    pub fn rebind(&mut self, now: SimTime, new_local: SocketAddr) {
        self.local = new_local;
        sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
            state: "local_rebind",
        });
        self.begin_path_validation(now);
    }

    /// Server side of a migration: packets from an established
    /// connection arrived from a new 4-tuple. Adopt the new peer
    /// address, drop to the pre-validation amplification budget
    /// (§9.3.1: at most 3x received bytes until the path validates),
    /// and probe the new path.
    fn migrate_to(&mut self, now: SimTime, peer: SocketAddr) {
        self.remote = peer;
        self.validated = false;
        self.bytes_received = 0;
        self.bytes_sent = 0;
        sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
            state: "peer_migrated",
        });
        self.begin_path_validation(now);
    }

    fn begin_path_validation(&mut self, now: SimTime) {
        // Fresh path, fresh estimates (§9.4).
        self.srtt = None;
        self.pto_backoff = 0;
        self.path_seq += 1;
        // Deterministic challenge data — no RNG so runs that never
        // migrate stay byte-identical; successive probes still differ
        // via the path sequence number.
        let data = (u64::from_be_bytes(self.scid)
            ^ self.path_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .to_be_bytes();
        self.path_challenge_pending = Some(data);
        self.path_challenge_queued = true;
        self.path_probe_retries = 0;
        self.path_probe_deadline = Some(now + self.pto_base());
    }

    /// Outstanding path probe, if any: `(challenge, retries, deadline)`.
    /// Test/observability accessor.
    pub fn path_probe(&self) -> Option<([u8; 8], u32, SimTime)> {
        match (self.path_challenge_pending, self.path_probe_deadline) {
            (Some(data), Some(deadline)) => Some((data, self.path_probe_retries, deadline)),
            _ => None,
        }
    }

    // ---- datagram input ----------------------------------------------------

    pub fn handle_datagram(&mut self, now: SimTime, data: &[u8]) {
        if self.draining {
            return;
        }
        self.last_activity = now;
        self.idle_deadline = Some(now + self.cfg.max_idle);
        self.bytes_received += data.len();

        // Version negotiation (client only, once, before any other
        // packet from the server).
        if self.role == Role::Client && !self.vn_done {
            if let Some(vn) = VersionNegotiation::decode(data) {
                self.vn_done = true;
                self.vn_round_trips += 1;
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "version_negotiation_received",
                });
                match self.cfg.versions.iter().find(|v| vn.supported.contains(v)) {
                    Some(&v) => self.restart_with_version(now, v),
                    None => {
                        self.error = Some(QuicError::NoCommonVersion);
                        self.draining = true;
                    }
                }
                return;
            }
        }
        let mut pos = 0;
        while pos < data.len() {
            let Some(pkt) = Packet::decode(data, &mut pos) else {
                break;
            };
            self.on_packet(now, pkt);
            if self.draining {
                return;
            }
        }
    }

    fn restart_with_version(&mut self, now: SimTime, version: u32) {
        self.version = version;
        self.spaces = Default::default();
        self.hs = HsState::Initial;
        self.pto_backoff = 0;
        self.pto_deadline = None;
        self.start_handshake(now);
    }

    fn on_packet(&mut self, now: SimTime, pkt: Packet) {
        let (ptype, size) = (ptype_str(pkt.ptype), pkt.payload.len());
        sink::emit(now.as_nanos(), || Event::QuicPacketReceived { ptype, size });
        metrics::count(Counter::QuicPacketsReceived, 1);
        // Retry (client): restart with the server's token.
        if pkt.ptype == PacketType::Retry {
            if self.role == Role::Client && !self.retried && self.hs == HsState::Initial {
                self.retried = true;
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "retry_received",
                });
                self.token = Some(pkt.token);
                let v = self.version;
                self.restart_with_version(now, v);
            }
            return;
        }
        let epoch = match pkt.ptype {
            PacketType::Initial => EPOCH_INITIAL,
            PacketType::Handshake => EPOCH_HANDSHAKE,
            PacketType::ZeroRtt | PacketType::OneRtt => EPOCH_APP,
            PacketType::Retry => unreachable!(),
        };
        // A Handshake packet from the client proves address ownership.
        if self.role == Role::Server && pkt.ptype == PacketType::Handshake {
            self.validated = true;
        }
        // Learn the peer's source CID from its first long-header packet.
        if self.role == Role::Client
            && matches!(pkt.ptype, PacketType::Initial | PacketType::Handshake)
        {
            self.dcid = pkt.scid;
        }
        if !self.spaces[epoch].received.insert(pkt.packet_number) {
            return; // duplicate
        }
        let Some(frames) = Frame::decode_all(&pkt.payload) else {
            return;
        };
        let zero_rtt = pkt.ptype == PacketType::ZeroRtt;
        let mut ack_eliciting = false;
        for frame in frames {
            ack_eliciting |= frame.is_ack_eliciting();
            self.on_frame(now, epoch, zero_rtt, frame);
            if self.draining {
                return;
            }
        }
        if ack_eliciting {
            self.spaces[epoch].ack_owed = true;
        }
    }

    fn on_frame(&mut self, now: SimTime, epoch: usize, zero_rtt: bool, frame: Frame) {
        match frame {
            Frame::Padding(_) | Frame::Ping => {}
            Frame::Ack { ranges, .. } => self.on_ack(now, epoch, &ranges),
            Frame::Crypto { offset, data } => {
                self.spaces[epoch].crypto_rx.insert(offset, &data);
                self.process_crypto(now, epoch);
            }
            Frame::NewToken { token } => {
                if self.role == Role::Client {
                    self.new_token_rx = Some(token);
                }
            }
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                // 0-RTT stream data is dropped unless accepted.
                if zero_rtt && self.role == Role::Server && self.early_accepted != Some(true) {
                    return;
                }
                let known = self.streams.contains_key(&id);
                let stream = self.streams.entry(id).or_default();
                stream.recv.insert(offset, &data);
                if fin {
                    stream.rx_fin = Some(offset + data.len() as u64);
                }
                if !known && !self.locally_opened.contains(&id) {
                    self.new_peer_streams.push_back(id);
                }
            }
            Frame::ConnectionClose { error_code, .. } => {
                self.error.get_or_insert(QuicError::PeerClosed(error_code));
                self.draining = true;
            }
            Frame::HandshakeDone => {
                if self.role == Role::Client {
                    self.handshake_confirmed = true;
                    sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                        state: "handshake_confirmed",
                    });
                }
            }
            Frame::PathChallenge(data) => {
                // Echo on the active path (§8.2.2). If a second
                // challenge arrives before the first echo leaves, only
                // the latest matters — the peer only tracks one probe.
                self.path_response_queued = Some(data);
            }
            Frame::PathResponse(data) => {
                // Only the exact outstanding challenge validates the
                // path; stale or corrupted echoes are ignored (§8.2.3).
                if self.path_challenge_pending == Some(data) {
                    let retries = self.path_probe_retries;
                    self.path_challenge_pending = None;
                    self.path_challenge_queued = false;
                    self.path_probe_deadline = None;
                    self.path_probe_retries = 0;
                    if self.role == Role::Server {
                        self.validated = true;
                    }
                    sink::emit(now.as_nanos(), || Event::QuicPathValidated { retries });
                    metrics::count(Counter::QuicPathValidated, 1);
                }
            }
        }
    }

    fn on_ack(&mut self, now: SimTime, epoch: usize, ranges: &[(u64, u64)]) {
        let largest = ranges.first().map(|r| r.0);
        let mut newly_acked = false;
        let mut rtt_sample = None;
        for &(hi, lo) in ranges {
            let space = &mut self.spaces[epoch];
            let acked: Vec<u64> = space.sent.range(lo..=hi).map(|(pn, _)| *pn).collect();
            for pn in acked {
                let sp = space.sent.remove(&pn).expect("ranged");
                newly_acked = true;
                if Some(pn) == largest && sp.ack_eliciting {
                    // RTT sample from the largest newly acked packet.
                    rtt_sample = Some(now - sp.time);
                }
            }
        }
        if let Some(rtt) = rtt_sample {
            let srtt = match self.srtt {
                None => rtt,
                Some(s) => (s * 7 + rtt) / 8,
            };
            self.srtt = Some(srtt);
            sink::emit(now.as_nanos(), || Event::CcMetricsUpdated {
                cwnd: None,
                ssthresh: None,
                srtt_ns: Some(srtt.as_nanos() as u64),
            });
        }
        if newly_acked {
            self.pto_backoff = 0;
        }
        // Packet-threshold loss detection: anything 3 packets below the
        // largest acked is lost.
        if let Some(largest) = largest {
            let lost: Vec<u64> = self.spaces[epoch]
                .sent
                .range(..largest.saturating_sub(2))
                .map(|(pn, _)| *pn)
                .collect();
            for pn in lost {
                let sp = self.spaces[epoch].sent.remove(&pn).expect("ranged");
                sink::emit(now.as_nanos(), || Event::QuicPacketLost {
                    ptype: epoch_str(epoch),
                    pn,
                });
                metrics::count(Counter::QuicPacketsLost, 1);
                self.requeue_lost_frames(epoch, sp.frames);
            }
        }
        self.rearm_pto(now);
    }

    fn requeue_lost_frames(&mut self, epoch: usize, frames: Vec<Frame>) {
        for f in frames {
            match f {
                Frame::Crypto { offset, data } => {
                    self.spaces[epoch].crypto_tx.on_lost(offset, data)
                }
                Frame::Stream {
                    id,
                    offset,
                    data,
                    fin,
                } => {
                    if let Some(s) = self.streams.get_mut(&id) {
                        s.send.on_lost(offset, data);
                        if fin {
                            s.fin_sent = false;
                        }
                    }
                }
                Frame::NewToken { .. } => self.new_token_queued = true,
                Frame::HandshakeDone => self.handshake_done_queued = true,
                Frame::PathChallenge(_) => {
                    // Re-queue only while the validation attempt is
                    // still live (not answered or abandoned since).
                    if self.path_challenge_pending.is_some() {
                        self.path_challenge_queued = true;
                    }
                }
                Frame::PathResponse(data) => self.path_response_queued = Some(data),
                Frame::Ping | Frame::Padding(_) | Frame::Ack { .. } => {}
                Frame::ConnectionClose { .. } => self.close_sent = false,
            }
        }
    }

    // ---- handshake --------------------------------------------------------

    fn process_crypto(&mut self, now: SimTime, epoch: usize) {
        let bytes = self.spaces[epoch].crypto_rx.take();
        self.spaces[epoch].hs_partial.extend_from_slice(&bytes);
        // Decode until a partial message remains (wait for more CRYPTO
        // data); a whole message that does not parse fails the handshake.
        loop {
            let (msg, used) = match HandshakeMessage::decode(&self.spaces[epoch].hs_partial) {
                Ok(Some(decoded)) => decoded,
                Ok(None) => break,
                Err(_) => return self.hs_fail("malformed handshake message"),
            };
            self.spaces[epoch].hs_partial.drain(..used);
            self.on_handshake_message(now, msg);
            if self.hs == HsState::Failed || self.draining {
                break;
            }
        }
    }

    fn on_handshake_message(&mut self, now: SimTime, msg: HandshakeMessage) {
        match (self.role, msg.payload) {
            (
                Role::Server,
                HandshakePayload::ClientHello {
                    versions,
                    alpn,
                    psk,
                    early_data,
                    ..
                },
            ) => {
                if self.hs != HsState::Initial {
                    return;
                }
                if !versions.contains(&TlsVersion::Tls13) {
                    return self.hs_fail("QUIC requires TLS 1.3");
                }
                let chosen = alpn.iter().find(|a| self.cfg.tls.alpn.contains(a)).cloned();
                if chosen.is_none() {
                    self.error = Some(QuicError::NoCommonAlpn);
                    self.close_queued = Some(0x178); // crypto error: no_application_protocol
                    self.hs = HsState::Failed;
                    return;
                }
                self.alpn = chosen.clone();
                let psk_ok = psk.as_ref().is_some_and(|t| {
                    t.server_id == self.cfg.tls.server_id
                        && t.is_valid_at(now)
                        && t.version == TlsVersion::Tls13
                        && chosen.as_deref() == Some(&t.alpn[..])
                });
                self.resumed = psk_ok;
                let early = psk_ok
                    && early_data
                    && self.cfg.tls.enable_0rtt
                    && psk.as_ref().is_some_and(|t| t.allows_early_data);
                self.early_accepted = Some(early);
                // SH in Initial; EE(+Cert+CV)+Fin in Handshake.
                self.queue_hs(
                    EPOCH_INITIAL,
                    HandshakePayload::ServerHello {
                        version: TlsVersion::Tls13,
                        resumed: psk_ok,
                    },
                );
                self.queue_hs(
                    EPOCH_HANDSHAKE,
                    HandshakePayload::EncryptedExtensions {
                        alpn: chosen,
                        early_data_accepted: early,
                    },
                );
                if !psk_ok {
                    self.queue_hs(
                        EPOCH_HANDSHAKE,
                        HandshakePayload::Certificate {
                            chain_len: self.cfg.tls.cert_chain_len,
                        },
                    );
                    self.queue_hs(EPOCH_HANDSHAKE, HandshakePayload::CertificateVerify);
                }
                self.queue_hs(EPOCH_HANDSHAKE, HandshakePayload::Finished);
                self.hs = HsState::WaitFinished;
            }
            (Role::Client, HandshakePayload::ServerHello { resumed, .. }) => {
                self.resumed = resumed;
            }
            (
                Role::Client,
                HandshakePayload::EncryptedExtensions {
                    alpn,
                    early_data_accepted,
                },
            ) => {
                self.alpn = alpn;
                if self.early_permitted {
                    self.early_accepted = Some(early_data_accepted);
                    sink::emit(now.as_nanos(), || Event::TlsEarlyData {
                        accepted: early_data_accepted,
                    });
                    metrics::count(
                        if early_data_accepted {
                            Counter::TlsEarlyDataAccepted
                        } else {
                            Counter::TlsEarlyDataRejected
                        },
                        1,
                    );
                    if !early_data_accepted {
                        // Replay 0-RTT stream data in 1-RTT.
                        let frames = std::mem::take(&mut self.early_stream_frames);
                        for (id, offset, data, fin) in frames {
                            if let Some(s) = self.streams.get_mut(&id) {
                                s.send.on_lost(offset, data);
                                if fin {
                                    s.fin_sent = false;
                                }
                            }
                        }
                    }
                }
            }
            (Role::Client, HandshakePayload::Certificate { .. })
            | (Role::Client, HandshakePayload::CertificateVerify) => {}
            (Role::Client, HandshakePayload::Finished) => {
                if self.hs != HsState::Initial {
                    return;
                }
                self.queue_hs(EPOCH_HANDSHAKE, HandshakePayload::Finished);
                self.hs = HsState::Done;
                self.established_at = Some(now);
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "handshake_complete",
                });
                let resumed = self.resumed;
                sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
                metrics::count(Counter::QuicHandshakesCompleted, 1);
                metrics::count(Counter::TlsHandshakesCompleted, 1);
                if resumed {
                    metrics::count(Counter::TlsResumedHandshakes, 1);
                }
            }
            (Role::Server, HandshakePayload::Finished) => {
                if self.hs != HsState::WaitFinished {
                    return;
                }
                self.hs = HsState::Done;
                self.established_at = Some(now);
                self.validated = true;
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "handshake_complete",
                });
                let resumed = self.resumed;
                sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
                self.handshake_done_queued = true;
                if self.cfg.issue_new_token {
                    self.new_token_queued = true;
                }
                // Session ticket over 1-RTT CRYPTO.
                let ticket = SessionTicket {
                    server_id: self.cfg.tls.server_id,
                    version: TlsVersion::Tls13,
                    alpn: self.alpn.clone().unwrap_or_default(),
                    issued_at: now,
                    lifetime: self.cfg.tls.ticket_lifetime,
                    allows_early_data: self.cfg.tls.enable_0rtt,
                    opaque_len: 120,
                };
                self.queue_hs(EPOCH_APP, HandshakePayload::NewSessionTicket { ticket });
            }
            (Role::Client, HandshakePayload::NewSessionTicket { ticket }) => {
                self.tickets_rx.push(ticket);
            }
            _ => self.hs_fail("unexpected handshake message"),
        }
    }

    fn hs_fail(&mut self, what: &'static str) {
        self.error = Some(QuicError::HandshakeFailed(what));
        self.hs = HsState::Failed;
        self.close_queued = Some(0x100);
    }

    fn queue_hs(&mut self, epoch: usize, payload: HandshakePayload) {
        let mut bytes = Vec::new();
        HandshakeMessage::new(payload).encode(&mut bytes);
        self.spaces[epoch].crypto_tx.queue(&bytes);
    }

    // ---- timers -----------------------------------------------------------

    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.draining {
            return None;
        }
        [
            self.pto_deadline,
            self.idle_deadline,
            self.path_probe_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// PTO before exponential backoff — also the path-probe interval
    /// (a fixed interval keeps abandonment well inside the idle
    /// timeout; with the PTO backoff applied the fifth retry would
    /// land past `max_idle` and idle-close would mask the verdict).
    fn pto_base(&self) -> Duration {
        match self.srtt {
            Some(srtt) => srtt * 3,
            None => self.cfg.initial_pto,
        }
        .max(Duration::from_millis(10))
    }

    fn pto_duration(&self) -> Duration {
        self.pto_base() * 2u32.saturating_pow(self.pto_backoff).min(64)
    }

    fn rearm_pto(&mut self, now: SimTime) {
        let oldest = self
            .spaces
            .iter()
            .flat_map(|s| s.sent.values())
            .filter(|sp| sp.ack_eliciting)
            .map(|sp| sp.time)
            .min();
        self.pto_deadline = match oldest {
            Some(t) => Some((t + self.pto_duration()).max(now)),
            // RFC 9002 §6.2.2.1: a client keeps a PTO armed until the
            // handshake completes even with nothing ack-eliciting in
            // flight. Its ACK-only flights elicit no response, and the
            // server may be amplification-blocked after losing its
            // flight — without a client probe the handshake deadlocks.
            None if self.role == Role::Client && self.hs != HsState::Done => {
                Some(now + self.pto_duration())
            }
            None => None,
        };
    }

    /// Fire expired timers. Called from `poll_transmit`.
    fn handle_timers(&mut self, now: SimTime) {
        if let Some(idle) = self.idle_deadline {
            if now >= idle {
                self.error.get_or_insert(QuicError::IdleTimeout);
                self.draining = true;
                return;
            }
        }
        if let Some(pto) = self.pto_deadline {
            if now >= pto {
                self.pto_backoff += 1;
                let backoff = self.pto_backoff;
                sink::emit(now.as_nanos(), || Event::QuicPtoFired {
                    epoch: "all",
                    count: backoff,
                });
                metrics::count(Counter::QuicPtoFired, 1);
                if self.pto_backoff > 7 {
                    self.error.get_or_insert(QuicError::TooManyRetries);
                    self.draining = true;
                    return;
                }
                // Treat the oldest ack-eliciting packet in each armed
                // space as lost and resend its frames.
                for epoch in 0..3 {
                    let oldest = self.spaces[epoch]
                        .sent
                        .iter()
                        .find(|(_, sp)| sp.ack_eliciting)
                        .map(|(pn, _)| *pn);
                    if let Some(pn) = oldest {
                        let sp = self.spaces[epoch].sent.remove(&pn).expect("found");
                        self.requeue_lost_frames(epoch, sp.frames);
                    }
                }
                // A client with nothing ack-eliciting in flight still
                // probes: ACK-only packets sit in `sent` without ever
                // eliciting a response, so an emptiness check alone
                // would leave the handshake stuck.
                let eliciting_in_flight = self
                    .spaces
                    .iter()
                    .flat_map(|s| s.sent.values())
                    .any(|sp| sp.ack_eliciting);
                if !eliciting_in_flight && self.role == Role::Client && self.hs != HsState::Done {
                    self.ping_queued = true;
                }
                self.pto_deadline = Some(now + self.pto_duration());
            }
        }
        // Path-probe retransmission / abandonment (§8.2.4).
        if let Some(probe) = self.path_probe_deadline {
            if now >= probe && self.path_challenge_pending.is_some() {
                self.path_probe_retries += 1;
                if self.path_probe_retries > PATH_PROBE_MAX_RETRIES {
                    let retries = self.path_probe_retries;
                    self.path_challenge_pending = None;
                    self.path_challenge_queued = false;
                    self.path_probe_deadline = None;
                    sink::emit(now.as_nanos(), || Event::QuicPathAbandoned { retries });
                    metrics::count(Counter::QuicPathAbandoned, 1);
                    // The probed path is the only one we have (the old
                    // 4-tuple is gone), so abandoning it ends the
                    // connection.
                    self.error.get_or_insert(QuicError::PathValidationFailed);
                    self.draining = true;
                    return;
                }
                self.path_challenge_queued = true;
                self.path_probe_deadline = Some(now + self.pto_base());
            }
        }
    }

    // ---- output -----------------------------------------------------------

    /// Build all datagrams that should be transmitted now.
    pub fn poll_transmit(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        if self.draining {
            return Vec::new();
        }
        self.handle_timers(now);
        if self.draining {
            return Vec::new();
        }
        let mut datagrams = Vec::new();
        // Amplification budget (servers, pre-validation).
        let mut budget = if self.validated {
            usize::MAX
        } else {
            (AMPLIFICATION_FACTOR * self.bytes_received).saturating_sub(self.bytes_sent)
        };
        for _ in 0..64 {
            if budget < 64 {
                break; // not even room for a minimal packet
            }
            let dgram = self.build_datagram(now, budget.min(self.cfg.max_datagram));
            if dgram.is_empty() {
                break;
            }
            budget = budget.saturating_sub(dgram.len());
            self.bytes_sent += dgram.len();
            datagrams.push(dgram);
        }
        self.rearm_pto(now);
        datagrams
    }

    /// Assemble one datagram of at most `budget` bytes; empty if there
    /// is nothing to send.
    fn build_datagram(&mut self, now: SimTime, budget: usize) -> Vec<u8> {
        // Per-epoch long-header overhead (header + pn + tag), generous.
        const LONG_OVERHEAD: usize = 1 + 4 + 2 + 2 * CID_LEN + 8 + 4 + PACKET_TAG_LEN;
        const SHORT_OVERHEAD: usize = 1 + CID_LEN + 4 + PACKET_TAG_LEN;
        let mut parts: Vec<(PacketType, Vec<Frame>)> = Vec::new();
        let mut remaining = budget;
        let mut contains_initial = false;
        let mut initial_ack_eliciting = false;

        // CONNECTION_CLOSE preempts everything.
        if let Some(code) = self.close_queued {
            if !self.close_sent {
                self.close_sent = true;
                let epoch_type = if self.is_established() {
                    PacketType::OneRtt
                } else {
                    PacketType::Initial
                };
                let frames = vec![Frame::ConnectionClose {
                    error_code: code,
                    reason: Vec::new(),
                }];
                let mut out = Vec::new();
                self.encode_packet(epoch_type, frames, &mut out);
                let epoch = if epoch_type == PacketType::OneRtt {
                    EPOCH_APP
                } else {
                    EPOCH_INITIAL
                };
                let (pn, size) = (self.spaces[epoch].next_pn - 1, out.len());
                sink::emit(now.as_nanos(), || Event::QuicPacketSent {
                    ptype: ptype_str(epoch_type),
                    pn,
                    size,
                });
                metrics::count(Counter::QuicPacketsSent, 1);
                self.draining = true;
                return out;
            }
            return Vec::new();
        }

        // Initial + Handshake epochs: ACKs then CRYPTO.
        for (epoch, ptype) in [
            (EPOCH_INITIAL, PacketType::Initial),
            (EPOCH_HANDSHAKE, PacketType::Handshake),
        ] {
            if remaining < LONG_OVERHEAD + 8 {
                break;
            }
            let mut frames = Vec::new();
            if self.spaces[epoch].ack_owed {
                let ranges = self.spaces[epoch].ack_ranges();
                if !ranges.is_empty() {
                    frames.push(Frame::Ack { ranges, delay: 0 });
                }
                self.spaces[epoch].ack_owed = false;
            }
            let mut frame_budget =
                remaining - LONG_OVERHEAD - frames.iter().map(|f| f.wire_len()).sum::<usize>();
            while frame_budget > 8 {
                let max_chunk = frame_budget - 8; // frame header slack
                let Some((offset, data)) = self.spaces[epoch].crypto_tx.next_chunk(max_chunk)
                else {
                    break;
                };
                let f = Frame::Crypto { offset, data };
                frame_budget -= f.wire_len().min(frame_budget);
                frames.push(f);
            }
            if self.ping_queued && epoch == EPOCH_INITIAL && frames.is_empty() {
                self.ping_queued = false;
                frames.push(Frame::Ping);
            }
            if !frames.is_empty() {
                if ptype == PacketType::Initial {
                    contains_initial = true;
                    initial_ack_eliciting |= frames.iter().any(|f| f.is_ack_eliciting());
                }
                remaining -= LONG_OVERHEAD + frames.iter().map(|f| f.wire_len()).sum::<usize>();
                parts.push((ptype, frames));
            }
        }

        // Application epoch: 1-RTT once keys exist — for a server that
        // is right after sending its Finished (0.5-RTT data, which is
        // what lets a 0-RTT DNS query be answered in the server's first
        // flight) — and 0-RTT for a resuming client before that.
        let can_send_1rtt = match self.role {
            Role::Client => self.is_established(),
            Role::Server => matches!(self.hs, HsState::WaitFinished | HsState::Done),
        };
        let app_ptype = if !parts.is_empty() {
            // Keep 1-RTT/0-RTT data out of datagrams carrying
            // Initial/Handshake packets: those are the handshake phase
            // on the wire (client Initials are padded to 1200 bytes),
            // and application data follows in the next datagram of this
            // same poll — matching how deployed stacks flush flights.
            None
        } else if can_send_1rtt {
            Some(PacketType::OneRtt)
        } else if self.role == Role::Client && self.early_permitted && self.early_accepted.is_none()
        {
            Some(PacketType::ZeroRtt)
        } else {
            None
        };
        if let Some(ptype) = app_ptype {
            let overhead = if ptype == PacketType::OneRtt {
                SHORT_OVERHEAD
            } else {
                LONG_OVERHEAD
            };
            if remaining >= overhead + 8 {
                let mut frames = Vec::new();
                let mut frame_budget = remaining - overhead;
                if ptype == PacketType::OneRtt {
                    if self.spaces[EPOCH_APP].ack_owed {
                        let ranges = self.spaces[EPOCH_APP].ack_ranges();
                        if !ranges.is_empty() {
                            frames.push(Frame::Ack { ranges, delay: 0 });
                        }
                        self.spaces[EPOCH_APP].ack_owed = false;
                    }
                    if self.handshake_done_queued {
                        self.handshake_done_queued = false;
                        frames.push(Frame::HandshakeDone);
                    }
                    if self.new_token_queued && self.role == Role::Server {
                        self.new_token_queued = false;
                        frames.push(Frame::NewToken {
                            token: make_token(self.cfg.tls.server_id, self.remote),
                        });
                    }
                    if let Some(data) = self.path_response_queued.take() {
                        frames.push(Frame::PathResponse(data));
                    }
                    if self.path_challenge_queued {
                        self.path_challenge_queued = false;
                        let data = self.path_challenge_pending.expect("queued implies pending");
                        frames.push(Frame::PathChallenge(data));
                        let retry = self.path_probe_retries;
                        sink::emit(now.as_nanos(), || Event::QuicPathChallenge { retry });
                        metrics::count(Counter::QuicPathChallenges, 1);
                    }
                    frame_budget = frame_budget
                        .saturating_sub(frames.iter().map(|f| f.wire_len()).sum::<usize>());
                    // Post-handshake CRYPTO (session tickets).
                    while frame_budget > 8 {
                        let Some((offset, data)) = self.spaces[EPOCH_APP]
                            .crypto_tx
                            .next_chunk(frame_budget - 8)
                        else {
                            break;
                        };
                        let f = Frame::Crypto { offset, data };
                        frame_budget = frame_budget.saturating_sub(f.wire_len());
                        frames.push(f);
                    }
                }
                // Stream data.
                let ids: Vec<u64> = self.streams.keys().copied().collect();
                for id in ids {
                    if frame_budget <= 12 {
                        break;
                    }
                    loop {
                        if frame_budget <= 12 {
                            break;
                        }
                        let stream = self.streams.get_mut(&id).expect("listed");
                        let chunk = stream.send.next_chunk(frame_budget - 12);
                        match chunk {
                            Some((offset, data)) => {
                                let end = offset + data.len() as u64;
                                let fin = stream.fin_queued && end == stream.send.data.len() as u64;
                                if fin {
                                    stream.fin_offset = Some(end);
                                    stream.fin_sent = true;
                                }
                                let f = Frame::Stream {
                                    id,
                                    offset,
                                    data: data.clone(),
                                    fin,
                                };
                                frame_budget = frame_budget.saturating_sub(f.wire_len());
                                if ptype == PacketType::ZeroRtt {
                                    self.early_stream_frames.push((id, offset, data, fin));
                                }
                                frames.push(f);
                            }
                            None => {
                                // A bare FIN (no data left to carry it).
                                let stream = self.streams.get_mut(&id).expect("listed");
                                if stream.fin_queued && !stream.fin_sent {
                                    let end = stream.send.data.len() as u64;
                                    stream.fin_offset = Some(end);
                                    stream.fin_sent = true;
                                    let f = Frame::Stream {
                                        id,
                                        offset: end,
                                        data: Vec::new(),
                                        fin: true,
                                    };
                                    frame_budget = frame_budget.saturating_sub(f.wire_len());
                                    frames.push(f);
                                }
                                break;
                            }
                        }
                    }
                }
                if !frames.is_empty() {
                    parts.push((ptype, frames));
                }
            }
        }

        if parts.is_empty() {
            return Vec::new();
        }
        // Datagrams with client Initials, or ack-eliciting Initials
        // from either role, are padded to 1200 bytes (§14.1).
        if contains_initial && (self.role == Role::Client || initial_ack_eliciting) {
            let token_len = self.token.as_ref().map_or(0, |t| t.len());
            let exact = |ptype: PacketType, payload: usize, token_len: usize| -> usize {
                match ptype {
                    PacketType::OneRtt => 1 + CID_LEN + 4 + payload + PACKET_TAG_LEN,
                    _ => {
                        let mut n = 1 + 4 + 1 + CID_LEN + 1 + CID_LEN;
                        if ptype == PacketType::Initial {
                            n += super::varint::varint_len(token_len as u64) + token_len;
                        }
                        let length = 4 + payload + PACKET_TAG_LEN;
                        n + super::varint::varint_len(length as u64) + length
                    }
                }
            };
            let size: usize = parts
                .iter()
                .map(|(ptype, frames)| {
                    let tl = if *ptype == PacketType::Initial {
                        token_len
                    } else {
                        0
                    };
                    exact(*ptype, frames.iter().map(|f| f.wire_len()).sum(), tl)
                })
                .sum();
            let target = MIN_INITIAL_SIZE.min(budget);
            if size < target {
                // Pad inside the Initial packet; adding padding can grow
                // the length varint, so add then shrink to hit the
                // target exactly.
                if let Some((_, frames)) = parts.iter_mut().find(|(t, _)| *t == PacketType::Initial)
                {
                    frames.push(Frame::Padding(target - size));
                }
                let current: usize = parts
                    .iter()
                    .map(|(ptype, frames)| {
                        let tl = if *ptype == PacketType::Initial {
                            token_len
                        } else {
                            0
                        };
                        exact(*ptype, frames.iter().map(|f| f.wire_len()).sum(), tl)
                    })
                    .sum();
                if current > target {
                    if let Some((_, frames)) =
                        parts.iter_mut().find(|(t, _)| *t == PacketType::Initial)
                    {
                        if let Some(Frame::Padding(n)) = frames.last_mut() {
                            *n = n.saturating_sub(current - target);
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (ptype, frames) in parts {
            self.encode_packet_tracked(now, ptype, frames, &mut out);
        }
        out
    }

    fn encode_packet(&mut self, ptype: PacketType, frames: Vec<Frame>, out: &mut Vec<u8>) {
        let epoch = match ptype {
            PacketType::Initial => EPOCH_INITIAL,
            PacketType::Handshake => EPOCH_HANDSHAKE,
            _ => EPOCH_APP,
        };
        let pn = self.spaces[epoch].next_pn;
        self.spaces[epoch].next_pn += 1;
        let mut payload = Vec::new();
        for f in &frames {
            f.encode(&mut payload);
        }
        let mut pkt = Packet::new(ptype, self.version, self.dcid, self.scid, pn, payload);
        if ptype == PacketType::Initial {
            if let Some(token) = &self.token {
                pkt.token = token.clone();
            }
        }
        pkt.encode(out);
    }

    fn encode_packet_tracked(
        &mut self,
        now: SimTime,
        ptype: PacketType,
        frames: Vec<Frame>,
        out: &mut Vec<u8>,
    ) {
        let epoch = match ptype {
            PacketType::Initial => EPOCH_INITIAL,
            PacketType::Handshake => EPOCH_HANDSHAKE,
            _ => EPOCH_APP,
        };
        let pn = self.spaces[epoch].next_pn;
        let ack_eliciting = frames.iter().any(|f| f.is_ack_eliciting());
        let before = out.len();
        self.encode_packet(ptype, frames.clone(), out);
        let size = out.len() - before;
        sink::emit(now.as_nanos(), || Event::QuicPacketSent {
            ptype: ptype_str(ptype),
            pn,
            size,
        });
        metrics::count(Counter::QuicPacketsSent, 1);
        if ack_eliciting {
            self.spaces[epoch].sent.insert(
                pn,
                SentPacket {
                    time: now,
                    ack_eliciting,
                    frames,
                },
            );
            if self.pto_deadline.is_none() {
                self.pto_deadline = Some(now + self.pto_duration());
            }
        }
    }
}

/// Construct an address-validation token bound to a server identity and
/// client IP.
pub fn make_token(server_id: u64, client: SocketAddr) -> Vec<u8> {
    let mut t = vec![0x54, 0x4F, 0x4B, 0x31]; // "TOK1"
    t.extend_from_slice(&server_id.to_be_bytes());
    t.extend_from_slice(&client.ip.0.to_be_bytes());
    t.extend_from_slice(&[0u8; 16]); // modelled integrity tag
    t
}

fn token_valid(token: &[u8], server_id: u64, client: SocketAddr) -> bool {
    token.len() == 32
        && token[0..4] == [0x54, 0x4F, 0x4B, 0x31]
        && token[4..12] == server_id.to_be_bytes()
        && token[12..16] == client.ip.0.to_be_bytes()
}

/// A QUIC server endpoint: demultiplexes datagrams by source address,
/// answers unsupported versions (including the version-0 scan probe)
/// with Version Negotiation, and optionally enforces Retry-based
/// address validation.
#[derive(Debug)]
pub struct QuicServer {
    cfg: QuicConfig,
    pub local: SocketAddr,
    /// Ordered by peer, so polls emit datagrams in the same order on
    /// every run.
    conns: BTreeMap<SocketAddr, QuicConnection>,
}

impl QuicServer {
    pub fn new(local: SocketAddr, cfg: QuicConfig) -> Self {
        QuicServer {
            local,
            cfg,
            conns: BTreeMap::new(),
        }
    }

    /// Handle a datagram from `src`; immediate stateless responses
    /// (Version Negotiation, Retry) are returned directly.
    pub fn handle_datagram(
        &mut self,
        now: SimTime,
        src: SocketAddr,
        data: &[u8],
    ) -> Vec<(SocketAddr, Vec<u8>)> {
        if let Some(conn) = self.conns.get_mut(&src) {
            conn.handle_datagram(now, data);
            return Vec::new();
        }
        // New 4-tuple carrying a short-header packet: an established
        // connection's peer migrated (RFC 9000 §9). Match it to a
        // connection by destination CID and rebind the 4-tuple.
        let Some(version) = Packet::peek_long_header_version(data) else {
            self.migrate(now, src, data);
            return Vec::new();
        };
        if !self.cfg.versions.contains(&version) {
            // Version Negotiation — stateless, no connection created.
            // This is also the response to the paper's version-0 probe.
            let mut pos = 0;
            let (dcid, scid) = match Packet::decode(data, &mut pos) {
                Some(p) => (p.dcid, p.scid),
                None => ([0u8; CID_LEN], [0u8; CID_LEN]),
            };
            let vn = VersionNegotiation {
                dcid: scid,
                scid: dcid,
                supported: self.cfg.versions.clone(),
            };
            return vec![(src, vn.encode())];
        }
        let mut pos = 0;
        let Some(pkt) = Packet::decode(data, &mut pos) else {
            return Vec::new();
        };
        if pkt.ptype != PacketType::Initial {
            return Vec::new();
        }
        let has_valid_token = token_valid(&pkt.token, self.cfg.tls.server_id, src);
        if self.cfg.retry_required && !has_valid_token {
            let mut retry = Packet::new(
                PacketType::Retry,
                version,
                pkt.scid,
                pkt.dcid,
                0,
                Vec::new(),
            );
            retry.token = make_token(self.cfg.tls.server_id, src);
            let mut out = Vec::new();
            retry.encode(&mut out);
            return vec![(src, out)];
        }
        let mut conn = QuicConnection::server(
            self.cfg.clone(),
            self.local,
            src,
            version,
            // Server chooses its own CID; we derive it from the client's.
            {
                let mut scid = pkt.dcid;
                scid[0] ^= 0xFF;
                scid
            },
            pkt.scid,
            now,
        );
        conn.validated = has_valid_token;
        conn.handle_datagram(now, data);
        self.conns.insert(src, conn);
        Vec::new()
    }

    /// A short-header datagram arrived from an unknown 4-tuple: if its
    /// destination CID names a live connection, the peer migrated —
    /// rekey the connection to the new address, reset its amplification
    /// budget, and start path validation. Otherwise drop the datagram
    /// (stateless reset territory, which we do not model).
    fn migrate(&mut self, now: SimTime, src: SocketAddr, data: &[u8]) {
        if data.len() < 1 + CID_LEN || data[0] & 0xC0 != 0x40 {
            return;
        }
        let mut dcid = [0u8; CID_LEN];
        dcid.copy_from_slice(&data[1..1 + CID_LEN]);
        // CIDs are unique per connection, so at most one entry matches
        // and the scan order cannot affect the outcome.
        let Some(old) = self
            .conns
            .iter()
            .find(|(_, c)| c.scid == dcid && !c.is_closed())
            .map(|(peer, _)| *peer)
        else {
            return;
        };
        let mut conn = self.conns.remove(&old).expect("peer listed");
        conn.migrate_to(now, src);
        conn.handle_datagram(now, data);
        self.conns.insert(src, conn);
    }

    /// Poll every connection for outbound datagrams.
    pub fn poll_transmit(&mut self, now: SimTime) -> Vec<(SocketAddr, Vec<u8>)> {
        let mut out = Vec::new();
        for (peer, conn) in self.conns.iter_mut() {
            for dgram in conn.poll_transmit(now) {
                out.push((*peer, dgram));
            }
        }
        out
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.conns.values().filter_map(|c| c.next_timeout()).min()
    }

    pub fn connection(&mut self, peer: SocketAddr) -> Option<&mut QuicConnection> {
        self.conns.get_mut(&peer)
    }

    pub fn connections(&mut self) -> impl Iterator<Item = (&SocketAddr, &mut QuicConnection)> {
        self.conns.iter_mut()
    }

    /// Drop drained connections.
    pub fn reap(&mut self) {
        self.conns.retain(|_, c| !c.is_closed());
    }

    pub fn len(&self) -> usize {
        self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}
