//! The QUIC connection state machine and server endpoint.
//!
//! One [`QuicConnection`] is one 4-tuple. The embedded handshake reuses
//! the TLS 1.3 message model from [`crate::tls`] but carries the
//! messages in CRYPTO frames across the Initial/Handshake/1-RTT packet
//! number spaces, exactly like RFC 9001. Loss recovery is PTO-based
//! with a packet-reordering threshold, per RFC 9002, with the 1 s
//! initial timeout the paper cites.

use super::frame::{AckRanges, Frame};
use super::packet::{encode_tag, Packet, PacketType, VersionNegotiation, CID_LEN};
use super::{draft_version, AMPLIFICATION_FACTOR, MIN_INITIAL_SIZE, PACKET_TAG_LEN, QUIC_V1};
use crate::tls::{HandshakeMessage, HandshakePayload, SessionTicket, TlsConfig, TlsVersion};
use doqlab_simnet::{Duration, PayloadBuf, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::collections::{BTreeMap, VecDeque};

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

/// Offset-indexed send buffer with loss retransmission. `data` keeps
/// every byte ever queued, so a lost range is sent again from it.
#[derive(Debug, Default)]
struct SendBuf {
    data: Vec<u8>,
    next: u64,
    /// Lost ranges to send again: offset to length.
    retx: BTreeMap<u64, usize>,
}

impl SendBuf {
    fn queue(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Next range to transmit (retransmissions first), at most `max`
    /// bytes: its offset and length.
    fn next_chunk(&mut self, max: usize) -> Option<(u64, usize)> {
        if max == 0 {
            return None;
        }
        if let Some((off, len)) = self.retx.pop_first() {
            if len > max {
                self.retx.insert(off + max as u64, len - max);
                return Some((off, max));
            }
            return Some((off, len));
        }
        let avail = self.data.len() as u64 - self.next;
        if avail == 0 {
            return None;
        }
        let n = (avail as usize).min(max);
        let off = self.next;
        self.next += n as u64;
        Some((off, n))
    }

    fn on_lost(&mut self, offset: u64, len: usize) {
        self.retx.entry(offset).or_insert(len);
    }

    fn bytes(&self, offset: u64, len: usize) -> &[u8] {
        &self.data[offset as usize..offset as usize + len]
    }

    /// Bytes are waiting to be sent or sent again.
    fn has_pending(&self) -> bool {
        !self.retx.is_empty() || self.next < self.data.len() as u64
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

    /// Bytes or a FIN are waiting to be sent.
    fn has_output(&self) -> bool {
        self.send.has_pending() || (self.fin_queued && !self.fin_sent)
    }
}

/// One frame of a datagram being built, or of a sent packet's record,
/// named by where its bytes live instead of holding them: CRYPTO and
/// STREAM data are ranges of a send buffer, an ACK lists its space's
/// received packet numbers, and NEW_TOKEN carries the token minted for
/// the peer.
#[derive(Debug, Clone, Copy)]
enum Item {
    Ack,
    Ping,
    Padding(usize),
    Crypto {
        offset: u64,
        len: usize,
    },
    Stream {
        id: u64,
        offset: u64,
        len: usize,
        fin: bool,
    },
    NewToken,
    HandshakeDone,
    PathChallenge([u8; 8]),
    PathResponse([u8; 8]),
    Close(u64),
}

impl Item {
    fn is_ack_eliciting(&self) -> bool {
        !matches!(self, Item::Padding(_) | Item::Ack | Item::Close(_))
    }
}

#[derive(Debug)]
struct SentPacket {
    time: SimTime,
    ack_eliciting: bool,
    /// The packet's frames, for what to send again if it is lost.
    frames: Vec<Item>,
}

/// A set of packet numbers as disjoint inclusive `(hi, lo)` ranges,
/// highest first, with at least one missing number between neighbours:
/// the list an ACK frame carries.
#[derive(Debug, Default)]
struct PnRanges(Vec<(u64, u64)>);

impl PnRanges {
    /// Add `pn`; false if it was already present.
    fn insert(&mut self, pn: u64) -> bool {
        let r = &mut self.0;
        // The first range reaching down to `pn` or below it.
        let i = r.partition_point(|&(_, lo)| lo > pn);
        if i < r.len() && pn <= r[i].0 {
            return false;
        }
        let joins_lower = i < r.len() && r[i].0 + 1 == pn;
        let joins_upper = i > 0 && r[i - 1].1 == pn + 1;
        match (joins_upper, joins_lower) {
            (true, true) => {
                r[i - 1].1 = r[i].1;
                r.remove(i);
            }
            (true, false) => r[i - 1].1 = pn,
            (false, true) => r[i].0 = pn,
            (false, false) => r.insert(i, (pn, pn)),
        }
        true
    }
}

#[derive(Debug, Default)]
struct Space {
    next_pn: u64,
    sent: BTreeMap<u64, SentPacket>,
    /// Every pn we have received (for ACK frames and dedup).
    received: PnRanges,
    ack_owed: bool,
    crypto_tx: SendBuf,
    /// Reassembled handshake bytes; `assembled` holds those not yet
    /// forming a complete message.
    crypto_rx: RecvBuf,
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
    /// Ids of the streams with bytes or a FIN to send, ascending.
    sending: Vec<u64>,
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
    /// 0-RTT STREAM frames sent, `(id, offset, length, fin)`, replayed
    /// in 1-RTT if the server rejects early data.
    early_stream_frames: Vec<(u64, u64, usize, bool)>,
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

    // Output.
    /// Datagrams built by the last poll, drained by the caller.
    tx: Vec<PayloadBuf>,
    /// The frames of the datagram being built, reused.
    plan: Vec<Item>,
    /// Emptied sent-packet records, reused.
    spare_records: Vec<Vec<Item>>,
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
            sending: Vec::new(),
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
            tx: Vec::new(),
            plan: Vec::new(),
            spare_records: Vec::new(),
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
        let crypto = &mut self.spaces[EPOCH_INITIAL].crypto_tx.data;
        let before = crypto.len();
        HandshakeMessage::new(ch).encode(crypto);
        let flight_len = crypto.len() - before;
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
        mark_sending(&mut self.sending, id);
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

    fn on_packet(&mut self, now: SimTime, pkt: Packet<'_>) {
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
                self.token = Some(pkt.token.to_vec());
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
        let Some(frames) = Frame::parse(pkt.payload) else {
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

    fn on_frame(&mut self, now: SimTime, epoch: usize, zero_rtt: bool, frame: Frame<'_>) {
        match frame {
            Frame::Padding(_) | Frame::Ping => {}
            Frame::Ack { ranges, .. } => self.on_ack(now, epoch, ranges),
            Frame::Crypto { offset, data } => {
                self.spaces[epoch].crypto_rx.insert(offset, data);
                self.process_crypto(now, epoch);
            }
            Frame::NewToken { token } => {
                if self.role == Role::Client {
                    self.new_token_rx = Some(token.to_vec());
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
                stream.recv.insert(offset, data);
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

    fn on_ack(&mut self, now: SimTime, epoch: usize, ranges: AckRanges<'_>) {
        let largest = ranges.iter().next().map(|r| r.0);
        let mut newly_acked = false;
        let mut rtt_sample = None;
        for (hi, lo) in ranges.iter() {
            let space = &mut self.spaces[epoch];
            while let Some((&pn, _)) = space.sent.range(lo..=hi).next() {
                let sp = space.sent.remove(&pn).expect("ranged");
                newly_acked = true;
                if Some(pn) == largest && sp.ack_eliciting {
                    // RTT sample from the largest newly acked packet.
                    rtt_sample = Some(now - sp.time);
                }
                recycle(&mut self.spare_records, sp.frames);
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
            while let Some(entry) = self.spaces[epoch].sent.first_entry() {
                if *entry.key() >= largest.saturating_sub(2) {
                    break;
                }
                let (pn, sp) = entry.remove_entry();
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

    /// Queue again what a lost packet carried, reading CRYPTO and
    /// STREAM bytes back from the send buffers when they go out.
    fn requeue_lost_frames(&mut self, epoch: usize, frames: Vec<Item>) {
        for &item in &frames {
            match item {
                Item::Crypto { offset, len } => self.spaces[epoch].crypto_tx.on_lost(offset, len),
                Item::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => self.stream_lost(id, offset, len, fin),
                Item::NewToken => self.new_token_queued = true,
                Item::HandshakeDone => self.handshake_done_queued = true,
                Item::PathChallenge(_) => {
                    // Re-queue only while the validation attempt is
                    // still live (not answered or abandoned since).
                    if self.path_challenge_pending.is_some() {
                        self.path_challenge_queued = true;
                    }
                }
                Item::PathResponse(data) => self.path_response_queued = Some(data),
                Item::Ping | Item::Padding(_) | Item::Ack => {}
                Item::Close(_) => self.close_sent = false,
            }
        }
        recycle(&mut self.spare_records, frames);
    }

    /// STREAM data (and its FIN) that did not arrive goes out again.
    fn stream_lost(&mut self, id: u64, offset: u64, len: usize, fin: bool) {
        if let Some(s) = self.streams.get_mut(&id) {
            s.send.on_lost(offset, len);
            if fin {
                s.fin_sent = false;
            }
            mark_sending(&mut self.sending, id);
        }
    }

    // ---- handshake --------------------------------------------------------

    fn process_crypto(&mut self, now: SimTime, epoch: usize) {
        // Decode in place from the reassembled bytes until a partial
        // message remains (wait for more CRYPTO data); a whole message
        // that does not parse fails the handshake. The decoded prefix
        // is dropped once, at the end.
        let mut used = 0;
        let malformed = loop {
            match HandshakeMessage::decode(&self.spaces[epoch].crypto_rx.assembled[used..]) {
                Ok(Some((msg, n))) => {
                    used += n;
                    self.on_handshake_message(now, msg);
                    if self.hs == HsState::Failed || self.draining {
                        break false;
                    }
                }
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        self.spaces[epoch].crypto_rx.assembled.drain(..used);
        if malformed {
            self.hs_fail("malformed handshake message");
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
                        for (id, offset, len, fin) in frames {
                            self.stream_lost(id, offset, len, fin);
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
        HandshakeMessage::new(payload).encode(&mut self.spaces[epoch].crypto_tx.data);
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

    /// Build all datagrams that should be transmitted now; the caller
    /// drains them.
    pub fn poll_transmit(&mut self, now: SimTime) -> std::vec::Drain<'_, PayloadBuf> {
        if !self.draining {
            self.handle_timers(now);
        }
        if !self.draining {
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
                let Some(dgram) = self.build_datagram(now, budget.min(self.cfg.max_datagram))
                else {
                    break;
                };
                budget = budget.saturating_sub(dgram.len());
                self.bytes_sent += dgram.len();
                self.tx.push(dgram);
            }
            self.rearm_pto(now);
        }
        self.tx.drain(..)
    }

    /// Assemble one datagram of at most `budget` bytes; `None` if there
    /// is nothing to send. Frames are chosen first, into `plan`, so the
    /// datagram's exact size is known before its first byte is written.
    fn build_datagram(&mut self, now: SimTime, budget: usize) -> Option<PayloadBuf> {
        // Per-epoch long-header overhead (header + pn + tag), generous.
        const LONG_OVERHEAD: usize = 1 + 4 + 2 + 2 * CID_LEN + 8 + 4 + PACKET_TAG_LEN;
        const SHORT_OVERHEAD: usize = 1 + CID_LEN + 4 + PACKET_TAG_LEN;
        let token = make_token(self.cfg.tls.server_id, self.remote);
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        // Each packet's type and its items, `plan[start..end]`.
        let mut parts = [(PacketType::Initial, 0, 0); 3];
        let mut nparts = 0;
        let mut remaining = budget;
        let mut contains_initial = false;
        let mut initial_ack_eliciting = false;

        // CONNECTION_CLOSE preempts everything.
        if let Some(code) = self.close_queued {
            if self.close_sent {
                self.plan = plan;
                return None;
            }
            self.close_sent = true;
            let ptype = if self.is_established() {
                PacketType::OneRtt
            } else {
                PacketType::Initial
            };
            plan.push(Item::Close(code));
            let out = self.encode_datagram(now, &[(ptype, 0, 1)], &plan, &token);
            self.plan = plan;
            self.draining = true;
            return Some(out);
        }

        // Initial + Handshake epochs: ACKs then CRYPTO.
        for (epoch, ptype) in [
            (EPOCH_INITIAL, PacketType::Initial),
            (EPOCH_HANDSHAKE, PacketType::Handshake),
        ] {
            if remaining < LONG_OVERHEAD + 8 {
                break;
            }
            let start = plan.len();
            let mut used = 0;
            if self.spaces[epoch].ack_owed {
                if !self.spaces[epoch].received.0.is_empty() {
                    used += self.item_len(epoch, Item::Ack, &token);
                    plan.push(Item::Ack);
                }
                self.spaces[epoch].ack_owed = false;
            }
            let mut frame_budget = remaining - LONG_OVERHEAD - used;
            while frame_budget > 8 {
                let max_chunk = frame_budget - 8; // frame header slack
                let Some((offset, len)) = self.spaces[epoch].crypto_tx.next_chunk(max_chunk) else {
                    break;
                };
                let item = Item::Crypto { offset, len };
                let n = self.item_len(epoch, item, &token);
                frame_budget -= n.min(frame_budget);
                used += n;
                plan.push(item);
            }
            if self.ping_queued && epoch == EPOCH_INITIAL && plan.len() == start {
                self.ping_queued = false;
                used += self.item_len(epoch, Item::Ping, &token);
                plan.push(Item::Ping);
            }
            if plan.len() > start {
                if ptype == PacketType::Initial {
                    contains_initial = true;
                    initial_ack_eliciting |= plan[start..].iter().any(Item::is_ack_eliciting);
                }
                remaining -= LONG_OVERHEAD + used;
                parts[nparts] = (ptype, start, plan.len());
                nparts += 1;
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
        let app_ptype = if nparts > 0 {
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
                let start = plan.len();
                let mut frame_budget = remaining - overhead;
                if ptype == PacketType::OneRtt {
                    if self.spaces[EPOCH_APP].ack_owed {
                        if !self.spaces[EPOCH_APP].received.0.is_empty() {
                            plan.push(Item::Ack);
                        }
                        self.spaces[EPOCH_APP].ack_owed = false;
                    }
                    if self.handshake_done_queued {
                        self.handshake_done_queued = false;
                        plan.push(Item::HandshakeDone);
                    }
                    if self.new_token_queued && self.role == Role::Server {
                        self.new_token_queued = false;
                        plan.push(Item::NewToken);
                    }
                    if let Some(data) = self.path_response_queued.take() {
                        plan.push(Item::PathResponse(data));
                    }
                    if self.path_challenge_queued {
                        self.path_challenge_queued = false;
                        let data = self.path_challenge_pending.expect("queued implies pending");
                        plan.push(Item::PathChallenge(data));
                        let retry = self.path_probe_retries;
                        sink::emit(now.as_nanos(), || Event::QuicPathChallenge { retry });
                        metrics::count(Counter::QuicPathChallenges, 1);
                    }
                    frame_budget = frame_budget.saturating_sub(self.items_len(
                        EPOCH_APP,
                        &plan[start..],
                        &token,
                    ));
                    // Post-handshake CRYPTO (session tickets).
                    while frame_budget > 8 {
                        let Some((offset, len)) = self.spaces[EPOCH_APP]
                            .crypto_tx
                            .next_chunk(frame_budget - 8)
                        else {
                            break;
                        };
                        let item = Item::Crypto { offset, len };
                        frame_budget =
                            frame_budget.saturating_sub(self.item_len(EPOCH_APP, item, &token));
                        plan.push(item);
                    }
                }
                // Stream data, from the streams that have some, in id
                // order.
                let mut i = 0;
                while i < self.sending.len() {
                    if frame_budget <= 12 {
                        break;
                    }
                    let id = self.sending[i];
                    loop {
                        if frame_budget <= 12 {
                            break;
                        }
                        let stream = self.streams.get_mut(&id).expect("sending streams exist");
                        let item = match stream.send.next_chunk(frame_budget - 12) {
                            Some((offset, len)) => {
                                let end = offset + len as u64;
                                let fin = stream.fin_queued && end == stream.send.data.len() as u64;
                                if fin {
                                    stream.fin_offset = Some(end);
                                    stream.fin_sent = true;
                                }
                                if ptype == PacketType::ZeroRtt {
                                    self.early_stream_frames.push((id, offset, len, fin));
                                }
                                Item::Stream {
                                    id,
                                    offset,
                                    len,
                                    fin,
                                }
                            }
                            // A bare FIN (no data left to carry it).
                            None if stream.fin_queued && !stream.fin_sent => {
                                let end = stream.send.data.len() as u64;
                                stream.fin_offset = Some(end);
                                stream.fin_sent = true;
                                Item::Stream {
                                    id,
                                    offset: end,
                                    len: 0,
                                    fin: true,
                                }
                            }
                            None => break,
                        };
                        frame_budget =
                            frame_budget.saturating_sub(self.item_len(EPOCH_APP, item, &token));
                        plan.push(item);
                    }
                    if self.streams[&id].has_output() {
                        i += 1;
                    } else {
                        self.sending.remove(i);
                    }
                }
                if plan.len() > start {
                    parts[nparts] = (ptype, start, plan.len());
                    nparts += 1;
                }
            }
        }

        let parts = &mut parts[..nparts];
        if parts.is_empty() {
            self.plan = plan;
            return None;
        }
        // Datagrams with client Initials, or ack-eliciting Initials
        // from either role, are padded to 1200 bytes (§14.1).
        if contains_initial && (self.role == Role::Client || initial_ack_eliciting) {
            let size = self.datagram_len(parts, &plan, &token);
            let target = MIN_INITIAL_SIZE.min(budget);
            if size < target {
                // Pad inside the Initial packet, always the first;
                // adding padding can grow the length varint, so add
                // then shrink to hit the target exactly.
                let end = parts[0].2;
                plan.insert(end, Item::Padding(target - size));
                parts[0].2 += 1;
                for part in &mut parts[1..] {
                    part.1 += 1;
                    part.2 += 1;
                }
                let current = self.datagram_len(parts, &plan, &token);
                if current > target {
                    if let Item::Padding(n) = &mut plan[end] {
                        *n = n.saturating_sub(current - target);
                    }
                }
            }
        }
        let out = self.encode_datagram(now, parts, &plan, &token);
        self.plan = plan;
        Some(out)
    }

    /// The frame `item` names, borrowing its bytes from the connection.
    fn frame<'a>(&'a self, epoch: usize, item: Item, token: &'a [u8]) -> Frame<'a> {
        match item {
            Item::Ack => Frame::Ack {
                ranges: AckRanges::new(&self.spaces[epoch].received.0),
                delay: 0,
            },
            Item::Ping => Frame::Ping,
            Item::Padding(n) => Frame::Padding(n),
            Item::Crypto { offset, len } => Frame::Crypto {
                offset,
                data: self.spaces[epoch].crypto_tx.bytes(offset, len),
            },
            Item::Stream {
                id,
                offset,
                len,
                fin,
            } => Frame::Stream {
                id,
                offset,
                data: self.streams[&id].send.bytes(offset, len),
                fin,
            },
            Item::NewToken => Frame::NewToken { token },
            Item::HandshakeDone => Frame::HandshakeDone,
            Item::PathChallenge(data) => Frame::PathChallenge(data),
            Item::PathResponse(data) => Frame::PathResponse(data),
            Item::Close(error_code) => Frame::ConnectionClose {
                error_code,
                reason: &[],
            },
        }
    }

    fn item_len(&self, epoch: usize, item: Item, token: &[u8]) -> usize {
        self.frame(epoch, item, token).wire_len()
    }

    fn items_len(&self, epoch: usize, items: &[Item], token: &[u8]) -> usize {
        items.iter().map(|&i| self.item_len(epoch, i, token)).sum()
    }

    /// The header of this connection's next packet of type `ptype`.
    fn header(&self, ptype: PacketType) -> Packet<'_> {
        let epoch = epoch_of(ptype);
        let mut pkt = Packet::new(
            ptype,
            self.version,
            self.dcid,
            self.scid,
            self.spaces[epoch].next_pn,
            &[],
        );
        if ptype == PacketType::Initial {
            pkt.token = self.token.as_deref().unwrap_or_default();
        }
        pkt
    }

    /// Exact size of the datagram `parts` describe.
    fn datagram_len(
        &self,
        parts: &[(PacketType, usize, usize)],
        plan: &[Item],
        token: &[u8],
    ) -> usize {
        parts
            .iter()
            .map(|&(ptype, start, end)| {
                let payload = self.items_len(epoch_of(ptype), &plan[start..end], token);
                self.header(ptype).len_with_payload(payload)
            })
            .sum()
    }

    /// Encode `parts` — each a packet type and its items in `plan` —
    /// into one datagram, sized once, exactly. Each ack-eliciting
    /// packet's record keeps what it would need to send again.
    fn encode_datagram(
        &mut self,
        now: SimTime,
        parts: &[(PacketType, usize, usize)],
        plan: &[Item],
        token: &[u8],
    ) -> PayloadBuf {
        // A fresh vector of the exact size, not a pooled one: growing
        // recycled buffers to fit left the pool holding larger ones and
        // raised the benchmark's handshake peak RSS from about 20.5 to
        // 28–30 MiB.
        let exact = self.datagram_len(parts, plan, token);
        let mut out = PayloadBuf::from(Vec::with_capacity(exact));
        for &(ptype, start, end) in parts {
            let items = &plan[start..end];
            let epoch = epoch_of(ptype);
            let pn = self.spaces[epoch].next_pn;
            let before = out.len();
            self.header(ptype)
                .encode_header(self.items_len(epoch, items, token), &mut out);
            for &item in items {
                self.frame(epoch, item, token).encode(&mut out);
            }
            encode_tag(&mut out);
            self.spaces[epoch].next_pn += 1;
            let size = out.len() - before;
            sink::emit(now.as_nanos(), || Event::QuicPacketSent {
                ptype: ptype_str(ptype),
                pn,
                size,
            });
            metrics::count(Counter::QuicPacketsSent, 1);
            if items.iter().any(Item::is_ack_eliciting) {
                let mut frames = self.spare_records.pop().unwrap_or_default();
                frames.extend_from_slice(items);
                self.spaces[epoch].sent.insert(
                    pn,
                    SentPacket {
                        time: now,
                        ack_eliciting: true,
                        frames,
                    },
                );
                if self.pto_deadline.is_none() {
                    self.pto_deadline = Some(now + self.pto_duration());
                }
            }
        }
        debug_assert_eq!(out.len(), exact, "the datagram's planned size");
        out
    }
}

/// The packet-number space of a packet type.
fn epoch_of(ptype: PacketType) -> usize {
    match ptype {
        PacketType::Initial => EPOCH_INITIAL,
        PacketType::Handshake => EPOCH_HANDSHAKE,
        _ => EPOCH_APP,
    }
}

/// Add `id` to the ascending list of streams with output.
fn mark_sending(sending: &mut Vec<u64>, id: u64) {
    if let Err(at) = sending.binary_search(&id) {
        sending.insert(at, id);
    }
}

/// Keep an emptied sent-packet record's storage for a later packet.
fn recycle(spare: &mut Vec<Vec<Item>>, mut frames: Vec<Item>) {
    if frames.capacity() > 0 {
        frames.clear();
        spare.push(frames);
    }
}

/// Construct an address-validation token bound to a server identity and
/// client IP.
fn make_token(server_id: u64, client: SocketAddr) -> [u8; 32] {
    let mut t = [0u8; 32]; // the last 16 bytes: modelled integrity tag
    t[..4].copy_from_slice(b"TOK1");
    t[4..12].copy_from_slice(&server_id.to_be_bytes());
    t[12..16].copy_from_slice(&client.ip.0.to_be_bytes());
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
/// address validation. Beside each connection it keeps the
/// application's state for it (`S::default()` when the connection is
/// accepted), which follows a migrating connection and is dropped when
/// the connection is reaped.
#[derive(Debug)]
pub struct QuicServer<S = ()> {
    cfg: QuicConfig,
    pub local: SocketAddr,
    /// Ordered by peer, so polls emit datagrams in the same order on
    /// every run.
    conns: BTreeMap<SocketAddr, (QuicConnection, S)>,
    /// Datagrams built by the last poll, drained by the caller.
    tx: Vec<(SocketAddr, PayloadBuf)>,
}

impl QuicServer {
    /// A server that keeps no application state.
    pub fn new(local: SocketAddr, cfg: QuicConfig) -> Self {
        QuicServer::with_state(local, cfg)
    }
}

impl<S: Default> QuicServer<S> {
    pub fn with_state(local: SocketAddr, cfg: QuicConfig) -> Self {
        QuicServer {
            local,
            cfg,
            conns: BTreeMap::new(),
            tx: Vec::new(),
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
        if let Some((conn, _)) = self.conns.get_mut(&src) {
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
        let has_valid_token = token_valid(pkt.token, self.cfg.tls.server_id, src);
        if self.cfg.retry_required && !has_valid_token {
            let token = make_token(self.cfg.tls.server_id, src);
            let mut retry = Packet::new(PacketType::Retry, version, pkt.scid, pkt.dcid, 0, &[]);
            retry.token = &token;
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
        self.conns.insert(src, (conn, S::default()));
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
            .find(|(_, (c, _))| c.scid == dcid && !c.is_closed())
            .map(|(peer, _)| *peer)
        else {
            return;
        };
        let (mut conn, state) = self.conns.remove(&old).expect("peer listed");
        conn.migrate_to(now, src);
        conn.handle_datagram(now, data);
        self.conns.insert(src, (conn, state));
    }

    /// Poll every connection for outbound datagrams; the caller drains
    /// them.
    pub fn poll_transmit(&mut self, now: SimTime) -> std::vec::Drain<'_, (SocketAddr, PayloadBuf)> {
        for (peer, (conn, _)) in self.conns.iter_mut() {
            for dgram in conn.poll_transmit(now) {
                self.tx.push((*peer, dgram));
            }
        }
        self.tx.drain(..)
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.conns
            .values()
            .filter_map(|(c, _)| c.next_timeout())
            .min()
    }

    pub fn connection(&mut self, peer: SocketAddr) -> Option<&mut QuicConnection> {
        self.conns.get_mut(&peer).map(|(conn, _)| conn)
    }

    /// Every connection with its application state, in peer order.
    pub fn connections(
        &mut self,
    ) -> impl Iterator<Item = (SocketAddr, &mut QuicConnection, &mut S)> {
        self.conns
            .iter_mut()
            .map(|(peer, (conn, state))| (*peer, conn, state))
    }

    /// Drop drained connections, and their state with them.
    pub fn reap(&mut self) {
        self.conns.retain(|_, (c, _)| !c.is_closed());
    }

    pub fn len(&self) -> usize {
        self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}
