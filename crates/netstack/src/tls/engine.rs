//! The TLS client and server state machines.
//!
//! Transport-agnostic: callers feed received bytes with `read_wire` and
//! drain bytes to transmit with `take_output`. Over TCP the bytes are
//! written into a [`crate::tcp::TcpSocket`]; QUIC instead embeds the
//! handshake *messages* (not records) in CRYPTO frames via
//! [`crate::tls::messages::HandshakeReader`].
//!
//! Flights implemented:
//!
//! * TLS 1.3 full: CH -> SH, EE, Cert, CV, Fin -> Fin           (1 RTT)
//! * TLS 1.3 resumption (PSK): CH -> SH, EE, Fin -> Fin         (1 RTT,
//!   no certificate — this is what keeps DoQ under the QUIC
//!   amplification limit in the paper's measurements)
//! * TLS 1.3 0-RTT: CH + early data -> ... (accepted or replayed)
//! * TLS 1.2 full: CH -> SH, Cert, SHD -> CKE, CCS, Fin -> CCS, Fin
//!   (2 RTT)
//! * TLS 1.2 abbreviated: CH -> SH, CCS, Fin -> CCS, Fin        (1 RTT)
//!
//! Servers issue NewSessionTicket after the handshake (7-day lifetime,
//! like every resolver the paper measured).

use crate::tls::messages::{
    HandshakeMessage, HandshakePayload, HandshakeReader, TlsRecord, TlsVersion,
};
use crate::tls::session::SessionTicket;
use doqlab_simnet::{Duration, SimTime};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};

/// Shared client/server configuration.
#[derive(Debug, Clone)]
pub struct TlsConfig {
    /// Server identity for ticket validation (servers only).
    pub server_id: u64,
    /// Supported versions, most preferred first.
    pub versions: Vec<TlsVersion>,
    /// ALPN: offered (client) / supported (server).
    pub alpn: Vec<Vec<u8>>,
    /// Certificate chain size on the wire (servers only).
    pub cert_chain_len: u16,
    /// Accept / request 0-RTT early data.
    pub enable_0rtt: bool,
    /// Lifetime of issued tickets (servers only).
    pub ticket_lifetime: Duration,
    /// Extra ClientHello padding (e.g. QUIC transport parameters).
    pub extra_client_hello_pad: u16,
}

impl Default for TlsConfig {
    fn default() -> Self {
        TlsConfig {
            server_id: 0,
            versions: vec![TlsVersion::Tls13, TlsVersion::Tls12],
            alpn: Vec::new(),
            cert_chain_len: 2400,
            enable_0rtt: false,
            ticket_lifetime: crate::tls::session::MAX_TICKET_LIFETIME,
            extra_client_hello_pad: 0,
        }
    }
}

/// Fatal handshake failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    NoCommonVersion,
    NoCommonAlpn,
    UnexpectedMessage(&'static str),
    PeerAlert(u8),
    /// Bytes from the peer that cannot be a record or a handshake
    /// message (RFC 8446's `decode_error`).
    Malformed(&'static str),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::NoCommonVersion => write!(f, "no common TLS version"),
            TlsError::NoCommonAlpn => write!(f, "no common ALPN protocol"),
            TlsError::UnexpectedMessage(m) => write!(f, "unexpected message: {m}"),
            TlsError::PeerAlert(c) => write!(f, "peer sent fatal alert {c}"),
            TlsError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for TlsError {}

/// What the record layer hands an endpoint.
enum Inbound<'a> {
    Handshake(HandshakeMessage),
    AppData(&'a [u8]),
    FatalAlert(u8),
}

/// The record loop both endpoints share. Appends `data` to `rec_buf`,
/// decodes every whole record in place, reassembles handshake messages
/// through `hs_in`, and hands each message, application-data plaintext
/// and fatal alert to `on_input` for as long as it returns true (the
/// endpoint has not failed). The consumed prefix is dropped once per
/// call. Malformed input — a record or a handshake message that does
/// not parse — returns its error at once, so the endpoint fails instead
/// of waiting for bytes that would never complete it (and, failed,
/// reads nothing more).
fn read_records(
    rec_buf: &mut Vec<u8>,
    hs_in: &mut HandshakeReader,
    data: &[u8],
    mut on_input: impl FnMut(Inbound<'_>) -> bool,
) -> Result<(), TlsError> {
    rec_buf.extend_from_slice(data);
    let mut pos = 0;
    while let Some((rec, used)) = TlsRecord::decode(&rec_buf[pos..])? {
        pos += used;
        let alive = match rec {
            TlsRecord::Alert { fatal: true, code } => on_input(Inbound::FatalAlert(code)),
            TlsRecord::PlainHandshake(bytes)
            | TlsRecord::Encrypted {
                inner_type: 22,
                plaintext: bytes,
            } => {
                hs_in.push(bytes);
                let mut alive = true;
                while alive {
                    let Some(msg) = hs_in.next_message()? else {
                        break;
                    };
                    alive = on_input(Inbound::Handshake(msg));
                }
                alive
            }
            TlsRecord::Encrypted {
                inner_type: 23,
                plaintext,
            } => on_input(Inbound::AppData(plaintext)),
            TlsRecord::Alert { .. } | TlsRecord::ChangeCipherSpec | TlsRecord::Encrypted { .. } => {
                true
            }
        };
        if !alive {
            break;
        }
    }
    rec_buf.drain(..pos);
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Start,
    WaitServerHello,
    /// TLS 1.3: waiting for EE/Cert/CV/Finished.
    WaitServerFlight13,
    /// TLS 1.2 full: waiting for Certificate / ServerHelloDone.
    WaitServerFlight12,
    /// TLS 1.2: waiting for the server Finished.
    WaitServerFinished12,
    Connected,
    Failed,
}

/// Append `payload` to `out` as one handshake record, encoding the
/// message in `scratch` (reused across messages) first.
fn encode_handshake(
    scratch: &mut Vec<u8>,
    plaintext_epoch: bool,
    payload: HandshakePayload,
    out: &mut Vec<u8>,
) {
    scratch.clear();
    HandshakeMessage::new(payload).encode(scratch);
    let rec = if plaintext_epoch {
        TlsRecord::PlainHandshake(scratch)
    } else {
        TlsRecord::encrypted_handshake(scratch)
    };
    rec.encode(out);
}

/// Client endpoint.
#[derive(Debug)]
pub struct TlsClient {
    cfg: TlsConfig,
    state: ClientState,
    ticket: Option<SessionTicket>,
    out: Vec<u8>,
    /// Handshake message being encoded, reused.
    hs_scratch: Vec<u8>,
    hs_in: HandshakeReader,
    rec_buf: Vec<u8>,
    app_rx: Vec<u8>,
    app_tx_pending: Vec<u8>,
    early_sent: Vec<u8>,
    attempted_early: bool,
    early_accepted: Option<bool>,
    version: Option<TlsVersion>,
    alpn: Option<Vec<u8>>,
    tickets: Vec<SessionTicket>,
    connected_at: Option<SimTime>,
    error: Option<TlsError>,
    resumed_12: bool,
    resumed_13: bool,
    seen_ee: bool,
}

impl TlsClient {
    pub fn new(cfg: TlsConfig, ticket: Option<SessionTicket>) -> Self {
        TlsClient {
            cfg,
            state: ClientState::Start,
            ticket,
            out: Vec::new(),
            hs_scratch: Vec::new(),
            hs_in: HandshakeReader::new(),
            rec_buf: Vec::new(),
            app_rx: Vec::new(),
            app_tx_pending: Vec::new(),
            early_sent: Vec::new(),
            attempted_early: false,
            early_accepted: None,
            version: None,
            alpn: None,
            tickets: Vec::new(),
            connected_at: None,
            error: None,
            resumed_12: false,
            resumed_13: false,
            seen_ee: false,
        }
    }

    fn send_handshake(&mut self, plaintext_epoch: bool, payload: HandshakePayload) {
        encode_handshake(
            &mut self.hs_scratch,
            plaintext_epoch,
            payload,
            &mut self.out,
        );
    }

    /// Begin the handshake: emits the ClientHello (plus 0-RTT data if
    /// queued, permitted, and the ticket allows it).
    pub fn start(&mut self, now: SimTime) {
        assert_eq!(self.state, ClientState::Start, "start() twice");
        let psk = self
            .ticket
            .clone()
            .filter(|t| t.is_valid_at(now) && self.cfg.versions.contains(&t.version));
        let early_data = self.cfg.enable_0rtt
            && psk.as_ref().is_some_and(|t| t.allows_early_data)
            && !self.app_tx_pending.is_empty();
        self.attempted_early = early_data;
        self.send_handshake(
            true,
            HandshakePayload::ClientHello {
                versions: self.cfg.versions.clone(),
                alpn: self.cfg.alpn.clone(),
                psk,
                early_data,
                pad: self.cfg.extra_client_hello_pad,
            },
        );
        if early_data {
            let data = std::mem::take(&mut self.app_tx_pending);
            TlsRecord::encode_app_data(&data, &mut self.out);
            self.early_sent = data;
        }
        let flight_len = self.out.len();
        sink::emit(now.as_nanos(), || Event::TlsFlightSent {
            flight: "client_hello",
            bytes: flight_len,
        });
        self.state = ClientState::WaitServerHello;
    }

    /// Feed bytes received from the transport. Records are decoded in
    /// place and the consumed prefix is dropped once per call; input
    /// that cannot be a record or a handshake message fails the
    /// endpoint with [`TlsError::Malformed`].
    pub fn read_wire(&mut self, now: SimTime, data: &[u8]) {
        if self.state == ClientState::Failed {
            return;
        }
        let mut rec_buf = std::mem::take(&mut self.rec_buf);
        let mut hs_in = std::mem::take(&mut self.hs_in);
        let read = read_records(&mut rec_buf, &mut hs_in, data, |input| {
            match input {
                Inbound::Handshake(msg) => self.on_handshake(now, msg),
                Inbound::AppData(plaintext) => self.app_rx.extend_from_slice(plaintext),
                Inbound::FatalAlert(code) => {
                    self.error.get_or_insert(TlsError::PeerAlert(code));
                    self.state = ClientState::Failed;
                }
            }
            self.state != ClientState::Failed
        });
        (self.rec_buf, self.hs_in) = (rec_buf, hs_in);
        if let Err(e) = read {
            self.fail(e);
        }
    }

    fn on_handshake(&mut self, now: SimTime, msg: HandshakeMessage) {
        match (self.state, msg.payload) {
            (ClientState::WaitServerHello, HandshakePayload::ServerHello { version, resumed }) => {
                self.version = Some(version);
                match version {
                    TlsVersion::Tls13 => {
                        self.resumed_13 = resumed;
                        self.state = ClientState::WaitServerFlight13;
                    }
                    TlsVersion::Tls12 => {
                        self.resumed_12 = resumed;
                        if self.attempted_early {
                            // A 1.2 server never reads 0-RTT records:
                            // treat the downgrade as a rejection and
                            // re-queue the early data for the
                            // post-handshake flight.
                            self.early_accepted = Some(false);
                            sink::emit(now.as_nanos(), || Event::TlsEarlyData { accepted: false });
                            metrics::count(Counter::TlsEarlyDataRejected, 1);
                            let replay = std::mem::take(&mut self.early_sent);
                            self.app_tx_pending.splice(0..0, replay);
                        }
                        // 1.2 has no EE; a plain-1.2 server ignores the
                        // offered ALPN extension detail — assume first
                        // offered protocol.
                        self.alpn = self.cfg.alpn.first().cloned();
                        if resumed {
                            self.state = ClientState::WaitServerFinished12;
                        } else {
                            self.state = ClientState::WaitServerFlight12;
                        }
                    }
                }
            }
            (
                ClientState::WaitServerFlight13,
                HandshakePayload::EncryptedExtensions {
                    alpn,
                    early_data_accepted,
                },
            ) => {
                self.alpn = alpn;
                self.seen_ee = true;
                if self.attempted_early {
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
                        // Rejected: re-queue for after the handshake.
                        let replay = std::mem::take(&mut self.early_sent);
                        self.app_tx_pending.splice(0..0, replay);
                    }
                }
            }
            (ClientState::WaitServerFlight13, HandshakePayload::Certificate { .. })
            | (ClientState::WaitServerFlight13, HandshakePayload::CertificateVerify) => {}
            (ClientState::WaitServerFlight13, HandshakePayload::Finished) => {
                if !self.seen_ee {
                    return self.fail(TlsError::UnexpectedMessage("Finished before EE"));
                }
                let before = self.out.len();
                self.send_handshake(false, HandshakePayload::Finished);
                let flight_len = self.out.len() - before;
                sink::emit(now.as_nanos(), || Event::TlsFlightSent {
                    flight: "finished",
                    bytes: flight_len,
                });
                self.complete(now);
            }
            (ClientState::WaitServerFlight12, HandshakePayload::Certificate { .. }) => {}
            (ClientState::WaitServerFlight12, HandshakePayload::ServerHelloDone) => {
                self.send_handshake(true, HandshakePayload::ClientKeyExchange);
                TlsRecord::ChangeCipherSpec.encode(&mut self.out);
                self.send_handshake(false, HandshakePayload::Finished);
                self.state = ClientState::WaitServerFinished12;
            }
            (ClientState::WaitServerFinished12, HandshakePayload::Finished) => {
                if self.resumed_12 {
                    // Abbreviated: the client's CCS+Finished go second.
                    TlsRecord::ChangeCipherSpec.encode(&mut self.out);
                    self.send_handshake(false, HandshakePayload::Finished);
                }
                self.complete(now);
            }
            (_, HandshakePayload::NewSessionTicket { ticket }) => {
                self.tickets.push(ticket);
            }
            (_, _other) => self.fail(TlsError::UnexpectedMessage("client state machine")),
        }
    }

    fn complete(&mut self, now: SimTime) {
        self.state = ClientState::Connected;
        self.connected_at = Some(now);
        let resumed = self.resumed_12 || self.resumed_13;
        sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
        metrics::count(Counter::TlsHandshakesCompleted, 1);
        if resumed {
            metrics::count(Counter::TlsResumedHandshakes, 1);
        }
        if !self.app_tx_pending.is_empty() {
            let data = std::mem::take(&mut self.app_tx_pending);
            TlsRecord::encode_app_data(&data, &mut self.out);
        }
    }

    fn fail(&mut self, e: TlsError) {
        TlsRecord::Alert {
            fatal: true,
            code: 40,
        }
        .encode(&mut self.out);
        self.error = Some(e);
        self.state = ClientState::Failed;
    }

    /// Queue application data (sent as 0-RTT if possible, else after
    /// the handshake).
    pub fn write_app(&mut self, data: &[u8]) {
        if self.state == ClientState::Connected {
            TlsRecord::encode_app_data(data, &mut self.out);
        } else {
            self.app_tx_pending.extend_from_slice(data);
        }
    }

    /// Drain decrypted application bytes (`as_slice` reads them in
    /// place); the buffer keeps its capacity for the next records.
    pub fn read_app(&mut self) -> std::vec::Drain<'_, u8> {
        self.app_rx.drain(..)
    }

    /// Take bytes to hand to the transport.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    pub fn is_connected(&self) -> bool {
        self.state == ClientState::Connected
    }

    pub fn connected_at(&self) -> Option<SimTime> {
        self.connected_at
    }

    pub fn error(&self) -> Option<&TlsError> {
        self.error.as_ref()
    }

    pub fn negotiated_version(&self) -> Option<TlsVersion> {
        self.version
    }

    pub fn negotiated_alpn(&self) -> Option<&[u8]> {
        self.alpn.as_deref()
    }

    /// Was the 0-RTT attempt accepted? `None` until known / not tried.
    pub fn early_data_accepted(&self) -> Option<bool> {
        self.early_accepted
    }

    /// Tickets received so far (drained).
    pub fn take_tickets(&mut self) -> Vec<SessionTicket> {
        std::mem::take(&mut self.tickets)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    WaitClientHello,
    /// TLS 1.3: flight sent, waiting for client Finished.
    WaitClientFinished13,
    /// TLS 1.2 full: waiting for CKE.
    WaitClientKeyExchange,
    /// TLS 1.2: waiting for client Finished.
    WaitClientFinished12,
    Connected,
    Failed,
}

/// Server endpoint.
#[derive(Debug)]
pub struct TlsServer {
    cfg: TlsConfig,
    state: ServerState,
    out: Vec<u8>,
    /// Handshake message being encoded, reused.
    hs_scratch: Vec<u8>,
    hs_in: HandshakeReader,
    rec_buf: Vec<u8>,
    app_rx: Vec<u8>,
    /// Early-data records arriving before the handshake completes.
    early_rx: Vec<u8>,
    early_accepted: bool,
    version: Option<TlsVersion>,
    alpn: Option<Vec<u8>>,
    connected_at: Option<SimTime>,
    error: Option<TlsError>,
    resumed: bool,
    /// PSK accepted on either version — observational only (the 1.3
    /// path does not feed [`Self::is_resumption`]).
    psk_accepted: bool,
    tickets_to_send: u32,
}

impl TlsServer {
    pub fn new(cfg: TlsConfig) -> Self {
        TlsServer {
            cfg,
            state: ServerState::WaitClientHello,
            out: Vec::new(),
            hs_scratch: Vec::new(),
            hs_in: HandshakeReader::new(),
            rec_buf: Vec::new(),
            app_rx: Vec::new(),
            early_rx: Vec::new(),
            early_accepted: false,
            version: None,
            alpn: None,
            connected_at: None,
            error: None,
            resumed: false,
            psk_accepted: false,
            tickets_to_send: 1,
        }
    }

    fn send_handshake(&mut self, plaintext_epoch: bool, payload: HandshakePayload) {
        encode_handshake(
            &mut self.hs_scratch,
            plaintext_epoch,
            payload,
            &mut self.out,
        );
    }

    /// Feed bytes received from the transport. Records are decoded in
    /// place and the consumed prefix is dropped once per call; input
    /// that cannot be a record or a handshake message fails the
    /// endpoint with [`TlsError::Malformed`].
    pub fn read_wire(&mut self, now: SimTime, data: &[u8]) {
        if self.state == ServerState::Failed {
            return;
        }
        let mut rec_buf = std::mem::take(&mut self.rec_buf);
        let mut hs_in = std::mem::take(&mut self.hs_in);
        let read = read_records(&mut rec_buf, &mut hs_in, data, |input| {
            match input {
                Inbound::Handshake(msg) => self.on_handshake(now, msg),
                Inbound::AppData(plaintext) => {
                    if self.state == ServerState::Connected {
                        self.app_rx.extend_from_slice(plaintext);
                    } else if self.early_accepted {
                        self.early_rx.extend_from_slice(plaintext);
                    }
                    // Otherwise: early data we did not accept — in real
                    // TLS it is undecryptable and skipped; the client
                    // replays.
                }
                Inbound::FatalAlert(code) => {
                    self.error.get_or_insert(TlsError::PeerAlert(code));
                    self.state = ServerState::Failed;
                }
            }
            self.state != ServerState::Failed
        });
        (self.rec_buf, self.hs_in) = (rec_buf, hs_in);
        if let Err(e) = read {
            self.error = Some(e);
            self.state = ServerState::Failed;
        }
    }

    fn on_handshake(&mut self, now: SimTime, msg: HandshakeMessage) {
        match (self.state, msg.payload) {
            (
                ServerState::WaitClientHello,
                HandshakePayload::ClientHello {
                    versions,
                    alpn,
                    psk,
                    early_data,
                    ..
                },
            ) => self.on_client_hello(now, versions, alpn, psk, early_data),
            (ServerState::WaitClientFinished13, HandshakePayload::Finished) => {
                self.complete(now);
            }
            (ServerState::WaitClientKeyExchange, HandshakePayload::ClientKeyExchange) => {
                self.state = ServerState::WaitClientFinished12;
            }
            (ServerState::WaitClientFinished12, HandshakePayload::Finished) => {
                if !self.resumed {
                    TlsRecord::ChangeCipherSpec.encode(&mut self.out);
                    self.send_handshake(false, HandshakePayload::Finished);
                }
                self.complete(now);
            }
            (_, _other) => {
                self.error = Some(TlsError::UnexpectedMessage("server state machine"));
                self.state = ServerState::Failed;
            }
        }
    }

    fn on_client_hello(
        &mut self,
        now: SimTime,
        versions: Vec<TlsVersion>,
        alpn: Vec<Vec<u8>>,
        psk: Option<SessionTicket>,
        early_data: bool,
    ) {
        // Version: server preference order.
        let Some(version) = self
            .cfg
            .versions
            .iter()
            .copied()
            .find(|v| versions.contains(v))
        else {
            TlsRecord::Alert {
                fatal: true,
                code: 70,
            }
            .encode(&mut self.out);
            self.error = Some(TlsError::NoCommonVersion);
            self.state = ServerState::Failed;
            return;
        };
        // ALPN: first client protocol the server supports.
        let chosen_alpn = alpn.iter().find(|a| self.cfg.alpn.contains(a)).cloned();
        if chosen_alpn.is_none() && !self.cfg.alpn.is_empty() && !alpn.is_empty() {
            TlsRecord::Alert {
                fatal: true,
                code: 120,
            }
            .encode(&mut self.out);
            self.error = Some(TlsError::NoCommonAlpn);
            self.state = ServerState::Failed;
            return;
        }
        self.version = Some(version);
        self.alpn = chosen_alpn.clone();
        // PSK validation: our ticket, still valid, same version+ALPN.
        let psk_ok = psk.as_ref().is_some_and(|t| {
            t.server_id == self.cfg.server_id
                && t.is_valid_at(now)
                && t.version == version
                && chosen_alpn.as_deref() == Some(&t.alpn[..])
        });
        let flight_start = self.out.len();
        self.psk_accepted = psk_ok;
        match version {
            TlsVersion::Tls13 => {
                self.early_accepted = psk_ok
                    && early_data
                    && self.cfg.enable_0rtt
                    && psk.as_ref().is_some_and(|t| t.allows_early_data);
                self.send_handshake(
                    true,
                    HandshakePayload::ServerHello {
                        version,
                        resumed: psk_ok,
                    },
                );
                self.send_handshake(
                    false,
                    HandshakePayload::EncryptedExtensions {
                        alpn: chosen_alpn,
                        early_data_accepted: self.early_accepted,
                    },
                );
                if !psk_ok {
                    self.send_handshake(
                        false,
                        HandshakePayload::Certificate {
                            chain_len: self.cfg.cert_chain_len,
                        },
                    );
                    self.send_handshake(false, HandshakePayload::CertificateVerify);
                }
                self.send_handshake(false, HandshakePayload::Finished);
                self.state = ServerState::WaitClientFinished13;
            }
            TlsVersion::Tls12 => {
                self.resumed = psk_ok;
                self.send_handshake(
                    true,
                    HandshakePayload::ServerHello {
                        version,
                        resumed: psk_ok,
                    },
                );
                if psk_ok {
                    TlsRecord::ChangeCipherSpec.encode(&mut self.out);
                    self.send_handshake(false, HandshakePayload::Finished);
                    self.state = ServerState::WaitClientFinished12;
                } else {
                    self.send_handshake(
                        true,
                        HandshakePayload::Certificate {
                            chain_len: self.cfg.cert_chain_len,
                        },
                    );
                    self.send_handshake(true, HandshakePayload::ServerHelloDone);
                    self.state = ServerState::WaitClientKeyExchange;
                }
            }
        }
        let flight_len = self.out.len() - flight_start;
        sink::emit(now.as_nanos(), || Event::TlsFlightSent {
            flight: "server_hello",
            bytes: flight_len,
        });
    }

    fn complete(&mut self, now: SimTime) {
        self.state = ServerState::Connected;
        self.connected_at = Some(now);
        // Client-side counts the handshake metrics; only the trace
        // event is mirrored here.
        let resumed = self.psk_accepted;
        sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
        // Promote early data and issue tickets.
        self.app_rx.splice(0..0, std::mem::take(&mut self.early_rx));
        for _ in 0..self.tickets_to_send {
            let ticket = SessionTicket {
                server_id: self.cfg.server_id,
                version: self.version.expect("set in CH"),
                alpn: self.alpn.clone().unwrap_or_default(),
                issued_at: now,
                lifetime: self.cfg.ticket_lifetime,
                // Early data is a TLS 1.3 mechanism (RFC 8446 §4.2.10):
                // a ticket from a 1.2 handshake must never advertise it,
                // or the next connection sends 0-RTT records a 1.2
                // server silently drops.
                allows_early_data: self.cfg.enable_0rtt && self.version == Some(TlsVersion::Tls13),
                opaque_len: 120,
            };
            self.send_handshake(false, HandshakePayload::NewSessionTicket { ticket });
        }
    }

    pub fn write_app(&mut self, data: &[u8]) {
        TlsRecord::encode_app_data(data, &mut self.out);
    }

    /// Drain decrypted application bytes (`as_slice` reads them in
    /// place); the buffer keeps its capacity for the next records.
    pub fn read_app(&mut self) -> std::vec::Drain<'_, u8> {
        self.app_rx.drain(..)
    }

    /// Early data readable before the handshake finishes (only when
    /// 0-RTT was accepted).
    pub fn read_early(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.early_rx)
    }

    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    pub fn is_connected(&self) -> bool {
        self.state == ServerState::Connected
    }

    pub fn connected_at(&self) -> Option<SimTime> {
        self.connected_at
    }

    pub fn error(&self) -> Option<&TlsError> {
        self.error.as_ref()
    }

    pub fn negotiated_version(&self) -> Option<TlsVersion> {
        self.version
    }

    pub fn negotiated_alpn(&self) -> Option<&[u8]> {
        self.alpn.as_deref()
    }

    pub fn early_data_was_accepted(&self) -> bool {
        self.early_accepted
    }

    /// The handshake resumed a previous session (PSK / session ID).
    pub fn is_resumption(&self) -> bool {
        self.resumed
            || self.early_accepted
            || (self.version == Some(TlsVersion::Tls13) && {
                // For 1.3 the `resumed` field is reused via SH echo; track
                // it through the certificate-skip: connected without a
                // certificate having been sent.
                false
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_server(alpn: &[&str]) -> TlsConfig {
        TlsConfig {
            server_id: 7,
            alpn: alpn.iter().map(|a| a.as_bytes().to_vec()).collect(),
            ..TlsConfig::default()
        }
    }

    fn cfg_client(alpn: &[&str]) -> TlsConfig {
        TlsConfig {
            alpn: alpn.iter().map(|a| a.as_bytes().to_vec()).collect(),
            ..TlsConfig::default()
        }
    }

    /// Shuttle bytes between the endpoints until both go quiet.
    /// Each shuttle direction counts as half a round trip; returns the
    /// number of *flights* the client sent.
    fn run(client: &mut TlsClient, server: &mut TlsServer) -> usize {
        let mut client_flights = 0;
        for _ in 0..20 {
            let c_out = client.take_output();
            if !c_out.is_empty() {
                client_flights += 1;
                server.read_wire(SimTime::ZERO, &c_out);
            }
            let s_out = server.take_output();
            if !s_out.is_empty() {
                client.read_wire(SimTime::ZERO, &s_out);
            }
            if c_out.is_empty() && s_out.is_empty() {
                break;
            }
        }
        client_flights
    }

    #[test]
    fn full_13_handshake_connects_with_one_client_flight_before_fin() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected());
        assert!(s.is_connected());
        assert_eq!(c.negotiated_version(), Some(TlsVersion::Tls13));
        assert_eq!(c.negotiated_alpn(), Some(&b"dot"[..]));
        assert_eq!(s.negotiated_alpn(), Some(&b"dot"[..]));
    }

    #[test]
    fn app_data_flows_after_handshake() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        c.write_app(b"query");
        run(&mut c, &mut s);
        assert_eq!(s.read_app().as_slice(), b"query");
        s.write_app(b"answer");
        run(&mut c, &mut s);
        assert_eq!(c.read_app().as_slice(), b"answer");
    }

    #[test]
    fn app_data_queued_before_connect_is_flushed_at_connect() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.write_app(b"early-queued");
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected());
        assert_eq!(s.read_app().as_slice(), b"early-queued");
    }

    #[test]
    fn client_receives_a_7day_ticket() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        let tickets = c.take_tickets();
        assert_eq!(tickets.len(), 1);
        assert_eq!(tickets[0].lifetime, Duration::from_secs(7 * 24 * 3600));
        assert_eq!(tickets[0].server_id, 7);
    }

    fn obtain_ticket(server_cfg: &TlsConfig, client_cfg: &TlsConfig) -> SessionTicket {
        let mut c = TlsClient::new(client_cfg.clone(), None);
        let mut s = TlsServer::new(server_cfg.clone());
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        c.take_tickets().remove(0)
    }

    #[test]
    fn resumption_skips_certificate() {
        let s_cfg = cfg_server(&["dot"]);
        let c_cfg = cfg_client(&["dot"]);
        let ticket = obtain_ticket(&s_cfg, &c_cfg);

        // Full handshake server flight includes the ~2.4 KB chain.
        let mut c1 = TlsClient::new(c_cfg.clone(), None);
        let mut s1 = TlsServer::new(s_cfg.clone());
        c1.start(SimTime::ZERO);
        s1.read_wire(SimTime::ZERO, &c1.take_output());
        let full_flight = s1.take_output().len();

        let mut c2 = TlsClient::new(c_cfg, Some(ticket));
        let mut s2 = TlsServer::new(s_cfg);
        c2.start(SimTime::ZERO);
        s2.read_wire(SimTime::ZERO, &c2.take_output());
        let resumed_flight = s2.take_output();

        assert!(
            full_flight > resumed_flight.len() + 2000,
            "full {full_flight} vs resumed {}",
            resumed_flight.len()
        );
        // Finish the resumed handshake.
        c2.read_wire(SimTime::ZERO, &resumed_flight);
        run(&mut c2, &mut s2);
        assert!(c2.is_connected() && s2.is_connected());
    }

    #[test]
    fn expired_ticket_falls_back_to_full_handshake() {
        let s_cfg = cfg_server(&["dot"]);
        let c_cfg = cfg_client(&["dot"]);
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        let after_expiry = SimTime::ZERO + ticket.lifetime + Duration::from_secs(1);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.start(after_expiry);
        s.read_wire(after_expiry, &c.take_output());
        // Server sent a certificate: flight is large.
        assert!(s.take_output().len() > 2000);
    }

    #[test]
    fn wrong_server_ticket_is_rejected_not_fatal() {
        let s_cfg = cfg_server(&["dot"]);
        let c_cfg = cfg_client(&["dot"]);
        let mut ticket = obtain_ticket(&s_cfg, &c_cfg);
        ticket.server_id = 999; // some other resolver's ticket
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected(), "falls back to a full handshake");
    }

    #[test]
    fn zero_rtt_accepted_delivers_before_client_finished() {
        let s_cfg = TlsConfig {
            enable_0rtt: true,
            ..cfg_server(&["doq"])
        };
        let c_cfg = TlsConfig {
            enable_0rtt: true,
            ..cfg_client(&["doq"])
        };
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        assert!(ticket.allows_early_data);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.write_app(b"0rtt-query");
        c.start(SimTime::ZERO);
        // First client flight only.
        s.read_wire(SimTime::ZERO, &c.take_output());
        assert!(s.early_data_was_accepted());
        assert_eq!(s.read_early(), b"0rtt-query");
        run(&mut c, &mut s);
        assert_eq!(c.early_data_accepted(), Some(true));
    }

    #[test]
    fn zero_rtt_rejected_replays_after_handshake() {
        // Server does not enable 0-RTT (like every resolver the paper
        // measured); ticket therefore forbids early data, client with
        // 0-RTT enabled cannot attempt it, and the data flows 1-RTT.
        let s_cfg = cfg_server(&["doq"]);
        let c_cfg = TlsConfig {
            enable_0rtt: true,
            ..cfg_client(&["doq"])
        };
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        assert!(!ticket.allows_early_data);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.write_app(b"query");
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected());
        assert_eq!(c.early_data_accepted(), None, "never attempted");
        assert_eq!(s.read_app().as_slice(), b"query");
    }

    #[test]
    fn tls12_full_handshake_takes_two_client_flights() {
        let s_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls12],
            ..cfg_server(&["dot"])
        };
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        let flights = run(&mut c, &mut s);
        assert!(c.is_connected() && s.is_connected());
        assert_eq!(c.negotiated_version(), Some(TlsVersion::Tls12));
        assert_eq!(flights, 2, "CH, then CKE+CCS+Fin");
    }

    #[test]
    fn tls12_resumption_takes_one_round_less() {
        let s_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls12],
            ..cfg_server(&["dot"])
        };
        let c_cfg = cfg_client(&["dot"]);
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        assert_eq!(ticket.version, TlsVersion::Tls12);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        // CH -> SH+CCS+Fin: after one server flight the client finishes.
        s.read_wire(SimTime::ZERO, &c.take_output());
        c.read_wire(SimTime::ZERO, &s.take_output());
        assert!(
            c.is_connected(),
            "client connects after first server flight"
        );
    }

    #[test]
    fn no_common_version_fails_cleanly() {
        let s_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls12],
            ..cfg_server(&["dot"])
        };
        let c_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls13],
            ..cfg_client(&["dot"])
        };
        let mut c = TlsClient::new(c_cfg, None);
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert_eq!(s.error(), Some(&TlsError::NoCommonVersion));
        assert!(!c.is_connected());
        assert!(matches!(c.error(), Some(TlsError::PeerAlert(_))));
    }

    #[test]
    fn no_common_alpn_fails_cleanly() {
        let mut c = TlsClient::new(cfg_client(&["doq"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert_eq!(s.error(), Some(&TlsError::NoCommonAlpn));
        assert!(!c.is_connected());
    }

    #[test]
    fn bytes_survive_arbitrary_chunking() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        // Deliver the handshake one byte at a time.
        for _ in 0..10 {
            let out = c.take_output();
            for b in out {
                s.read_wire(SimTime::ZERO, &[b]);
            }
            let out = s.take_output();
            for b in out {
                c.read_wire(SimTime::ZERO, &[b]);
            }
            if c.is_connected() && s.is_connected() {
                break;
            }
        }
        assert!(c.is_connected() && s.is_connected());
    }

    #[test]
    fn malformed_input_fails_the_endpoint_instead_of_stalling_it() {
        // After the handshake, bytes that can never complete a record —
        // an encrypted record shorter than its AEAD overhead, an unknown
        // content type, a whole handshake message that does not parse —
        // and then a well-formed record. Each endpoint must fail with a
        // decode error, not buffer the good record behind the bad bytes
        // forever.
        let garbage: [&[u8]; 3] = [
            &[23, 3, 3, 0, 1, 0],
            &[99, 3, 3, 0, 2, 0, 0],
            &[22, 3, 3, 0, 5, 255, 0, 0, 1, 7],
        ];
        for bad in garbage {
            let mut c = TlsClient::new(cfg_client(&["dot"]), None);
            let mut s = TlsServer::new(cfg_server(&["dot"]));
            c.start(SimTime::ZERO);
            run(&mut c, &mut s);
            assert!(c.is_connected() && s.is_connected());

            s.read_wire(SimTime::ZERO, bad);
            c.write_app(b"query");
            s.read_wire(SimTime::ZERO, &c.take_output());
            assert!(s.read_app().as_slice().is_empty(), "{bad:?}");
            assert!(matches!(s.error(), Some(TlsError::Malformed(_))), "{bad:?}");

            c.read_wire(SimTime::ZERO, bad);
            s.write_app(b"answer");
            c.read_wire(SimTime::ZERO, &s.take_output());
            assert!(c.read_app().as_slice().is_empty(), "{bad:?}");
            assert!(matches!(c.error(), Some(TlsError::Malformed(_))), "{bad:?}");
        }
    }
}
