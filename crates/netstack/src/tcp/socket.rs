//! The TCP connection state machine.
//!
//! Sans-I/O and poll-driven: callers feed segments in with
//! [`TcpSocket::on_segment`], drain output with [`TcpSocket::poll`], and
//! arm timers from [`TcpSocket::next_timeout`]. Sequence bookkeeping is
//! done in a 64-bit absolute space (position 0 is the SYN) and mapped to
//! 32-bit wire numbers, which keeps wrap-around handling in one place.
//!
//! Implemented: 3-way handshake, MSS-sized segmentation, out-of-order
//! reassembly, cumulative ACKs, RFC 6298 RTO with exponential backoff
//! (1 s initial — the transport-layer retry the paper contrasts with
//! Chromium's 5 s DoUDP application retry), fast retransmit on three
//! duplicate ACKs, slow start / congestion avoidance, FIN teardown and
//! TCP Fast Open. Not modelled: SACK scoreboards, urgent data, silly
//! window avoidance (transfers here are far too small to hit it).

use super::segment::{TcpFlags, TcpOption, TcpSegment};
use crate::congestion::CongestionController;
use doqlab_simnet::{Duration, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::collections::{BTreeMap, VecDeque};

/// Connection parameters.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    pub mss: usize,
    /// RFC 6298 initial retransmission timeout.
    pub initial_rto: Duration,
    /// Lower bound on the RTO once an RTT estimate exists.
    pub min_rto: Duration,
    /// Give up after this many consecutive retransmissions.
    pub max_retries: u32,
    /// TIME_WAIT linger (kept short: simulations are single-connection).
    pub time_wait: Duration,
    /// Client: attach data to the SYN when a Fast Open cookie is cached.
    /// Server: accept SYN data and issue cookies.
    pub enable_tfo: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            initial_rto: Duration::from_secs(1),
            min_rto: Duration::from_millis(200),
            max_retries: 6,
            time_wait: Duration::from_millis(500),
            enable_tfo: false,
        }
    }
}

/// Why a socket entered its sticky failed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpFailure {
    /// The peer sent RST.
    PeerReset,
    /// `max_retries` consecutive retransmissions went unanswered.
    RetriesExhausted,
    /// The local application called [`TcpSocket::abort`].
    Aborted,
}

/// RFC 793 connection states (no simultaneous-open states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    Closed,
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    Closing,
    TimeWait,
    CloseWait,
    LastAck,
}

/// RFC 6298 smoothed RTT estimator.
#[derive(Debug, Clone)]
struct RtoEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    min_rto: Duration,
}

impl RtoEstimator {
    fn new(initial: Duration, min_rto: Duration) -> Self {
        RtoEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            rto: initial,
            min_rto,
        }
    }

    fn on_sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = srtt.abs_diff(rtt);
                self.rttvar = (self.rttvar * 3 + delta) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        let rto = self.srtt.unwrap() + self.rttvar * 4;
        self.rto = rto.max(self.min_rto);
    }

    fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(Duration::from_secs(60));
    }

    fn current(&self) -> Duration {
        self.rto
    }
}

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    state: TcpState,
    pub local: SocketAddr,
    pub remote: SocketAddr,

    // --- send side (absolute space: 0 = SYN, 1.. = data, FIN = 1+total)
    iss: u32,
    snd_una: u64,
    snd_nxt: u64,
    /// Highest sequence position ever sent (go-back-N rewinds move
    /// `snd_nxt` backwards; cumulative ACKs remain valid up to here).
    snd_max: u64,
    /// Bytes accepted from the application, in order, not yet acked.
    /// Front of the queue is absolute position `tx_base`.
    tx_buf: VecDeque<u8>,
    tx_base: u64,
    /// Total data bytes ever written.
    tx_written: u64,
    /// Application requested close; FIN goes out once data drains.
    tx_closing: bool,
    /// Absolute position of our FIN once reserved.
    fin_pos: Option<u64>,

    // --- receive side (absolute: 0 = peer SYN, 1.. = data)
    irs: u32,
    rcv_nxt: u64,
    rx_buf: Vec<u8>,
    /// Out-of-order payload keyed by absolute position.
    ooo: BTreeMap<u64, Vec<u8>>,
    /// Absolute position of the peer's FIN, if seen.
    peer_fin: Option<u64>,

    // --- timers / recovery
    rto: RtoEstimator,
    retransmit_at: Option<SimTime>,
    retries: u32,
    /// One outstanding RTT sample: (absolute seq end, send time).
    rtt_sample: Option<(u64, SimTime)>,
    dup_acks: u32,
    cc: CongestionController,
    peer_window: u64,
    time_wait_until: Option<SimTime>,

    // --- misc
    /// Pure ACKs owed to the peer (one per ACK-eliciting segment, so
    /// that duplicate ACKs actually reach the sender for fast
    /// retransmit).
    pending_acks: u32,
    need_syn: bool,
    established_at: Option<SimTime>,
    /// RST owed to the peer.
    reset_pending: bool,
    /// Sticky failure cause (reset by peer, retries exhausted, aborted).
    failure: Option<TcpFailure>,
    /// Client-side cached TFO cookie (present = may send data on SYN).
    tfo_cookie: Option<Vec<u8>>,
    /// Server: data accepted from a TFO SYN, delivered on accept.
    ts_echo: u32,
}

impl TcpSocket {
    /// Create a client socket; call [`TcpSocket::open`] to send the SYN.
    pub fn client(local: SocketAddr, remote: SocketAddr, iss: u32, cfg: TcpConfig) -> Self {
        Self::new(local, remote, iss, cfg, TcpState::Closed)
    }

    /// Create a server-side socket in LISTEN (used by [`TcpListener`]).
    pub fn server(local: SocketAddr, remote: SocketAddr, iss: u32, cfg: TcpConfig) -> Self {
        Self::new(local, remote, iss, cfg, TcpState::Listen)
    }

    fn new(
        local: SocketAddr,
        remote: SocketAddr,
        iss: u32,
        cfg: TcpConfig,
        state: TcpState,
    ) -> Self {
        let rto = RtoEstimator::new(cfg.initial_rto, cfg.min_rto);
        let mss = cfg.mss;
        TcpSocket {
            cfg,
            state,
            local,
            remote,
            iss,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            tx_buf: VecDeque::new(),
            tx_base: 1,
            tx_written: 0,
            tx_closing: false,
            fin_pos: None,
            irs: 0,
            rcv_nxt: 0,
            rx_buf: Vec::new(),
            ooo: BTreeMap::new(),
            peer_fin: None,
            rto,
            retransmit_at: None,
            retries: 0,
            rtt_sample: None,
            dup_acks: 0,
            cc: CongestionController::new(mss),
            peer_window: 65535,
            time_wait_until: None,
            pending_acks: 0,
            need_syn: false,
            established_at: None,
            reset_pending: false,
            failure: None,
            tfo_cookie: None,
            ts_echo: 0,
        }
    }

    /// Provide a cached Fast Open cookie before `open` (client only).
    pub fn set_tfo_cookie(&mut self, cookie: Vec<u8>) {
        self.tfo_cookie = Some(cookie);
    }

    /// Cookie learned from the server during this connection, if any.
    pub fn tfo_cookie(&self) -> Option<&[u8]> {
        self.tfo_cookie.as_deref()
    }

    /// Begin the active open. Data already queued via [`TcpSocket::send`]
    /// rides on the SYN when TFO is enabled and a cookie is cached.
    pub fn open(&mut self, _now: SimTime) {
        assert_eq!(self.state, TcpState::Closed, "open() on a used socket");
        self.state = TcpState::SynSent;
        self.need_syn = true;
        self.snd_nxt = 1; // SYN occupies position 0
    }

    pub fn state(&self) -> TcpState {
        self.state
    }

    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::CloseWait
                | TcpState::Closing
                | TcpState::LastAck
        )
    }

    /// Time the 3-way handshake completed at this endpoint.
    pub fn established_at(&self) -> Option<SimTime> {
        self.established_at
    }

    /// The connection was reset or retried out.
    pub fn is_reset(&self) -> bool {
        self.failure.is_some()
    }

    /// Why the socket failed, when it did — distinguishing a peer RST
    /// from retransmission exhaustion feeds the failure taxonomy of the
    /// measurement campaigns.
    pub fn failure(&self) -> Option<TcpFailure> {
        self.failure
    }

    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Peer sent FIN and all its data was delivered.
    pub fn peer_closed(&self) -> bool {
        matches!(self.state, TcpState::CloseWait | TcpState::LastAck)
            || (self.peer_fin.is_some_and(|f| self.rcv_nxt > f))
    }

    /// Half-closed by the peer and fully drained on our side: no
    /// unacknowledged data, nothing buffered for the application, no
    /// ACKs owed, no timer armed. Such a socket can never emit another
    /// segment on its own, so a server that will not write to it again
    /// may drop it without changing any observable traffic.
    pub fn is_quiescent_peer_closed(&self) -> bool {
        self.state == TcpState::CloseWait
            && !self.tx_closing
            && self.tx_buf.is_empty()
            && self.rx_buf.is_empty()
            && self.ooo.is_empty()
            && self.pending_acks == 0
            && !self.reset_pending
            && self.retransmit_at.is_none()
    }

    /// Whether the transmit side still accepts application data: false
    /// once [`TcpSocket::close`] or [`TcpSocket::abort`] was called, or
    /// the connection fully closed. Callers with data of their own
    /// (e.g. a TLS engine draining its output) check this instead of
    /// tripping the `send` assertion on a dying socket.
    pub fn can_send(&self) -> bool {
        !self.tx_closing && self.state != TcpState::Closed
    }

    /// Queue application data for transmission.
    pub fn send(&mut self, data: &[u8]) {
        assert!(!self.tx_closing, "send after close");
        self.tx_buf.extend(data);
        self.tx_written += data.len() as u64;
    }

    /// Take all readable bytes.
    pub fn recv(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.rx_buf)
    }

    pub fn has_rx_data(&self) -> bool {
        !self.rx_buf.is_empty()
    }

    /// Bytes queued locally but not yet acknowledged by the peer.
    pub fn tx_outstanding(&self) -> usize {
        self.tx_buf.len()
    }

    /// Graceful close: FIN is sent once queued data drains.
    pub fn close(&mut self) {
        if self.tx_closing {
            return;
        }
        self.tx_closing = true;
        match self.state {
            TcpState::Established => self.state = TcpState::FinWait1,
            // During the handshake only mark the intent; the transition
            // happens once the connection establishes (half-open close).
            TcpState::SynSent | TcpState::SynReceived => {}
            TcpState::CloseWait => self.state = TcpState::LastAck,
            _ => {}
        }
    }

    /// Hard reset: emit RST on next poll and drop all state.
    pub fn abort(&mut self) {
        if !matches!(self.state, TcpState::Closed | TcpState::Listen) {
            self.reset_pending = true;
            self.failure = Some(TcpFailure::Aborted);
        }
        self.state = TcpState::Closed;
        self.retransmit_at = None;
    }

    // ---- wire/absolute sequence mapping --------------------------------

    fn wire_seq(&self, abs: u64) -> u32 {
        self.iss.wrapping_add(abs as u32)
    }

    fn abs_from_wire_ack(&self, ack: u32) -> u64 {
        let base_wire = self.wire_seq(self.snd_una);
        self.snd_una + ack.wrapping_sub(base_wire) as u64
    }

    fn peer_abs(&self, seq: u32) -> u64 {
        // Positions are small in this workspace; a single wrap window
        // is enough.
        let base_wire = self.irs.wrapping_add(self.rcv_nxt as u32);
        let delta = seq.wrapping_sub(base_wire) as i32; // +/- 2^31 window
        (self.rcv_nxt as i64 + delta as i64).max(0) as u64
    }

    // ---- segment input --------------------------------------------------

    /// Process an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        if seg.flags.rst {
            if self.state != TcpState::Closed {
                self.failure = Some(TcpFailure::PeerReset);
                self.state = TcpState::Closed;
                self.retransmit_at = None;
            }
            return;
        }
        if let Some(TcpOption::Timestamps { value, .. }) = seg
            .options
            .iter()
            .find(|o| matches!(o, TcpOption::Timestamps { .. }))
        {
            self.ts_echo = *value;
        }
        match self.state {
            TcpState::Closed => { /* drop; RST generation not needed */ }
            TcpState::Listen => self.on_listen_syn(now, seg),
            TcpState::SynSent => self.on_syn_sent(now, seg),
            _ => self.on_synchronized(now, seg),
        }
    }

    fn on_listen_syn(&mut self, now: SimTime, seg: &TcpSegment) {
        if !seg.flags.syn || seg.flags.ack {
            return;
        }
        self.irs = seg.seq;
        self.rcv_nxt = 1;
        self.apply_peer_mss(seg);
        self.state = TcpState::SynReceived;
        self.snd_nxt = 1;
        self.need_syn = true; // SYN-ACK
                              // TCP Fast Open (server side): accept SYN data when the client
                              // presented a cookie and we support TFO.
        if self.cfg.enable_tfo && !seg.payload.is_empty() {
            let has_cookie = seg
                .options
                .iter()
                .any(|o| matches!(o, TcpOption::FastOpenCookie(c) if !c.is_empty()));
            if has_cookie {
                self.rx_buf.extend_from_slice(&seg.payload);
                self.rcv_nxt += seg.payload.len() as u64;
                let data_len = seg.payload.len();
                sink::emit(now.as_nanos(), || Event::TcpFastOpen {
                    side: "server",
                    data_len,
                });
                metrics::count(Counter::TcpFastOpenServer, 1);
            }
        }
    }

    fn on_syn_sent(&mut self, now: SimTime, seg: &TcpSegment) {
        if !seg.flags.syn || !seg.flags.ack {
            return;
        }
        let ack_abs = self.abs_from_wire_ack(seg.ack);
        if ack_abs == 0 || ack_abs > self.snd_nxt {
            return; // unacceptable ACK
        }
        self.irs = seg.seq;
        self.rcv_nxt = 1;
        self.apply_peer_mss(seg);
        self.advance_snd_una(now, ack_abs);
        // Server may hand us a Fast Open cookie for next time.
        if let Some(TcpOption::FastOpenCookie(c)) = seg
            .options
            .iter()
            .find(|o| matches!(o, TcpOption::FastOpenCookie(_)))
        {
            if !c.is_empty() {
                self.tfo_cookie = Some(c.clone());
            }
        }
        self.state = TcpState::Established;
        self.established_at = Some(now);
        if self.tx_closing {
            self.state = TcpState::FinWait1;
        }
        self.pending_acks += 1;
        // SYN-ACK payload (TFO server response data) is regular stream
        // data starting at position 1.
        if !seg.payload.is_empty() {
            self.accept_payload(1, &seg.payload);
        }
    }

    fn on_synchronized(&mut self, now: SimTime, seg: &TcpSegment) {
        // Handshake completion for a passive opener.
        if self.state == TcpState::SynReceived && seg.flags.ack {
            let ack_abs = self.abs_from_wire_ack(seg.ack);
            if ack_abs >= 1 {
                self.state = TcpState::Established;
                self.established_at = Some(now);
                if self.tx_closing {
                    self.state = TcpState::FinWait1;
                }
            }
        }
        if seg.flags.ack {
            self.process_ack(now, seg);
        }
        if !seg.payload.is_empty() {
            let pos = self.peer_abs(seg.seq);
            self.accept_payload(pos, &seg.payload);
            self.pending_acks += 1;
        }
        if seg.flags.fin {
            let fin_pos = self.peer_abs(seg.seq) + seg.payload.len() as u64;
            self.peer_fin = Some(fin_pos);
            self.pending_acks += 1;
        }
        self.maybe_consume_peer_fin();
    }

    fn apply_peer_mss(&mut self, seg: &TcpSegment) {
        if let Some(TcpOption::Mss(m)) = seg.options.iter().find(|o| matches!(o, TcpOption::Mss(_)))
        {
            self.cfg.mss = self.cfg.mss.min(*m as usize);
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        let ack_abs = self.abs_from_wire_ack(seg.ack);
        self.peer_window = seg.window as u64;
        if ack_abs > self.snd_max {
            return; // acks something we never sent
        }
        if ack_abs > self.snd_una {
            self.dup_acks = 0;
            self.advance_snd_una(now, ack_abs);
        } else if self.snd_nxt > self.snd_una && seg.payload.is_empty() && !seg.flags.fin {
            // Duplicate ACK while data is outstanding.
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                let inflight = (self.snd_nxt - self.snd_una) as usize;
                self.fast_retransmit();
                sink::emit(now.as_nanos(), || Event::TcpRetransmit {
                    kind: "fast",
                    bytes: inflight,
                });
                metrics::count(Counter::TcpFastRetransmits, 1);
                self.emit_cc_metrics(now);
            }
        }
        // Our FIN acked?
        if let Some(fin) = self.fin_pos {
            if self.snd_una > fin {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => self.enter_time_wait(now),
                    TcpState::LastAck => self.state = TcpState::Closed,
                    _ => {}
                }
            }
        }
    }

    fn advance_snd_una(&mut self, now: SimTime, ack_abs: u64) {
        let newly = ack_abs - self.snd_una;
        // A cumulative ACK past a rewound snd_nxt confirms the data is
        // already delivered: skip re-sending it.
        self.snd_nxt = self.snd_nxt.max(ack_abs);
        // Pop acked data bytes (positions tx_base..) off the buffer.
        let data_acked_end = ack_abs.min(1 + self.tx_written);
        if data_acked_end > self.tx_base {
            let n = (data_acked_end - self.tx_base) as usize;
            self.tx_buf.drain(..n.min(self.tx_buf.len()));
            self.tx_base = data_acked_end;
        }
        self.snd_una = ack_abs;
        self.cc.on_ack(newly as usize);
        self.emit_cc_metrics(now);
        // RTT sample (Karn: samples are only armed on first transmission).
        if let Some((end, sent)) = self.rtt_sample {
            if ack_abs >= end {
                self.rto.on_sample(now - sent);
                self.rtt_sample = None;
            }
        }
        self.retries = 0;
        if self.snd_una == self.snd_nxt {
            self.retransmit_at = None;
        } else {
            self.retransmit_at = Some(now + self.rto.current());
        }
    }

    /// Trace the congestion state after a window change (observational
    /// only; `ssthresh` is elided until the first loss sets it).
    fn emit_cc_metrics(&self, now: SimTime) {
        if !sink::enabled() {
            return;
        }
        let cwnd = self.cc.window() as u64;
        let ssthresh = match self.cc.ssthresh() {
            usize::MAX => None,
            s => Some(s as u64),
        };
        sink::emit(now.as_nanos(), || Event::CcMetricsUpdated {
            cwnd: Some(cwnd),
            ssthresh,
            srtt_ns: None,
        });
    }

    fn fast_retransmit(&mut self) {
        let inflight = (self.snd_nxt - self.snd_una) as usize;
        self.cc.on_fast_retransmit(inflight);
        // Go-back-N from the first unacked byte: poll() rebuilds.
        self.rewind_to_una();
    }

    fn rewind_to_una(&mut self) {
        self.snd_nxt = self.snd_una;
        if self.snd_nxt == 0 {
            self.need_syn = true;
            self.snd_nxt = 1;
        }
        if let Some(fin) = self.fin_pos {
            if self.snd_nxt <= fin {
                self.fin_pos = None; // poll re-reserves and re-sends FIN
            }
        }
        self.rtt_sample = None; // Karn's algorithm
    }

    fn accept_payload(&mut self, pos: u64, payload: &[u8]) {
        if pos + payload.len() as u64 <= self.rcv_nxt {
            return; // complete duplicate
        }
        // Trim any prefix we already have.
        let (pos, payload) = if pos < self.rcv_nxt {
            let skip = (self.rcv_nxt - pos) as usize;
            (self.rcv_nxt, &payload[skip..])
        } else {
            (pos, payload)
        };
        if pos == self.rcv_nxt {
            self.rx_buf.extend_from_slice(payload);
            self.rcv_nxt += payload.len() as u64;
            // Drain contiguous out-of-order chunks.
            while let Some((&p, _)) = self.ooo.first_key_value() {
                if p > self.rcv_nxt {
                    break;
                }
                let (p, chunk) = self.ooo.pop_first().expect("peeked");
                let skip = (self.rcv_nxt - p) as usize;
                if skip < chunk.len() {
                    self.rx_buf.extend_from_slice(&chunk[skip..]);
                    self.rcv_nxt += (chunk.len() - skip) as u64;
                }
            }
        } else {
            self.ooo.entry(pos).or_insert_with(|| payload.to_vec());
        }
        self.maybe_consume_peer_fin();
    }

    fn maybe_consume_peer_fin(&mut self) {
        let Some(fin) = self.peer_fin else { return };
        if self.rcv_nxt != fin {
            return; // data still missing before the FIN
        }
        self.rcv_nxt = fin + 1;
        self.pending_acks += 1;
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => self.enter_time_wait_pending(),
            _ => {}
        }
        if self.tx_closing && self.state == TcpState::CloseWait {
            self.state = TcpState::LastAck;
        }
    }

    fn enter_time_wait_pending(&mut self) {
        // Actual deadline is set on the next poll (needs `now`).
        self.state = TcpState::TimeWait;
        self.time_wait_until = None;
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.time_wait_until = Some(now + self.cfg.time_wait);
    }

    // ---- output ----------------------------------------------------------

    /// Earliest instant this socket needs to run.
    pub fn next_timeout(&self) -> Option<SimTime> {
        let mut t = self.retransmit_at;
        if let Some(tw) = self.time_wait_until {
            t = Some(t.map_or(tw, |x| x.min(tw)));
        }
        t
    }

    fn make_segment(
        &self,
        flags: TcpFlags,
        abs_seq: u64,
        payload: Vec<u8>,
        now: SimTime,
    ) -> TcpSegment {
        let mut options = Vec::new();
        if flags.syn {
            options.push(TcpOption::Mss(self.cfg.mss as u16));
            options.push(TcpOption::SackPermitted);
            options.push(TcpOption::Timestamps {
                value: (now.as_nanos() / 1_000_000) as u32,
                echo: self.ts_echo,
            });
            options.push(TcpOption::WindowScale(7));
        } else {
            options.push(TcpOption::Timestamps {
                value: (now.as_nanos() / 1_000_000) as u32,
                echo: self.ts_echo,
            });
        }
        TcpSegment {
            src_port: self.local.port,
            dst_port: self.remote.port,
            seq: self.wire_seq(abs_seq),
            ack: if flags.ack {
                self.irs.wrapping_add(self.rcv_nxt as u32)
            } else {
                0
            },
            flags,
            window: 65535,
            options,
            payload,
        }
    }

    /// Produce all segments that should go on the wire now. Also fires
    /// the retransmission timer when `now` has passed it.
    pub fn poll(&mut self, now: SimTime) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        if self.reset_pending && self.state == TcpState::Closed {
            // One RST, then silence.
            self.reset_pending = false;
            let mut seg = self.make_segment(TcpFlags::RST, self.snd_nxt, Vec::new(), now);
            seg.ack = 0;
            out.push(seg);
            return out;
        }
        // TIME_WAIT deadline may still need arming or firing.
        if self.state == TcpState::TimeWait {
            match self.time_wait_until {
                None => self.time_wait_until = Some(now + self.cfg.time_wait),
                Some(t) if now >= t => {
                    self.state = TcpState::Closed;
                    self.time_wait_until = None;
                }
                _ => {}
            }
        }
        // Retransmission timeout.
        if let Some(t) = self.retransmit_at {
            if now >= t {
                self.retries += 1;
                if self.retries > self.cfg.max_retries {
                    self.failure = Some(TcpFailure::RetriesExhausted);
                    self.state = TcpState::Closed;
                    self.retransmit_at = None;
                    return out;
                }
                let inflight = (self.snd_nxt - self.snd_una) as usize;
                self.cc.on_rto(inflight);
                self.rto.backoff();
                self.rewind_to_una();
                self.retransmit_at = None; // re-armed below when we send
                sink::emit(now.as_nanos(), || Event::TcpRetransmit {
                    kind: "rto",
                    bytes: inflight,
                });
                metrics::count(Counter::TcpRtoRetransmits, 1);
                self.emit_cc_metrics(now);
            }
        }
        // SYN / SYN-ACK.
        if self.need_syn {
            self.need_syn = false;
            let flags = match self.state {
                TcpState::SynSent => TcpFlags::SYN,
                TcpState::SynReceived => TcpFlags::SYN_ACK,
                // A rewind in an established state means the SYN was
                // already acked; skip.
                _ => TcpFlags {
                    syn: false,
                    ..TcpFlags::default()
                },
            };
            if flags.syn {
                let mut payload = Vec::new();
                let mut seg_flags = flags;
                // Client-side TFO: put queued data on the SYN.
                if self.state == TcpState::SynSent && self.cfg.enable_tfo {
                    if let Some(cookie) = &self.tfo_cookie {
                        if !cookie.is_empty() && !self.tx_buf.is_empty() {
                            let n = self.tx_buf.len().min(self.cfg.mss);
                            payload = self.tx_buf.iter().take(n).copied().collect();
                            seg_flags.psh = true;
                            sink::emit(now.as_nanos(), || Event::TcpFastOpen {
                                side: "client",
                                data_len: n,
                            });
                            metrics::count(Counter::TcpFastOpenClient, 1);
                            metrics::count(Counter::TfoSynData, 1);
                        }
                    }
                }
                let mut seg = self.make_segment(seg_flags, 0, payload.clone(), now);
                if self.cfg.enable_tfo && self.state == TcpState::SynSent {
                    // Send cookie if cached, else request one.
                    seg.options.push(TcpOption::FastOpenCookie(
                        self.tfo_cookie.clone().unwrap_or_default(),
                    ));
                } else if self.cfg.enable_tfo && self.state == TcpState::SynReceived {
                    // Issue a cookie to the client.
                    seg.options.push(TcpOption::FastOpenCookie(vec![0xC0; 8]));
                }
                out.push(seg);
                // SYN consumed position 0; any TFO payload follows it.
                self.snd_nxt = self.snd_nxt.max(1 + payload.len() as u64);
                self.snd_max = self.snd_max.max(self.snd_nxt);
                if self.rtt_sample.is_none() {
                    self.rtt_sample = Some((self.snd_nxt, now));
                }
            }
        }
        // Stream data. A TFO server may answer SYN-carried data before
        // the handshake completes (RFC 7413 §4.2): its response rides
        // the SYN-ACK flight instead of waiting a round trip for the
        // client's ACK — that saved RTT is the whole point of TFO.
        if matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) || (self.state == TcpState::SynReceived && self.cfg.enable_tfo)
        {
            let window = self
                .cc
                .window()
                .min(self.peer_window.max(1460) as usize * 128);
            loop {
                let inflight = (self.snd_nxt - self.snd_una) as usize;
                if inflight >= window {
                    break;
                }
                let data_end = 1 + self.tx_written;
                if self.snd_nxt >= data_end {
                    break;
                }
                let start = (self.snd_nxt - self.tx_base) as usize;
                let budget = (window - inflight).min(self.cfg.mss);
                let avail = self.tx_buf.len().saturating_sub(start);
                let n = avail.min(budget);
                if n == 0 {
                    break;
                }
                let payload: Vec<u8> = self.tx_buf.iter().skip(start).take(n).copied().collect();
                let last = start + n == self.tx_buf.len();
                let mut flags = TcpFlags::ACK;
                flags.psh = last;
                let seg = self.make_segment(flags, self.snd_nxt, payload, now);
                out.push(seg);
                if self.rtt_sample.is_none() {
                    self.rtt_sample = Some((self.snd_nxt + n as u64, now));
                }
                self.snd_nxt += n as u64;
                self.snd_max = self.snd_max.max(self.snd_nxt);
                self.pending_acks = 0;
            }
            // FIN once everything is out.
            if self.tx_closing
                && self.fin_pos.is_none()
                && self.snd_nxt == 1 + self.tx_written
                && matches!(
                    self.state,
                    TcpState::FinWait1 | TcpState::Closing | TcpState::LastAck
                )
            {
                let fin = self.snd_nxt;
                self.fin_pos = Some(fin);
                out.push(self.make_segment(TcpFlags::FIN_ACK, fin, Vec::new(), now));
                self.snd_nxt += 1;
                self.snd_max = self.snd_max.max(self.snd_nxt);
                self.pending_acks = 0;
            }
        }
        // Pure ACKs if no data segment carried them. One ACK per
        // ACK-eliciting segment received, so duplicate ACKs reach the
        // peer and trigger its fast retransmit.
        if self.pending_acks > 0 && (self.is_established() || self.state == TcpState::TimeWait) {
            if out.is_empty() {
                for _ in 0..self.pending_acks {
                    out.push(self.make_segment(TcpFlags::ACK, self.snd_nxt, Vec::new(), now));
                }
            }
            self.pending_acks = 0;
        }
        // (Re-)arm the retransmission timer when data is in flight.
        if self.snd_nxt > self.snd_una && self.retransmit_at.is_none() {
            self.retransmit_at = Some(now + self.rto.current());
        }
        out
    }
}

/// Demultiplexes inbound segments to per-peer server sockets.
#[derive(Debug)]
pub struct TcpListener {
    pub local: SocketAddr,
    cfg: TcpConfig,
    /// Ordered by peer, so polls emit segments in the same order on
    /// every run.
    conns: BTreeMap<SocketAddr, TcpSocket>,
}

impl TcpListener {
    pub fn new(local: SocketAddr, cfg: TcpConfig) -> Self {
        TcpListener {
            local,
            cfg,
            conns: BTreeMap::new(),
        }
    }

    /// Route a segment from `peer`, creating a socket on SYN.
    pub fn on_segment(&mut self, now: SimTime, peer: SocketAddr, seg: &TcpSegment) {
        let sock = self.conns.entry(peer).or_insert_with(|| {
            // Deterministic per-peer ISS.
            let iss = peer
                .ip
                .0
                .wrapping_mul(2654435761)
                .wrapping_add(peer.port as u32);
            TcpSocket::server(self.local, peer, iss, self.cfg.clone())
        });
        sock.on_segment(now, seg);
    }

    /// Poll every connection; returns (peer, segment) pairs to transmit.
    pub fn poll(&mut self, now: SimTime) -> Vec<(SocketAddr, TcpSegment)> {
        let mut out = Vec::new();
        for (peer, sock) in self.conns.iter_mut() {
            for seg in sock.poll(now) {
                out.push((*peer, seg));
            }
        }
        out
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.conns.values().filter_map(|c| c.next_timeout()).min()
    }

    pub fn connection(&mut self, peer: SocketAddr) -> Option<&mut TcpSocket> {
        self.conns.get_mut(&peer)
    }

    pub fn connections(&mut self) -> impl Iterator<Item = (&SocketAddr, &mut TcpSocket)> {
        self.conns.iter_mut()
    }

    /// Drop fully closed connections.
    pub fn reap(&mut self) {
        self.conns.retain(|_, c| !c.is_closed() || c.reset_pending);
    }

    /// Drop connections that can never speak again: fully closed ones
    /// and half-closed ones the peer abandoned (FIN received and
    /// everything drained — see
    /// [`TcpSocket::is_quiescent_peer_closed`]). A long-lived server
    /// facing pooled clients that redial from fresh source ports would
    /// otherwise scan an ever-growing table of dead sockets on every
    /// poll. Call after a `poll` has flushed pending ACKs; a stray
    /// late segment from a reaped peer hits a fresh LISTEN socket,
    /// which ignores everything but SYN — same silence as CLOSED.
    pub fn reap_quiescent(&mut self) {
        self.conns
            .retain(|_, c| (!c.is_closed() || c.reset_pending) && !c.is_quiescent_peer_closed());
    }

    /// Whether a connection from `peer` is currently tracked.
    pub fn contains(&self, peer: SocketAddr) -> bool {
        self.conns.contains_key(&peer)
    }

    pub fn len(&self) -> usize {
        self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doqlab_simnet::Ipv4Addr;

    fn sa(h: u8, port: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
    }

    /// Drive both endpoints with a fixed one-way delay until neither has
    /// anything to send. Returns the virtual time at the end.
    struct Harness {
        a: TcpSocket,
        b: TcpSocket,
        now: SimTime,
        delay: Duration,
        /// (deliver_at, to_a, segment)
        wire: Vec<(SimTime, bool, TcpSegment)>,
        a_sent: usize,
        b_sent: usize,
    }

    impl Harness {
        fn new() -> Self {
            let a = TcpSocket::client(sa(1, 40000), sa(2, 853), 100, TcpConfig::default());
            let b = TcpSocket::server(sa(2, 853), sa(1, 40000), 900, TcpConfig::default());
            Harness {
                a,
                b,
                now: SimTime::ZERO,
                delay: Duration::from_millis(10),
                wire: Vec::new(),
                a_sent: 0,
                b_sent: 0,
            }
        }

        /// Run until both sockets go quiet (or 10k steps).
        fn settle(&mut self) {
            for _ in 0..10_000 {
                for seg in self.a.poll(self.now) {
                    self.a_sent += 1;
                    self.wire.push((self.now + self.delay, false, seg));
                }
                for seg in self.b.poll(self.now) {
                    self.b_sent += 1;
                    self.wire.push((self.now + self.delay, true, seg));
                }
                // Deliver everything due, else jump to the next event.
                self.wire.sort_by_key(|(t, _, _)| *t);
                if let Some((t, to_a, seg)) = self.wire.first().cloned() {
                    self.wire.remove(0);
                    self.now = t;
                    if to_a {
                        self.a.on_segment(self.now, &seg);
                    } else {
                        self.b.on_segment(self.now, &seg);
                    }
                } else {
                    // Nothing in flight: advance to a timer if armed.
                    let t = [self.a.next_timeout(), self.b.next_timeout()]
                        .into_iter()
                        .flatten()
                        .min();
                    match t {
                        Some(t) if t > self.now + Duration::from_secs(120) => break,
                        Some(t) => self.now = t,
                        None => break,
                    }
                }
            }
        }
    }

    #[test]
    fn three_way_handshake() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.settle();
        assert!(h.a.is_established());
        assert!(h.b.is_established());
        // Client learns establishment after exactly 1 RTT.
        assert_eq!(h.a.established_at(), Some(SimTime::from_millis(20)));
        // 3 segments: SYN, SYN-ACK, ACK.
        assert_eq!(h.a_sent + h.b_sent, 3);
    }

    #[test]
    fn handshake_wire_sizes_match_paper() {
        // Table 1: DoTCP handshake C->R = 72 bytes (SYN 40 + ACK 32),
        // R->C = 40 bytes (SYN-ACK).
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        let syn = &h.a.poll(h.now)[0];
        assert_eq!(syn.encode().len(), 40);
        h.b.on_segment(h.now, syn);
        let synack = &h.b.poll(h.now)[0];
        assert_eq!(synack.encode().len(), 40);
        h.a.on_segment(h.now, synack);
        let ack = &h.a.poll(h.now)[0];
        assert_eq!(ack.encode().len(), 32);
    }

    #[test]
    fn data_transfer_both_directions() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.a.send(b"ping blob");
        h.settle();
        assert_eq!(h.b.recv(), b"ping blob");
        h.b.send(b"pong");
        h.settle();
        assert_eq!(h.a.recv(), b"pong");
    }

    #[test]
    fn large_transfer_is_segmented_and_reassembled() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        let data: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        h.a.send(&data);
        h.settle();
        assert_eq!(h.b.recv(), data);
    }

    #[test]
    fn graceful_close_reaches_closed_on_both_ends() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.a.send(b"q");
        h.settle();
        h.b.send(b"r");
        h.b.close();
        h.settle();
        assert_eq!(h.a.recv(), b"r");
        assert!(h.a.peer_closed());
        h.a.close();
        h.settle();
        // Both FINs acked: b went LastAck->Closed, a TimeWait->Closed.
        assert!(h.b.is_closed());
        assert!(matches!(h.a.state(), TcpState::TimeWait | TcpState::Closed));
    }

    #[test]
    fn syn_is_retransmitted_after_rto() {
        let mut a = TcpSocket::client(sa(1, 1), sa(2, 2), 5, TcpConfig::default());
        a.open(SimTime::ZERO);
        let first = a.poll(SimTime::ZERO);
        assert_eq!(first.len(), 1);
        // Nothing comes back; poll before RTO: silence.
        assert!(a.poll(SimTime::from_millis(500)).is_empty());
        // After the 1 s initial RTO the SYN is resent.
        let again = a.poll(SimTime::from_millis(1001));
        assert_eq!(again.len(), 1);
        assert!(again[0].flags.syn);
    }

    #[test]
    fn connection_gives_up_after_max_retries() {
        let cfg = TcpConfig {
            max_retries: 2,
            ..TcpConfig::default()
        };
        let mut a = TcpSocket::client(sa(1, 1), sa(2, 2), 5, cfg);
        a.open(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            let _ = a.poll(now);
            match a.next_timeout() {
                Some(t) => now = t,
                None => break,
            }
        }
        let _ = a.poll(now);
        assert!(a.is_reset());
    }

    #[test]
    fn lost_data_segment_is_recovered_by_rto() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.settle();
        h.a.send(b"hello");
        // Drop the data segment once.
        let lost = h.a.poll(h.now);
        assert_eq!(lost.len(), 1);
        // Fire the retransmission timer.
        let t = h.a.next_timeout().unwrap();
        h.now = t;
        h.settle();
        assert_eq!(h.b.recv(), b"hello");
    }

    #[test]
    fn out_of_order_delivery_is_reassembled() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.settle();
        h.a.send(&[b'x'; 3000]); // two MSS-sized segments + remainder
        let segs = h.a.poll(h.now);
        assert!(segs.len() >= 2);
        // Deliver in reverse order.
        for seg in segs.iter().rev() {
            h.b.on_segment(h.now, seg);
        }
        assert_eq!(h.b.recv(), vec![b'x'; 3000]);
    }

    #[test]
    fn duplicate_segments_are_ignored() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.settle();
        h.a.send(b"abc");
        let segs = h.a.poll(h.now);
        h.b.on_segment(h.now, &segs[0]);
        h.b.on_segment(h.now, &segs[0]);
        assert_eq!(h.b.recv(), b"abc");
    }

    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.settle();
        let data = vec![7u8; 1460 * 5];
        h.a.send(&data);
        let segs = h.a.poll(h.now);
        assert_eq!(segs.len(), 5);
        // First segment is lost; deliver the other four -> 4 dup ACKs.
        for seg in &segs[1..] {
            h.b.on_segment(h.now, seg);
        }
        for (i, ack) in h.b.poll(h.now).iter().enumerate() {
            let _ = i;
            h.a.on_segment(h.now, ack);
        }
        // The socket must have rewound and be ready to resend data
        // without waiting for the 1 s RTO.
        let resent = h.a.poll(h.now);
        assert!(!resent.is_empty(), "fast retransmit should resend");
        h.settle();
        assert_eq!(h.b.recv(), data);
    }

    #[test]
    fn tfo_first_connection_requests_cookie_and_caches_it() {
        let cfg = TcpConfig {
            enable_tfo: true,
            ..TcpConfig::default()
        };
        let mut a = TcpSocket::client(sa(1, 1), sa(2, 2), 5, cfg.clone());
        let mut b = TcpSocket::server(sa(2, 2), sa(1, 1), 9, cfg);
        a.open(SimTime::ZERO);
        let syn = a.poll(SimTime::ZERO).remove(0);
        // First SYN carries an empty cookie request and no data.
        assert!(syn
            .options
            .iter()
            .any(|o| matches!(o, TcpOption::FastOpenCookie(c) if c.is_empty())));
        assert!(syn.payload.is_empty());
        b.on_segment(SimTime::ZERO, &syn);
        let synack = b.poll(SimTime::ZERO).remove(0);
        a.on_segment(SimTime::from_millis(1), &synack);
        assert!(a.tfo_cookie().is_some(), "client caches the issued cookie");
    }

    #[test]
    fn tfo_repeat_connection_sends_data_on_syn() {
        let cfg = TcpConfig {
            enable_tfo: true,
            ..TcpConfig::default()
        };
        let mut a = TcpSocket::client(sa(1, 1), sa(2, 2), 5, cfg.clone());
        a.set_tfo_cookie(vec![0xC0; 8]);
        a.send(b"early-query");
        a.open(SimTime::ZERO);
        let syn = a.poll(SimTime::ZERO).remove(0);
        assert_eq!(syn.payload, b"early-query");
        let mut b = TcpSocket::server(sa(2, 2), sa(1, 1), 9, cfg);
        b.on_segment(SimTime::ZERO, &syn);
        // Server delivers the data immediately, before the handshake
        // completes — that is the whole point of TFO.
        assert_eq!(b.recv(), b"early-query");
    }

    #[test]
    fn tfo_data_ignored_when_server_does_not_support_it() {
        let client_cfg = TcpConfig {
            enable_tfo: true,
            ..TcpConfig::default()
        };
        let mut a = TcpSocket::client(sa(1, 1), sa(2, 2), 5, client_cfg);
        a.set_tfo_cookie(vec![0xC0; 8]);
        a.send(b"early");
        a.open(SimTime::ZERO);
        let syn = a.poll(SimTime::ZERO).remove(0);
        let mut b = TcpSocket::server(sa(2, 2), sa(1, 1), 9, TcpConfig::default());
        b.on_segment(SimTime::ZERO, &syn);
        assert!(b.recv().is_empty(), "no-TFO server drops SYN data");
    }

    #[test]
    fn listener_accepts_multiple_peers() {
        let mut listener = TcpListener::new(sa(9, 853), TcpConfig::default());
        for peer_host in 1..=3u8 {
            let peer = sa(peer_host, 1000);
            let mut c = TcpSocket::client(peer, sa(9, 853), 1, TcpConfig::default());
            c.open(SimTime::ZERO);
            let syn = c.poll(SimTime::ZERO).remove(0);
            listener.on_segment(SimTime::ZERO, peer, &syn);
        }
        assert_eq!(listener.len(), 3);
        let out = listener.poll(SimTime::ZERO);
        assert_eq!(out.len(), 3, "one SYN-ACK per peer");
        assert!(out.iter().all(|(_, s)| s.flags.syn && s.flags.ack));
    }

    #[test]
    fn abort_emits_rst_and_peer_observes_reset() {
        let mut h = Harness::new();
        h.a.open(SimTime::ZERO);
        h.settle();
        h.a.abort();
        let rst = h.a.poll(h.now);
        assert_eq!(rst.len(), 1);
        assert!(rst[0].flags.rst);
        h.b.on_segment(h.now, &rst[0]);
        assert!(h.b.is_reset());
    }

    #[test]
    fn rtt_estimator_follows_samples() {
        let mut est = RtoEstimator::new(Duration::from_secs(1), Duration::from_millis(200));
        assert_eq!(est.current(), Duration::from_secs(1));
        est.on_sample(Duration::from_millis(100));
        // srtt=100ms, rttvar=50ms -> rto=300ms.
        assert_eq!(est.current(), Duration::from_millis(300));
        for _ in 0..20 {
            est.on_sample(Duration::from_millis(100));
        }
        // Stable samples shrink the variance toward the floor.
        assert!(est.current() <= Duration::from_millis(300));
        assert!(est.current() >= Duration::from_millis(200));
    }
}
