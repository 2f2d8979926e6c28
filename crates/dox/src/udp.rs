//! DoUDP: classic DNS over UDP.
//!
//! The transport has no recovery, so the *application* retries — the
//! paper attributes DoUDP's long-tail outliers to Chromium's 5-second
//! application-layer retransmit (resolv.conf default), versus the 1 s
//! transport-layer timeouts of TCP and QUIC. That asymmetry is
//! reproduced here.

use crate::client::{ClientConfig, DnsClientConn, FailureKind, SessionState};
use doqlab_dnswire::Message;
use doqlab_simnet::{Duration, Packet, SimRng, SimTime, SocketAddr};
use std::collections::HashMap;

/// A DoUDP client "connection" (a socket pair, really).
#[derive(Debug)]
pub struct DoUdpClient {
    local: SocketAddr,
    remote: SocketAddr,
    retry_timeout: Duration,
    max_retries: u32,
    started_at: Option<SimTime>,
    /// id -> (encoded query, retries left, next retry time). Entries
    /// whose retries are exhausted are removed at their final deadline,
    /// so `next_timeout` never advertises a deadline nothing will act
    /// on.
    pending: HashMap<u16, (Vec<u8>, u32, SimTime)>,
    responses: Vec<(SimTime, Message)>,
    failed: bool,
    /// Queries issued before `start`.
    queued: Vec<Vec<u8>>,
    /// Queries accepted after `start`, transmitted on the next poll to
    /// keep the sans-I/O trait uniform (`query` cannot emit packets).
    ready: Vec<Vec<u8>>,
    /// When the earliest `ready` entry was queued — the immediate
    /// wakeup `next_timeout` advertises until the next poll drains it.
    ready_since: Option<SimTime>,
}

impl DoUdpClient {
    pub fn new(local: SocketAddr, remote: SocketAddr, cfg: &ClientConfig) -> Self {
        DoUdpClient {
            local,
            remote,
            retry_timeout: cfg.udp_retry_timeout,
            max_retries: cfg.udp_max_retries,
            started_at: None,
            pending: HashMap::new(),
            responses: Vec::new(),
            failed: false,
            queued: Vec::new(),
            ready: Vec::new(),
            ready_since: None,
        }
    }

    fn transmit(&mut self, now: SimTime, wire: Vec<u8>, out: &mut Vec<Packet>) {
        let msg = Message::decode(&wire).expect("own encoding");
        self.pending.insert(
            msg.header.id,
            (wire.clone(), self.max_retries, now + self.retry_timeout),
        );
        out.push(Packet::udp(self.local, self.remote, wire));
    }
}

impl DnsClientConn for DoUdpClient {
    fn start(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<Packet>) {
        self.started_at = Some(now);
        for wire in std::mem::take(&mut self.queued) {
            self.transmit(now, wire, out);
        }
    }

    fn query(&mut self, now: SimTime, msg: &Message) {
        let wire = msg.encode();
        if self.started_at.is_some() {
            // An earlier version faked this by inserting a pending
            // entry with an inflated retry count and an already-past
            // deadline, which corrupted the retry bookkeeping; keep a
            // dedicated ready queue instead.
            self.ready.push(wire);
            self.ready_since.get_or_insert(now);
        } else {
            self.queued.push(wire);
        }
    }

    fn on_packet(&mut self, now: SimTime, pkt: &Packet, _out: &mut Vec<Packet>) {
        let Ok(msg) = Message::decode(&pkt.payload) else {
            return;
        };
        if !msg.header.response {
            return;
        }
        if self.pending.remove(&msg.header.id).is_some() {
            self.responses.push((now, msg));
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // Initial transmissions for queries issued since the last poll.
        for wire in std::mem::take(&mut self.ready) {
            self.transmit(now, wire, out);
        }
        self.ready_since = None;
        let due: Vec<u16> = self
            .pending
            .iter()
            .filter(|(_, (_, _, at))| *at <= now)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            let (wire, retries, _) = self.pending.remove(&id).expect("listed");
            if retries == 0 {
                self.failed = true;
                continue;
            }
            self.pending
                .insert(id, (wire.clone(), retries - 1, now + self.retry_timeout));
            out.push(Packet::udp(self.local, self.remote, wire));
        }
    }

    fn next_timeout(&self) -> Option<SimTime> {
        let pending = self.pending.values().map(|(_, _, at)| *at).min();
        match (self.ready_since, pending) {
            (Some(r), Some(p)) => Some(r.min(p)),
            (Some(r), None) => Some(r),
            (None, p) => p,
        }
    }

    fn take_responses(&mut self) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.responses)
    }

    fn handshake_done_at(&self) -> Option<SimTime> {
        self.started_at // connectionless: usable immediately
    }

    fn failure(&self) -> Option<FailureKind> {
        // Unanswered retries are all a datagram transport can observe.
        self.failed.then_some(FailureKind::Timeout)
    }

    fn session_state(&mut self) -> SessionState {
        SessionState::default()
    }

    fn close(&mut self, _now: SimTime, _out: &mut Vec<Packet>) {
        self.pending.clear();
        self.ready.clear();
        self.ready_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doqlab_dnswire::{Name, RecordType};
    use doqlab_simnet::Ipv4Addr;

    fn sa(h: u8, p: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), p)
    }

    fn query(id: u16) -> Message {
        Message::query(id, Name::parse("google.com").unwrap(), RecordType::A)
    }

    fn client() -> DoUdpClient {
        DoUdpClient::new(sa(1, 5000), sa(2, 53), &ClientConfig::default())
    }

    #[test]
    fn query_is_sent_on_start() {
        let mut c = client();
        let mut rng = SimRng::new(1);
        c.query(SimTime::ZERO, &query(7));
        let mut out = Vec::new();
        c.start(SimTime::ZERO, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst.port, 53);
        assert_eq!(c.handshake_done_at(), Some(SimTime::ZERO));
    }

    #[test]
    fn response_is_matched_by_id() {
        let mut c = client();
        let mut rng = SimRng::new(1);
        c.query(SimTime::ZERO, &query(7));
        let mut out = Vec::new();
        c.start(SimTime::ZERO, &mut rng, &mut out);
        let resp = Message::response_to(&query(7), vec![]);
        let pkt = Packet::udp(sa(2, 53), sa(1, 5000), resp.encode());
        c.on_packet(SimTime::from_millis(30), &pkt, &mut out);
        let responses = c.take_responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].0, SimTime::from_millis(30));
        // Mismatched / duplicate ids are ignored.
        c.on_packet(SimTime::from_millis(31), &pkt, &mut out);
        assert!(c.take_responses().is_empty());
    }

    #[test]
    fn retransmits_after_5_seconds() {
        let mut c = client();
        let mut rng = SimRng::new(1);
        c.query(SimTime::ZERO, &query(7));
        let mut out = Vec::new();
        c.start(SimTime::ZERO, &mut rng, &mut out);
        out.clear();
        assert_eq!(c.next_timeout(), Some(SimTime::from_secs(5)));
        c.poll(SimTime::from_secs(4), &mut out);
        assert!(out.is_empty(), "no retry before the 5 s deadline");
        c.poll(SimTime::from_secs(5), &mut out);
        assert_eq!(out.len(), 1, "one retry at 5 s");
    }

    #[test]
    fn gives_up_after_max_retries() {
        let mut c = client();
        let mut rng = SimRng::new(1);
        c.query(SimTime::ZERO, &query(7));
        let mut out = Vec::new();
        c.start(SimTime::ZERO, &mut rng, &mut out);
        for _ in 0..5 {
            let Some(now) = c.next_timeout() else { break };
            c.poll(now, &mut out);
        }
        assert!(c.failed());
        assert_eq!(c.next_timeout(), None);
    }

    #[test]
    fn no_session_state() {
        let mut c = client();
        assert!(c.session_state().is_empty());
    }

    #[test]
    fn late_query_keeps_clean_retry_bookkeeping() {
        use crate::client::FailureKind;
        let mut c = client();
        let mut rng = SimRng::new(1);
        let mut out = Vec::new();
        c.start(SimTime::ZERO, &mut rng, &mut out);
        // Issue a query after start: it must request an immediate
        // wakeup, transmit on the next poll, and then carry a normal
        // retry deadline — not a stale past one.
        c.query(SimTime::from_millis(10), &query(9));
        assert_eq!(c.next_timeout(), Some(SimTime::from_millis(10)));
        c.poll(SimTime::from_millis(10), &mut out);
        assert_eq!(out.len(), 1, "transmitted on the poll after query()");
        let deadline = SimTime::from_millis(10) + Duration::from_secs(5);
        assert_eq!(c.next_timeout(), Some(deadline));
        // Full budget: one initial transmission plus `max_retries`
        // retransmissions (2 by default), then terminal failure with
        // the exhausted entry removed at its final deadline.
        let mut sends = 1;
        for _ in 0..10 {
            let Some(t) = c.next_timeout() else { break };
            assert!(t > SimTime::from_millis(10), "no stale past deadline");
            out.clear();
            c.poll(t, &mut out);
            sends += out.len();
        }
        assert_eq!(sends, 3);
        assert!(c.failed());
        assert_eq!(c.failure(), Some(FailureKind::Timeout));
        assert_eq!(c.next_timeout(), None, "exhausted entries are removed");
    }

    #[test]
    fn exhausted_entry_is_removed_at_final_deadline() {
        let mut c = client();
        let mut rng = SimRng::new(1);
        c.query(SimTime::ZERO, &query(7));
        let mut out = Vec::new();
        c.start(SimTime::ZERO, &mut rng, &mut out);
        // Walk every advertised deadline; each must be acted on (a
        // retransmission or the terminal removal), never re-advertised.
        let mut prev = SimTime::ZERO;
        while let Some(t) = c.next_timeout() {
            assert!(t > prev, "deadline {t} not after {prev}");
            prev = t;
            c.poll(t, &mut out);
        }
        assert!(c.failed());
    }
}
