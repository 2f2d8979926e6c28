//! Differential property test: the QUIC path-validation state machine
//! (RFC 9000 §8.2) against a naive executable spec, in the style of
//! `simnet/tests/prop_event_queue.rs`. Arbitrary interleavings of
//! rebinds, lost challenges (probe timeouts), stale/reordered
//! PATH_RESPONSEs and peer challenges must leave the connection's
//! observable probe state — pending challenge data, retry count,
//! abandonment — exactly where the spec says it should be. The mobility
//! campaign's survival numbers are only meaningful if this machine
//! cannot be confused by reordering.

use doqlab_netstack::quic::{
    AckRanges, Frame, PacketType, QuicConfig, QuicConnection, QuicError, QuicPacket, QuicServer,
    QUIC_V1,
};
use doqlab_netstack::tls::TlsConfig;
use doqlab_simnet::{Duration, Ipv4Addr, SimRng, SimTime, SocketAddr};
use proptest::prelude::*;

fn sa(h: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
}

fn cfg() -> QuicConfig {
    QuicConfig {
        tls: TlsConfig {
            server_id: 7,
            alpn: vec![b"doq".to_vec()],
            ..TlsConfig::default()
        },
        ..QuicConfig::default()
    }
}

/// Complete a handshake against a throwaway server and return the
/// established client connection; afterwards the test itself plays the
/// peer so it can drop, delay and forge path frames at will.
fn established_client() -> QuicConnection {
    let mut rng = SimRng::new(42);
    let mut c = QuicConnection::client(
        cfg(),
        sa(1, 40000),
        sa(2, 853),
        QUIC_V1,
        None,
        None,
        &mut rng,
        SimTime::ZERO,
    );
    let mut server = QuicServer::new(sa(2, 853), cfg());
    let mut now = SimTime::ZERO;
    for _ in 0..64 {
        if c.is_established() && c.path_probe().is_none() {
            break;
        }
        let local = c.local;
        for d in c.poll_transmit(now) {
            server.handle_datagram(now, local, &d);
        }
        for (_, d) in server.poll_transmit(now) {
            c.handle_datagram(now, &d);
        }
        now += Duration::from_millis(1);
    }
    assert!(c.is_established());
    c
}

/// What the test does to the connection at each step.
#[derive(Debug, Clone)]
enum Op {
    /// The client's address changes (again): a fresh validation starts
    /// even if one is already running.
    Rebind,
    /// Deliver a PATH_RESPONSE echoing the outstanding challenge.
    RespondCurrent,
    /// Deliver a PATH_RESPONSE for a superseded or never-sent
    /// challenge — a reordered or forged echo that must be ignored.
    RespondStale,
    /// The challenge (or its echo) was lost: jump to the probe
    /// deadline so the retry timer fires.
    ProbeTimeout,
    /// The peer probes us: deliver a PATH_CHALLENGE and demand the
    /// echo in the next flight.
    PeerChallenge(u64),
    /// Poll with nothing due; must not disturb the probe state.
    Poll,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::strategy::Just(Op::Rebind),
        proptest::strategy::Just(Op::RespondCurrent),
        proptest::strategy::Just(Op::RespondStale),
        proptest::strategy::Just(Op::ProbeTimeout),
        any::<u64>().prop_map(Op::PeerChallenge),
        proptest::strategy::Just(Op::Poll),
    ]
}

/// The naive spec: what RFC 9000 §8.2 says the probe state must be,
/// with none of the real machine's framing, timers or queues.
#[derive(Debug, Default)]
struct SpecPathValidator {
    pending: Option<[u8; 8]>,
    retries: u32,
    abandoned: bool,
}

impl SpecPathValidator {
    /// Mirrors `PATH_PROBE_MAX_RETRIES` in the implementation.
    const MAX_RETRIES: u32 = 5;

    fn rebind(&mut self, challenge: [u8; 8]) {
        self.pending = Some(challenge);
        self.retries = 0;
    }

    fn response(&mut self, data: [u8; 8]) {
        if self.pending == Some(data) {
            self.pending = None;
            self.retries = 0;
        }
    }

    fn timeout(&mut self) {
        if self.pending.is_none() {
            return;
        }
        self.retries += 1;
        if self.retries > Self::MAX_RETRIES {
            self.pending = None;
            self.abandoned = true;
        }
    }
}

/// Deliver frames to the client in a synthetic 1-RTT packet.
fn deliver(c: &mut QuicConnection, now: SimTime, pn: &mut u64, frames: &[Frame]) {
    let mut payload = Vec::new();
    for f in frames {
        f.encode(&mut payload);
    }
    let pkt = QuicPacket::new(PacketType::OneRtt, QUIC_V1, [0; 8], [0; 8], *pn, &payload);
    *pn += 1;
    let mut buf = Vec::new();
    pkt.encode(&mut buf);
    c.handle_datagram(now, &buf);
}

/// Drain the client's outbound datagrams; ACK every 1-RTT packet (so
/// the ordinary PTO machinery stays quiet and only the path probe
/// timer drives retries) and return the data of every PATH_RESPONSE
/// seen.
fn drain(c: &mut QuicConnection, now: SimTime, pn: &mut u64) -> Vec<[u8; 8]> {
    let mut echoes = Vec::new();
    let mut acks = Vec::new();
    for dgram in c.poll_transmit(now) {
        let mut pos = 0;
        while pos < dgram.len() {
            let Some(pkt) = QuicPacket::decode(&dgram, &mut pos) else {
                break;
            };
            if pkt.ptype == PacketType::OneRtt {
                acks.push(pkt.packet_number);
            }
            for frame in Frame::parse(pkt.payload).into_iter().flatten() {
                if let Frame::PathResponse(data) = frame {
                    echoes.push(data);
                }
            }
        }
    }
    if !acks.is_empty() {
        let ranges: Vec<(u64, u64)> = acks.iter().map(|&p| (p, p)).collect();
        let ranges = AckRanges::new(&ranges);
        deliver(c, now, pn, &[Frame::Ack { ranges, delay: 0 }]);
    }
    echoes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn path_validation_matches_naive_spec(ops in proptest::collection::vec(op(), 1..40)) {
        let mut c = established_client();
        let mut spec = SpecPathValidator::default();
        let mut now = SimTime::from_secs(1);
        let mut pn = 1_000u64; // clear of the handshake's packet numbers
        let mut stale: Vec<[u8; 8]> = vec![[0xEE; 8]]; // never-issued data
        let mut rebinds = 0u8;

        for op in &ops {
            now += Duration::from_millis(1);
            match *op {
                Op::Rebind => {
                    rebinds += 1;
                    if let Some((old, _, _)) = c.path_probe() {
                        stale.push(old);
                    }
                    c.rebind(now, sa(3, 40000 + rebinds as u16));
                    let (data, _, _) = c.path_probe().expect("rebind starts a probe");
                    spec.rebind(data);
                }
                Op::RespondCurrent => {
                    let data = c.path_probe().map(|(d, _, _)| d).unwrap_or([0xAA; 8]);
                    deliver(&mut c, now, &mut pn, &[Frame::PathResponse(data)]);
                    spec.response(data);
                }
                Op::RespondStale => {
                    let data = stale[stale.len() - 1];
                    deliver(&mut c, now, &mut pn, &[Frame::PathResponse(data)]);
                    spec.response(data);
                }
                Op::ProbeTimeout => {
                    if let Some((_, _, deadline)) = c.path_probe() {
                        now = deadline.max(now);
                        let _ = drain(&mut c, now, &mut pn);
                        spec.timeout();
                    }
                }
                Op::PeerChallenge(x) => {
                    let data = x.to_be_bytes();
                    deliver(&mut c, now, &mut pn, &[Frame::PathChallenge(data)]);
                    let echoes = drain(&mut c, now, &mut pn);
                    if !spec.abandoned {
                        prop_assert!(
                            echoes.contains(&data),
                            "peer challenge not echoed; PATH_RESPONSE data: {echoes:?}"
                        );
                    }
                }
                Op::Poll => {
                    let _ = drain(&mut c, now, &mut pn);
                }
            }

            // The machine and the spec must agree on every observable.
            prop_assert_eq!(
                c.path_probe().map(|(d, r, _)| (d, r)),
                spec.pending.map(|d| (d, spec.retries))
            );
            prop_assert_eq!(c.is_closed(), spec.abandoned);
            if spec.abandoned {
                prop_assert_eq!(c.error(), Some(&QuicError::PathValidationFailed));
                break;
            }
        }
    }
}
