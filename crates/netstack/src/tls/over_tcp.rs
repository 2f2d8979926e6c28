//! TLS over TCP, both ends: the carrier of DoT, of DoH over HTTP/2 and
//! of the browser's HTTPS connections.
//!
//! [`TlsStream`] is the client: it opens TCP, starts TLS once TCP is
//! established, and moves bytes TCP → TLS → application and back.
//! [`TlsListener`] is the server: a [`TcpListener`] whose connections
//! each carry a [`TlsSession`] — the TLS engine and the application's
//! state — so reaping a socket drops its session with it. Both leave
//! the application mapping (DNS framing, HTTP/2) to their caller.

use super::engine::{TlsClient, TlsConfig, TlsServer};
use super::session::SessionTicket;
use crate::tcp::{TcpConfig, TcpListener, TcpSocket};
use doqlab_simnet::{Packet, SimTime, SocketAddr};

/// A TLS client over a TCP connection.
///
/// Drive it in this order on every event: [`read`](Self::read) the
/// plaintext, [`write`](Self::write) the application's answer, then
/// [`flush`](Self::flush) the wire.
#[derive(Debug)]
pub struct TlsStream {
    tcp: TcpSocket,
    tls: TlsClient,
    /// TLS starts once, as soon as TCP is established.
    tls_started: bool,
}

impl TlsStream {
    pub fn new(
        local: SocketAddr,
        remote: SocketAddr,
        cfg: TlsConfig,
        ticket: Option<SessionTicket>,
    ) -> Self {
        TlsStream {
            tcp: TcpSocket::client(local, remote, 0, TcpConfig::default()),
            tls: TlsClient::new(cfg, ticket),
            tls_started: false,
        }
    }

    /// Begin the TCP handshake; the SYN leaves on the next flush.
    pub fn open(&mut self, now: SimTime) {
        self.tcp.open(now);
    }

    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        self.tcp.on_packet(now, pkt);
    }

    /// Start TLS if TCP is established and TLS is not yet started, hand
    /// TLS what TCP received, and return the plaintext TLS has for the
    /// application.
    pub fn read(&mut self, now: SimTime) -> std::vec::Drain<'_, u8> {
        if self.tcp.is_established() && !self.tls_started {
            self.tls_started = true;
            self.tls.start(now);
        }
        let data = self.tcp.recv();
        if !data.as_slice().is_empty() {
            self.tls.read_wire(now, data.as_slice());
        }
        self.tls.read_app()
    }

    /// Queue plaintext; TLS holds it until the handshake allows it out
    /// (or sends it as 0-RTT early data).
    pub fn write(&mut self, data: &[u8]) {
        if !data.is_empty() {
            self.tls.write_app(data);
        }
    }

    /// Move TLS's output into TCP and transmit TCP's segments. A dying
    /// socket (closed, or reset) no longer accepts data; the TLS output
    /// is dropped then.
    pub fn flush(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let wire = self.tls.take_output();
        if !wire.is_empty() && self.tcp.can_send() {
            self.tcp.send(&wire);
        }
        self.tcp.transmit(now, out);
    }

    /// Graceful TCP close: FIN follows the queued data.
    pub fn close(&mut self) {
        self.tcp.close();
    }

    pub fn tcp(&self) -> &TcpSocket {
        &self.tcp
    }

    pub fn tls(&self) -> &TlsClient {
        &self.tls
    }

    pub fn tls_mut(&mut self) -> &mut TlsClient {
        &mut self.tls
    }

    /// TLS has sent its ClientHello.
    pub fn tls_started(&self) -> bool {
        self.tls_started
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.tcp.next_timeout()
    }

    /// TCP was reset or retried out, or TLS failed.
    pub fn failed(&self) -> bool {
        self.tcp.is_reset() || self.tls.error().is_some()
    }
}

/// One server connection's TLS engine and the application's state for
/// it, kept by a [`TlsListener`] beside the connection's socket.
#[derive(Debug)]
pub struct TlsSession<A> {
    tls: TlsServer,
    pub app: A,
}

impl<A> TlsSession<A> {
    /// Hand `read` the plaintext the client sent since the last call:
    /// accepted 0-RTT early data first, then application data.
    pub fn read(&mut self, mut read: impl FnMut(&mut A, &[u8])) {
        read(&mut self.app, &self.tls.read_early());
        read(&mut self.app, self.tls.read_app().as_slice());
    }

    /// Queue plaintext for the client.
    pub fn write(&mut self, data: &[u8]) {
        if !data.is_empty() {
            self.tls.write_app(data);
        }
    }

    fn flush_into(&mut self, sock: &mut TcpSocket) {
        let wire = self.tls.take_output();
        if !wire.is_empty() {
            sock.send(&wire);
        }
    }
}

/// A TLS server over TCP: one [`TlsSession`] per connection, created
/// when the connection's first segment arrives.
#[derive(Debug)]
pub struct TlsListener<A> {
    tcp: TcpListener<TlsSession<A>>,
}

impl<A> TlsListener<A> {
    pub fn new(local: SocketAddr) -> Self {
        TlsListener {
            tcp: TcpListener::new(local, TcpConfig::default()),
        }
    }

    /// Route a packet to its sender's connection. A sender without one
    /// gets a session from the TLS configuration and application state
    /// `accept` builds.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        accept: impl FnOnce() -> (TlsConfig, A),
    ) {
        self.tcp.on_packet(now, pkt, || {
            let (cfg, app) = accept();
            TlsSession {
                tls: TlsServer::new(cfg),
                app,
            }
        });
    }

    /// For every connection, in peer order: hand TLS what TCP received,
    /// run `serve` on the session, and move TLS's output into TCP. Then
    /// transmit every connection's segments.
    pub fn pump(
        &mut self,
        now: SimTime,
        out: &mut Vec<Packet>,
        mut serve: impl FnMut(SocketAddr, &mut TlsSession<A>),
    ) {
        for (peer, sock, session) in self.tcp.connections() {
            let data = sock.recv();
            if !data.as_slice().is_empty() {
                session.tls.read_wire(now, data.as_slice());
            }
            drop(data);
            serve(peer, session);
            session.flush_into(sock);
        }
        self.tcp.transmit(now, out);
    }

    /// Run `serve` on `peer`'s session, if it has one, and move its TLS
    /// output into TCP at once; the segments leave on the next pump.
    pub fn serve_now(&mut self, peer: SocketAddr, serve: impl FnOnce(&mut TlsSession<A>)) {
        if let Some((sock, session)) = self.tcp.connection(peer) {
            serve(session);
            session.flush_into(sock);
        }
    }

    /// `peer`'s session; what is written to it goes out on the next pump.
    pub fn session(&mut self, peer: SocketAddr) -> Option<&mut TlsSession<A>> {
        self.tcp.connection(peer).map(|(_, session)| session)
    }

    /// Drop connections that can never speak again, sessions included
    /// (see [`TcpListener::reap_quiescent`]).
    pub fn reap_quiescent(&mut self) {
        self.tcp.reap_quiescent();
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.tcp.next_timeout()
    }
}
