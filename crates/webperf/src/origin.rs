//! Simulated origin web servers: HTTP/2 over TLS over TCP on port 443,
//! serving the resources of one or more domains from a path->size map.

use doqlab_netstack::http2::{Decimal, H2Connection};
use doqlab_netstack::tls::{TlsConfig, TlsListener};
use doqlab_simnet::{Ctx, Duration, Host, Ipv4Addr, Packet, SimTime, SocketAddr};
use std::any::Any;
use std::collections::HashMap;

/// Server processing time before the first response byte (TTFB minus
/// network). Identical across DNS protocols; it stretches page loads to
/// realistic durations, which is what makes the *relative* DNS impact
/// match the paper's.
pub const SERVER_THINK_TIME: Duration = Duration::from_millis(35);

/// An origin server host.
pub struct OriginHost {
    listener: TlsListener<H2Connection>,
    /// path -> body size.
    sizes: HashMap<String, usize>,
    tls_cfg: TlsConfig,
    pub requests_served: u64,
    /// Responses waiting out the think time: (due, peer, stream, size).
    pending: Vec<(SimTime, SocketAddr, u32, usize)>,
    /// Zeros as long as the largest body served so far: every body is a
    /// prefix of it.
    zeros: Vec<u8>,
}

impl OriginHost {
    pub fn new(ip: Ipv4Addr, server_id: u64, sizes: HashMap<String, usize>) -> Self {
        OriginHost {
            listener: TlsListener::new(SocketAddr::new(ip, 443)),
            sizes,
            tls_cfg: TlsConfig {
                server_id,
                alpn: vec![b"h2".to_vec()],
                // Typical web certificate chain.
                cert_chain_len: 3000,
                ..TlsConfig::default()
            },
            requests_served: 0,
            pending: Vec::new(),
            zeros: Vec::new(),
        }
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // Release responses whose think time elapsed, in arrival order.
        let (listener, zeros) = (&mut self.listener, &mut self.zeros);
        self.pending.retain(|&(due, peer, stream, size)| {
            if due > now {
                return true;
            }
            if zeros.len() < size {
                zeros.resize(size, 0);
            }
            let body = &zeros[..size];
            listener.serve_now(peer, |session| {
                let length = Decimal::new(size);
                let headers = [
                    (":status", "200"),
                    ("content-type", "text/html"),
                    ("content-length", length.as_str()),
                    ("cache-control", "max-age=600"),
                ];
                session.app.send_response(stream, &headers, body);
                let h2_out = session.app.take_output();
                session.write(&h2_out);
            });
            false
        });
        let (sizes, pending, served) = (&self.sizes, &mut self.pending, &mut self.requests_served);
        self.listener.pump(now, out, |peer, session| {
            session.read(|h2, data| h2.read_wire(data));
            for req in session.app.take_messages() {
                *served += 1;
                let path = req.header(":path").unwrap_or("/");
                let size = sizes.get(path).copied().unwrap_or(1024);
                pending.push((now + SERVER_THINK_TIME, peer, req.stream_id, size));
            }
            let h2_out = session.app.take_output();
            session.write(&h2_out);
        });
    }
}

impl Host for OriginHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.dst.port == 443 {
            let tls_cfg = &self.tls_cfg;
            self.listener
                .on_packet(ctx.now, &pkt, || (tls_cfg.clone(), H2Connection::server()));
        }
        let mut out = Vec::new();
        self.pump(ctx.now, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        self.pump(ctx.now, &mut out);
        for p in out {
            ctx.send(p);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let pending = self.pending.iter().map(|(t, _, _, _)| *t).min();
        pending
            .into_iter()
            .chain(self.listener.next_timeout())
            .min()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpsClientConn;
    use doqlab_simnet::path::FixedPathModel;
    use doqlab_simnet::{Duration, Simulator};

    /// Client host wrapping one HttpsClientConn, for tests.
    struct ClientHost {
        conn: HttpsClientConn,
    }

    impl Host for ClientHost {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            let mut out = Vec::new();
            self.conn.on_packet(ctx.now, &pkt, &mut out);
            for p in out {
                ctx.send(p);
            }
        }
        fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
            let mut out = Vec::new();
            self.conn.poll(ctx.now, &mut out);
            for p in out {
                ctx.send(p);
            }
        }
        fn next_wakeup(&self) -> Option<SimTime> {
            self.conn.next_timeout()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn fetch_two_resources_over_one_connection() {
        let origin_ip = Ipv4Addr::new(198, 51, 100, 1);
        let client_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut sim = Simulator::new(3, Box::new(FixedPathModel::new(Duration::from_millis(10))));
        let mut sizes = HashMap::new();
        sizes.insert("/".to_string(), 10_000);
        sizes.insert("/app.js".to_string(), 50_000);
        sim.add_host(Box::new(OriginHost::new(origin_ip, 9, sizes)), &[origin_ip]);
        let mut conn = HttpsClientConn::new(
            SocketAddr::new(client_ip, 40_000),
            SocketAddr::new(origin_ip, 443),
            "www.example.com",
        );
        conn.request(0, "/");
        conn.request(1, "/app.js");
        let cid = sim.add_host(Box::new(ClientHost { conn }), &[client_ip]);
        sim.with_host::<ClientHost, _>(cid, |c, ctx| {
            let mut out = Vec::new();
            c.conn.start(ctx.now, &mut out);
            for p in out {
                ctx.send(p);
            }
        });
        sim.run_until(SimTime::from_secs(10));
        let client = sim.host_mut::<ClientHost>(cid);
        let mut done = client.conn.take_completed();
        done.sort_by_key(|f| f.resource_id);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].body_len, 10_000);
        assert_eq!(done[1].body_len, 50_000);
        // TCP (1 RTT) + TLS (1 RTT) + request (1 RTT) + transfer time.
        assert!(done[0].at >= SimTime::from_millis(60));
        assert!(done[1].at < SimTime::from_secs(2));
    }

    #[test]
    fn unknown_path_gets_default_size() {
        let origin_ip = Ipv4Addr::new(198, 51, 100, 1);
        let client_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut sim = Simulator::new(3, Box::new(FixedPathModel::new(Duration::from_millis(5))));
        sim.add_host(
            Box::new(OriginHost::new(origin_ip, 9, HashMap::new())),
            &[origin_ip],
        );
        let mut conn = HttpsClientConn::new(
            SocketAddr::new(client_ip, 40_000),
            SocketAddr::new(origin_ip, 443),
            "x",
        );
        conn.request(7, "/whatever");
        let cid = sim.add_host(Box::new(ClientHost { conn }), &[client_ip]);
        sim.with_host::<ClientHost, _>(cid, |c, ctx| {
            let mut out = Vec::new();
            c.conn.start(ctx.now, &mut out);
            for p in out {
                ctx.send(p);
            }
        });
        sim.run_until(SimTime::from_secs(5));
        let done = sim.host_mut::<ClientHost>(cid).conn.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].body_len, 1024);
        assert_eq!(done[0].resource_id, 7);
    }
}
