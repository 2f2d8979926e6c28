//! Quickstart: one DNS query over every transport, against one
//! simulated resolver — the smallest end-to-end use of the library.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use doqlab_core::dnswire::{Message, Name, RecordType};
use doqlab_core::dox::{ClientConfig, DnsTransport, ServerConfig, Upstream, UpstreamPolicy};
use doqlab_core::resolver::{RecursionModel, ResolverHost};
use doqlab_core::simnet::path::FixedPathModel;
use doqlab_core::simnet::{Duration, Ipv4Addr, SimTime, Simulator, SocketAddr};

fn main() {
    let resolver_ip = Ipv4Addr::new(192, 0, 2, 1);
    let one_way = Duration::from_millis(25);

    println!("One cached A query for google.com, 25 ms one-way to the resolver:\n");
    println!(
        "{:<8}{:>16}{:>16}{:>14}",
        "proto", "handshake (ms)", "resolve (ms)", "total (ms)"
    );

    for transport in DnsTransport::ALL {
        // Fresh micro-simulation per transport: a resolver host that
        // terminates all five protocols, and one client.
        let mut sim = Simulator::new(7, Box::new(FixedPathModel::new(one_way)));
        let resolver = ResolverHost::new(
            ServerConfig {
                ip: resolver_ip,
                ..ServerConfig::default()
            },
            RecursionModel::default(),
        );
        sim.add_host(Box::new(resolver), &[resolver_ip]);

        let query = Message::query(1, Name::parse("google.com").unwrap(), RecordType::A);

        // Cache-warming query first (the paper's methodology): the
        // measured query below is answered from the resolver's cache.
        let warm_ip = Ipv4Addr::new(10, 0, 0, 2);
        let warm = Upstream::new(
            transport,
            SocketAddr::new(warm_ip, 40_000),
            SocketAddr::new(resolver_ip, transport.port()),
            ClientConfig::default(),
            UpstreamPolicy::default(),
        );
        let wid = sim.add_host(Box::new(warm), &[warm_ip]);
        sim.with_host::<Upstream, _>(wid, |c, ctx| c.start_with_query(ctx, &query));
        sim.run_until(SimTime::from_secs(10));

        let client_ip = Ipv4Addr::new(10, 0, 0, 1);
        let client = Upstream::new(
            transport,
            SocketAddr::new(client_ip, 40_000),
            SocketAddr::new(resolver_ip, transport.port()),
            ClientConfig::default(),
            UpstreamPolicy::default(),
        );
        let id = sim.add_host(Box::new(client), &[client_ip]);
        let measured_start = sim.now();
        sim.with_host::<Upstream, _>(id, |c, ctx| c.start_with_query(ctx, &query));
        sim.run_until(measured_start + Duration::from_secs(10));

        let client = sim.host_mut::<Upstream>(id);
        let (at, msg) = client.responses.first().expect("resolver answered").clone();
        assert!(!msg.answers.is_empty());
        let hs_ms = client.handshake_time().map(|d| d.as_secs_f64() * 1000.0);
        let hs = hs_ms
            .map(|v| format!("{v:>16.1}"))
            .unwrap_or_else(|| format!("{:>16}", "-"));
        let started = client.started_at().unwrap();
        let total = (at - started).as_secs_f64() * 1000.0;
        let resolve = total - hs_ms.unwrap_or(0.0);
        println!("{:<8}{hs}{resolve:>16.1}{total:>14.1}", transport.name());
    }

    println!(
        "\nExpected shape: DoUDP 1 RTT total; DoTCP & DoQ 2 RTT; DoT & DoH 3 RTT\n\
         (first connection, no session resumption yet — with resumption DoQ stays\n\
         at 2 RTT while DoT/DoH stay at 3, which is the paper's headline)."
    );
}
