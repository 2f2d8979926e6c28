//! The simulation driver.
//!
//! A [`Simulator`] owns a set of [`Host`]s (protocol endpoints: DNS
//! clients, resolvers, web servers, ...), a [`PathModel`], a clock and an
//! event queue. Hosts are written as poll-style state machines: they
//! react to packet arrivals and wakeups, emit packets through a
//! [`Ctx`], and advertise their next timer deadline via
//! [`Host::next_wakeup`]. The driver routes every emitted packet through
//! the path model (sampling loss, jitter and serialization delay) and
//! schedules its arrival at the destination host.
//!
//! Timer handling uses lazy cancellation: wakeup events are cheap to
//! schedule and are simply ignored at fire time if the host's deadline
//! has moved.

use crate::event::EventQueue;
use crate::impair::{Impairment, PacketFate};
use crate::net::{Ipv4Addr, Packet};
use crate::path::{FixedPathModel, PathModel, PathProfile};
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};
use crate::trace::{PacketRecord, PacketTap, PacketTrace};
use doqlab_telemetry::metrics::{self, Counter};
use std::any::Any;
use std::collections::HashMap;

/// Identifier of a host within one simulator.
pub type HostId = usize;

/// What a host sees when the simulator calls into it.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The simulation RNG (deterministic, shared).
    pub rng: &'a mut SimRng,
    out: &'a mut Vec<Packet>,
}

impl Ctx<'_> {
    /// Queue a packet for transmission. Routing, loss and delay are
    /// applied by the driver after the callback returns.
    pub fn send(&mut self, pkt: Packet) {
        self.out.push(pkt);
    }
}

/// A simulated endpoint.
///
/// Implementations must be `'static` so they can be stored as trait
/// objects; the `as_any` methods enable the measurement harness to
/// recover the concrete type to extract results.
pub trait Host: Any {
    /// A packet addressed to one of this host's IPs has arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// A previously advertised deadline has been reached.
    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>);

    /// Earliest time this host needs to be woken. Queried after every
    /// callback.
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }

    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

enum Event {
    Arrival(HostId, Packet),
    Wakeup(HostId),
}

/// Counters describing everything the network carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    pub packets_delivered: u64,
    pub packets_lost: u64,
    pub packets_unroutable: u64,
    pub bytes_delivered: u64,
    /// Packets dropped by the installed [`Impairment`] (a subset of
    /// `packets_lost`).
    pub packets_impaired: u64,
    /// Extra packet copies delivered due to impairment-layer
    /// duplication (included in `packets_delivered`).
    pub packets_duplicated: u64,
}

/// The discrete-event simulator.
pub struct Simulator {
    clock: SimTime,
    queue: EventQueue<Event>,
    rng: SimRng,
    path: Box<dyn PathModel>,
    hosts: Vec<Option<Box<dyn Host>>>,
    /// Earliest queued wakeup per host. Wakeup events are deduplicated
    /// against this: a dispatch only enqueues a new entry when it would
    /// fire *earlier* than the one already queued, and a popped entry
    /// that no longer matches is dropped as stale. Without this, every
    /// packet arrival leaks one wakeup entry that then circulates on
    /// each timer re-arm — on day-long simulations the event count
    /// grows quadratically with traffic.
    armed: Vec<Option<SimTime>>,
    addr_map: HashMap<Ipv4Addr, HostId>,
    link_free: HashMap<Ipv4Addr, SimTime>,
    /// Last scheduled arrival per (src, dst) flow: paths are FIFO —
    /// jitter may stretch a packet's delay but never reorders a flow
    /// (real single-path routes preserve ordering almost always).
    flow_last_arrival: HashMap<(Ipv4Addr, Ipv4Addr), SimTime>,
    /// Per-address access-path overrides, installed by
    /// [`Simulator::rebind_host`] / [`Simulator::set_path_profile`].
    /// Consulted in [`Simulator::route`] without consuming RNG.
    path_overlay: HashMap<Ipv4Addr, PathProfile>,
    trace: Option<PacketTrace>,
    tap: Option<Box<dyn PacketTap>>,
    impair: Option<Box<dyn Impairment>>,
    stats: NetStats,
    /// Reused host-output buffer: dispatching an event borrows it,
    /// routes its packets and hands it back, so steady-state event
    /// processing allocates no fresh `Vec<Packet>`.
    out_buf: Vec<Packet>,
}

impl Simulator {
    pub fn new(seed: u64, path: Box<dyn PathModel>) -> Self {
        Simulator {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            path,
            hosts: Vec::new(),
            armed: Vec::new(),
            addr_map: HashMap::new(),
            link_free: HashMap::new(),
            flow_last_arrival: HashMap::new(),
            path_overlay: HashMap::new(),
            trace: None,
            tap: None,
            impair: None,
            stats: NetStats::default(),
            out_buf: Vec::new(),
        }
    }

    /// A placeholder simulator intended to be [`Simulator::reset`]
    /// before first use — the arena a campaign worker reuses across all
    /// the units it executes.
    pub fn arena() -> Self {
        Simulator::new(0, Box::new(FixedPathModel::new(Duration::ZERO)))
    }

    /// Rewind this simulator to the state `Simulator::new(seed, path)`
    /// would produce, but keep the allocations of the event queue, host
    /// table, address maps and trace buffer. Reusing one simulator as an
    /// arena across thousands of campaign units avoids reallocating all
    /// of those per unit.
    ///
    /// Hosts and any installed tap are dropped; whether tracing is
    /// enabled is preserved (with the records cleared).
    pub fn reset(&mut self, seed: u64, path: Box<dyn PathModel>) {
        self.clock = SimTime::ZERO;
        self.queue.clear();
        self.rng = SimRng::new(seed);
        self.path = path;
        self.hosts.clear();
        self.armed.clear();
        self.addr_map.clear();
        self.link_free.clear();
        self.flow_last_arrival.clear();
        self.path_overlay.clear();
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
        self.tap = None;
        self.impair = None;
        self.stats = NetStats::default();
        self.out_buf.clear();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Pre-reserve `cap` entries in every event-wheel slot, paying the
    /// one-time cold-slot growth up front instead of scattering it over
    /// the first pass through the wheel (see
    /// [`EventQueue::warm`](crate::event::EventQueue::warm)). Optional;
    /// the allocation-budget tests use it to make steady state start at
    /// event zero.
    pub fn warm_queue(&mut self, cap: usize) {
        self.queue.warm(cap);
    }

    /// Start recording every packet into a trace (for size accounting).
    pub fn enable_trace(&mut self) {
        self.trace = Some(PacketTrace::new());
    }

    pub fn trace(&self) -> Option<&PacketTrace> {
        self.trace.as_ref()
    }

    /// Install a streaming packet observer (replacing any previous one).
    /// The tap sees every packet handed to the network from now on,
    /// including lost and unroutable ones.
    pub fn set_tap(&mut self, tap: Box<dyn PacketTap>) {
        self.tap = Some(tap);
    }

    /// Remove and return the installed tap, typically to read out the
    /// statistic it accumulated.
    pub fn take_tap(&mut self) -> Option<Box<dyn PacketTap>> {
        self.tap.take()
    }

    /// Mutable access to the installed tap by concrete type.
    pub fn tap_mut<T: PacketTap>(&mut self) -> Option<&mut T> {
        self.tap.as_mut()?.as_any_mut().downcast_mut::<T>()
    }

    /// Install a fault-injection policy (replacing any previous one).
    /// Every subsequently routed packet is first judged by the
    /// impairment, then by the path model's own loss/delay sampling.
    /// Cleared by [`Simulator::reset`]. With no impairment installed the
    /// router consumes no extra RNG, so runs are byte-identical to a
    /// simulator predating this layer.
    pub fn set_impairment(&mut self, impair: Box<dyn Impairment>) {
        self.impair = Some(impair);
    }

    /// Remove the installed impairment, restoring the unimpaired path.
    pub fn clear_impairment(&mut self) {
        self.impair = None;
    }

    /// Register a host reachable at the given IPs.
    pub fn add_host(&mut self, host: Box<dyn Host>, ips: &[Ipv4Addr]) -> HostId {
        let id = self.hosts.len();
        self.hosts.push(Some(host));
        self.armed.push(None);
        for ip in ips {
            let prev = self.addr_map.insert(*ip, id);
            assert!(prev.is_none(), "address {ip} already bound");
        }
        // Pick up any timer the host already holds.
        if let Some(w) = self.hosts[id].as_ref().unwrap().next_wakeup() {
            self.arm_wakeup(id, w);
        }
        id
    }

    /// Move one of a host's addresses mid-simulation — a wifi→cellular
    /// style rebind. `old` stops resolving immediately (packets already
    /// in flight toward it, and any sent later, count as unroutable —
    /// exactly like a released DHCP lease), `new` starts delivering to
    /// the same host, and `profile` describes the new access path.
    /// Link-serialization and FIFO state tied to the old address is
    /// discarded: the new path starts with a clean link.
    ///
    /// The host's own notion of its local address is *not* updated;
    /// callers that want the host to transmit from the new address must
    /// tell it separately (transports that cannot are precisely the
    /// ones a rebind is meant to break).
    ///
    /// Panics if `old` is not bound to `id` or `new` is already bound.
    pub fn rebind_host(&mut self, id: HostId, old: Ipv4Addr, new: Ipv4Addr, profile: PathProfile) {
        assert_eq!(
            self.addr_map.get(&old),
            Some(&id),
            "address {old} not bound to host {id}"
        );
        self.addr_map.remove(&old);
        let prev = self.addr_map.insert(new, id);
        assert!(prev.is_none(), "address {new} already bound");
        self.link_free.remove(&old);
        self.flow_last_arrival
            .retain(|(src, dst), _| *src != old && *dst != old);
        self.path_overlay.remove(&old);
        if !profile.is_neutral() {
            self.path_overlay.insert(new, profile);
        }
    }

    /// Attach a [`PathProfile`] overlay to an address directly (without
    /// a rebind), e.g. to degrade one host's access link. A neutral
    /// profile removes the overlay.
    pub fn set_path_profile(&mut self, ip: Ipv4Addr, profile: PathProfile) {
        if profile.is_neutral() {
            self.path_overlay.remove(&ip);
        } else {
            self.path_overlay.insert(ip, profile);
        }
    }

    /// Enqueue a wakeup for `id` at `w` unless an earlier (or equal)
    /// one is already queued; [`Simulator::dispatch`] drops superseded
    /// entries when they surface.
    fn arm_wakeup(&mut self, id: HostId, w: SimTime) {
        let w = w.max(self.clock);
        if self.armed[id].is_none_or(|a| w < a) {
            self.armed[id] = Some(w);
            self.queue.push(w, Event::Wakeup(id));
        }
    }

    /// Immutable access to a host by concrete type.
    pub fn host<T: Host>(&self, id: HostId) -> &T {
        self.hosts[id]
            .as_ref()
            .expect("host checked out")
            .as_any()
            .downcast_ref::<T>()
            .expect("host type mismatch")
    }

    /// Mutable access to a host by concrete type (no packet I/O; use
    /// [`Simulator::with_host`] when the host needs to transmit).
    pub fn host_mut<T: Host>(&mut self, id: HostId) -> &mut T {
        self.hosts[id]
            .as_mut()
            .expect("host checked out")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("host type mismatch")
    }

    /// Call into a host with a full [`Ctx`], e.g. to start a client.
    /// Emitted packets are routed and the host's timer is rescheduled,
    /// exactly as for event-driven callbacks.
    pub fn with_host<T: Host, R>(
        &mut self,
        id: HostId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut host = self.hosts[id].take().expect("reentrant host dispatch");
        let mut out = std::mem::take(&mut self.out_buf);
        let r = {
            let mut ctx = Ctx {
                now: self.clock,
                rng: &mut self.rng,
                out: &mut out,
            };
            f(
                host.as_any_mut()
                    .downcast_mut::<T>()
                    .expect("host type mismatch"),
                &mut ctx,
            )
        };
        let next = host.next_wakeup();
        self.hosts[id] = Some(host);
        self.after_dispatch(id, next, out);
        r
    }

    fn after_dispatch(&mut self, id: HostId, next: Option<SimTime>, mut out: Vec<Packet>) {
        let now = self.clock;
        for pkt in out.drain(..) {
            self.route(now, pkt);
        }
        self.out_buf = out;
        if let Some(w) = next {
            self.arm_wakeup(id, w);
        }
    }

    /// Hand one packet record to the trace and/or tap, if installed.
    fn observe(&mut self, now: SimTime, pkt: &Packet, dropped: bool) {
        if self.trace.is_none() && self.tap.is_none() {
            return;
        }
        let record = PacketRecord::new(now, pkt, dropped);
        if let Some(trace) = &mut self.trace {
            trace.record(record);
        }
        if let Some(tap) = &mut self.tap {
            tap.on_packet(&record);
        }
    }

    /// Route one packet: apply loss, serialization and propagation, and
    /// schedule its arrival.
    fn route(&mut self, now: SimTime, pkt: Packet) {
        let mut chars = self.path.characteristics(pkt.src.ip, pkt.dst.ip);
        // Access-path overlays (mobility): deterministic adjustments
        // only, no RNG, so runs without overlays stay byte-identical.
        if !self.path_overlay.is_empty() {
            if let Some(p) = self.path_overlay.get(&pkt.src.ip) {
                chars.propagation += p.extra_delay;
                if let Some(loss) = p.loss {
                    chars.loss = chars.loss.max(loss);
                }
            }
            if pkt.dst.ip != pkt.src.ip {
                if let Some(p) = self.path_overlay.get(&pkt.dst.ip) {
                    chars.propagation += p.extra_delay;
                    if let Some(loss) = p.loss {
                        chars.loss = chars.loss.max(loss);
                    }
                }
            }
        }
        let Some(&dst_host) = self.addr_map.get(&pkt.dst.ip) else {
            self.stats.packets_unroutable += 1;
            self.observe(now, &pkt, true);
            return;
        };
        // Fault injection first: an installed impairment may blackhole,
        // delay, reorder or duplicate the packet before the path model's
        // own i.i.d. loss. `impair` and `rng` are disjoint fields, so
        // both can be borrowed mutably at once.
        let fate = match &mut self.impair {
            Some(im) => im.apply(now, &pkt, &mut self.rng),
            None => PacketFate::deliver(),
        };
        if fate.drop {
            self.stats.packets_lost += 1;
            self.stats.packets_impaired += 1;
            self.observe(now, &pkt, true);
            return;
        }
        let lost = chars.loss > 0.0 && self.rng.chance(chars.loss);
        self.observe(now, &pkt, lost);
        if lost {
            self.stats.packets_lost += 1;
            return;
        }
        // Serialization: the source's access link transmits packets one
        // after another at its egress bandwidth.
        let depart = match chars.egress_bps {
            Some(bps) if bps > 0 => {
                let free = self.link_free.entry(pkt.src.ip).or_insert(SimTime::ZERO);
                let start = (*free).max(now);
                let ser = Duration::from_secs_f64(pkt.wire_len() as f64 * 8.0 / bps as f64);
                *free = start + ser;
                *free
            }
            _ => now,
        };
        let mut arrival = depart + chars.sample_delay(&mut self.rng) + fate.extra_delay;
        // FIFO per flow. A reordered packet bypasses the clamp (so its
        // extra delay can genuinely push it behind later-sent packets)
        // and does not advance the flow's arrival clock, which would
        // otherwise drag every subsequent packet behind it.
        let key = (pkt.src.ip, pkt.dst.ip);
        if !fate.reorder {
            if let Some(&last) = self.flow_last_arrival.get(&key) {
                arrival = arrival.max(last);
            }
            self.flow_last_arrival.insert(key, arrival);
        }
        self.stats.packets_delivered += 1;
        self.stats.bytes_delivered += pkt.ip_payload_len() as u64;
        if fate.duplicate {
            // A duplicated packet gets its own sampled path delay and,
            // like a reordered one, skips the FIFO clamp — duplicates
            // commonly arrive out of order in real networks.
            let dup_arrival = depart + chars.sample_delay(&mut self.rng);
            self.stats.packets_delivered += 1;
            self.stats.packets_duplicated += 1;
            self.stats.bytes_delivered += pkt.ip_payload_len() as u64;
            self.observe(now, &pkt, false);
            self.queue
                .push(dup_arrival, Event::Arrival(dst_host, pkt.clone()));
        }
        self.queue.push(arrival, Event::Arrival(dst_host, pkt));
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrival(id, pkt) => {
                let Some(mut host) = self.hosts[id].take() else {
                    return;
                };
                let mut out = std::mem::take(&mut self.out_buf);
                {
                    let mut ctx = Ctx {
                        now: self.clock,
                        rng: &mut self.rng,
                        out: &mut out,
                    };
                    host.on_packet(&mut ctx, pkt);
                }
                let next = host.next_wakeup();
                self.hosts[id] = Some(host);
                self.after_dispatch(id, next, out);
            }
            Event::Wakeup(id) => {
                // A wakeup that no longer matches the armed time was
                // superseded by an earlier re-arm; drop it unprocessed.
                if self.armed[id] != Some(self.clock) {
                    return;
                }
                self.armed[id] = None;
                let Some(host_ref) = self.hosts[id].as_ref() else {
                    return;
                };
                match host_ref.next_wakeup() {
                    None => {}
                    Some(w) if w <= self.clock => {
                        let mut host = self.hosts[id].take().expect("checked above");
                        let mut out = std::mem::take(&mut self.out_buf);
                        {
                            let mut ctx = Ctx {
                                now: self.clock,
                                rng: &mut self.rng,
                                out: &mut out,
                            };
                            host.on_wakeup(&mut ctx);
                        }
                        let next = host.next_wakeup();
                        self.hosts[id] = Some(host);
                        self.after_dispatch(id, next, out);
                    }
                    Some(w) => {
                        // Deadline moved into the future: re-arm.
                        self.arm_wakeup(id, w);
                    }
                }
            }
        }
    }

    /// Process events until the queue is empty or `deadline` is reached.
    /// Returns the number of events processed. The clock ends at
    /// `min(deadline, time of last event)`; it is advanced to `deadline`
    /// if the queue drains first.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            debug_assert!(t >= self.clock, "time went backwards");
            self.clock = t;
            self.dispatch(ev);
            n += 1;
        }
        if deadline > self.clock {
            self.clock = deadline;
        }
        if n > 0 {
            metrics::count(Counter::SimEvents, n);
        }
        n
    }

    /// Process at most one event at or before `deadline`. Returns true
    /// if an event was dispatched; when no such event exists the clock
    /// advances to `deadline` (like [`Simulator::run_until`] draining)
    /// and false is returned. Stepping lets a caller observe host state
    /// between events — e.g. to notice the instant a handshake
    /// completes — while dispatching events in exactly the order
    /// `run_until` would.
    pub fn step_until(&mut self, deadline: SimTime) -> bool {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => {
                let (t, ev) = self.queue.pop().expect("peeked");
                debug_assert!(t >= self.clock, "time went backwards");
                self.clock = t;
                self.dispatch(ev);
                metrics::count(Counter::SimEvents, 1);
                true
            }
            _ => {
                if deadline > self.clock {
                    self.clock = deadline;
                }
                false
            }
        }
    }

    /// Process events until the queue drains or `max_events` have been
    /// handled. Returns the number of events processed; hitting the
    /// event cap indicates a livelock in a protocol state machine.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            debug_assert!(t >= self.clock, "time went backwards");
            self.clock = t;
            self.dispatch(ev);
            n += 1;
        }
        if n > 0 {
            metrics::count(Counter::SimEvents, n);
        }
        n
    }

    /// True if no more events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{SocketAddr, Transport};
    use crate::path::FixedPathModel;

    fn addr(n: u8, port: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, n), port)
    }

    /// Echoes every received packet back to its sender.
    struct Echo {
        received: usize,
    }

    impl Host for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.received += 1;
            ctx.send(Packet::udp(pkt.dst, pkt.src, pkt.payload));
        }
        fn on_wakeup(&mut self, _ctx: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one packet at start, records the echo arrival time.
    struct Pinger {
        target: SocketAddr,
        local: SocketAddr,
        echo_at: Option<SimTime>,
    }

    impl Pinger {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(Packet::udp(
                self.local,
                self.target,
                crate::net::PayloadBuf::from_slice(&[1, 2, 3]),
            ));
        }
    }

    impl Host for Pinger {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.echo_at = Some(ctx.now);
        }
        fn on_wakeup(&mut self, _ctx: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_host_sim(one_way: Duration) -> (Simulator, HostId, HostId) {
        let mut sim = Simulator::new(1, Box::new(FixedPathModel::new(one_way)));
        let a = addr(1, 40000);
        let b = addr(2, 7);
        let pinger = sim.add_host(
            Box::new(Pinger {
                target: b,
                local: a,
                echo_at: None,
            }),
            &[a.ip],
        );
        let echo = sim.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
        (sim, pinger, echo)
    }

    #[test]
    fn ping_pong_rtt() {
        let (mut sim, pinger, echo) = two_host_sim(Duration::from_millis(10));
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        assert_eq!(sim.host::<Echo>(echo).received, 1);
        let t = sim.host::<Pinger>(pinger).echo_at.expect("echo received");
        assert_eq!(t, SimTime::from_millis(20));
        assert_eq!(sim.stats().packets_delivered, 2);
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let mut sim = Simulator::new(1, Box::new(FixedPathModel::new(Duration::from_millis(1))));
        let a = addr(1, 40000);
        let pinger = sim.add_host(
            Box::new(Pinger {
                target: addr(99, 7),
                local: a,
                echo_at: None,
            }),
            &[a.ip],
        );
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        assert_eq!(sim.stats().packets_unroutable, 1);
        assert!(sim.host::<Pinger>(pinger).echo_at.is_none());
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut sim = Simulator::new(
            1,
            Box::new(FixedPathModel::with_loss(Duration::from_millis(1), 1.0)),
        );
        let a = addr(1, 40000);
        let b = addr(2, 7);
        let pinger = sim.add_host(
            Box::new(Pinger {
                target: b,
                local: a,
                echo_at: None,
            }),
            &[a.ip],
        );
        sim.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        assert_eq!(sim.stats().packets_lost, 1);
        assert_eq!(sim.stats().packets_delivered, 0);
    }

    /// Host that re-arms a periodic timer.
    struct Ticker {
        period: Duration,
        next: Option<SimTime>,
        fired: Vec<SimTime>,
    }

    impl Host for Ticker {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
            self.fired.push(ctx.now);
            if self.fired.len() < 5 {
                self.next = Some(ctx.now + self.period);
            } else {
                self.next = None;
            }
        }
        fn next_wakeup(&self) -> Option<SimTime> {
            self.next
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn periodic_timers_fire_on_schedule() {
        let mut sim = Simulator::new(1, Box::new(FixedPathModel::new(Duration::from_millis(1))));
        let id = sim.add_host(
            Box::new(Ticker {
                period: Duration::from_millis(100),
                next: Some(SimTime::from_millis(100)),
                fired: vec![],
            }),
            &[Ipv4Addr::new(10, 0, 0, 1)],
        );
        sim.run(1000);
        let fired = &sim.host::<Ticker>(id).fired;
        assert_eq!(
            fired,
            &(1..=5)
                .map(|i| SimTime::from_millis(100 * i))
                .collect::<Vec<_>>()
        );
        assert!(sim.is_idle());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new(1, Box::new(FixedPathModel::new(Duration::from_millis(1))));
        let id = sim.add_host(
            Box::new(Ticker {
                period: Duration::from_millis(100),
                next: Some(SimTime::from_millis(100)),
                fired: vec![],
            }),
            &[Ipv4Addr::new(10, 0, 0, 1)],
        );
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(sim.host::<Ticker>(id).fired.len(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(250));
        sim.run(1000);
        assert_eq!(sim.host::<Ticker>(id).fired.len(), 5);
    }

    #[test]
    fn trace_records_packets() {
        let (mut sim, pinger, _echo) = two_host_sim(Duration::from_millis(5));
        sim.enable_trace();
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        let trace = sim.trace().expect("enabled");
        assert_eq!(trace.records().len(), 2);
        assert_eq!(trace.records()[0].ip_payload_len, 8 + 3);
        assert_eq!(trace.records()[0].transport, Transport::Udp);
    }

    #[test]
    fn duplicate_address_binding_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut sim =
                Simulator::new(1, Box::new(FixedPathModel::new(Duration::from_millis(1))));
            let ip = Ipv4Addr::new(10, 0, 0, 1);
            sim.add_host(Box::new(Echo { received: 0 }), &[ip]);
            sim.add_host(Box::new(Echo { received: 0 }), &[ip]);
        });
        assert!(result.is_err());
    }

    /// Counts packets and bytes as a streaming tap.
    #[derive(Default)]
    struct CountingTap {
        packets: usize,
        bytes: usize,
        dropped: usize,
    }

    impl crate::trace::PacketTap for CountingTap {
        fn on_packet(&mut self, record: &PacketRecord) {
            self.packets += 1;
            self.bytes += record.ip_payload_len;
            self.dropped += record.dropped as usize;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    use crate::trace::PacketRecord;

    #[test]
    fn tap_sees_what_the_trace_records() {
        let (mut sim, pinger, _echo) = two_host_sim(Duration::from_millis(5));
        sim.enable_trace();
        sim.set_tap(Box::new(CountingTap::default()));
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        let trace_bytes: usize = sim
            .trace()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.ip_payload_len)
            .sum();
        let trace_packets = sim.trace().unwrap().records().len();
        let tap = sim.take_tap().expect("installed");
        let tap = tap.as_any().downcast_ref::<CountingTap>().unwrap();
        assert_eq!(tap.packets, trace_packets);
        assert_eq!(tap.bytes, trace_bytes);
        assert_eq!(tap.dropped, 0);
    }

    #[test]
    fn tap_observes_lost_and_unroutable_packets() {
        let mut sim = Simulator::new(
            1,
            Box::new(FixedPathModel::with_loss(Duration::from_millis(1), 1.0)),
        );
        let a = addr(1, 40000);
        let pinger = sim.add_host(
            Box::new(Pinger {
                target: addr(99, 7),
                local: a,
                echo_at: None,
            }),
            &[a.ip],
        );
        sim.set_tap(Box::new(CountingTap::default()));
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        assert_eq!(sim.tap_mut::<CountingTap>().unwrap().dropped, 1);
    }

    #[test]
    fn reset_arena_reproduces_a_fresh_simulator() {
        let run_fresh = || {
            let (mut sim, pinger, _) = two_host_sim(Duration::from_millis(10));
            sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
            sim.run(1000);
            (sim.host::<Pinger>(pinger).echo_at, sim.stats())
        };
        let mut arena = Simulator::arena();
        let mut run_reused = |junk_rounds: usize| {
            // Dirty the arena first so reuse actually exercises clearing.
            for seed in 0..junk_rounds as u64 {
                arena.reset(
                    seed + 100,
                    Box::new(FixedPathModel::new(Duration::from_millis(3))),
                );
                let a = addr(1, 40000);
                let b = addr(2, 7);
                let pinger = arena.add_host(
                    Box::new(Pinger {
                        target: b,
                        local: a,
                        echo_at: None,
                    }),
                    &[a.ip],
                );
                arena.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
                arena.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
                arena.run(50);
            }
            arena.reset(1, Box::new(FixedPathModel::new(Duration::from_millis(10))));
            let a = addr(1, 40000);
            let b = addr(2, 7);
            let pinger = arena.add_host(
                Box::new(Pinger {
                    target: b,
                    local: a,
                    echo_at: None,
                }),
                &[a.ip],
            );
            arena.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
            arena.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
            arena.run(1000);
            (arena.host::<Pinger>(pinger).echo_at, arena.stats())
        };
        assert_eq!(run_reused(0), run_fresh());
        assert_eq!(run_reused(3), run_fresh());
    }

    #[test]
    fn step_until_matches_run_until() {
        let make = || {
            let mut sim = Simulator::new(
                9,
                Box::new(FixedPathModel::with_loss(Duration::from_millis(3), 0.2)),
            );
            let a = addr(1, 40000);
            let b = addr(2, 7);
            let pinger = sim.add_host(
                Box::new(Pinger {
                    target: b,
                    local: a,
                    echo_at: None,
                }),
                &[a.ip],
            );
            sim.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
            sim.with_host::<Pinger, _>(pinger, |p, ctx| {
                for _ in 0..20 {
                    p.start(ctx);
                }
            });
            sim
        };
        let deadline = SimTime::from_millis(50);
        let mut run = make();
        run.run_until(deadline);
        let mut stepped = make();
        let mut steps = 0;
        while stepped.step_until(deadline) {
            steps += 1;
        }
        assert!(steps > 0);
        assert_eq!(stepped.stats(), run.stats());
        assert_eq!(stepped.now(), run.now());
        assert_eq!(stepped.now(), deadline);
    }

    #[test]
    fn impairment_outage_blackholes_window() {
        use crate::impair::ImpairmentSchedule;
        // Ping at t=0 falls inside the outage and is dropped; the
        // pinger never hears back.
        let (mut sim, pinger, echo) = two_host_sim(Duration::from_millis(10));
        sim.set_impairment(Box::new(
            ImpairmentSchedule::new().with_outage(SimTime::ZERO, SimTime::from_millis(5)),
        ));
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        assert_eq!(sim.host::<Echo>(echo).received, 0);
        assert_eq!(sim.stats().packets_lost, 1);
        assert_eq!(sim.stats().packets_impaired, 1);
        assert!(sim.host::<Pinger>(pinger).echo_at.is_none());
    }

    #[test]
    fn impairment_outage_spares_the_echo_after_it_ends() {
        use crate::impair::ImpairmentSchedule;
        // One-way delay 10 ms; the outage covers [5, 9) ms, so the ping
        // (sent at 0) passes but nothing is in flight during the window
        // and the echo (sent at 10 ms) passes too.
        let (mut sim, pinger, echo) = two_host_sim(Duration::from_millis(10));
        sim.set_impairment(Box::new(
            ImpairmentSchedule::new().with_outage(SimTime::from_millis(5), SimTime::from_millis(9)),
        ));
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        assert_eq!(sim.host::<Echo>(echo).received, 1);
        assert_eq!(
            sim.host::<Pinger>(pinger).echo_at,
            Some(SimTime::from_millis(20))
        );
        assert_eq!(sim.stats().packets_impaired, 0);
    }

    #[test]
    fn impairment_duplication_delivers_copies() {
        use crate::impair::ImpairmentSchedule;
        let (mut sim, pinger, echo) = two_host_sim(Duration::from_millis(10));
        sim.set_impairment(Box::new(ImpairmentSchedule::new().with_duplicate(1.0)));
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        // Ping duplicated -> echo receives 2, replies twice, each reply
        // duplicated -> 3 duplicated copies in total, 6 deliveries.
        assert_eq!(sim.host::<Echo>(echo).received, 2);
        assert_eq!(sim.stats().packets_duplicated, 3);
        assert_eq!(sim.stats().packets_delivered, 6);
    }

    #[test]
    fn impairment_reordering_overtakes_fifo() {
        use crate::impair::{Impairment, PacketFate};
        // A deterministic impairment that delays only the first packet
        // of the run far enough for the second to overtake it.
        struct DelayFirst {
            seen: usize,
        }
        impl Impairment for DelayFirst {
            fn apply(&mut self, _now: SimTime, _pkt: &Packet, _rng: &mut SimRng) -> PacketFate {
                self.seen += 1;
                let mut fate = PacketFate::deliver();
                if self.seen == 1 {
                    fate.reorder = true;
                    fate.extra_delay = Duration::from_millis(50);
                }
                fate
            }
        }
        /// Records the payload tag order of arrivals.
        struct Collector {
            order: Vec<u8>,
        }
        impl Host for Collector {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
                self.order.push(pkt.payload[0]);
            }
            fn on_wakeup(&mut self, _ctx: &mut Ctx<'_>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(1, Box::new(FixedPathModel::new(Duration::from_millis(10))));
        let a = addr(1, 40000);
        let b = addr(2, 7);
        let sender = sim.add_host(
            Box::new(Pinger {
                target: b,
                local: a,
                echo_at: None,
            }),
            &[a.ip],
        );
        let sink = sim.add_host(Box::new(Collector { order: vec![] }), &[b.ip]);
        sim.set_impairment(Box::new(DelayFirst { seen: 0 }));
        sim.with_host::<Pinger, _>(sender, |_, ctx| {
            ctx.send(Packet::udp(a, b, vec![1]));
            ctx.send(Packet::udp(a, b, vec![2]));
        });
        sim.run(1000);
        assert_eq!(sim.host::<Collector>(sink).order, vec![2, 1]);
    }

    #[test]
    fn inert_impairment_is_byte_identical_to_none() {
        use crate::impair::ImpairmentSchedule;
        let run = |install_inert: bool| {
            let mut sim = Simulator::new(
                9,
                Box::new(FixedPathModel::with_loss(Duration::from_millis(3), 0.2)),
            );
            if install_inert {
                sim.set_impairment(Box::new(ImpairmentSchedule::new()));
            }
            let a = addr(1, 40000);
            let b = addr(2, 7);
            let pinger = sim.add_host(
                Box::new(Pinger {
                    target: b,
                    local: a,
                    echo_at: None,
                }),
                &[a.ip],
            );
            sim.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
            sim.with_host::<Pinger, _>(pinger, |p, ctx| {
                for _ in 0..30 {
                    p.start(ctx);
                }
            });
            sim.run(10_000);
            (sim.stats(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut sim = Simulator::new(
                seed,
                Box::new(FixedPathModel::with_loss(Duration::from_millis(3), 0.3)),
            );
            let a = addr(1, 40000);
            let b = addr(2, 7);
            let pinger = sim.add_host(
                Box::new(Pinger {
                    target: b,
                    local: a,
                    echo_at: None,
                }),
                &[a.ip],
            );
            sim.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
            sim.with_host::<Pinger, _>(pinger, |p, ctx| {
                for _ in 0..50 {
                    p.start(ctx);
                }
            });
            sim.run(10_000);
            sim.stats()
        };
        assert_eq!(run(7), run(7));
        // With 30% loss and 100 transmissions, two seeds almost surely
        // differ in at least one counter.
        assert_ne!(run(7), run(8));
    }

    /// Echo that replies to a fixed address (simulating a peer that
    /// has not learned about a rebind).
    struct StickyEcho {
        reply_to: SocketAddr,
        received: usize,
    }

    impl Host for StickyEcho {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.received += 1;
            ctx.send(Packet::udp(pkt.dst, self.reply_to, pkt.payload));
        }
        fn on_wakeup(&mut self, _ctx: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn rebind_moves_delivery_to_the_new_address() {
        let mut sim = Simulator::new(1, Box::new(FixedPathModel::new(Duration::from_millis(10))));
        let a = addr(1, 40000);
        let a2 = addr(3, 40000);
        let b = addr(2, 7);
        let pinger = sim.add_host(
            Box::new(Pinger {
                target: b,
                local: a,
                echo_at: None,
            }),
            &[a.ip],
        );
        let echo = sim.add_host(
            Box::new(StickyEcho {
                reply_to: a2,
                received: 0,
            }),
            &[b.ip],
        );
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.rebind_host(pinger, a.ip, a2.ip, PathProfile::default());
        sim.run(1000);
        // The ping (sent from the old address) still routes by
        // destination; the reply addressed to the new address lands.
        assert_eq!(sim.host::<StickyEcho>(echo).received, 1);
        assert_eq!(
            sim.host::<Pinger>(pinger).echo_at,
            Some(SimTime::from_millis(20))
        );
        assert_eq!(sim.stats().packets_unroutable, 0);
    }

    #[test]
    fn rebind_makes_the_old_address_unroutable() {
        let (mut sim, pinger, echo) = two_host_sim(Duration::from_millis(10));
        let a = addr(1, 40000);
        let a2 = addr(3, 40000);
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        // The ping is in flight; the echo's reply will target the old
        // address, which no longer resolves after the rebind.
        sim.rebind_host(pinger, a.ip, a2.ip, PathProfile::default());
        sim.run(1000);
        assert_eq!(sim.host::<Echo>(echo).received, 1);
        assert!(sim.host::<Pinger>(pinger).echo_at.is_none());
        assert_eq!(sim.stats().packets_unroutable, 1);
    }

    #[test]
    fn rebind_path_profile_adds_deterministic_delay() {
        let mut sim = Simulator::new(1, Box::new(FixedPathModel::new(Duration::from_millis(10))));
        let a = addr(1, 40000);
        let a2 = addr(3, 40000);
        let b = addr(2, 7);
        let pinger = sim.add_host(
            Box::new(Pinger {
                target: b,
                local: a2,
                echo_at: None,
            }),
            &[a.ip],
        );
        let echo = sim.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
        sim.rebind_host(
            pinger,
            a.ip,
            a2.ip,
            PathProfile {
                extra_delay: Duration::from_millis(5),
                loss: None,
            },
        );
        sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
        sim.run(1000);
        // 5 ms extra on each direction touching the rebound address.
        assert_eq!(sim.host::<Echo>(echo).received, 1);
        assert_eq!(
            sim.host::<Pinger>(pinger).echo_at,
            Some(SimTime::from_millis(30))
        );
    }

    #[test]
    fn rebind_panics_on_stale_or_taken_addresses() {
        let taken = std::panic::catch_unwind(|| {
            let (mut sim, pinger, _) = two_host_sim(Duration::from_millis(1));
            sim.rebind_host(pinger, addr(1, 0).ip, addr(2, 0).ip, PathProfile::default());
        });
        assert!(taken.is_err(), "rebinding onto a bound address must panic");
        let stale = std::panic::catch_unwind(|| {
            let (mut sim, pinger, _) = two_host_sim(Duration::from_millis(1));
            sim.rebind_host(pinger, addr(9, 0).ip, addr(3, 0).ip, PathProfile::default());
        });
        assert!(stale.is_err(), "rebinding an unbound address must panic");
    }

    #[test]
    fn neutral_profile_leaves_runs_byte_identical() {
        let run = |install: bool| {
            let mut sim = Simulator::new(
                9,
                Box::new(FixedPathModel::with_loss(Duration::from_millis(3), 0.2)),
            );
            let a = addr(1, 40000);
            let b = addr(2, 7);
            let pinger = sim.add_host(
                Box::new(Pinger {
                    target: b,
                    local: a,
                    echo_at: None,
                }),
                &[a.ip],
            );
            sim.add_host(Box::new(Echo { received: 0 }), &[b.ip]);
            if install {
                // Installing and removing a profile must leave no trace.
                sim.set_path_profile(
                    a.ip,
                    PathProfile {
                        extra_delay: Duration::from_millis(1),
                        loss: None,
                    },
                );
                sim.set_path_profile(a.ip, PathProfile::default());
            }
            sim.with_host::<Pinger, _>(pinger, |p, ctx| {
                for _ in 0..30 {
                    p.start(ctx);
                }
            });
            sim.run(10_000);
            (sim.stats(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn impaired_routing_recycles_payload_buffers() {
        use crate::impair::{GilbertElliott, ImpairmentSchedule};
        use crate::net::PayloadBuf;
        // Heavy loss, duplication and reordering discard or copy many
        // packets. Every discarded packet's buffer must return to the
        // thread's freelist, so a second identical burst runs from
        // recycled buffers instead of growing the pool — the property
        // that keeps long impairment campaigns allocation-free.
        let burst = |sim: &mut Simulator, pinger: HostId| {
            for _ in 0..50 {
                sim.with_host::<Pinger, _>(pinger, |p, ctx| p.start(ctx));
                sim.run(10_000);
            }
        };
        let (mut sim, pinger, _echo) = two_host_sim(Duration::from_millis(10));
        sim.set_impairment(Box::new(
            ImpairmentSchedule::new()
                .with_burst(GilbertElliott::new(0.2, 0.5, 0.05, 0.5))
                .with_reorder(0.3, Duration::from_millis(30))
                .with_duplicate(0.3),
        ));
        burst(&mut sim, pinger);
        let warm = PayloadBuf::pooled();
        assert!(warm > 0, "discarded payloads should land in the freelist");
        burst(&mut sim, pinger);
        let after = PayloadBuf::pooled();
        assert!(
            after >= warm,
            "buffers leaked: pool shrank from {warm} to {after}"
        );
        assert!(
            after <= warm + 8,
            "pool kept growing ({warm} -> {after}): buffers are not being reused"
        );
    }
}
