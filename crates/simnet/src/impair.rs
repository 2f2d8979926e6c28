//! Deterministic fault injection layered onto the path model.
//!
//! An [`Impairment`] is consulted once per routed packet, *before* the
//! path model's own i.i.d. Bernoulli loss, and decides a [`PacketFate`]:
//! drop the packet, delay it past the flow's FIFO ordering (reordering),
//! or deliver a second copy (duplication). All stochastic decisions draw
//! from the simulator's own seeded RNG, so an impaired unit is exactly
//! as deterministic — and as thread-count-invariant under the campaign
//! engine — as an unimpaired one. When no impairment is installed the
//! router consumes no extra RNG, so zero-impairment runs are
//! byte-identical to a simulator without this layer at all.
//!
//! The concrete [`ImpairmentSchedule`] composes three classic regimes:
//!
//! * **Gilbert–Elliott burst loss** ([`GilbertElliott`]): a two-state
//!   Markov chain (good/bad) advanced per packet, with a per-state loss
//!   probability. Burstiness comes from the chain's sojourn times, not
//!   from correlated coin flips.
//! * **Outage windows** ([`OutageWindow`]): half-open `[start, end)`
//!   wall-clock intervals during which *every* packet is blackholed —
//!   no RNG involved, so outages are reproducible to the nanosecond.
//! * **Reordering and duplication**: per-packet Bernoulli events. A
//!   reordered packet receives an extra delay and bypasses the per-flow
//!   FIFO clamp, so it can genuinely arrive after later-sent packets; a
//!   duplicated packet is delivered twice with independently sampled
//!   path delays.

use crate::net::Packet;
use crate::rng::SimRng;
use crate::time::{Duration, SimTime};

/// What the impairment layer decided for one packet.
#[derive(Debug, Clone, Copy)]
pub struct PacketFate {
    /// Drop the packet before it reaches the path model.
    pub drop: bool,
    /// Extra one-way delay on top of the path model's sampled delay.
    pub extra_delay: Duration,
    /// Deliver a second copy with its own sampled path delay.
    pub duplicate: bool,
    /// Exempt this packet from per-flow FIFO ordering so the extra
    /// delay can actually reorder it within its flow.
    pub reorder: bool,
}

impl PacketFate {
    /// The identity fate: deliver normally.
    pub fn deliver() -> Self {
        PacketFate {
            drop: false,
            extra_delay: Duration::ZERO,
            duplicate: false,
            reorder: false,
        }
    }
}

/// A per-packet fault-injection policy, layered in front of the path
/// model by [`crate::Simulator::set_impairment`].
pub trait Impairment {
    /// Decide the fate of one packet. Called in event order with the
    /// simulator clock and RNG; implementations may keep state (e.g. a
    /// Markov chain) but must draw randomness only from `rng` to keep
    /// runs deterministic.
    fn apply(&mut self, now: SimTime, pkt: &Packet, rng: &mut SimRng) -> PacketFate;
}

/// Two-state Markov (Gilbert–Elliott) burst-loss model.
///
/// The chain transitions *before* each packet's loss draw: with
/// probability `p_good_to_bad` (resp. `p_bad_to_good`) the state flips,
/// then the packet is lost with the new state's loss probability. Mean
/// sojourn in the bad state is `1 / p_bad_to_good` packets, which is
/// what makes losses bursty rather than i.i.d.
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    pub p_good_to_bad: f64,
    pub p_bad_to_good: f64,
    pub loss_good: f64,
    pub loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Start in the good state with the given transition and loss
    /// probabilities.
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// True while the chain is in the bad (bursty-loss) state.
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }

    /// Advance the chain by one packet and sample whether it is lost.
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        let p_flip = if self.in_bad {
            self.p_bad_to_good
        } else {
            self.p_good_to_bad
        };
        if p_flip > 0.0 && rng.chance(p_flip) {
            self.in_bad = !self.in_bad;
        }
        let loss = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        loss > 0.0 && rng.chance(loss)
    }

    /// Stationary mean loss rate of the chain: the bad-state occupancy
    /// `p_gb / (p_gb + p_bg)` weighting `loss_bad`, plus the complement
    /// weighting `loss_good`. Used by calibration tests.
    pub fn mean_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_good_to_bad / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// A half-open `[start, end)` interval during which every packet is
/// blackholed. A packet routed exactly at `start` is dropped; one routed
/// exactly at `end` goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    pub start: SimTime,
    pub end: SimTime,
}

impl OutageWindow {
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "outage window ends before it starts");
        OutageWindow { start, end }
    }

    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A composable schedule combining burst loss, outages, reordering and
/// duplication. The default schedule is inert: it drops, delays and
/// duplicates nothing and consumes no RNG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpairmentSchedule {
    pub burst: Option<GilbertElliott>,
    pub outages: Vec<OutageWindow>,
    pub reorder_prob: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_extra: Duration,
    pub duplicate_prob: f64,
}

impl ImpairmentSchedule {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_burst(mut self, ge: GilbertElliott) -> Self {
        self.burst = Some(ge);
        self
    }

    pub fn with_outage(mut self, start: SimTime, end: SimTime) -> Self {
        self.outages.push(OutageWindow::new(start, end));
        self
    }

    pub fn with_reorder(mut self, prob: f64, extra: Duration) -> Self {
        self.reorder_prob = prob;
        self.reorder_extra = extra;
        self
    }

    pub fn with_duplicate(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// True when this schedule can never affect a packet. An inert
    /// schedule draws no RNG, so installing it (or not) leaves a run
    /// byte-identical.
    pub fn is_inert(&self) -> bool {
        self.burst.is_none()
            && self.outages.is_empty()
            && self.reorder_prob <= 0.0
            && self.duplicate_prob <= 0.0
    }
}

impl Impairment for ImpairmentSchedule {
    fn apply(&mut self, now: SimTime, _pkt: &Packet, rng: &mut SimRng) -> PacketFate {
        let mut fate = PacketFate::deliver();
        // Outages first: a blackholed epoch needs no randomness and
        // must not perturb the RNG stream consumed by later packets.
        if self.outages.iter().any(|w| w.contains(now)) {
            fate.drop = true;
            return fate;
        }
        if let Some(ge) = &mut self.burst {
            if ge.step(rng) {
                fate.drop = true;
                return fate;
            }
        }
        if self.duplicate_prob > 0.0 && rng.chance(self.duplicate_prob) {
            fate.duplicate = true;
        }
        if self.reorder_prob > 0.0 && rng.chance(self.reorder_prob) {
            fate.reorder = true;
            fate.extra_delay = self.reorder_extra;
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Ipv4Addr, SocketAddr};

    fn pkt() -> Packet {
        let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 1000);
        let b = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 53);
        Packet::udp(a, b, vec![0u8; 32])
    }

    #[test]
    fn ge_never_leaves_good_state_without_transitions() {
        let mut ge = GilbertElliott::new(0.0, 0.0, 0.0, 1.0);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(!ge.step(&mut rng));
            assert!(!ge.in_bad());
        }
    }

    #[test]
    fn ge_alternates_with_certain_transitions() {
        // p=1 both ways: the chain flips every packet, starting good ->
        // bad on the first step.
        let mut ge = GilbertElliott::new(1.0, 1.0, 0.0, 1.0);
        let mut rng = SimRng::new(2);
        for i in 0..100 {
            let lost = ge.step(&mut rng);
            let expect_bad = i % 2 == 0;
            assert_eq!(ge.in_bad(), expect_bad, "step {i}");
            assert_eq!(lost, expect_bad, "step {i}");
        }
    }

    #[test]
    fn ge_sticky_bad_state_produces_bursts() {
        // Rarely enters bad, stays a while: losses should cluster.
        let mut ge = GilbertElliott::new(0.01, 0.2, 0.0, 1.0);
        let mut rng = SimRng::new(3);
        let outcomes: Vec<bool> = (0..100_000).map(|_| ge.step(&mut rng)).collect();
        let losses = outcomes.iter().filter(|l| **l).count();
        assert!(losses > 0);
        // Count loss->loss adjacencies; under i.i.d. loss at the same
        // mean rate (~4.8%) we would expect ~losses * rate adjacencies,
        // bursts give far more.
        let rate = losses as f64 / outcomes.len() as f64;
        let adjacent = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let iid_expect = losses as f64 * rate;
        assert!(
            adjacent as f64 > 4.0 * iid_expect,
            "adjacent = {adjacent}, iid expectation = {iid_expect:.1}"
        );
    }

    #[test]
    fn ge_mean_loss_matches_stationary_rate() {
        let mut ge = GilbertElliott::new(0.05, 0.3, 0.0, 0.5);
        let expect = ge.mean_loss();
        assert!((expect - 0.05 / 0.35 * 0.5).abs() < 1e-12);
        let mut rng = SimRng::new(4);
        let n = 200_000;
        let losses = (0..n).filter(|_| ge.step(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate = {rate}, expect = {expect}"
        );
    }

    #[test]
    fn outage_window_edges_are_half_open() {
        let w = OutageWindow::new(SimTime::from_millis(100), SimTime::from_millis(200));
        assert!(!w.contains(SimTime::from_millis(99)));
        assert!(w.contains(SimTime::from_millis(100)), "start is inclusive");
        assert!(w.contains(SimTime::from_millis(199)));
        assert!(!w.contains(SimTime::from_millis(200)), "end is exclusive");
        assert!(!w.contains(SimTime::from_millis(300)));
    }

    #[test]
    fn empty_outage_window_contains_nothing() {
        let t = SimTime::from_millis(50);
        let w = OutageWindow::new(t, t);
        assert!(!w.contains(t));
    }

    #[test]
    fn schedule_outage_drops_without_rng() {
        let mut s = ImpairmentSchedule::new()
            .with_outage(SimTime::from_millis(10), SimTime::from_millis(20));
        let mut rng = SimRng::new(5);
        let before = rng.clone().next_u64();
        let fate = s.apply(SimTime::from_millis(15), &pkt(), &mut rng);
        assert!(fate.drop);
        assert_eq!(rng.next_u64(), before, "blackhole must not consume RNG");
    }

    #[test]
    fn inert_schedule_consumes_no_rng() {
        let mut s = ImpairmentSchedule::new();
        assert!(s.is_inert());
        let mut rng = SimRng::new(6);
        let before = rng.clone().next_u64();
        let fate = s.apply(SimTime::from_millis(1), &pkt(), &mut rng);
        assert!(!fate.drop && !fate.duplicate && !fate.reorder);
        assert_eq!(fate.extra_delay, Duration::ZERO);
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn schedule_composes_duplicate_and_reorder() {
        let mut s = ImpairmentSchedule::new()
            .with_duplicate(1.0)
            .with_reorder(1.0, Duration::from_millis(7));
        assert!(!s.is_inert());
        let mut rng = SimRng::new(7);
        let fate = s.apply(SimTime::ZERO, &pkt(), &mut rng);
        assert!(fate.duplicate);
        assert!(fate.reorder);
        assert_eq!(fate.extra_delay, Duration::from_millis(7));
    }
}
