//! Hop-by-hop flow control for the data plane: credit windows, bounded
//! egress queues, priority load shedding, and per-downstream circuit
//! breakers.
//!
//! Each directed link `(sender, receiver)` carrying event traffic gets a
//! [`FlowTx`] on the sender and a [`FlowRx`] on the receiver. The credit
//! protocol is *absolute*: the receiver reports the cumulative count of
//! data messages it has consumed ([`LinkMsg::CreditGrant`]), and the
//! sender's window is `capacity − (sent − consumed)`. Absolute grants are
//! idempotent under the simulator's fault plans — a duplicated or
//! reordered grant merges via `max`, and a lost grant is subsumed by the
//! next one — where delta grants would double- or under-credit.
//!
//! Message loss on an unreliable link leaks credit (a dropped data message
//! is never consumed). Two paths heal the leak by *rebasing* the window —
//! writing off whatever is unaccounted in flight. A silent downstream
//! trips the circuit breaker, and the grant that closes it rebases. An
//! *answering* downstream that reports no consumption progress across a
//! full stall cycle proves it is alive and idle, so the missing credit
//! belongs to the wire, not to its backlog: the sender rebases in place
//! ([`Tick::Resync`]) instead of stalling forever. Fault-free links never
//! leak, and the transient worst case is bounded by one window.
//!
//! Shedding is priority-aware and happens only here, on the sender side:
//! fresh data events are dropped when the bounded queue is full or the
//! breaker is open; retransmissions (already holding a link sequence) are
//! queued at the *front* and never shed by overflow; control-plane
//! messages never enter the queue at all.
//!
//! [`LinkMsg::CreditGrant`]: crate::link::LinkMsg::CreditGrant

use std::collections::VecDeque;

use layercake_event::Envelope;
use layercake_sim::{SimDuration, SimTime};

/// Backoff doubling stops at 64× the configured initial backoff.
const MAX_BACKOFF_FACTOR: u64 = 64;

/// One entry of a sender's bounded egress queue.
#[derive(Debug)]
pub(crate) enum Queued {
    /// A fresh event. Its link sequence (under reliable links) is stamped
    /// only at dequeue, so link order always equals send order even when
    /// retransmissions jump the queue.
    Fresh(Envelope),
    /// A retransmission, already carrying its original link sequence.
    Retransmit {
        /// The link sequence the event was first sent under.
        link_seq: u64,
        /// The event itself.
        env: Envelope,
    },
}

/// What became of a fresh data event offered to a link.
#[derive(Debug)]
pub(crate) enum Offer {
    /// Credit available and nothing queued ahead: transmit immediately.
    Send(Envelope),
    /// Parked in the egress queue (at `depth`, 1-based) awaiting credit.
    Queued {
        /// Queue depth after the push.
        depth: usize,
    },
    /// Shed: the bounded queue is full. The envelope is handed back so
    /// the caller can record provenance before dropping it.
    ShedQueueFull(Envelope),
    /// Shed: the downstream's circuit breaker is open (or probing
    /// half-open). The envelope is handed back for provenance.
    ShedBreakerOpen(Envelope),
}

/// What the per-link maintenance tick decided.
#[derive(Debug)]
pub(crate) enum Tick {
    /// Nothing to do.
    Idle,
    /// Stalled on zero credit: send a [`Credit`] probe downstream.
    ///
    /// [`Credit`]: crate::link::LinkMsg::Credit
    Probe,
    /// The breaker tripped; everything queued was flushed for shedding.
    Opened {
        /// The flushed queue entries (fresh and retransmit alike).
        flushed: Vec<Queued>,
    },
    /// The open period elapsed: the breaker is half-open, send one probe.
    HalfOpenProbe,
    /// Leaked credit was written off (the downstream answered probes but
    /// reported zero progress for a full stall cycle): the queue has
    /// credit again and should be drained.
    Resync,
}

/// The effect of one credit grant on the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GrantEffect {
    /// The grant recovered an open/half-open breaker (window rebased).
    pub closed_breaker: bool,
}

/// Circuit-breaker state for one downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Forwarding normally; `failures` consecutive stalled ticks so far.
    Closed { failures: u32 },
    /// Tripped: no data flows until `until`, then one half-open probe.
    Open {
        until: SimTime,
        backoff: SimDuration,
    },
    /// Probing: one `Credit` was sent; a grant closes, silence reopens
    /// with doubled backoff.
    HalfOpen { backoff: SimDuration },
}

/// Sender side of one flow-controlled link.
#[derive(Debug)]
pub(crate) struct FlowTx {
    capacity: usize,
    threshold: u32,
    base_backoff: SimDuration,
    /// Data messages put on the wire since the last rebase epoch began.
    sent_total: u64,
    /// Highest cumulative consumed count any grant has reported.
    seen_consumed: u64,
    /// Rebase offset: `in_flight = sent_total − base − seen_consumed`.
    base: u64,
    queue: VecDeque<Queued>,
    breaker: Breaker,
    /// A grant arrived since the last maintenance tick (liveness proof).
    granted_since_tick: bool,
    /// `seen_consumed` at the previous stalled tick; an unchanged value
    /// on a granted tick exposes leaked (wire-lost) credit.
    stall_mark: Option<u64>,
}

impl FlowTx {
    pub fn new(capacity: usize, threshold: u32, base_backoff: SimDuration) -> Self {
        Self {
            capacity,
            threshold,
            base_backoff,
            sent_total: 0,
            seen_consumed: 0,
            base: 0,
            queue: VecDeque::new(),
            breaker: Breaker::Closed { failures: 0 },
            granted_since_tick: false,
            stall_mark: None,
        }
    }

    /// Data messages on the wire not yet reported consumed.
    fn in_flight(&self) -> u64 {
        self.sent_total
            .saturating_sub(self.base.saturating_add(self.seen_consumed))
    }

    /// Remaining credit: how many more data messages may be sent now.
    pub fn credit(&self) -> u64 {
        (self.capacity as u64).saturating_sub(self.in_flight())
    }

    /// Current egress-queue depth.
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether the breaker currently blocks data (open or half-open).
    pub fn is_broken(&self) -> bool {
        !matches!(self.breaker, Breaker::Closed { .. })
    }

    /// Whether the breaker sits fully open (backing off).
    #[cfg(test)]
    pub fn is_open(&self) -> bool {
        matches!(self.breaker, Breaker::Open { .. })
    }

    /// Whether this link still needs maintenance ticks: something is
    /// queued, or the breaker is mid-recovery.
    pub fn needs_tick(&self) -> bool {
        !self.queue.is_empty() || self.is_broken()
    }

    /// Offers one fresh data event to the link.
    pub fn offer(&mut self, env: Envelope) -> Offer {
        if self.is_broken() {
            return Offer::ShedBreakerOpen(env);
        }
        if self.queue.is_empty() && self.credit() > 0 {
            self.sent_total += 1;
            return Offer::Send(env);
        }
        if self.queue.len() >= self.capacity {
            return Offer::ShedQueueFull(env);
        }
        self.queue.push_back(Queued::Fresh(env));
        Offer::Queued {
            depth: self.queue.len(),
        }
    }

    /// Queues a retransmission at the *front* (gap repair goes first).
    /// Retransmissions are never shed by overflow — the queue may
    /// transiently exceed `capacity` by up to one reliability window,
    /// which [`LinkConfig::validate`] bounds by `queue_capacity`.
    /// Returns `false` (dropped) when the breaker is open: the NACK will
    /// recur after recovery.
    ///
    /// [`LinkConfig::validate`]: crate::link::LinkConfig::validate
    pub fn push_retransmit(&mut self, link_seq: u64, env: Envelope) -> bool {
        if self.is_broken() {
            return false;
        }
        self.queue.push_front(Queued::Retransmit { link_seq, env });
        true
    }

    /// Pops the next queue entry the current credit allows sending, and
    /// charges it to the window.
    pub fn pop_ready(&mut self) -> Option<Queued> {
        if self.is_broken() || self.credit() == 0 {
            return None;
        }
        let entry = self.queue.pop_front()?;
        self.sent_total += 1;
        Some(entry)
    }

    /// Merges one absolute credit grant.
    pub fn on_grant(&mut self, consumed_total: u64) -> GrantEffect {
        self.granted_since_tick = true;
        self.seen_consumed = self.seen_consumed.max(consumed_total);
        let closed_breaker = self.is_broken();
        if closed_breaker {
            // The downstream answered: close the breaker and re-sync the
            // window, healing any credit leaked by lost data messages.
            self.rebase();
        }
        self.breaker = Breaker::Closed { failures: 0 };
        GrantEffect { closed_breaker }
    }

    /// Restarts the credit epoch: whatever is unaccounted in flight is
    /// written off, so the full window is available again.
    fn rebase(&mut self) {
        self.base = self.sent_total.saturating_sub(self.seen_consumed);
        self.stall_mark = None;
    }

    /// One maintenance tick: stall probing and breaker bookkeeping.
    pub fn on_tick(&mut self, now: SimTime) -> Tick {
        let granted = std::mem::take(&mut self.granted_since_tick);
        match self.breaker {
            Breaker::Open { until, backoff } => {
                if now >= until {
                    self.breaker = Breaker::HalfOpen { backoff };
                    Tick::HalfOpenProbe
                } else {
                    Tick::Idle
                }
            }
            Breaker::HalfOpen { backoff } => {
                // A grant would have closed us before this tick; silence
                // means the downstream is still gone.
                let next = SimDuration::from_ticks(
                    (backoff.ticks().saturating_mul(2))
                        .min(self.base_backoff.ticks().saturating_mul(MAX_BACKOFF_FACTOR)),
                );
                self.breaker = Breaker::Open {
                    until: now + next,
                    backoff: next,
                };
                Tick::Opened {
                    flushed: self.queue.drain(..).collect(),
                }
            }
            Breaker::Closed { failures } => {
                if self.queue.is_empty() || self.credit() > 0 {
                    self.breaker = Breaker::Closed { failures: 0 };
                    self.stall_mark = None;
                    return Tick::Idle;
                }
                if granted {
                    // Alive: never count a failure. But an answering
                    // downstream whose consumption total has not moved
                    // for a whole stall cycle is *idle* — the credit this
                    // window is waiting for was lost on the wire and will
                    // never be granted. Write it off and move on.
                    self.breaker = Breaker::Closed { failures: 0 };
                    if self.stall_mark == Some(self.seen_consumed) {
                        self.rebase();
                        return Tick::Resync;
                    }
                    self.stall_mark = Some(self.seen_consumed);
                    return Tick::Probe;
                }
                self.stall_mark = Some(self.seen_consumed);
                let failures = failures + 1;
                if self.threshold > 0 && failures >= self.threshold {
                    self.breaker = Breaker::Open {
                        until: now + self.base_backoff,
                        backoff: self.base_backoff,
                    };
                    Tick::Opened {
                        flushed: self.queue.drain(..).collect(),
                    }
                } else {
                    self.breaker = Breaker::Closed { failures };
                    Tick::Probe
                }
            }
        }
    }
}

/// Receiver side of one flow-controlled link: counts consumed data
/// messages and batches grants.
#[derive(Debug)]
pub(crate) struct FlowRx {
    consumed_total: u64,
    since_grant: u64,
    batch: u64,
}

impl FlowRx {
    /// Grants fire every `capacity / 4` consumed messages (min 1), so the
    /// sender's window refills four times per capacity-worth of traffic.
    pub fn new(capacity: usize) -> Self {
        Self {
            consumed_total: 0,
            since_grant: 0,
            batch: ((capacity / 4) as u64).max(1),
        }
    }

    /// Counts one consumed data message; returns `Some(consumed_total)`
    /// when a batched grant is due.
    pub fn on_data(&mut self) -> Option<u64> {
        self.consumed_total += 1;
        self.since_grant += 1;
        if self.since_grant >= self.batch {
            self.since_grant = 0;
            Some(self.consumed_total)
        } else {
            None
        }
    }

    /// Answers a credit probe: an immediate, unconditional grant.
    pub fn grant_now(&mut self) -> u64 {
        self.since_grant = 0;
        self.consumed_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::{ClassId, EventData, EventSeq};

    fn env(seq: u64) -> Envelope {
        Envelope::from_meta(ClassId(0), "C", EventSeq(seq), EventData::new())
    }

    fn tx(capacity: usize) -> FlowTx {
        FlowTx::new(capacity, 3, SimDuration::from_ticks(100))
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn credit_window_pauses_at_capacity() {
        let mut link = tx(4);
        for i in 0..4 {
            assert!(matches!(link.offer(env(i)), Offer::Send(_)));
        }
        assert_eq!(link.credit(), 0);
        // Fifth message parks; sixth parks deeper.
        assert!(matches!(link.offer(env(4)), Offer::Queued { depth: 1 }));
        assert!(matches!(link.offer(env(5)), Offer::Queued { depth: 2 }));
        // A grant for 1 consumed frees one credit; the queue drains in
        // order until the window closes again.
        link.on_grant(1);
        assert_eq!(link.credit(), 1);
        let popped = link.pop_ready().expect("credit available");
        assert!(matches!(popped, Queued::Fresh(e) if e.seq() == EventSeq(4)));
        assert!(link.pop_ready().is_none(), "window exhausted again");
    }

    #[test]
    fn absolute_grants_tolerate_duplication_and_reordering() {
        let mut link = tx(4);
        for i in 0..4 {
            assert!(matches!(link.offer(env(i)), Offer::Send(_)));
        }
        link.on_grant(2);
        assert_eq!(link.credit(), 2);
        // A duplicated grant adds nothing.
        link.on_grant(2);
        assert_eq!(link.credit(), 2);
        // A stale, reordered grant never shrinks the window.
        link.on_grant(1);
        assert_eq!(link.credit(), 2);
        link.on_grant(4);
        assert_eq!(link.credit(), 4);
    }

    #[test]
    fn full_queue_sheds_fresh_but_never_retransmits() {
        let mut link = tx(2);
        // Exhaust credit, then fill the queue.
        assert!(matches!(link.offer(env(0)), Offer::Send(_)));
        assert!(matches!(link.offer(env(1)), Offer::Send(_)));
        assert!(matches!(link.offer(env(2)), Offer::Queued { .. }));
        assert!(matches!(link.offer(env(3)), Offer::Queued { .. }));
        assert!(matches!(link.offer(env(4)), Offer::ShedQueueFull(_)));
        // A retransmission still gets in — at the front.
        assert!(link.push_retransmit(7, env(9)));
        assert_eq!(link.depth(), 3);
        link.on_grant(1);
        let first = link.pop_ready().expect("one credit");
        assert!(matches!(first, Queued::Retransmit { link_seq: 7, .. }));
    }

    #[test]
    fn breaker_opens_after_consecutive_silent_stalls() {
        let mut link = tx(1);
        assert!(matches!(link.offer(env(0)), Offer::Send(_)));
        assert!(matches!(link.offer(env(1)), Offer::Queued { .. }));
        // Threshold 3: two probing ticks, the third opens and flushes.
        assert!(matches!(link.on_tick(t(10)), Tick::Probe));
        assert!(matches!(link.on_tick(t(20)), Tick::Probe));
        match link.on_tick(t(30)) {
            Tick::Opened { flushed } => assert_eq!(flushed.len(), 1),
            other => panic!("expected Opened, got {other:?}"),
        }
        assert!(link.is_open());
        // While open, fresh data is shed and retransmits are dropped.
        assert!(matches!(link.offer(env(2)), Offer::ShedBreakerOpen(_)));
        assert!(!link.push_retransmit(0, env(2)));
    }

    #[test]
    fn alive_but_idle_downstream_heals_leaked_credit_without_tripping() {
        let mut link = tx(2);
        assert!(matches!(link.offer(env(0)), Offer::Send(_)));
        assert!(matches!(link.offer(env(1)), Offer::Send(_)));
        // Both lost on the wire; the next event parks on zero credit.
        assert!(matches!(link.offer(env(2)), Offer::Queued { .. }));
        // First stalled tick probes the downstream.
        assert!(matches!(link.on_tick(t(10)), Tick::Probe));
        // The probe is answered, but the downstream has consumed nothing:
        // it is alive and idle, so the missing credit is wire loss.
        link.on_grant(0);
        assert!(matches!(link.on_tick(t(20)), Tick::Resync));
        assert!(!link.is_broken(), "answering downstream must never trip");
        // The window rebased: the parked event can go now.
        assert!(matches!(link.pop_ready(), Some(Queued::Fresh(_))));
    }

    #[test]
    fn breaker_recovery_rebases_the_credit_window() {
        let mut link = tx(2);
        assert!(matches!(link.offer(env(0)), Offer::Send(_)));
        assert!(matches!(link.offer(env(1)), Offer::Send(_)));
        // Both messages are lost on the wire: credit leaked, sender stalls.
        assert!(matches!(link.offer(env(2)), Offer::Queued { .. }));
        for tick in 1..=3 {
            link.on_tick(t(tick * 10));
        }
        assert!(link.is_open());
        // Backoff (100) elapses: half-open probe at t=130.
        assert!(matches!(link.on_tick(t(130)), Tick::HalfOpenProbe));
        // The downstream answers with its (never-advanced) total.
        let effect = link.on_grant(0);
        assert!(effect.closed_breaker);
        assert!(!link.is_broken());
        // The leak healed: the full window is available again.
        assert_eq!(link.credit(), 2);
    }

    #[test]
    fn half_open_silence_doubles_backoff_up_to_the_cap() {
        let mut link = tx(1);
        assert!(matches!(link.offer(env(0)), Offer::Send(_)));
        assert!(matches!(link.offer(env(1)), Offer::Queued { .. }));
        let mut now = 0u64;
        for _ in 0..3 {
            now += 10;
            link.on_tick(t(now));
        }
        assert!(link.is_open());
        let mut reopen_gaps = Vec::new();
        let mut last_open = now;
        // Walk failed recovery cycles until the doubling must have
        // saturated (100 → 6400 takes 7 cycles).
        while reopen_gaps.len() < 8 && now < 100_000 {
            now += 10;
            match link.on_tick(t(now)) {
                Tick::HalfOpenProbe => {
                    reopen_gaps.push(now - last_open);
                    // Silence: next tick reopens.
                    now += 10;
                    assert!(matches!(link.on_tick(t(now)), Tick::Opened { .. }));
                    last_open = now;
                }
                Tick::Idle => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        // Gaps between open and half-open grow (100, then 200, …).
        assert_eq!(reopen_gaps.len(), 8);
        assert!(reopen_gaps.windows(2).all(|w| w[1] >= w[0]));
        assert!(reopen_gaps[1] > reopen_gaps[0]);
        // And the cap holds: never beyond 64 × base.
        assert!(reopen_gaps
            .iter()
            .all(|&g| g <= 100 * MAX_BACKOFF_FACTOR + 10));
    }

    #[test]
    fn rx_batches_grants_and_answers_probes() {
        let mut rx = FlowRx::new(8); // batch = 2
        assert_eq!(rx.on_data(), None);
        assert_eq!(rx.on_data(), Some(2));
        assert_eq!(rx.on_data(), None);
        // A probe answers immediately and resets the batch clock.
        assert_eq!(rx.grant_now(), 3);
        assert_eq!(rx.on_data(), None);
        assert_eq!(rx.on_data(), Some(5));
        // Tiny windows still grant at least every message.
        let mut tiny = FlowRx::new(1);
        assert_eq!(tiny.on_data(), Some(1));
        assert_eq!(tiny.on_data(), Some(2));
    }
}
