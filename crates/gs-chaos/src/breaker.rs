//! Circuit breaker: Closed → Open on consecutive failures, Open →
//! HalfOpen after a cooldown, HalfOpen → Closed on the first success (or
//! straight back to Open on failure).
//!
//! Time is passed in explicitly (`Instant` arguments) so the state machine
//! is unit-testable with a synthetic clock; callers in the serving path
//! just pass `Instant::now()`.

use std::time::{Duration, Instant};

/// Breaker tuning: how many consecutive failures open the circuit and how
/// long it stays open before probing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    pub failure_threshold: u32,
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

/// The breaker state machine for one guarded service.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: State,
    consecutive_failures: u32,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: State::Closed,
            consecutive_failures: 0,
        }
    }

    /// Whether a call may proceed at `now`. An expired Open circuit flips
    /// to HalfOpen and admits the probe.
    pub fn allow(&mut self, now: Instant) -> bool {
        match self.state {
            State::Closed | State::HalfOpen => true,
            State::Open { until } => {
                if now >= until {
                    self.state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call: closes the circuit.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = State::Closed;
    }

    /// Records a transport-level failure at `now`. A HalfOpen probe
    /// failure reopens immediately; otherwise the circuit opens once the
    /// consecutive-failure threshold is reached.
    pub fn on_failure(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let reopen = matches!(self.state, State::HalfOpen)
            || self.consecutive_failures >= self.cfg.failure_threshold;
        if reopen {
            self.state = State::Open {
                until: now + self.cfg.cooldown,
            };
            self.consecutive_failures = 0;
        }
    }

    /// Whether the circuit is open (rejecting calls) at `now`.
    pub fn is_open(&self, now: Instant) -> bool {
        matches!(self.state, State::Open { until } if now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
        }
    }

    #[test]
    fn opens_after_threshold_and_recovers_via_half_open() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        assert!(b.allow(t0));
        b.on_failure(t0);
        b.on_failure(t0);
        assert!(b.allow(t0), "below threshold stays closed");
        b.on_failure(t0);
        assert!(b.is_open(t0), "third consecutive failure opens");
        assert!(!b.allow(t0));
        // still open mid-cooldown
        assert!(!b.allow(t0 + Duration::from_millis(50)));
        // cooldown elapsed: half-open probe admitted
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow(t1));
        b.on_success();
        assert!(b.allow(t1), "success closes the circuit");
        assert!(!b.is_open(t1));
    }

    #[test]
    fn half_open_probe_failure_reopens_immediately() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow(t1), "probe admitted");
        b.on_failure(t1);
        assert!(b.is_open(t1), "one probe failure reopens");
        assert!(!b.allow(t1 + Duration::from_millis(99)));
        assert!(b.allow(t1 + Duration::from_millis(100)));
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        b.on_failure(t0);
        b.on_failure(t0);
        b.on_success();
        b.on_failure(t0);
        b.on_failure(t0);
        assert!(b.allow(t0), "streak was reset; circuit stays closed");
    }
}
