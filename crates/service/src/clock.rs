//! The one seam through which time enters the service.
//!
//! The workspace's determinism lint bans `Instant`/`SystemTime` from
//! `crates/*` so results can never depend on wall time. A service, however,
//! must meter deadlines and pace retry backoff — so time is injected through
//! the [`Clock`] trait instead of read ambiently. Tests and the chaos
//! harness drive a [`TestClock`] whose ticks advance only when the test says
//! so (making deadline expiry a scripted, reproducible event); production
//! callers hand the service a [`WallClock`], the single audited place the
//! monotonic OS clock is read (see the reasoned `xtask/lint-allow.txt`
//! entry for this file).
//!
//! Ticks are dimensionless `u64`s. [`WallClock`] makes one tick one
//! microsecond; a [`TestClock`] tick means whatever the test wants.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotone tick source plus a way to wait, injected into the service so
/// deadline and backoff behaviour is testable without wall time.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Current tick count; monotone non-decreasing across calls.
    fn now(&self) -> u64;

    /// Blocks (or simulates blocking) for `ticks`; used only by retry
    /// backoff, never on the probe hot path.
    fn sleep(&self, ticks: u64);
}

/// The production clock: monotonic wall time, one tick per microsecond since
/// construction.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose tick 0 is "now".
    #[must_use]
    pub fn new() -> WallClock {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl fmt::Debug for WallClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WallClock").field("elapsed_micros", &self.now()).finish()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn sleep(&self, ticks: u64) {
        std::thread::sleep(Duration::from_micros(ticks));
    }
}

/// The cancellation hook of a request with a deadline budget of `budget`
/// ticks, or `None` when the budget can never run out.
///
/// The deadline is fixed once, as the absolute tick `clock.now() + budget`,
/// and the hook reports expiry when a later read reaches it. A budget of
/// [`u64::MAX`], or one whose deadline would lie past the tick range, is no
/// deadline at all: no hook is returned and the clock is never read, so an
/// unbounded probe pays nothing for time.
pub(crate) fn deadline_hook(
    clock: &dyn Clock,
    budget: u64,
) -> Option<impl Fn(usize) -> bool + Sync + '_> {
    if budget == u64::MAX {
        return None;
    }
    let deadline = clock.now().checked_add(budget)?;
    Some(move |_radius: usize| clock.now() >= deadline)
}

/// A deterministic clock for tests and the chaos harness: ticks advance only
/// through [`TestClock::advance`], [`Clock::sleep`], or an optional
/// per-`now` auto-tick, and saturate at [`u64::MAX`].
///
/// The auto-tick makes deadline expiry scriptable without any cooperating
/// thread: a probe under a bounded budget calls [`Clock::now`] once to fix
/// its deadline and once per ball-growth step, so
/// `TestClock::with_autotick(1)` ages such a query by exactly one tick per
/// step — "this query times out after three growth steps" becomes a
/// deterministic assertion. An unbounded query never reads the clock, so it
/// does not age it at all.
#[derive(Debug)]
pub struct TestClock {
    ticks: AtomicU64,
    autotick: u64,
}

impl TestClock {
    /// A clock frozen at tick 0 until advanced.
    #[must_use]
    pub fn new() -> TestClock {
        TestClock { ticks: AtomicU64::new(0), autotick: 0 }
    }

    /// A clock that additionally advances by `per_now` ticks on every
    /// [`Clock::now`] call (after the value is read).
    #[must_use]
    pub fn with_autotick(per_now: u64) -> TestClock {
        TestClock { ticks: AtomicU64::new(0), autotick: per_now }
    }

    /// Advances the clock by `ticks`, stopping at [`u64::MAX`].
    pub fn advance(&self, ticks: u64) {
        self.add(ticks);
    }

    /// Adds `ticks` saturating, so the clock never wraps back past zero,
    /// and returns the value before the addition.
    fn add(&self, ticks: u64) -> u64 {
        // ordering: `Relaxed` — the tick counter carries no other state;
        // deadline checks only need a monotone value, which the RMW total
        // order provides.
        self.ticks
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| Some(t.saturating_add(ticks)))
            .unwrap_or_else(|before| before)
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> u64 {
        if self.autotick == 0 {
            // ordering: `Relaxed` — reading the monotone tick counter; no
            // other memory is synchronised through it.
            return self.ticks.load(Ordering::Relaxed);
        }
        // The pre-increment value: each `now` observes then ages the clock.
        self.add(self.autotick)
    }

    fn sleep(&self, ticks: u64) {
        // Simulated blocking: waiting *is* advancing, which keeps backoff
        // loops finite and fully deterministic under test.
        self.advance(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_is_frozen_until_advanced() {
        let clock = TestClock::new();
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.now(), 0);
        clock.advance(5);
        assert_eq!(clock.now(), 5);
        clock.sleep(2);
        assert_eq!(clock.now(), 7);
    }

    #[test]
    fn autotick_ages_the_clock_once_per_now() {
        let clock = TestClock::with_autotick(3);
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.now(), 3);
        assert_eq!(clock.now(), 6);
        clock.advance(100);
        assert_eq!(clock.now(), 109);
    }

    #[test]
    fn advance_saturates_at_the_ceiling() {
        let clock = TestClock::new();
        clock.advance(u64::MAX);
        clock.advance(1);
        assert_eq!(clock.now(), u64::MAX);
        clock.sleep(u64::MAX);
        assert_eq!(clock.now(), u64::MAX);
    }

    #[test]
    fn autotick_saturates_at_the_ceiling() {
        let clock = TestClock::with_autotick(2);
        clock.advance(u64::MAX - 3);
        assert_eq!(clock.now(), u64::MAX - 3);
        assert_eq!(clock.now(), u64::MAX - 1);
        assert_eq!(clock.now(), u64::MAX);
        assert_eq!(clock.now(), u64::MAX);
    }

    #[test]
    fn unbounded_budgets_get_no_hook_and_read_no_clock() {
        let clock = TestClock::with_autotick(1);
        assert!(deadline_hook(&clock, u64::MAX).is_none());
        assert_eq!(clock.now(), 0);

        let clock = TestClock::new();
        clock.advance(5);
        // `5 + (u64::MAX - 5)` is the last tick: still a deadline.
        assert!(deadline_hook(&clock, u64::MAX - 5).is_some());
        // One tick further lies past the range: no hook.
        assert!(deadline_hook(&clock, u64::MAX - 4).is_none());
    }

    #[test]
    fn bounded_hook_fires_once_the_deadline_tick_is_reached() {
        let clock = TestClock::new();
        clock.advance(10);
        let expired = deadline_hook(&clock, 3).unwrap();
        assert!(!expired(0));
        clock.advance(2);
        assert!(!expired(1));
        clock.advance(1);
        assert!(expired(2));
        let immediate = deadline_hook(&clock, 0).unwrap();
        assert!(immediate(0));
    }

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        clock.sleep(50);
        assert!(clock.now() >= b);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Box<dyn Clock>> =
            vec![Box::new(WallClock::new()), Box::new(TestClock::new())];
        for clock in &clocks {
            let _ = clock.now();
        }
    }
}
