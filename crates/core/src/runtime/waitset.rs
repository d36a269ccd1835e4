//! [`WaitSet`]: the one way a thread parks until somebody else's state
//! changes.

use super::{dur_ns, lock, monotonic_ns, RtCondvar};
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The threads parked until a condition on state kept *elsewhere* holds: a
/// watermark, a flag, an ack table. Whoever changes that state calls
/// [`WaitSet::notify`] afterwards; whoever waits on it passes
/// [`WaitSet::wait_until`] a `look` at it.
///
/// ## Why no wakeup is lost
///
/// A waiter counts itself, takes the lock, looks, and parks — and the condvar
/// gives the lock up only once the waiter is parked. A notifier changes the
/// state, reads the count, and on a non-zero count takes the lock and wakes
/// everyone. The count and the state are a Dekker pair: each side writes its
/// own word and then reads the other's, and the writes and the reads are
/// `SeqCst`, so at least one side sees the other's write.
///
/// * The notifier reads a zero count: then the waiter's look, which follows
///   its count, sees the change and does not park.
/// * The notifier reads a non-zero count: it takes the lock, so it runs
///   either before the waiter's look under the lock (which then sees the
///   change) or after the waiter parked (and the wake reaches it).
///
/// So a wait needs no timeout to back it up, and `notify` with nobody
/// waiting is one load — no lock, no syscall, and on the insert path (where
/// every release under auto-reclaim notifies) no fence.
///
/// The notifier's half of the pair is the caller's: **publish the change
/// with a `SeqCst` store or read-modify-write (or put a `SeqCst` fence after
/// it) before calling `notify`.** The waiter's half is here: a fence follows
/// the count, so `look` may read with any ordering.
///
/// `look` runs under the set's lock: keep it to loads and short critical
/// sections, and never let it yield to the runtime (under simulation a
/// notifier would block on the lock while holding the run token).
#[derive(Debug, Default)]
pub struct WaitSet {
    /// Threads between counting themselves and leaving `wait_until`.
    waiting: AtomicUsize,
    lock: Mutex<()>,
    cv: RtCondvar,
}

impl WaitSet {
    /// An empty set.
    pub const fn new() -> WaitSet {
        WaitSet {
            waiting: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: RtCondvar::new(),
        }
    }

    /// Park until `look` returns `Some` and return it, or `None` once
    /// `timeout` (runtime time; `None` waits for ever) has passed. `look` is
    /// called again after every [`WaitSet::notify`].
    pub fn wait_until<T>(
        &self,
        timeout: Option<Duration>,
        mut look: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let deadline = timeout.map(|t| monotonic_ns().saturating_add(dur_ns(t)));
        self.waiting.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let mut g = lock(&self.lock);
        let seen = loop {
            if let Some(v) = look() {
                break Some(v);
            }
            match deadline {
                None => g = self.cv.wait(&self.lock, g),
                Some(d) => {
                    let now = monotonic_ns();
                    if now >= d {
                        break None;
                    }
                    (g, _) = self
                        .cv
                        .wait_for(&self.lock, g, Duration::from_nanos(d - now));
                }
            }
        };
        drop(g);
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        seen
    }

    /// Have every waiter look again. Call it *after* publishing the change
    /// they wait for, `SeqCst`; free when nobody waits.
    #[inline]
    pub fn notify(&self) {
        if self.waiting.load(Ordering::SeqCst) != 0 {
            drop(lock(&self.lock));
            self.cv.notify_all();
        }
    }

    /// Threads inside [`WaitSet::wait_until`] right now (tests wait for a
    /// thread to block by watching this).
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{self, Runtime};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    const WAITERS: u64 = 4;
    const NOTIFIERS: u64 = 2;

    /// `WAITERS` threads wait, untimed, for each value of a watermark in
    /// turn and acknowledge it; `NOTIFIERS` threads spin until every waiter
    /// has acknowledged the current value, and the one that wins the turn
    /// advances it. Each value is notified exactly once, by a notifier that
    /// was spinning for the acknowledgement the waiter sent on its way back
    /// into the wait: one lost wakeup and the run never ends.
    fn chase(rt: &Runtime, waiters: u64, steps: u64) {
        #[derive(Default)]
        struct Chase {
            mark: AtomicU64,
            marked: WaitSet,
            acks: AtomicU64,
            turn: AtomicU64,
        }
        let c = Arc::new(Chase::default());
        let waiting = (0..waiters).map(|_| {
            let c = Arc::clone(&c);
            rt.spawn("waiter", move || {
                for want in 1..=steps {
                    let at = c.marked.wait_until(None, || {
                        let at = Some(c.mark.load(Ordering::Relaxed)).filter(|&at| at >= want);
                        // Dawdle between an unsatisfied look and the park:
                        // the gap a notifier must not slip through.
                        jitter(if at.is_none() { want } else { 0 });
                        at
                    });
                    assert_eq!(at, Some(want), "nobody advances before every ack");
                    c.acks.fetch_add(1, Ordering::Release);
                    // Arrive at the next wait a varying few nanoseconds after
                    // the notifier learns of the ack.
                    jitter(want);
                }
            })
        });
        let notifiers = (0..NOTIFIERS).map(|_| {
            let c = Arc::clone(&c);
            rt.spawn("notifier", move || {
                for at in 0..steps {
                    while c.acks.load(Ordering::Acquire) < waiters * at {
                        runtime::yield_now();
                    }
                    let won =
                        c.turn
                            .compare_exchange(at, at + 1, Ordering::Relaxed, Ordering::Relaxed);
                    if won.is_ok() {
                        c.mark.store(at + 1, Ordering::SeqCst);
                        c.marked.notify();
                    }
                }
            })
        });
        let threads: Vec<_> = waiting.chain(notifiers).collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.marked.waiting(), 0);
    }

    /// Spin for 0–63 turns, by `n`.
    fn jitter(n: u64) {
        for _ in 0..n.wrapping_mul(0x9e37_79b9) >> 8 & 63 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn stress_no_wakeup_is_lost() {
        // Several waiters share the wakes; one alone is the only thing that
        // raises the count, so a notifier that misreads it loses the wakeup.
        chase(&Runtime::real(), WAITERS, 50_000);
        chase(&Runtime::real(), 1, 200_000);
    }

    #[test]
    fn sim_replays_identically() {
        fn run(seed: u64) -> (u64, u64) {
            let rt = Runtime::sim(seed);
            let g = rt.enter();
            chase(&rt, WAITERS, 200);
            let history = rt.history();
            drop(g);
            history
        }
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn timeout_ends_the_wait() {
        let set = WaitSet::new();
        let t0 = monotonic_ns();
        let seen: Option<()> = set.wait_until(Some(Duration::from_millis(20)), || None);
        assert!(seen.is_none());
        assert!(monotonic_ns() - t0 >= 20_000_000);
        assert_eq!(set.waiting(), 0);
    }
}
