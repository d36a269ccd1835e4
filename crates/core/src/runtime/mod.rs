//! Virtualizable runtime: time, sleeping, thread spawning, blocking waits
//! and randomness behind one seam.
//!
//! Every place the logging stack used to call the OS directly — spawning
//! daemons, sleeping, reading the monotonic clock, blocking on condition
//! variables — now routes through this module. Two implementations share
//! the seam:
//!
//! * **Real** (the default): thin wrappers over `std::time`, `std::thread`
//!   and `std::sync`. Zero behavior change for production paths;
//!   `Runtime::default()` is real.
//! * **Sim**: a seeded, cooperative, single-token scheduler over real OS
//!   threads with a *virtual* clock that jumps to the next scheduled
//!   wakeup. One seed ⇒ one reproducible whole-cluster history
//!   ([`Runtime::history`] hashes every scheduling decision).
//!
//! The sim is selected *per thread*: a thread registered as a sim actor
//! (via [`Runtime::spawn`] on a sim runtime, or [`Runtime::enter`]) takes
//! the virtual path in every free function and blocking wait; unregistered
//! threads take the real path. This keeps constructors free
//! of runtime plumbing — only `spawn` and sim entry need the handle.
//!
//! ## Determinism contract (sim mode)
//!
//! All actors are real OS threads, but exactly one holds the *run token*
//! at any instant; the rest are parked. An actor only gives up the token
//! at a runtime yield point (`sleep`, `yield_now`, a [`WaitSet`] wait, a
//! channel wait, `join`). The scheduler picks the next runnable actor
//! with the seeded RNG, so the entire interleaving is a pure function of
//! the seed — provided user code between yield points is itself
//! deterministic (no iteration over `HashMap`s that feed decisions, no
//! address-keyed logic, no OS clock reads outside this module).

mod channel;
mod sim;
mod waitset;

pub use channel::{rt_channel, RtReceiver, RtSender};
pub use waitset::WaitSet;

use sim::SimState;
use std::cell::RefCell;
use std::fmt;
use std::os::raw::{c_int, c_ulong};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::sync::{RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Thread-local sim registration
// ---------------------------------------------------------------------------

struct SimTls {
    st: Arc<SimState>,
    id: u64,
    /// Per-actor xorshift state (seeded from the sim seed + actor id) that
    /// backs `fast_rand` so randomized probing is reproducible.
    rng: u64,
}

thread_local! {
    static SIM_TLS: RefCell<Option<SimTls>> = const { RefCell::new(None) };
}

fn tls_sim() -> Option<(Arc<SimState>, u64)> {
    SIM_TLS.with(|t| t.borrow().as_ref().map(|s| (Arc::clone(&s.st), s.id)))
}

fn tls_enter(st: Arc<SimState>, id: u64, rng_seed: u64) {
    SIM_TLS.with(|t| {
        let mut slot = t.borrow_mut();
        assert!(slot.is_none(), "thread is already a sim actor");
        *slot = Some(SimTls {
            st,
            id,
            rng: rng_seed | 1,
        });
    });
}

fn tls_exit() {
    SIM_TLS.with(|t| *t.borrow_mut() = None);
}

/// Deterministic per-actor random word for sim threads; `None` on real
/// threads (callers fall back to their own seeding).
pub(crate) fn sim_thread_rand() -> Option<u64> {
    SIM_TLS.with(|t| {
        t.borrow_mut().as_mut().map(|s| {
            s.rng ^= s.rng << 13;
            s.rng ^= s.rng >> 7;
            s.rng ^= s.rng << 17;
            s.rng
        })
    })
}

// ---------------------------------------------------------------------------
// Free functions: the clock / sleep seam
// ---------------------------------------------------------------------------

fn real_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Monotonic nanoseconds since an arbitrary process epoch. Sim actors read
/// the virtual clock; everyone else reads the OS monotonic clock.
#[inline]
pub fn monotonic_ns() -> u64 {
    if let Some((st, _)) = tls_sim() {
        return st.now_ns();
    }
    real_epoch().elapsed().as_nanos() as u64
}

/// Sleep for `d`. Sim actors advance virtual time (yielding the run token);
/// real threads call the OS.
pub fn sleep(d: Duration) {
    if let Some((st, me)) = tls_sim() {
        // A zero sleep is a no-op, not a yield — code paths that "sleep"
        // for a configured-zero latency (device models) must not become
        // scheduling points, or they would park while holding locks they
        // never expected to hold across a wait.
        if !d.is_zero() {
            st.sleep_virtual(me, dur_ns(d));
        }
        return;
    }
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// Yield the CPU. In sim mode this is a *tiny virtual sleep* rather than a
/// pure yield: a spinning actor must let the virtual clock reach other
/// actors' wakeups, or it would livelock the simulation.
pub fn yield_now() {
    if let Some((st, me)) = tls_sim() {
        st.yield_virtual(me);
        return;
    }
    std::thread::yield_now();
}

/// How much of a [`precise_sleep`] is spun rather than slept. With a 1 ns
/// timer slack an OS sleep of 20–200 µs on the development host comes back
/// ~5 µs late at the median and ≤ 10 µs at p90 (EXPERIMENTS.md has the
/// histogram), so sleeping all but this tail wakes before the deadline nine
/// times in ten, and the spin that remains is ~20 µs, whatever the wait. At
/// 0.5–1 ms the OS sleep is 15–18 µs late at the median and 28–38 µs at p90,
/// so one wait in ten ends 20–25 µs past its deadline: 2 % of a 1 ms device.
const SPIN_TAIL: Duration = Duration::from_micros(25);

// std links libc already. The timer slack is how late the kernel may fire a
// thread's timers to coalesce them: 50 µs by default, most of a short wait.
extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}
const PR_SET_TIMERSLACK: c_int = 29;
const PR_GET_TIMERSLACK: c_int = 30;

/// Sleep for `d` and never less: an OS sleep for all but `SPIN_TAIL`, with
/// the calling thread's timer slack at 1 ns for that sleep alone, then a spin
/// to the deadline. The device, link and service-time models wait here — a
/// plain OS sleep overshoots by a timer slack they cannot afford, and
/// spinning the whole wait takes a core from the system being modeled. The
/// caller's slack is restored before the spin. Virtual (exact) in sim.
pub fn precise_sleep(d: Duration) {
    if let Some((st, me)) = tls_sim() {
        if !d.is_zero() {
            st.sleep_virtual(me, dur_ns(d));
        }
        return;
    }
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    if d > SPIN_TAIL {
        // SAFETY: these `prctl` options read and set only the calling
        // thread's timer slack. 1 ns is the least: 0 means "the default".
        let slack = unsafe { prctl(PR_GET_TIMERSLACK) };
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
        std::thread::sleep(d - SPIN_TAIL);
        unsafe { prctl(PR_SET_TIMERSLACK, slack as c_ulong) };
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

// ---------------------------------------------------------------------------
// Locks: `std::sync`, with a panicked holder poisoning nothing
// ---------------------------------------------------------------------------

/// Lock `m`. A thread that panicked holding it does not poison it for the
/// rest: the workspace's locks guard data that no update leaves half-done
/// across a panic, and every `std::sync` lock is taken through these three
/// helpers, so that promise is kept in one place.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take `l` shared; see [`lock`].
#[inline]
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take `l` exclusive; see [`lock`].
#[inline]
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// RtCondvar: runtime-aware condition variable
// ---------------------------------------------------------------------------

static NEXT_CV_ID: AtomicU64 = AtomicU64::new(1);

/// A condition variable that blocks through the runtime.
///
/// Real threads wait on the embedded `std` condvar. Sim actors park in the
/// scheduler instead (registering interest *before* the guard drops, so
/// wakeups cannot be lost), and re-acquire the mutex by `try_lock` + virtual
/// yield — never an OS block, which would wedge the single-token scheduler.
/// So waits take the guard by value and the owning mutex with it.
///
/// Crate-private: a thread that waits for state another thread publishes
/// parks in a [`WaitSet`], which is this condvar plus the protocol that
/// loses no wakeup. The condvar itself is only for state that lives under
/// the mutex it is paired with: the flushers' park (`flush.rs`) and
/// `StallDevice`'s gate.
pub(crate) struct RtCondvar {
    real: std::sync::Condvar,
    sim_id: OnceLock<u64>,
}

impl RtCondvar {
    /// New condvar, usable from both runtimes.
    pub(crate) const fn new() -> Self {
        RtCondvar {
            real: std::sync::Condvar::new(),
            sim_id: OnceLock::new(),
        }
    }

    fn id(&self) -> u64 {
        *self
            .sim_id
            .get_or_init(|| NEXT_CV_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Block until notified. Returns the re-acquired guard.
    pub(crate) fn wait<'a, T>(
        &self,
        mutex: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
    ) -> MutexGuard<'a, T> {
        if let Some((st, me)) = tls_sim() {
            let cv = self.id();
            drop(guard);
            st.cv_wait(me, cv, None);
            return sim_relock(&st, me, mutex);
        }
        self.real
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until notified or `timeout` elapses. Returns the re-acquired
    /// guard and whether the wait timed out.
    pub(crate) fn wait_for<'a, T>(
        &self,
        mutex: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        if let Some((st, me)) = tls_sim() {
            let cv = self.id();
            let deadline = st.now_ns().saturating_add(dur_ns(timeout));
            drop(guard);
            let timed_out = st.cv_wait(me, cv, Some(deadline));
            let guard = sim_relock(&st, me, mutex);
            return (guard, timed_out);
        }
        let (guard, r) = self
            .real
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (guard, r.timed_out())
    }

    /// Wake one waiter (deterministically the lowest-id sim actor, if any).
    pub(crate) fn notify_one(&self) {
        if let Some((st, _)) = tls_sim() {
            if let Some(&id) = self.sim_id.get() {
                st.cv_notify(id, false);
            }
        }
        self.real.notify_one();
    }

    /// Wake all waiters.
    pub(crate) fn notify_all(&self) {
        if let Some((st, _)) = tls_sim() {
            if let Some(&id) = self.sim_id.get() {
                st.cv_notify(id, true);
            }
        }
        self.real.notify_all();
    }
}

fn sim_relock<'a, T>(st: &Arc<SimState>, me: u64, mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // The notifier may still hold the mutex across its own next yield
    // point; an OS-blocking lock here (while we hold the run token) would
    // deadlock the whole sim. Spin through virtual yields instead.
    loop {
        match mutex.try_lock() {
            Ok(g) => return g,
            Err(TryLockError::Poisoned(p)) => return p.into_inner(),
            Err(TryLockError::WouldBlock) => st.yield_virtual(me),
        }
    }
}

impl Default for RtCondvar {
    fn default() -> Self {
        RtCondvar::new()
    }
}

impl fmt::Debug for RtCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RtCondvar")
    }
}

// ---------------------------------------------------------------------------
// JoinHandle
// ---------------------------------------------------------------------------

/// Handle to a runtime-spawned thread. In sim mode, `join` first parks the
/// calling actor in the scheduler until the target actor finishes, then
/// joins the OS thread (propagating panics either way).
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    sim: Option<(Arc<SimState>, u64)>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its result.
    pub fn join(self) -> std::thread::Result<T> {
        if let Some((st, target)) = &self.sim {
            if let Some((cur, me)) = tls_sim() {
                if Arc::ptr_eq(&cur, st) {
                    cur.join_wait(me, *target);
                }
            }
        }
        self.inner.join()
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JoinHandle(..)")
    }
}

// ---------------------------------------------------------------------------
// Runtime handle
// ---------------------------------------------------------------------------

/// Handle selecting which runtime a component's threads run under.
///
/// `Default` is the real runtime. Cloning is cheap; clones of a sim
/// runtime share one scheduler (one cluster = one seed = one history).
#[derive(Clone, Default)]
pub struct Runtime {
    inner: RuntimeInner,
}

#[derive(Clone, Default)]
enum RuntimeInner {
    #[default]
    Real,
    Sim(Arc<SimState>),
}

impl Runtime {
    /// The real runtime: OS clock, OS sleeps, `std::thread` spawns.
    pub fn real() -> Runtime {
        Runtime::default()
    }

    /// A fresh simulated runtime driven by `seed`.
    pub fn sim(seed: u64) -> Runtime {
        Runtime {
            inner: RuntimeInner::Sim(Arc::new(SimState::new(seed))),
        }
    }

    /// Whether this is a simulated runtime.
    pub fn is_sim(&self) -> bool {
        matches!(self.inner, RuntimeInner::Sim(_))
    }

    /// Spawn a named thread under this runtime. Under sim, the new thread
    /// becomes a scheduler actor: it runs only when granted the run token,
    /// and the spawner must itself be a sim actor.
    pub fn spawn<T, F>(&self, name: &str, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match &self.inner {
            RuntimeInner::Real => {
                let inner = std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(f)
                    .expect("spawn thread");
                JoinHandle { inner, sim: None }
            }
            RuntimeInner::Sim(st) => {
                let id = st.alloc_actor(name);
                let rng_seed = st.actor_seed(id);
                let st2 = Arc::clone(st);
                let inner = std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(move || {
                        tls_enter(Arc::clone(&st2), id, rng_seed);
                        st2.wait_for_token(id);
                        let _done = ActorDoneGuard { st: st2, id };
                        f()
                    })
                    .expect("spawn sim actor");
                JoinHandle {
                    inner,
                    sim: Some((Arc::clone(st), id)),
                }
            }
        }
    }

    /// Register the *current* thread as a sim actor (the "main" actor that
    /// drives construction and the workload). No-op guard on the real
    /// runtime. All sim actors spawned inside must be joined before the
    /// guard drops.
    pub fn enter(&self) -> SimGuard {
        match &self.inner {
            RuntimeInner::Real => SimGuard { st: None, id: 0 },
            RuntimeInner::Sim(st) => {
                let id = st.register_main("main");
                tls_enter(Arc::clone(st), id, st.actor_seed(id));
                SimGuard {
                    st: Some(Arc::clone(st)),
                    id,
                }
            }
        }
    }

    /// Fold a semantic marker into the sim history (no-op on real). Use for
    /// externally meaningful events — commits acked, faults injected — so
    /// histories diverge as soon as behavior does, not only scheduling.
    pub fn note(&self, msg: &str) {
        if let RuntimeInner::Sim(st) = &self.inner {
            st.note(msg.as_bytes());
        }
    }

    /// `(hash, events)` of the sim history so far: an order-sensitive FNV-1a
    /// over every scheduling decision and [`Runtime::note`]. `(0, 0)` on
    /// the real runtime. Two runs of the same seed and workload must return
    /// identical values — that is the determinism contract.
    pub fn history(&self) -> (u64, u64) {
        match &self.inner {
            RuntimeInner::Real => (0, 0),
            RuntimeInner::Sim(st) => st.history(),
        }
    }

    /// The seed (sim only).
    pub fn seed(&self) -> Option<u64> {
        match &self.inner {
            RuntimeInner::Real => None,
            RuntimeInner::Sim(st) => Some(st.seed()),
        }
    }
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            RuntimeInner::Real => f.write_str("Runtime::Real"),
            RuntimeInner::Sim(st) => write!(f, "Runtime::Sim(seed={})", st.seed()),
        }
    }
}

struct ActorDoneGuard {
    st: Arc<SimState>,
    id: u64,
}

impl Drop for ActorDoneGuard {
    fn drop(&mut self) {
        tls_exit();
        self.st.finish(self.id);
    }
}

/// Guard returned by [`Runtime::enter`]; dropping it deregisters the main
/// actor. Panics (when not already panicking) if other sim actors are
/// still live — the sim must be quiesced before leaving it.
pub struct SimGuard {
    st: Option<Arc<SimState>>,
    id: u64,
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        if let Some(st) = self.st.take() {
            tls_exit();
            st.exit_main(self.id);
        }
    }
}

impl fmt::Debug for SimGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SimGuard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn real_clock_is_monotonic() {
        let a = monotonic_ns();
        sleep(Duration::from_millis(1));
        let b = monotonic_ns();
        assert!(b > a);
    }

    #[test]
    fn sim_clock_is_virtual() {
        let rt = Runtime::sim(7);
        let g = rt.enter();
        let a = monotonic_ns();
        sleep(Duration::from_secs(3600)); // an hour passes instantly
        let b = monotonic_ns();
        assert_eq!(b - a, 3_600_000_000_000);
        drop(g);
    }

    #[test]
    fn sim_spawn_join_and_interleave() {
        let rt = Runtime::sim(42);
        let g = rt.enter();
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&counter);
            handles.push(rt.spawn("worker", move || {
                for _ in 0..10 {
                    c.fetch_add(1, Ordering::Relaxed);
                    yield_now();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40);
        drop(g);
    }

    #[test]
    fn sim_condvar_wakes_and_times_out() {
        let rt = Runtime::sim(3);
        let g = rt.enter();
        let pair = Arc::new((Mutex::new(false), RtCondvar::new()));
        let p2 = Arc::clone(&pair);
        let h = rt.spawn("setter", move || {
            sleep(Duration::from_millis(5));
            *lock(&p2.0) = true;
            p2.1.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = lock(m);
        while !*done {
            done = cv.wait(m, done);
        }
        drop(done);
        h.join().unwrap();
        // Timed wait with nobody to notify: virtual time advances, no hang.
        let before = monotonic_ns();
        let (guard, timed_out) = cv.wait_for(m, lock(m), Duration::from_millis(50));
        drop(guard);
        assert!(timed_out);
        assert!(monotonic_ns() - before >= 50_000_000);
        drop(g);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
        let l = Arc::new(RwLock::new(0));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = write(&l2);
            panic!("poison");
        })
        .join();
        *write(&l) += 1;
        assert_eq!(*read(&l), 1);
    }

    #[test]
    fn same_seed_same_history() {
        fn run(seed: u64) -> (u64, u64) {
            let rt = Runtime::sim(seed);
            let g = rt.enter();
            let mut handles = Vec::new();
            for i in 0..3 {
                let rt2 = rt.clone();
                handles.push(rt.spawn("w", move || {
                    for k in 0..5 {
                        sleep(Duration::from_micros(10 + i * 3));
                        rt2.note(&format!("w{i}:{k}"));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let hist = rt.history();
            drop(g);
            hist
        }
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed must replay byte-identically");
        let c = run(100);
        assert_ne!(a, c, "different seeds should diverge");
    }

    fn timer_slack() -> c_int {
        // SAFETY: reads only the calling thread's timer slack.
        unsafe { prctl(PR_GET_TIMERSLACK) }
    }

    #[test]
    fn precise_sleep_gives_the_borrowed_timer_slack_back() {
        std::thread::spawn(|| {
            // SAFETY: sets only this thread's timer slack.
            unsafe { prctl(PR_SET_TIMERSLACK, 123_456 as c_ulong) };
            assert_eq!(timer_slack(), 123_456);
            precise_sleep(Duration::from_micros(200));
            assert_eq!(timer_slack(), 123_456);
        })
        .join()
        .unwrap();
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }

    /// CPU time this thread has run, user and system.
    fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` outlives the call.
        assert_eq!(
            unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) },
            0
        );
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    /// Counted, not timed: the CPU a wait burns, which a busy host does not
    /// inflate (a spinning thread that is preempted accrues none). A 120 µs
    /// tail at the default 50 µs slack burns ≈ 100 and ≈ 65 µs here.
    #[test]
    fn precise_sleep_spins_only_a_short_tail() {
        for us in [100u64, 200] {
            let cpu = thread_cpu_ns();
            for _ in 0..100 {
                precise_sleep(Duration::from_micros(us));
            }
            let per_sleep = (thread_cpu_ns() - cpu) / 100;
            assert!(
                per_sleep <= 35_000,
                "a {us} µs sleep burns {per_sleep} ns of CPU"
            );
        }
    }

    #[test]
    fn sim_rand_is_deterministic_per_seed() {
        fn draw(seed: u64) -> Vec<u64> {
            let rt = Runtime::sim(seed);
            let g = rt.enter();
            let out: Vec<u64> = (0..8).map(|_| sim_thread_rand().unwrap()).collect();
            drop(g);
            out
        }
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert!(
            sim_thread_rand().is_none(),
            "real threads take their own path"
        );
    }
}
