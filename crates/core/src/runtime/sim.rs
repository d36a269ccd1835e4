//! The simulated scheduler: a single run token over real OS threads, a
//! virtual clock, a seeded RNG, and a rolling history hash.
//!
//! Every actor is an OS thread, but at most one is ever unparked: the one
//! holding the run token (`Sched::running`). All transitions go through
//! the one `sched` mutex, so cross-actor memory is totally ordered — data
//! races cannot introduce nondeterminism. When nothing is runnable the
//! clock jumps to the earliest pending deadline (a sleep wakeup or a timed
//! condvar wait); if there is none, the sim is deadlocked and panics with
//! an actor dump.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// A sim "yield" is a tiny virtual sleep, not a pure reschedule: spinning
/// actors must let the clock reach sleepers' deadlines or they would
/// livelock the simulation.
const YIELD_NS: u64 = 200;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Runnable,
    Running,
    Sleeping { wake_at: u64 },
    CvWait { cv: u64, deadline: Option<u64> },
    JoinWait { target: u64 },
    Done,
}

#[derive(Debug)]
struct Actor {
    name: String,
    run: RunState,
    /// Why the last `CvWait` ended: `true` = deadline hit, not a notify.
    timed_out: bool,
}

struct Sched {
    now_ns: u64,
    rng: u64,
    next_actor: u64,
    actors: BTreeMap<u64, Actor>,
    running: Option<u64>,
    hash: u64,
    events: u64,
}

pub(crate) struct SimState {
    sched: Mutex<Sched>,
    cv: Condvar,
    seed: u64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Sched {
    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    fn actor_mut(&mut self, id: u64) -> &mut Actor {
        self.actors.get_mut(&id).expect("unknown sim actor")
    }

    /// Pick the next actor to run; advance the virtual clock if nothing is
    /// runnable. Panics on deadlock (non-Done actors, no deadline).
    fn schedule(&mut self) {
        debug_assert!(self.running.is_none());
        loop {
            let runnable: Vec<u64> = self
                .actors
                .iter()
                .filter(|(_, a)| a.run == RunState::Runnable)
                .map(|(&id, _)| id)
                .collect();
            if !runnable.is_empty() {
                let pick = runnable[(self.next_rand() % runnable.len() as u64) as usize];
                self.actor_mut(pick).run = RunState::Running;
                self.running = Some(pick);
                self.events += 1;
                let (id_b, now_b) = (pick.to_le_bytes(), self.now_ns.to_le_bytes());
                self.fold(&id_b);
                self.fold(&now_b);
                return;
            }
            // Nothing runnable: jump the clock to the earliest deadline.
            let next = self
                .actors
                .values()
                .filter_map(|a| match a.run {
                    RunState::Sleeping { wake_at } => Some(wake_at),
                    RunState::CvWait {
                        deadline: Some(d), ..
                    } => Some(d),
                    _ => None,
                })
                .min();
            match next {
                Some(t) => {
                    self.now_ns = self.now_ns.max(t);
                    let now = self.now_ns;
                    for a in self.actors.values_mut() {
                        match a.run {
                            RunState::Sleeping { wake_at } if wake_at <= now => {
                                a.run = RunState::Runnable;
                                a.timed_out = false;
                            }
                            RunState::CvWait {
                                deadline: Some(d), ..
                            } if d <= now => {
                                a.run = RunState::Runnable;
                                a.timed_out = true;
                            }
                            _ => {}
                        }
                    }
                }
                None => {
                    if self.actors.values().all(|a| a.run == RunState::Done) {
                        return; // quiesced: the last actor just finished
                    }
                    let dump: Vec<String> = self
                        .actors
                        .iter()
                        .filter(|(_, a)| a.run != RunState::Done)
                        .map(|(id, a)| format!("  actor {} ({}): {:?}", id, a.name, a.run))
                        .collect();
                    panic!(
                        "sim deadlock at t={}ns — no runnable actor and no pending deadline:\n{}",
                        self.now_ns,
                        dump.join("\n")
                    );
                }
            }
        }
    }
}

impl SimState {
    pub(crate) fn new(seed: u64) -> SimState {
        SimState {
            sched: Mutex::new(Sched {
                now_ns: 0,
                rng: splitmix64(seed) | 1,
                next_actor: 0,
                actors: BTreeMap::new(),
                running: None,
                hash: FNV_OFFSET,
                events: 0,
            }),
            cv: Condvar::new(),
            seed,
        }
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn actor_seed(&self, id: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(id.wrapping_add(0x5151)))
    }

    fn lock(&self) -> MutexGuard<'_, Sched> {
        super::lock(&self.sched)
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.lock().now_ns
    }

    pub(crate) fn history(&self) -> (u64, u64) {
        let s = self.lock();
        (s.hash, s.events)
    }

    pub(crate) fn note(&self, bytes: &[u8]) {
        let mut s = self.lock();
        s.events += 1;
        s.fold(bytes);
    }

    /// Register the calling thread as the driving actor; it starts holding
    /// the run token.
    pub(crate) fn register_main(&self, name: &str) -> u64 {
        let mut s = self.lock();
        assert!(
            s.running.is_none(),
            "Runtime::enter while another sim actor is running"
        );
        let id = s.next_actor;
        s.next_actor += 1;
        s.actors.insert(
            id,
            Actor {
                name: name.to_string(),
                run: RunState::Running,
                timed_out: false,
            },
        );
        s.running = Some(id);
        id
    }

    /// Allocate a new runnable actor (spawner keeps the token).
    pub(crate) fn alloc_actor(&self, name: &str) -> u64 {
        let mut s = self.lock();
        assert!(
            s.running.is_some(),
            "Runtime::spawn on a sim runtime from outside the sim (no running actor)"
        );
        let id = s.next_actor;
        s.next_actor += 1;
        s.actors.insert(
            id,
            Actor {
                name: name.to_string(),
                run: RunState::Runnable,
                timed_out: false,
            },
        );
        id
    }

    /// Park a freshly spawned actor until the scheduler grants it the token.
    pub(crate) fn wait_for_token(&self, me: u64) {
        let mut s = self.lock();
        while s.actors.get(&me).map(|a| a.run) != Some(RunState::Running) {
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Core yield: move `me` into `new_state`, hand the token to the next
    /// actor, park until rescheduled. Returns the timed-out flag of the
    /// wakeup (meaningful after a timed `CvWait`).
    fn yield_with(&self, me: u64, new_state: RunState) -> bool {
        let mut s = self.lock();
        assert_eq!(
            s.running,
            Some(me),
            "sim yield from a descheduled actor — a non-sim thread touched sim state?"
        );
        {
            let a = s.actor_mut(me);
            a.run = new_state;
            a.timed_out = false;
        }
        s.running = None;
        s.schedule();
        self.cv.notify_all();
        while s.actors.get(&me).map(|a| a.run) != Some(RunState::Running) {
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        s.actors[&me].timed_out
    }

    pub(crate) fn sleep_virtual(&self, me: u64, ns: u64) {
        let wake_at = self.lock().now_ns.saturating_add(ns);
        self.yield_with(me, RunState::Sleeping { wake_at });
    }

    pub(crate) fn yield_virtual(&self, me: u64) {
        self.sleep_virtual(me, YIELD_NS);
    }

    /// Park on condvar `cv`; returns `true` if the wait ended by deadline.
    /// The caller must drop the user-level guard *before* this call — safe
    /// because it still holds the run token, so no notifier can run in
    /// between.
    pub(crate) fn cv_wait(&self, me: u64, cv: u64, deadline: Option<u64>) -> bool {
        self.yield_with(me, RunState::CvWait { cv, deadline })
    }

    /// Mark waiters on `cv` runnable (the lowest actor id for `notify_one`;
    /// BTreeMap order keeps the pick deterministic). Does not yield.
    pub(crate) fn cv_notify(&self, cv_id: u64, all: bool) {
        let mut s = self.lock();
        for a in s.actors.values_mut() {
            if let RunState::CvWait { cv, .. } = a.run {
                if cv == cv_id {
                    a.run = RunState::Runnable;
                    a.timed_out = false;
                    if !all {
                        break;
                    }
                }
            }
        }
    }

    /// Park until `target` finishes (no-op if it already has).
    pub(crate) fn join_wait(&self, me: u64, target: u64) {
        {
            let s = self.lock();
            if s.actors.get(&target).map(|a| a.run) != Some(RunState::Done) {
                // Fall through to the yield below; the token keeps the
                // check-then-park window closed.
            } else {
                return;
            }
        }
        self.yield_with(me, RunState::JoinWait { target });
    }

    /// Actor `me` finished (normally or by panic): mark Done, wake joiners,
    /// release the token if held, schedule the next actor.
    pub(crate) fn finish(&self, me: u64) {
        let mut s = self.lock();
        let held = s.running == Some(me);
        if let Some(a) = s.actors.get_mut(&me) {
            a.run = RunState::Done;
        }
        for a in s.actors.values_mut() {
            if a.run == (RunState::JoinWait { target: me }) {
                a.run = RunState::Runnable;
            }
        }
        if held {
            s.running = None;
            s.schedule();
        }
        drop(s);
        self.cv.notify_all();
    }

    /// The main actor leaves the sim. Detached actors that exit on their
    /// own once their channels disconnect (link delivery threads) get a
    /// bounded window of virtual time to drain; anything still live after
    /// that is a harness bug and panics (unless we are already unwinding,
    /// in which case remaining actors stay parked so the process does not
    /// spin).
    pub(crate) fn exit_main(&self, me: u64) {
        const DRAIN_STEP_NS: u64 = 100_000; // 100µs of virtual time per round
        const DRAIN_ROUNDS: u32 = 1_000;
        if !std::thread::panicking() {
            for _ in 0..DRAIN_ROUNDS {
                let live = {
                    let s = self.lock();
                    s.actors
                        .iter()
                        .any(|(id, a)| *id != me && a.run != RunState::Done)
                };
                if !live {
                    break;
                }
                self.sleep_virtual(me, DRAIN_STEP_NS);
            }
        }
        let mut s = self.lock();
        if let Some(a) = s.actors.get_mut(&me) {
            a.run = RunState::Done;
        }
        if s.running == Some(me) {
            s.running = None;
        }
        let live: Vec<String> = s
            .actors
            .iter()
            .filter(|(_, a)| a.run != RunState::Done)
            .map(|(id, a)| format!("actor {} ({}): {:?}", id, a.name, a.run))
            .collect();
        drop(s);
        if !live.is_empty() {
            if std::thread::panicking() {
                return; // leave them parked; do not double-panic
            }
            panic!(
                "sim exited with live actors (join/stop them before dropping the guard): {}",
                live.join(", ")
            );
        }
    }
}

impl std::fmt::Debug for SimState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimState(seed={})", self.seed)
    }
}
