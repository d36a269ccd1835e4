//! Server-side commit deduplication for idempotent client retries.
//!
//! A resilient client retries an auto-commit request after a timeout or a
//! reconnect. But "no response" does not mean "not executed" — the commit
//! may have hardened just as the connection died. Re-executing it would
//! double-apply. The fix is a *dedup window*: clients tag retryable
//! commits with a globally unique request id (a per-session nonce in the
//! high 32 bits, a sequence number in the low 32 — see
//! [`crate::retry::retry_id`]), and the server remembers the outcome of
//! each recently seen id. A retry of a committed request is answered from
//! the window with the *original* commit token, not re-executed: exactly
//! once, as observed by the client.
//!
//! Ids with a zero nonce are never deduplicated — plain clients that
//! number requests 0,1,2,… opt out by construction.
//!
//! The window is engine-wide (retries arrive on *new* connections) and
//! bounded: the oldest completed entries are evicted first; in-flight
//! entries are never evicted. A retry that outlives the window re-executes
//! — the window must be sized to dwarf any plausible retry horizon.

use aether_core::runtime::lock;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Outcome of [`CommitDedup::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// First sighting: the caller owns execution and must eventually call
    /// [`CommitDedup::complete`] or [`CommitDedup::forget`].
    New,
    /// The original attempt is still executing (its commit has not
    /// resolved). The retry should be answered `Busy` — the client backs
    /// off and asks again.
    InFlight,
    /// Already committed, with the recorded commit token: answer with it,
    /// do not re-execute.
    Done(u64),
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    InFlight,
    Done(u64),
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Insertion order, for capacity eviction.
    order: VecDeque<u64>,
}

/// Engine-wide dedup window. See the module docs.
pub struct CommitDedup {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for CommitDedup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitDedup")
            .field("entries", &lock(&self.inner).map.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl CommitDedup {
    /// A window remembering up to `capacity` completed commits.
    pub fn new(capacity: usize) -> CommitDedup {
        CommitDedup {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Whether `req_id` participates in deduplication (nonzero session
    /// nonce in the high 32 bits).
    pub fn eligible(req_id: u64) -> bool {
        req_id >> 32 != 0
    }

    /// Look up (and, when new, reserve) `req_id`. Ineligible ids are always
    /// [`Claim::New`] and never recorded.
    pub fn claim(&self, req_id: u64) -> Claim {
        if !Self::eligible(req_id) {
            return Claim::New;
        }
        let mut g = lock(&self.inner);
        match g.map.get(&req_id) {
            Some(Entry::Done(token)) => return Claim::Done(*token),
            Some(Entry::InFlight) => return Claim::InFlight,
            None => {}
        }
        g.map.insert(req_id, Entry::InFlight);
        g.order.push_back(req_id);
        // Evict the oldest *completed* entries over capacity; in-flight
        // ones must survive until their commit settles them.
        let Inner { map, order } = &mut *g;
        while map.len() > self.capacity {
            let Some(pos) = order
                .iter()
                .position(|id| matches!(map.get(id), Some(Entry::Done(_))))
            else {
                break;
            };
            let id = order.remove(pos).expect("position just found");
            map.remove(&id);
        }
        Claim::New
    }

    /// Record a committed outcome for a claimed id (no-op when ineligible).
    pub fn complete(&self, req_id: u64, token: u64) {
        if !Self::eligible(req_id) {
            return;
        }
        lock(&self.inner).map.insert(req_id, Entry::Done(token));
    }

    /// Drop a claimed id whose execution failed, so a retry re-executes.
    pub fn forget(&self, req_id: u64) {
        if !Self::eligible(req_id) {
            return;
        }
        let mut g = lock(&self.inner);
        g.map.remove(&req_id);
        g.order.retain(|id| *id != req_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: u64 = (7 << 32) | 1;

    #[test]
    fn lifecycle_new_inflight_done() {
        let d = CommitDedup::new(16);
        assert_eq!(d.claim(ID), Claim::New);
        assert_eq!(d.claim(ID), Claim::InFlight);
        d.complete(ID, 4096);
        assert_eq!(d.claim(ID), Claim::Done(4096));
        assert_eq!(d.claim(ID), Claim::Done(4096), "replay is stable");
    }

    #[test]
    fn forget_reopens_execution() {
        let d = CommitDedup::new(16);
        assert_eq!(d.claim(ID), Claim::New);
        d.forget(ID);
        assert_eq!(d.claim(ID), Claim::New);
    }

    #[test]
    fn zero_nonce_opts_out() {
        let d = CommitDedup::new(16);
        assert_eq!(d.claim(3), Claim::New);
        assert_eq!(d.claim(3), Claim::New);
        d.complete(3, 99);
        assert_eq!(d.claim(3), Claim::New);
    }

    #[test]
    fn eviction_spares_inflight_entries() {
        let d = CommitDedup::new(2);
        let id = |n: u64| (1u64 << 32) | n;
        assert_eq!(d.claim(id(1)), Claim::New); // stays in flight
        assert_eq!(d.claim(id(2)), Claim::New);
        d.complete(id(2), 20);
        assert_eq!(d.claim(id(3)), Claim::New);
        d.complete(id(3), 30);
        // Over capacity: the oldest Done (id 2) evicted, in-flight id 1 kept.
        assert_eq!(d.claim(id(4)), Claim::New);
        d.complete(id(4), 40);
        assert_eq!(d.claim(id(1)), Claim::InFlight);
        assert_eq!(d.claim(id(2)), Claim::New, "evicted: re-executes");
    }
}
