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
//! Forgetting a failed claim is O(1): its place in the claim order is
//! skipped when eviction reaches it, as is one a later claim of the same
//! id has replaced.

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
    /// Each id's entry, and the number of the claim that made it.
    map: HashMap<u64, (u64, Entry)>,
    /// Claims in order, `(id, claim number)`, for capacity eviction. A
    /// claim whose id was forgotten or claimed again is stale: it stays
    /// until eviction passes it, or a compaction drops it.
    order: VecDeque<(u64, u64)>,
    /// The next claim's number.
    claims: u64,
}

/// Whether a claim `(id, claim number)` still holds its id's entry.
fn live(map: &HashMap<u64, (u64, Entry)>, (id, claim): (u64, u64)) -> bool {
    map.get(&id).is_some_and(|&(c, _)| c == claim)
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
                claims: 0,
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
            Some((_, Entry::Done(token))) => return Claim::Done(*token),
            Some((_, Entry::InFlight)) => return Claim::InFlight,
            None => {}
        }
        let claim = g.claims;
        g.claims += 1;
        g.map.insert(req_id, (claim, Entry::InFlight));
        g.order.push_back((req_id, claim));
        // Stale claims beyond twice the window go in one pass: O(1) a
        // claim, amortized.
        if g.order.len() > 2 * self.capacity {
            let Inner { map, order, .. } = &mut *g;
            order.retain(|&e| live(map, e));
        }
        // Evict the oldest *completed* entries over capacity; in-flight
        // ones must survive until their commit settles them.
        let mut at = 0;
        while g.map.len() > self.capacity && at < g.order.len() {
            let (id, claim) = g.order[at];
            if !live(&g.map, (id, claim)) {
                g.order.remove(at);
            } else if let Some((_, Entry::Done(_))) = g.map.get(&id) {
                g.map.remove(&id);
                g.order.remove(at);
            } else {
                at += 1;
            }
        }
        Claim::New
    }

    /// Record a committed outcome for a claimed id (no-op when ineligible).
    pub fn complete(&self, req_id: u64, token: u64) {
        if !Self::eligible(req_id) {
            return;
        }
        if let Some((_, entry)) = lock(&self.inner).map.get_mut(&req_id) {
            *entry = Entry::Done(token);
        }
    }

    /// Drop a claimed id whose execution failed, so a retry re-executes.
    /// O(1): its claim in the eviction order goes stale.
    pub fn forget(&self, req_id: u64) {
        if !Self::eligible(req_id) {
            return;
        }
        lock(&self.inner).map.remove(&req_id);
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

    #[test]
    fn a_forgotten_claim_leaves_eviction_to_the_ids_later_claim() {
        let d = CommitDedup::new(2);
        let (a, b, c) = ((1u64 << 32) | 1, (1u64 << 32) | 2, (1u64 << 32) | 3);
        assert_eq!(d.claim(a), Claim::New);
        d.forget(a);
        assert_eq!(d.claim(b), Claim::New);
        d.complete(b, 20);
        // A's live claim is now younger than B's.
        assert_eq!(d.claim(a), Claim::New);
        d.complete(a, 10);
        assert_eq!(d.claim(c), Claim::New);
        d.complete(c, 30);
        // Over capacity: the oldest live completed claim is B's, not A's
        // forgotten first one.
        assert_eq!(d.claim(a), Claim::Done(10));
        assert_eq!(d.claim(c), Claim::Done(30));
        assert_eq!(d.claim(b), Claim::New, "B evicted: re-executes");
    }

    #[test]
    fn forgotten_claims_do_not_pile_up() {
        let d = CommitDedup::new(4);
        for n in 1..=1000u64 {
            let id = (1u64 << 32) | n;
            assert_eq!(d.claim(id), Claim::New);
            d.forget(id);
        }
        assert!(lock(&d.inner).order.len() <= 8);
    }
}
