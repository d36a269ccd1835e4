//! An unbounded MPSC channel built on [`RtCondvar`], so blocking receives
//! are runtime-aware: real threads park in the OS, sim actors park in the
//! scheduler under virtual time. Replaces `std::sync::mpsc` everywhere a
//! receiver may block inside a simulated cluster.

use super::{lock, monotonic_ns, RtCondvar};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Inner<T> {
    q: VecDeque<T>,
    senders: usize,
    rx_alive: bool,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    cv: RtCondvar,
}

/// Sending half of [`rt_channel`]. Cloneable; the channel disconnects when
/// every sender is dropped.
pub struct RtSender<T> {
    sh: Arc<Shared<T>>,
}

/// Receiving half of [`rt_channel`].
pub struct RtReceiver<T> {
    sh: Arc<Shared<T>>,
}

/// An unbounded runtime-aware MPSC channel.
pub fn rt_channel<T>() -> (RtSender<T>, RtReceiver<T>) {
    let sh = Arc::new(Shared {
        inner: Mutex::new(Inner {
            q: VecDeque::new(),
            senders: 1,
            rx_alive: true,
        }),
        cv: RtCondvar::new(),
    });
    (
        RtSender {
            sh: Arc::clone(&sh),
        },
        RtReceiver { sh },
    )
}

impl<T> RtSender<T> {
    /// Enqueue `v`. Returns `false` (dropping `v`) if the receiver is gone.
    pub fn send(&self, v: T) -> bool {
        {
            let mut g = lock(&self.sh.inner);
            if !g.rx_alive {
                return false;
            }
            g.q.push_back(v);
        }
        self.sh.cv.notify_all();
        true
    }
}

impl<T> Clone for RtSender<T> {
    fn clone(&self) -> Self {
        lock(&self.sh.inner).senders += 1;
        RtSender {
            sh: Arc::clone(&self.sh),
        }
    }
}

impl<T> Drop for RtSender<T> {
    fn drop(&mut self) {
        let last = {
            let mut g = lock(&self.sh.inner);
            g.senders -= 1;
            g.senders == 0
        };
        if last {
            self.sh.cv.notify_all();
        }
    }
}

impl<T> Drop for RtReceiver<T> {
    fn drop(&mut self) {
        lock(&self.sh.inner).rx_alive = false;
    }
}

impl<T> RtReceiver<T> {
    /// Dequeue without blocking.
    pub fn try_recv(&self) -> Option<T> {
        lock(&self.sh.inner).q.pop_front()
    }

    /// Block until a message arrives; `None` once the channel is empty and
    /// every sender is gone.
    pub fn recv(&self) -> Option<T> {
        let mut g = lock(&self.sh.inner);
        loop {
            if let Some(v) = g.q.pop_front() {
                return Some(v);
            }
            if g.senders == 0 {
                return None;
            }
            g = self.sh.cv.wait(&self.sh.inner, g);
        }
    }

    /// Block up to `timeout` for a message; `None` on timeout, or at once
    /// when the channel is empty and every sender is gone (check
    /// [`RtReceiver::is_disconnected`] to tell apart).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline =
            monotonic_ns().saturating_add(u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX));
        let mut g = lock(&self.sh.inner);
        loop {
            if let Some(v) = g.q.pop_front() {
                return Some(v);
            }
            let now = monotonic_ns();
            if g.senders == 0 || now >= deadline {
                return None;
            }
            let (g2, _) =
                self.sh
                    .cv
                    .wait_for(&self.sh.inner, g, Duration::from_nanos(deadline - now));
            g = g2;
        }
    }

    /// Take every queued message at once without blocking. Connection
    /// teardown uses this to flush a closing socket's request queue in one
    /// deterministic step — the alternative (`try_recv` until `None`) races
    /// with in-flight `send`s, so a message enqueued between the last pop
    /// and the receiver's drop would be silently stranded mid-shutdown.
    pub fn drain(&self) -> Vec<T> {
        let mut g = lock(&self.sh.inner);
        g.q.drain(..).collect()
    }

    /// Whether every sender has been dropped (pending messages may remain).
    pub fn is_disconnected(&self) -> bool {
        lock(&self.sh.inner).senders == 0
    }
}

impl<T> std::fmt::Debug for RtSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RtSender(..)")
    }
}

impl<T> std::fmt::Debug for RtReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RtReceiver(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = rt_channel::<u32>();
        assert!(tx.send(1));
        assert!(tx.send(2));
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
        drop(tx);
        assert_eq!(rx.recv(), None, "disconnect drains to None");
        assert!(rx.is_disconnected());
    }

    #[test]
    fn drain_takes_everything_queued() {
        let (tx, rx) = rt_channel::<u32>();
        for i in 0..4 {
            assert!(tx.send(i));
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3]);
        assert_eq!(rx.try_recv(), None);
        assert!(tx.send(9), "channel still usable after drain");
        assert_eq!(rx.drain(), vec![9]);
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = rt_channel::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None);
        assert!(!rx.is_disconnected());
        drop(tx);
    }

    #[test]
    fn dropped_receiver_rejects_sends() {
        let (tx, rx) = rt_channel::<u32>();
        drop(rx);
        assert!(!tx.send(9));
    }

    #[test]
    fn works_under_sim() {
        let rt = Runtime::sim(11);
        let g = rt.enter();
        let (tx, rx) = rt_channel::<u64>();
        let h = rt.spawn("producer", move || {
            for i in 0..5u64 {
                crate::runtime::sleep(Duration::from_micros(50));
                assert!(tx.send(i));
            }
        });
        let mut got = Vec::new();
        while got.len() < 5 {
            if let Some(v) = rx.recv_timeout(Duration::from_millis(1)) {
                got.push(v);
            }
        }
        h.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        drop(g);
    }
}
