//! In-process links with injectable latency and deterministic reordering.
//!
//! Replication runs offline and deterministically: a [`link`] is a sending
//! endpoint joined to its receiver by a delivery thread that holds each
//! message for the configured one-way latency (latency, not bandwidth:
//! messages overlap in flight, like the paper's high-resolution-timer device
//! model), can deterministically reorder every Nth message behind its
//! successor — which is exactly what the frame sequence numbers on the
//! receive side must absorb — and then hands it to the receiver by calling
//! it, on the delivery thread. A link has no receiving queue: the message is
//! handled where it lands.
//!
//! All timing goes through [`aether_core::runtime`], so under a simulated
//! runtime the delivery thread becomes a sim actor, the latency is virtual,
//! and a partitioned or slow link is just a fault the simulation can inject
//! and replay byte-identically.

use aether_core::runtime::{self, rt_channel, RtSender, Runtime, WaitSet};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared kill-switch for one or more links: while *cut*, delivery stalls
/// (messages queue at the link, none are lost) until [`LinkChaos::heal`] —
/// the network-partition-then-heal fault. Clone the handle into every
/// [`LinkConfig`] that should partition together (a replica's frame link
/// and its ack link share the one in `ReplicationConfig::link`), keep a
/// clone, and flip it from the test or the simulator.
#[derive(Debug, Clone, Default)]
pub struct LinkChaos {
    inner: Arc<Partition>,
}

#[derive(Debug, Default)]
struct Partition {
    cut: AtomicBool,
    /// Delivery threads parked on a cut link.
    healed: WaitSet,
}

impl LinkChaos {
    /// Partition: every link holding this handle stops delivering.
    pub fn cut(&self) {
        self.inner.cut.store(true, Ordering::SeqCst);
    }

    /// Heal: held-up messages drain in their original order, from now.
    pub fn heal(&self) {
        self.inner.cut.store(false, Ordering::SeqCst);
        self.inner.healed.notify();
    }

    /// Park until the partition is healed (at once if there is none).
    fn wait_healed(&self) {
        let healed = || (!self.inner.cut.load(Ordering::SeqCst)).then_some(());
        self.inner.healed.wait_until(None, healed);
    }
}

/// Link tuning: one-way latency plus deterministic reordering.
#[derive(Debug, Clone, Default)]
pub struct LinkConfig {
    /// One-way delivery latency.
    pub latency: Duration,
    /// When non-zero, every `reorder_period`-th message is delivered *after*
    /// its successor (0 disables reordering). Deterministic, so tests
    /// reproduce exactly.
    pub reorder_period: usize,
    /// Runtime the delivery thread runs under (real by default; the
    /// simulated cluster injects its [`Runtime::sim`] here).
    pub runtime: Runtime,
    /// Partition switch shared by every link built from this config.
    pub chaos: LinkChaos,
}

impl LinkConfig {
    /// A link with `us` microseconds of one-way latency, no reordering.
    pub fn with_latency_us(us: u64) -> LinkConfig {
        LinkConfig {
            latency: Duration::from_micros(us),
            ..LinkConfig::default()
        }
    }

    /// Builder-style setter for the runtime.
    pub fn with_runtime(mut self, runtime: Runtime) -> LinkConfig {
        self.runtime = runtime;
        self
    }
}

/// Sending half of a link.
pub struct LinkSender<T: Send> {
    tx: RtSender<(u64, T)>,
}

impl<T: Send> LinkSender<T> {
    /// Send a message; returns false once the receiving side is gone.
    pub fn send(&self, msg: T) -> bool {
        self.tx.send((runtime::monotonic_ns(), msg))
    }
}

/// Build a one-directional link that hands each message to `deliver` on its
/// delivery thread. `deliver` returns false when the receiver is gone: the
/// thread then exits, and later sends return false. It also exits when the
/// sender is dropped and the in-flight queue drains.
pub fn link<T: Send + 'static>(
    cfg: LinkConfig,
    mut deliver: impl FnMut(T) -> bool + Send + 'static,
) -> LinkSender<T> {
    let (in_tx, in_rx) = rt_channel::<(u64, T)>();
    let latency = cfg.latency;
    let period = cfg.reorder_period;
    let chaos = cfg.chaos.clone();
    // A held-back message is flushed anyway once no successor overtakes it
    // in time — real networks delay packets, they don't park them forever.
    let hold_flush = Duration::from_millis(1).max(latency * 2);
    cfg.runtime.spawn("aether-link", move || {
        let mut n: usize = 0;
        // At most one message rides here, waiting to be overtaken.
        let mut held: VecDeque<T> = VecDeque::new();
        loop {
            let received = if held.is_empty() {
                in_rx.recv()
            } else {
                in_rx.recv_timeout(hold_flush)
            };
            match received {
                Some((sent, msg)) => {
                    let deliver_at = sent.saturating_add(latency.as_nanos() as u64);
                    let now = runtime::monotonic_ns();
                    if deliver_at > now {
                        runtime::precise_sleep(Duration::from_nanos(deliver_at - now));
                    }
                    // Partitioned: park here until healed. Later messages
                    // pile up behind this one in the channel — delayed, in
                    // order, never dropped.
                    chaos.wait_healed();
                    n += 1;
                    let reorder_this = period > 0 && n.is_multiple_of(period);
                    if reorder_this && held.is_empty() {
                        held.push_back(msg);
                        continue;
                    }
                    if !deliver(msg) {
                        return;
                    }
                    while let Some(h) = held.pop_front() {
                        if !deliver(h) {
                            return;
                        }
                    }
                }
                None => {
                    // Timeout (no successor overtook the held message) or
                    // sender gone: flush anything held back either way.
                    while let Some(h) = held.pop_front() {
                        if !deliver(h) {
                            return;
                        }
                    }
                    if in_rx.is_disconnected() {
                        return;
                    }
                }
            }
        }
    });
    LinkSender { tx: in_tx }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::runtime::RtReceiver;

    /// A link that delivers into a channel the test reads.
    fn channel_link(cfg: LinkConfig) -> (LinkSender<u32>, RtReceiver<u32>) {
        let (out, rx) = rt_channel();
        (link(cfg, move |m| out.send(m)), rx)
    }

    #[test]
    fn delivers_in_order_without_reordering() {
        let (tx, rx) = channel_link(LinkConfig::default());
        for i in 0..50 {
            assert!(tx.send(i));
        }
        let got: Vec<u32> = (0..50)
            .map(|_| rx.recv_timeout(Duration::from_secs(1)).unwrap())
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn latency_is_charged_once_per_batch_not_per_message() {
        let (tx, rx) = channel_link(LinkConfig::with_latency_us(20_000)); // 20ms
        let t = runtime::monotonic_ns();
        for i in 0..10 {
            tx.send(i);
        }
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        let elapsed_ms = (runtime::monotonic_ns() - t) / 1_000_000;
        assert!(elapsed_ms >= 20, "latency applied");
        assert!(
            elapsed_ms < 150,
            "messages overlap in flight (took {elapsed_ms}ms)"
        );
    }

    #[test]
    fn reordering_swaps_every_nth_message() {
        let (tx, rx) = channel_link(LinkConfig {
            latency: Duration::ZERO,
            reorder_period: 3,
            ..LinkConfig::default()
        });
        for i in 0..9 {
            tx.send(i);
        }
        drop(tx);
        let mut got = Vec::new();
        while let Some(v) = rx.recv_timeout(Duration::from_millis(200)) {
            got.push(v);
        }
        assert_eq!(got.len(), 9);
        assert_ne!(got, (0..9).collect::<Vec<_>>(), "some pair must be swapped");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>(), "nothing lost");
    }

    #[test]
    fn drop_sender_flushes_and_closes() {
        let (tx, rx) = channel_link(LinkConfig {
            latency: Duration::ZERO,
            reorder_period: 2,
            ..LinkConfig::default()
        });
        tx.send(0);
        tx.send(1); // held back by reordering
        drop(tx);
        let mut got = Vec::new();
        while let Some(v) = rx.recv_timeout(Duration::from_millis(200)) {
            got.push(v);
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn a_message_due_during_a_cut_lands_at_the_instant_of_heal() {
        let rt = Runtime::sim(5);
        let g = rt.enter();
        let chaos = LinkChaos::default();
        let (out, rx) = rt_channel();
        let tx = link(
            LinkConfig {
                latency: Duration::from_micros(100),
                runtime: rt.clone(),
                chaos: chaos.clone(),
                ..LinkConfig::default()
            },
            move |m: u32| out.send((m, runtime::monotonic_ns())),
        );
        chaos.cut();
        assert!(tx.send(7));
        // Due at +100 µs, in the cut; heal off any 1 ms grid.
        runtime::sleep(Duration::from_micros(2_345));
        assert_eq!(rx.try_recv(), None, "nothing crosses a cut link");
        let healed_at = runtime::monotonic_ns();
        chaos.heal();
        assert_eq!(rx.recv(), Some((7, healed_at)));
        drop(tx);
        drop(g);
    }
}
