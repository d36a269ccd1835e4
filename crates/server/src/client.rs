//! A pipelining wire client.
//!
//! [`Client::send`] enqueues a request and returns immediately with its
//! request id; [`Client::recv`] blocks for the next response. Because the
//! server answers strictly in request order, a caller that keeps a window
//! of W requests in flight gets W-deep pipelining with purely positional
//! matching — the 1-op-per-round-trip caller is just W = 1.
//!
//! Requests are batched on the way in, as acks are on the way out: `send`
//! appends the frame to an out-buffer, which leaves in one `write_all` just
//! before the client reads the socket (`recv`, `try_recv`, `recv_timeout`,
//! so `call`), on [`Client::flush`], [`Client::close`] and
//! [`Client::into_stream`], and from the `send` that fills it to 64 KiB (a
//! caller that never reads still blocks once the socket is full). A closed
//! loop that takes in k responses and sends k requests writes once; an open
//! loop's `try_recv` writes its request before looking for answers.
//!
//! A failed write surfaces from the call that made it (the next read,
//! `flush`, or the `send` that filled the buffer); `close` and `into_stream`
//! drop it. Dropping a client does *not* flush — blocking in a destructor is
//! worse than losing requests the caller never flushed.

use crate::protocol::{response_at, Extracted, Request, Response};
use crate::stream::{ByteStream, ReadOutcome};
use aether_core::runtime::monotonic_ns;
use std::io;
use std::time::Duration;

/// Out-buffer size at which `send` writes it out without waiting for a read.
const OUT_LIMIT: usize = 64 * 1024;

/// A client over any [`ByteStream`].
pub struct Client {
    stream: Box<dyn ByteStream>,
    inbuf: Vec<u8>,
    /// Bytes at the front of `inbuf` already decoded; drained before the
    /// next read, so a batch of responses costs one move.
    taken: usize,
    /// Encoded requests not yet written (see the module docs).
    out: Vec<u8>,
    next_req: u64,
}

impl Client {
    /// Wrap an already-connected stream.
    pub fn new(stream: Box<dyn ByteStream>) -> Client {
        Client {
            stream,
            inbuf: Vec::new(),
            taken: 0,
            out: Vec::new(),
            next_req: 0,
        }
    }

    /// Connect over TCP.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> io::Result<Client> {
        let sock = std::net::TcpStream::connect(addr)?;
        Ok(Client::new(Box::new(crate::stream::TcpByteStream::new(
            sock,
        )?)))
    }

    /// Queue `req`, returning the request id it was framed with.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_req;
        self.next_req += 1;
        self.send_with_id(req, id)?;
        Ok(id)
    }

    /// Queue `req` framed with a caller-chosen request id — the retry path:
    /// a re-sent request must carry the *same* id so the server's dedup
    /// window can recognize it (see [`crate::dedup`]).
    pub fn send_with_id(&mut self, req: &Request, id: u64) -> io::Result<()> {
        req.encode_into(id, &mut self.out);
        if self.out.len() >= OUT_LIMIT {
            return self.flush();
        }
        Ok(())
    }

    /// Write every queued request now, in one call.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written
    }

    /// Non-blocking poll for the next response.
    pub fn try_recv(&mut self) -> io::Result<Option<(u64, Response)>> {
        self.recv_until(Some(0))
    }

    /// Block for the next response. The wait parks on the transport's
    /// blocking primitive ([`ByteStream::read`]) — a channel condvar
    /// in-process (virtual time under sim), `ppoll(2)` on TCP — so dozens of
    /// waiting clients cost no CPU.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        Ok(self.recv_until(None)?.expect("no deadline, so a response"))
    }

    /// Block for the next response for at most `timeout`; `Ok(None)` on
    /// timeout. The wait is charged against [`aether_core::runtime`] time,
    /// so it is virtual under sim like every other timeout in the system.
    pub fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(u64, Response)>> {
        self.recv_until(Some(
            monotonic_ns().saturating_add(timeout.as_nanos() as u64),
        ))
    }

    /// The next response, reading for it until `deadline` on the runtime
    /// clock (`None`: for ever). Past the deadline one non-blocking read is
    /// still made, so a deadline of 0 is a poll. Queued requests are written
    /// before any read.
    fn recv_until(&mut self, deadline: Option<u64>) -> io::Result<Option<(u64, Response)>> {
        loop {
            match response_at(&self.inbuf, &mut self.taken) {
                Extracted::Msg { req_id, msg } => return Ok(Some((req_id, msg))),
                Extracted::Corrupt => {
                    self.stream.close();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "corrupt response frame",
                    ));
                }
                Extracted::NeedMore => {
                    self.inbuf.drain(..self.taken);
                    self.taken = 0;
                    self.flush()?;
                    let left = deadline.map(|d| d.saturating_sub(monotonic_ns()));
                    let read = match left {
                        None => self.stream.read(&mut self.inbuf)?,
                        Some(0) => self.stream.read_some(&mut self.inbuf)?,
                        Some(ns) => self
                            .stream
                            .read_wait(&mut self.inbuf, Duration::from_nanos(ns))?,
                    };
                    match read {
                        ReadOutcome::Closed => return Err(io::ErrorKind::ConnectionAborted.into()),
                        ReadOutcome::WouldBlock if left == Some(0) => return Ok(None),
                        ReadOutcome::Bytes(_) | ReadOutcome::WouldBlock => {}
                    }
                }
            }
        }
    }

    /// One blocking round trip.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let id = self.send(req)?;
        let (rid, resp) = self.recv()?;
        if rid != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {rid} for request {id} (ordering violated)"),
            ));
        }
        Ok(resp)
    }

    /// Write what is queued, then close the connection.
    pub fn close(&mut self) {
        let _ = self.flush();
        self.stream.close();
    }

    /// Write what is queued, then surrender the underlying stream (for tests
    /// that need to push raw — possibly malformed — bytes past the framing
    /// layer).
    pub fn into_stream(mut self) -> Box<dyn ByteStream> {
        let _ = self.flush();
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::extract_request;
    use crate::stream::{chan_pair, ChanByteStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The client end of a pipe, counting `write_all` calls.
    struct Counted {
        inner: ChanByteStream,
        writes: Arc<AtomicUsize>,
    }

    impl ByteStream for Counted {
        fn read_some(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
            self.inner.read_some(buf)
        }
        fn read(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
            self.inner.read(buf)
        }
        fn read_wait(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<ReadOutcome> {
            self.inner.read_wait(buf, timeout)
        }
        fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.inner.write_all(bytes)
        }
        fn close(&mut self) {
            self.inner.close()
        }
    }

    /// A client, the peer end of its pipe, and the client's write count.
    fn counted() -> (Client, ChanByteStream, Arc<AtomicUsize>) {
        let (inner, peer) = chan_pair();
        let writes = Arc::new(AtomicUsize::new(0));
        let stream = Counted {
            inner,
            writes: Arc::clone(&writes),
        };
        (Client::new(Box::new(stream)), peer, writes)
    }

    /// The request ids that have reached `peer`, in arrival order.
    fn arrived(peer: &mut ChanByteStream) -> Vec<u64> {
        let mut buf = Vec::new();
        let _ = peer.read_some(&mut buf).unwrap();
        let mut ids = Vec::new();
        while let Extracted::Msg { req_id, .. } = extract_request(&mut buf) {
            ids.push(req_id);
        }
        assert!(buf.is_empty(), "only whole frames arrive");
        ids
    }

    #[test]
    fn sixty_four_sends_then_a_recv_make_one_write() {
        let (mut client, mut peer, writes) = counted();
        for _ in 0..64 {
            client.send(&Request::Ping).unwrap();
        }
        assert_eq!(writes.load(Ordering::Relaxed), 0);
        peer.write_all(&Response::Pong.encode(0)).unwrap();
        assert_eq!(client.recv().unwrap(), (0, Response::Pong));
        assert_eq!(writes.load(Ordering::Relaxed), 1);
        assert_eq!(arrived(&mut peer), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_writes_the_request_before_it_returns() {
        let (mut client, mut peer, writes) = counted();
        let id = client.send(&Request::Ping).unwrap();
        assert_eq!(client.try_recv().unwrap(), None);
        assert_eq!(writes.load(Ordering::Relaxed), 1);
        assert_eq!(arrived(&mut peer), vec![id]);
    }

    #[test]
    fn every_read_and_close_path_writes_what_is_queued() {
        type Op = fn(Client) -> Option<Client>;
        let paths: [(&str, Op); 4] = [
            ("recv_timeout", |mut c| {
                let got = c.recv_timeout(Duration::from_millis(1)).unwrap();
                assert_eq!(got, None);
                Some(c)
            }),
            ("flush", |mut c| {
                c.flush().unwrap();
                Some(c)
            }),
            ("close", |mut c| {
                c.close();
                Some(c)
            }),
            ("into_stream", |c| {
                drop(c.into_stream());
                None
            }),
        ];
        for (name, op) in paths {
            let (mut client, mut peer, writes) = counted();
            let a = client.send(&Request::Ping).unwrap();
            let b = client.send(&Request::Begin).unwrap();
            let kept = op(client);
            assert_eq!(writes.load(Ordering::Relaxed), 1, "{name}");
            assert_eq!(arrived(&mut peer), vec![a, b], "{name}");
            drop(kept);
        }
    }

    #[test]
    fn a_send_only_burst_writes_itself_out_at_the_limit() {
        let (mut client, mut peer, writes) = counted();
        let update = Request::Update {
            txn: 0,
            table: 0,
            key: 1,
            value: vec![7; 1024],
        };
        let frame = update.encode(0).len();
        let sends = OUT_LIMIT.div_ceil(frame);
        for i in 0..sends {
            assert_eq!(writes.load(Ordering::Relaxed), 0, "send {i} wrote early");
            client.send(&update).unwrap();
        }
        assert_eq!(writes.load(Ordering::Relaxed), 1);
        assert_eq!(arrived(&mut peer).len(), sends);
        client.send(&update).unwrap();
        assert_eq!(writes.load(Ordering::Relaxed), 1, "the next send is queued");
    }
}
