//! A pipelining wire client.
//!
//! [`Client::send`] enqueues a request and returns immediately with its
//! request id; [`Client::recv`] blocks for the next response. Because the
//! server answers strictly in request order, a caller that keeps a window
//! of W requests in flight gets W-deep pipelining with purely positional
//! matching — the 1-op-per-round-trip caller is just W = 1.

use crate::protocol::{extract_response, Extracted, Request, Response};
use crate::stream::{ByteStream, ReadOutcome};
use aether_core::runtime::monotonic_ns;
use std::io;
use std::time::Duration;

/// A client over any [`ByteStream`].
pub struct Client {
    stream: Box<dyn ByteStream>,
    inbuf: Vec<u8>,
    next_req: u64,
}

impl Client {
    /// Wrap an already-connected stream.
    pub fn new(stream: Box<dyn ByteStream>) -> Client {
        Client {
            stream,
            inbuf: Vec::new(),
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

    /// Send `req`, returning the request id it was framed with.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_req;
        self.next_req += 1;
        self.stream.write_all(&req.encode(id))?;
        Ok(id)
    }

    /// Send `req` framed with a caller-chosen request id — the retry path:
    /// a re-sent request must carry the *same* id so the server's dedup
    /// window can recognize it (see [`crate::dedup`]).
    pub fn send_with_id(&mut self, req: &Request, id: u64) -> io::Result<()> {
        self.stream.write_all(&req.encode(id))
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
    /// still made, so a deadline of 0 is a poll.
    fn recv_until(&mut self, deadline: Option<u64>) -> io::Result<Option<(u64, Response)>> {
        loop {
            match extract_response(&mut self.inbuf) {
                Extracted::Msg { req_id, msg } => return Ok(Some((req_id, msg))),
                Extracted::Corrupt => {
                    self.stream.close();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "corrupt response frame",
                    ));
                }
                Extracted::NeedMore => {
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

    /// Close the connection.
    pub fn close(&mut self) {
        self.stream.close();
    }

    /// Surrender the underlying stream (for tests that need to push raw —
    /// possibly malformed — bytes past the framing layer).
    pub fn into_stream(self) -> Box<dyn ByteStream> {
        self.stream
    }
}
