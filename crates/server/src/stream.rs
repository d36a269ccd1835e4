//! Transport seam under the connection threads.
//!
//! Every connection is served by threads that block on its transport: one
//! parked in [`ByteStream::read`] for requests, one writing responses (see
//! [`crate::server`]). Two implementations:
//!
//! * [`TcpByteStream`] — a `std::net::TcpStream`. The server keeps accepted
//!   sockets blocking for life: its reader and writer hold `try_clone`s of
//!   one socket, which share the file description, so flipping one of them
//!   to non-blocking for a single wait would flip both. The client's socket
//!   is non-blocking, and each of its waits is one `ppoll(2)`.
//! * [`ChanByteStream`] — a pair of [`rt_channel`]s carrying byte chunks,
//!   so a whole server + client fleet runs in-process and, under
//!   [`Runtime::sim`](aether_core::runtime::Runtime::sim), deterministically:
//!   chunk delivery order is scheduler order, which is seed order.

use aether_core::runtime::{rt_channel, RtReceiver, RtSender};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

/// What a read observed.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes were appended to the buffer.
    Bytes(usize),
    /// Nothing available right now.
    WouldBlock,
    /// Peer closed the stream (no more bytes will ever arrive).
    Closed,
}

/// A bidirectional, message-boundary-free byte pipe.
pub trait ByteStream: Send {
    /// Append whatever bytes are available onto `buf`; never waits on a
    /// non-blocking stream.
    fn read_some(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome>;

    /// Block until bytes arrive (appending them to `buf`) or the stream
    /// closes; never returns `WouldBlock`.
    fn read(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome>;

    /// Block up to `timeout` for readable bytes, appending them to `buf`.
    fn read_wait(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<ReadOutcome>;

    /// Write all of `bytes`, blocking while the peer's buffers are full.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Close the stream: the peer observes `Closed` after draining.
    fn close(&mut self);
}

/// A server connection split for its two threads, plus what
/// [`Server::shutdown`](crate::Server::shutdown) keeps to end it from a third.
pub(crate) struct Halves {
    pub(crate) input: Box<dyn ByteStream>,
    pub(crate) output: Box<dyn ByteStream>,
    pub(crate) closer: Closer,
}

/// Ends a connection from any thread, waking a reader blocked on it.
pub(crate) enum Closer {
    /// `shutdown(Both)` on a clone of the socket.
    Tcp(TcpStream),
    /// A second sender into the server's input, for an end-of-stream chunk.
    Chan(RtSender<Vec<u8>>),
}

impl Closer {
    pub(crate) fn close(&self) {
        match self {
            Closer::Tcp(sock) => {
                let _ = sock.shutdown(Shutdown::Both);
            }
            Closer::Chan(tx) => {
                tx.send(Vec::new());
            }
        }
    }
}

/// [`ByteStream`] over a TCP socket.
pub struct TcpByteStream {
    sock: TcpStream,
    scratch: Box<[u8; 64 * 1024]>,
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

// std links libc already; `ppoll` is `poll` with a nanosecond time-out, where
// `SO_RCVTIMEO` waits whole scheduler ticks.
extern "C" {
    fn ppoll(fds: *mut PollFd, n: c_ulong, timeout: *const Timespec, mask: *const c_void) -> c_int;
}

impl TcpByteStream {
    /// Wrap a client socket, switching it to non-blocking mode and disabling
    /// Nagle (frames are small and latency-sensitive; batching is the
    /// group-commit gate's job, not the kernel's).
    pub fn new(sock: TcpStream) -> io::Result<TcpByteStream> {
        sock.set_nonblocking(true)?;
        Self::wrap(sock)
    }

    fn wrap(sock: TcpStream) -> io::Result<TcpByteStream> {
        sock.set_nodelay(true)?;
        Ok(TcpByteStream {
            sock,
            scratch: Box::new([0u8; 64 * 1024]),
        })
    }

    /// Split an accepted socket, left blocking, for the server's threads.
    pub(crate) fn halves(sock: TcpStream) -> io::Result<Halves> {
        Ok(Halves {
            input: Box::new(Self::wrap(sock.try_clone()?)?),
            output: Box::new(Self::wrap(sock.try_clone()?)?),
            closer: Closer::Tcp(sock),
        })
    }

    /// Park until the socket is ready for `events` or `timeout` (`None`: no
    /// limit) has passed; whether it is ready.
    fn park(&self, events: c_short, timeout: Option<Duration>) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: self.sock.as_raw_fd(),
            events,
            revents: 0,
        };
        let ts = timeout.map(|t| Timespec {
            tv_sec: t.as_secs() as c_long,
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let ts = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fd` and `ts` outlive the call; a null mask keeps the mask.
        match unsafe { ppoll(&mut fd, 1, ts, std::ptr::null()) } {
            n if n >= 0 => Ok(fd.revents != 0),
            _ => match io::Error::last_os_error() {
                e if e.kind() == io::ErrorKind::Interrupted => Ok(false),
                e => Err(e),
            },
        }
    }
}

impl ByteStream for TcpByteStream {
    fn read_some(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
        match self.sock.read(&mut self.scratch[..]) {
            Ok(0) => Ok(ReadOutcome::Closed),
            Ok(n) => {
                buf.extend_from_slice(&self.scratch[..n]);
                Ok(ReadOutcome::Bytes(n))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(ReadOutcome::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(ReadOutcome::WouldBlock),
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionReset
                    || e.kind() == io::ErrorKind::BrokenPipe =>
            {
                Ok(ReadOutcome::Closed)
            }
            Err(e) => Err(e),
        }
    }

    fn read(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
        // A blocking socket waits inside `read_some`; a non-blocking one here.
        loop {
            match self.read_some(buf)? {
                ReadOutcome::WouldBlock => {
                    self.park(POLLIN, None)?;
                }
                done => return Ok(done),
            }
        }
    }

    fn read_wait(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<ReadOutcome> {
        if self.park(POLLIN, Some(timeout))? {
            self.read_some(buf)
        } else {
            Ok(ReadOutcome::WouldBlock)
        }
    }

    fn write_all(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match self.sock.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                // Send buffer full on a non-blocking socket: the peer is
                // slower than us.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.park(POLLOUT, None)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn close(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// [`ByteStream`] over a pair of runtime-aware channels carrying byte
/// chunks. Each `write_all` becomes one chunk; the reader re-buffers, so
/// frame boundaries are *not* preserved — exactly like TCP. An empty chunk
/// is end-of-stream: a closing end sends one, because the server keeps a
/// second sender into its input (to end a blocked read at shutdown), and
/// that keeps the channel connected.
pub struct ChanByteStream {
    tx: Option<RtSender<Vec<u8>>>,
    rx: Option<RtReceiver<Vec<u8>>>,
}

/// A connected pair of in-process byte streams (client end, server end).
pub fn chan_pair() -> (ChanByteStream, ChanByteStream) {
    let (atx, arx) = rt_channel::<Vec<u8>>();
    let (btx, brx) = rt_channel::<Vec<u8>>();
    (
        ChanByteStream {
            tx: Some(atx),
            rx: Some(brx),
        },
        ChanByteStream {
            tx: Some(btx),
            rx: Some(arx),
        },
    )
}

/// An in-process connection: the client's end, and the server's end split
/// for its threads.
pub(crate) fn chan_conn() -> (ChanByteStream, Halves) {
    let (client, mut server) = chan_pair();
    let to_server = client.tx.clone().expect("a new stream is open");
    let halves = Halves {
        input: Box::new(ChanByteStream {
            tx: None,
            rx: server.rx.take(),
        }),
        output: Box::new(ChanByteStream {
            tx: server.tx.take(),
            rx: None,
        }),
        closer: Closer::Chan(to_server),
    };
    (client, halves)
}

impl ChanByteStream {
    /// Append `next` and every chunk queued behind it onto `buf`.
    fn absorb(&mut self, mut next: Option<Vec<u8>>, buf: &mut Vec<u8>) -> ReadOutcome {
        let mut n = 0;
        while let Some(chunk) = next {
            if chunk.is_empty() {
                self.rx = None;
                break;
            }
            n += chunk.len();
            buf.extend_from_slice(&chunk);
            next = self.rx.as_ref().and_then(|rx| rx.try_recv());
        }
        match &self.rx {
            _ if n > 0 => ReadOutcome::Bytes(n),
            Some(rx) if !rx.is_disconnected() => ReadOutcome::WouldBlock,
            _ => ReadOutcome::Closed,
        }
    }
}

impl ByteStream for ChanByteStream {
    fn read_some(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
        let chunk = self.rx.as_ref().and_then(|rx| rx.try_recv());
        Ok(self.absorb(chunk, buf))
    }

    fn read(&mut self, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
        let chunk = self.rx.as_ref().and_then(|rx| rx.recv());
        Ok(self.absorb(chunk, buf))
    }

    fn read_wait(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<ReadOutcome> {
        // Parks on the channel condvar (virtual time under sim).
        let chunk = self.rx.as_ref().and_then(|rx| rx.recv_timeout(timeout));
        Ok(self.absorb(chunk, buf))
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match &self.tx {
            // An empty chunk would read as end-of-stream.
            Some(_) if bytes.is_empty() => Ok(()),
            Some(tx) if tx.send(bytes.to_vec()) => Ok(()),
            _ => Err(io::ErrorKind::BrokenPipe.into()),
        }
    }

    fn close(&mut self) {
        // The peer drains what was sent, then reads the end-of-stream chunk;
        // dropping the receiver makes the peer's writes fail fast.
        if let Some(tx) = self.tx.take() {
            tx.send(Vec::new());
        }
        self.rx = None;
    }
}

impl Drop for ChanByteStream {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chan_pair_roundtrips_and_closes() {
        let (mut a, mut b) = chan_pair();
        a.write_all(&[1, 2, 3]).unwrap();
        a.write_all(&[4]).unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.read_some(&mut buf).unwrap(), ReadOutcome::Bytes(4));
        assert_eq!(buf, vec![1, 2, 3, 4]);
        assert_eq!(b.read_some(&mut buf).unwrap(), ReadOutcome::WouldBlock);
        a.close();
        assert_eq!(b.read_some(&mut buf).unwrap(), ReadOutcome::Closed);
        assert!(b.write_all(&[9]).is_err());
    }
}
