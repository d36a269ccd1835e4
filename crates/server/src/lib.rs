//! # aether-server — the wire front-end
//!
//! Everything below this crate runs in-process; this crate puts Aether on
//! a socket. The pieces, bottom-up:
//!
//! * [`protocol`] — length-prefixed, CRC32-framed request/response
//!   messages (begin / read / update / commit / abort, plus scan and
//!   ping), following the framing idiom of `aether-repl::frame`. A corrupt
//!   frame kills the connection; it never kills the server or strands a
//!   lock.
//! * [`stream`] — the transport seam: TCP for real serving, an
//!   `rt_channel`-backed in-process pipe for tests and deterministic sim
//!   runs.
//! * [`server`] — two threads per connection, each blocked on what it
//!   waits for: one reads and executes requests, one writes the completed
//!   prefix of a strictly-ordered response queue. Nothing polls. The queue
//!   subscribes to the log's durable watermark, so a pipelined
//!   connection's many in-flight commits are all answered by the single
//!   group-commit flush that hardens them — the paper's
//!   consolidation argument, observed from the wire.
//! * [`client`] — a pipelining client.
//!
//! Session tokens: every `Committed` response carries the commit's
//! [`CommitToken`](aether_core::commit::CommitToken) LSN. The server also
//! folds each connection's tokens into a watermark server-side, so a
//! connection always reads its own writes even through the `ReadRouter`;
//! clients can additionally thread tokens through `Read.at_least` to
//! extend the guarantee across connections.

pub mod client;
mod conn;
pub mod dedup;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod stream;

pub use client::Client;
pub use conn::Engine;
pub use dedup::{Claim, CommitDedup};
pub use protocol::{ErrCode, Request, Response};
pub use retry::{ResilientClient, RetryPolicy, RetryStats};
pub use server::{Server, ServerConfig};
pub use stream::{chan_pair, ByteStream, ChanByteStream, TcpByteStream};
