//! Cross-process broker access over TCP.
//!
//! The in-process transports ([`crate::TransportKind`]) move frames
//! between *threads of one process*. This module is the trust-boundary
//! protocol for genuinely separate processes: a broker process runs a
//! [`Runtime`] and serves it over a socket; a client process connects,
//! subscribes, publishes, and receives matched deliveries — the same
//! framed [`layercake_overlay::OverlayMsg`] messages, always in the
//! compact binary codec with a **negotiated** attribute dictionary
//! (neither side can assume the other's interner, so wire ids are
//! assigned per connection and announced in dictionary frames).
//!
//! Connection protocol, both directions:
//!
//! 1. each side sends one framed handshake (`encode_hello`) announcing
//!    magic bytes and its dictionary mode;
//! 2. every subsequent frame is a dictionary update or a message frame,
//!    exactly as on the in-process links;
//! 3. the client speaks with external provenance (it is a publisher /
//!    subscriber edge, not an overlay node); the server speaks as its
//!    root broker.
//!
//! Supported client → server messages: `Advertise`, `Subscribe` (the
//! server places a tapped subscriber and replies `AcceptedAt`), and
//! `Publish`. Server → client: `AcceptedAt` and one `Deliver` per
//! accepted event. Anything else is answered by dropping the
//! connection — the server never panics on remote input.
//!
//! The `broker_child` binary in this crate plus `tests/cross_process.rs`
//! exercise the full parent/child flow: spawn a broker process, publish
//! over the socket, assert exactly-once delivery back.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

use layercake_event::{Advertisement, DictMode, EncodeDict, Envelope};
use layercake_filter::{Filter, FilterId};
use layercake_overlay::{OverlayMsg, SubscriptionReq};

use crate::error::RtError;
use crate::runtime::{Runtime, EXTERNAL};
use crate::wire::{self, LinkDecoder, WireCodec};

/// Read chunk size for the socket decode loops.
const READ_CHUNK: usize = 64 * 1024;

fn wire_io(context: &str, e: &std::io::Error) -> RtError {
    RtError::Wire(format!("{context}: {e}"))
}

/// Serves one remote client connection on the caller's thread: accepts
/// on `listener`, handshakes, then handles `Advertise` / `Subscribe` /
/// `Publish` until the client disconnects. Deliveries for every
/// subscription placed over this connection stream back as `Deliver`
/// frames in acceptance order.
///
/// Returns when the client closes the connection (its half of the
/// socket EOFs). The runtime keeps running; the caller decides whether
/// to serve another client or shut down.
///
/// # Errors
///
/// [`RtError::Wire`] on socket or protocol failures; subscription
/// placement errors propagate as from [`Runtime::add_subscriber`].
pub fn serve_one(rt: &mut Runtime, listener: &TcpListener) -> Result<(), RtError> {
    let (stream, _peer) = listener.accept().map_err(|e| wire_io("accept", &e))?;
    stream
        .set_nodelay(true)
        .map_err(|e| wire_io("nodelay", &e))?;

    // Outbound side: a writer thread owns the write half and the
    // connection's encode dictionary; everything the server says goes
    // through this channel so dictionary frames stay ordered before the
    // messages that need them.
    let (out_tx, out_rx) = channel::<OverlayMsg>();
    let write_half = stream.try_clone().map_err(|e| wire_io("clone", &e))?;
    let root = rt.root();
    // Deliberately detached: the tap forwarders spawned per subscription
    // hold clones of `out_tx` until the runtime's subscribers shut
    // down, which happens only after this call returns — joining the
    // writer here would deadlock on that chain. It exits on its own once
    // the last sender drops (or the socket dies).
    std::thread::Builder::new()
        .name("lc-remote-w".to_string())
        .spawn(move || {
            let mut stream = write_half;
            let mut dict = EncodeDict::new(DictMode::Negotiated);
            let mut buf: Vec<u8> = Vec::with_capacity(1024);
            if stream
                .write_all(&wire::encode_hello(DictMode::Negotiated))
                .is_err()
            {
                return;
            }
            while let Ok(msg) = out_rx.recv() {
                buf.clear();
                if wire::encode_msg_into(WireCodec::Binary, root, &msg, &mut dict, &mut buf)
                    .is_err()
                {
                    continue; // Over-cap message: skip, never panic.
                }
                if stream.write_all(&buf).is_err() {
                    return; // Client is gone; drain silently.
                }
            }
        })
        .map_err(RtError::Thread)?;

    serve_loop(rt, stream, &out_tx)
}

fn serve_loop(
    rt: &mut Runtime,
    mut stream: TcpStream,
    out_tx: &Sender<OverlayMsg>,
) -> Result<(), RtError> {
    let mut decoder = LinkDecoder::negotiated();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // Client closed: a clean goodbye.
            Ok(n) => n,
            Err(e) => return Err(wire_io("read", &e)),
        };
        decoder.push(&chunk[..n]);
        loop {
            match decoder.next_msg() {
                Ok(Some((_from, msg))) => handle_client_msg(rt, msg, out_tx)?,
                Ok(None) => break,
                Err(e) => {
                    // Socket streams have no frame re-sync point: a
                    // corrupt frame is terminal for the connection.
                    return Err(RtError::Wire(format!("client stream: {e}")));
                }
            }
        }
    }
}

fn handle_client_msg(
    rt: &mut Runtime,
    msg: OverlayMsg,
    out_tx: &Sender<OverlayMsg>,
) -> Result<(), RtError> {
    match msg {
        OverlayMsg::Advertise(adv) => {
            rt.advertise(adv);
            Ok(())
        }
        OverlayMsg::Subscribe(req) => {
            let (tap_tx, tap_rx) = channel::<Envelope>();
            let handle = rt.add_subscriber_tapped(req.filter, tap_tx)?;
            // Forward accepted deliveries until the subscriber drops the
            // tap at teardown.
            let fwd_out = out_tx.clone();
            std::thread::Builder::new()
                .name("lc-remote-tap".to_string())
                .spawn(move || {
                    while let Ok(env) = tap_rx.recv() {
                        if fwd_out.send(OverlayMsg::Deliver(env)).is_err() {
                            return;
                        }
                    }
                })
                .map_err(RtError::Thread)?;
            let _ = out_tx.send(OverlayMsg::AcceptedAt {
                id: req.id,
                node: handle.node(),
            });
            Ok(())
        }
        OverlayMsg::Publish(env) => {
            rt.publisher().publish(env);
            Ok(())
        }
        other => Err(RtError::Wire(format!(
            "unsupported remote request: {other:?}"
        ))),
    }
}

/// A client connection to a remote broker process: publish events,
/// place subscriptions, and receive matched deliveries over one TCP
/// stream speaking the negotiated binary protocol.
///
/// The client is synchronous and single-threaded: `subscribe` blocks
/// until the broker confirms placement, `recv_deliver` blocks (bounded
/// by a timeout) for the next delivery. Deliveries that arrive while
/// waiting for something else are queued, never dropped.
pub struct RemoteClient {
    stream: TcpStream,
    decoder: LinkDecoder,
    dict: EncodeDict,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    pending: std::collections::VecDeque<Envelope>,
    next_filter: u64,
}

impl RemoteClient {
    /// Connects to a broker process serving [`serve_one`] at `addr` and
    /// sends the handshake.
    ///
    /// # Errors
    ///
    /// [`RtError::Wire`] on connection or handshake failure.
    pub fn connect(addr: SocketAddr) -> Result<Self, RtError> {
        let mut stream = TcpStream::connect(addr).map_err(|e| wire_io("connect", &e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| wire_io("nodelay", &e))?;
        stream
            .write_all(&wire::encode_hello(DictMode::Negotiated))
            .map_err(|e| wire_io("handshake", &e))?;
        Ok(Self {
            stream,
            decoder: LinkDecoder::negotiated(),
            dict: EncodeDict::new(DictMode::Negotiated),
            buf: Vec::with_capacity(1024),
            chunk: vec![0u8; READ_CHUNK],
            pending: std::collections::VecDeque::new(),
            next_filter: 0,
        })
    }

    fn send(&mut self, msg: &OverlayMsg) -> Result<(), RtError> {
        self.buf.clear();
        wire::encode_msg_into(
            WireCodec::Binary,
            EXTERNAL,
            msg,
            &mut self.dict,
            &mut self.buf,
        )
        .map_err(|e| RtError::Wire(format!("encode: {e}")))?;
        self.stream
            .write_all(&self.buf)
            .map_err(|e| wire_io("write", &e))
    }

    /// Reads one decoded server message, honoring the stream's read
    /// timeout. `Ok(None)` means the timeout elapsed with no complete
    /// message.
    fn read_msg(&mut self) -> Result<Option<OverlayMsg>, RtError> {
        loop {
            if let Some((_from, msg)) = self
                .decoder
                .next_msg()
                .map_err(|e| RtError::Wire(format!("server stream: {e}")))?
            {
                return Ok(Some(msg));
            }
            let n = match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(RtError::Wire("server closed the connection".into())),
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(wire_io("read", &e)),
            };
            let (chunk, decoder) = (&self.chunk[..n], &mut self.decoder);
            decoder.push(chunk);
        }
    }

    /// Floods an event-class advertisement from the broker's root.
    ///
    /// # Errors
    ///
    /// [`RtError::Wire`] on a dead connection.
    pub fn advertise(&mut self, adv: Advertisement) -> Result<(), RtError> {
        self.send(&OverlayMsg::Advertise(adv))
    }

    /// Places a subscription on the remote broker and blocks (up to
    /// `timeout`) for the placement confirmation. Deliveries arriving
    /// meanwhile are queued for [`RemoteClient::recv_deliver`].
    ///
    /// # Errors
    ///
    /// [`RtError::PlacementTimeout`] if no confirmation arrives in
    /// time; [`RtError::Wire`] on connection failures.
    pub fn subscribe(&mut self, filter: Filter, timeout: Duration) -> Result<(), RtError> {
        let id = FilterId(self.next_filter);
        self.next_filter += 1;
        self.send(&OverlayMsg::Subscribe(SubscriptionReq {
            id,
            filter,
            subscriber: EXTERNAL,
            durable: false,
        }))?;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RtError::PlacementTimeout);
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| wire_io("timeout", &e))?;
            match self.read_msg()? {
                Some(OverlayMsg::AcceptedAt { id: got, .. }) if got == id => return Ok(()),
                Some(OverlayMsg::Deliver(env)) => self.pending.push_back(env),
                Some(_) | None => {}
            }
        }
    }

    /// Publishes one event at the remote broker's root.
    ///
    /// # Errors
    ///
    /// [`RtError::Wire`] on a dead connection.
    pub fn publish(&mut self, env: Envelope) -> Result<(), RtError> {
        self.send(&OverlayMsg::Publish(env))
    }

    /// The next matched delivery, waiting up to `timeout`. `Ok(None)`
    /// when the timeout elapses first.
    ///
    /// # Errors
    ///
    /// [`RtError::Wire`] on connection or protocol failures.
    pub fn recv_deliver(&mut self, timeout: Duration) -> Result<Option<Envelope>, RtError> {
        if let Some(env) = self.pending.pop_front() {
            return Ok(Some(env));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| wire_io("timeout", &e))?;
            if let Some(OverlayMsg::Deliver(env)) = self.read_msg()? {
                return Ok(Some(env));
            }
        }
    }
}
