//! Cross-process broker access over TCP.
//!
//! The in-process transports ([`crate::TransportKind`]) move frames
//! between *threads of one process*. This module is the trust-boundary
//! protocol for genuinely separate processes: a broker process runs a
//! [`Runtime`] and serves it over a socket; a client process connects,
//! subscribes, publishes, and receives matched deliveries — the same
//! framed [`layercake_overlay::OverlayMsg`] messages.
//!
//! A connection is a runtime link (`transport.rs`, [`wire::read_link`])
//! in [`DictMode::Negotiated`]: neither side can assume the other's
//! interner, so wire ids are assigned per connection and announced in
//! dictionary frames. Each direction opens with a handshake
//! ([`wire::encode_hello`]), and a stream that does not is refused. The
//! client speaks with external provenance (it is a publisher /
//! subscriber edge, not an overlay node); the server speaks as its root
//! broker.
//!
//! Supported client → server messages: `Advertise`, `Subscribe` (the
//! server places a tapped subscriber and replies `AcceptedAt`), and
//! `Publish`. Server → client: `AcceptedAt` and one `Deliver` per
//! accepted event. Anything else, and any frame that does not decode,
//! ends the connection with [`RtError::Wire`] — the server never panics
//! on remote input.
//!
//! A served connection costs two threads whatever its subscriptions: the
//! link writer, and one forwarder that turns every subscription's
//! accepted envelopes into `Deliver` frames; the reader is
//! [`serve_one`]'s caller. A client costs one, its reader.
//!
//! The `broker_child` binary in this crate plus `tests/cross_process.rs`
//! exercise the full parent/child flow: spawn a broker process, publish
//! over the socket, assert exactly-once delivery back.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layercake_event::{Advertisement, DictMode, EncodeDict, Envelope};
use layercake_filter::{Filter, FilterId};
use layercake_overlay::{OverlayMsg, SubscriptionReq};
use layercake_sim::ActorId;

use crate::error::RtError;
use crate::runtime::{Runtime, EXTERNAL};
use crate::transport::{self, LinkCmd};
use crate::wire::{self, WireCodec};

fn wire_io(context: &str, e: &std::io::Error) -> RtError {
    RtError::Wire(format!("{context}: {e}"))
}

/// Serves one remote client connection on the caller's thread: accepts
/// on `listener`, then reads the client's handshake and handles
/// `Advertise` / `Subscribe` / `Publish` until the client disconnects.
/// Deliveries for every subscription placed over this connection stream
/// back as `Deliver` frames, each subscription's in acceptance order.
///
/// Returns when the connection ends; the reply side closes behind what
/// is already queued for it. The runtime keeps running; the caller
/// decides whether to serve another client or shut down.
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
    let write_half = stream.try_clone().map_err(|e| wire_io("clone", &e))?;
    let (out, rx) = channel();
    let profiler = Arc::clone(rt.profiler());
    let (writer_profiler, stats) = (Arc::clone(&profiler), Arc::clone(rt.stats()));
    // Both threads are detached. The writer ends once the connection is
    // over and what is queued for it is written; the forwarder when the
    // runtime's subscribers drop their taps, or at the first delivery
    // after the writer ended.
    std::thread::Builder::new()
        .name("lc-remote-w".to_string())
        .spawn(move || {
            let mode = DictMode::Negotiated;
            transport::writer_loop(write_half, &rx, mode, &writer_profiler, &stats);
        })
        .map_err(RtError::Thread)?;
    let root = rt.root();
    let (tap, taps) = channel::<Envelope>();
    let deliver = out.clone();
    std::thread::Builder::new()
        .name("lc-remote-fwd".to_string())
        .spawn(move || {
            for env in taps {
                let msg = OverlayMsg::Deliver(env);
                if deliver.send(LinkCmd::Send { from: root, msg }).is_err() {
                    return;
                }
            }
        })
        .map_err(RtError::Thread)?;

    let served = wire::read_link(stream, DictMode::Negotiated, Some(&profiler), |decoded| {
        let (_from, msg) = decoded?;
        handle_client_msg(rt, msg, root, &out, &tap)
    });
    let _ = out.send(LinkCmd::Close);
    served
}

fn handle_client_msg(
    rt: &mut Runtime,
    msg: OverlayMsg,
    root: ActorId,
    out: &Sender<LinkCmd>,
    tap: &Sender<Envelope>,
) -> Result<(), RtError> {
    match msg {
        OverlayMsg::Advertise(adv) => rt.advertise(adv),
        OverlayMsg::Subscribe(req) => {
            let handle = rt.add_subscriber_tapped(req.filter, tap.clone())?;
            let msg = OverlayMsg::AcceptedAt {
                id: req.id,
                node: handle.node(),
            };
            let _ = out.send(LinkCmd::Send { from: root, msg });
        }
        OverlayMsg::Publish(env) => rt.publisher().publish(env),
        other => {
            return Err(RtError::Wire(format!(
                "unsupported remote request: {other:?}"
            )))
        }
    }
    Ok(())
}

/// A client connection to a remote broker process: publish events,
/// place subscriptions, and receive matched deliveries over one TCP
/// stream speaking the negotiated binary protocol.
///
/// Calls are synchronous: `subscribe` blocks until the broker confirms
/// placement, `recv_deliver` blocks (bounded by a timeout) for the next
/// delivery. One reader thread decodes what the broker sends into a
/// channel; deliveries that arrive while waiting for something else are
/// queued, never dropped. Dropping the client closes the connection and
/// joins the reader.
pub struct RemoteClient {
    stream: TcpStream,
    dict: EncodeDict,
    buf: Vec<u8>,
    /// The broker's messages in order; the last is why the stream ended.
    inbox: Receiver<Result<OverlayMsg, RtError>>,
    reader: Option<JoinHandle<()>>,
    pending: VecDeque<Envelope>,
    next_filter: u64,
}

impl RemoteClient {
    /// Connects to a broker process serving [`serve_one`] at `addr`,
    /// sends the handshake and starts the reader.
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
        let read_half = stream.try_clone().map_err(|e| wire_io("clone", &e))?;
        let (tx, inbox) = channel();
        let reader = std::thread::Builder::new()
            .name("lc-client".to_string())
            .spawn(move || {
                let read = wire::read_link(read_half, DictMode::Negotiated, None, |decoded| {
                    let (_from, msg) = decoded?;
                    tx.send(Ok(msg))
                        .map_err(|_| RtError::Wire("client dropped".into()))
                });
                let end = read.err().unwrap_or_else(closed);
                let _ = tx.send(Err(end));
            })
            .map_err(RtError::Thread)?;
        Ok(Self {
            stream,
            dict: EncodeDict::new(DictMode::Negotiated),
            buf: Vec::with_capacity(1024),
            inbox,
            reader: Some(reader),
            pending: VecDeque::new(),
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
        )?;
        self.stream
            .write_all(&self.buf)
            .map_err(|e| wire_io("write", &e))
    }

    /// The broker's next message, or `None` once `deadline` has passed.
    fn recv(&self, deadline: Instant) -> Result<Option<OverlayMsg>, RtError> {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.inbox.recv_timeout(left) {
            Ok(msg) => msg.map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(closed()),
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
            match self.recv(deadline)? {
                Some(OverlayMsg::AcceptedAt { id: got, .. }) if got == id => return Ok(()),
                Some(OverlayMsg::Deliver(env)) => self.pending.push_back(env),
                Some(_) => {}
                None => return Err(RtError::PlacementTimeout),
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
            match self.recv(deadline)? {
                Some(OverlayMsg::Deliver(env)) => return Ok(Some(env)),
                Some(_) => {}
                None => return Ok(None),
            }
        }
    }
}

impl Drop for RemoteClient {
    /// Shuts the socket both ways, which ends the reader's stream, and
    /// joins the reader.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn closed() -> RtError {
    RtError::Wire("server closed the connection".into())
}
