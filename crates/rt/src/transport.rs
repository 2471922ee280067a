//! Pluggable link transport for the runtime.
//!
//! The runtime's routing fabric is transport-agnostic: [`crate::Router`]
//! decides *where* a message goes — which shard of which node, at which
//! control-log position — in one function, `Router::enter`, and this
//! module decides *how* it travels there. Two backends implement the
//! same contract:
//!
//! * [`TransportKind::Mpsc`] (the default) — the sender enters the message
//!   into the destination's in-process `std::sync::mpsc` inboxes itself.
//!   Zero extra threads, no bytes: an event crosses as an `Arc` bump of
//!   its envelope body.
//! * [`TransportKind::Tcp`] — every node (each broker, each subscriber)
//!   gets a real loopback TCP socket in front of its inboxes. A per-link
//!   **writer thread** drains a command queue (senders never block on
//!   socket I/O; the queue keeps mpsc's FIFO order), encoding what it finds
//!   into one `write`. A per-link **reader thread** decodes each frame and
//!   enters it into the destination's inboxes through the same
//!   `Router::enter`; a supervised shard restart keeps the shard's inbox,
//!   so it changes nothing on the link.
//!   These threads sample the `Encode` and `Decode` pipeline stages.
//!
//! The socket carries [`crate::wire`] frames and nothing else: exactly the
//! bytes [`wire::encode_msg_into`] writes with the shared dictionary.
//! End of stream is the shutdown pill. Poisoning a TCP node closes its
//! link once everything queued ahead has been written, and at EOF the
//! reader hands the pill to every shard of its node — behind the last
//! frame, which keeps the teardown invariant that a joined upstream
//! stage's frames are enqueued downstream before the downstream node
//! drains.
//!
//! This backend is the in-process proving ground for the socket path
//! (sim-vs-rt parity runs over it; see `tests/parity.rs`). Genuinely
//! separate broker *processes* talk through the higher-level
//! [`crate::remote`] protocol instead, which adds the handshake and the
//! negotiated attribute dictionary a trust boundary needs.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use layercake_event::{DecodeDict, DictMode, EncodeDict, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use layercake_metrics::{PipelineStage, StageProfiler};
use layercake_overlay::OverlayMsg;
use layercake_sim::ActorId;

use crate::runtime::{elapsed_ns, Router};
use crate::stats::RtStats;
use crate::wire::{self, WireCodec};

/// Which link backend carries frames between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process `std::sync::mpsc` channels — the default for tests
    /// and single-process deployments.
    #[default]
    Mpsc,
    /// Loopback TCP sockets with per-link writer and reader threads;
    /// every frame pays real socket I/O.
    Tcp,
}

/// What a link writer thread is asked to do, in FIFO order.
pub(crate) enum LinkCmd {
    /// Put one message's frame on the socket.
    Send { from: ActorId, msg: OverlayMsg },
    /// Write what is queued ahead, then close the socket: the reader's
    /// EOF is the node's shutdown pill.
    Close,
}

/// One live TCP link: the command sender the router dispatches into,
/// plus the writer/reader threads joined at teardown.
pub(crate) struct Link {
    pub(crate) tx: Sender<LinkCmd>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
}

impl Link {
    /// Closes the socket (a no-op when poisoning already did) and joins
    /// both threads. Called after every node has drained, so
    /// nothing useful can still be in flight.
    pub(crate) fn close(mut self) {
        let _ = self.tx.send(LinkCmd::Close);
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Builds the TCP link in front of node `dest`'s inbox channels: binds
/// an ephemeral loopback listener, connects the writer side, accepts the
/// reader side, and spawns both threads.
pub(crate) fn spawn_link(dest: usize, router: Router, stats: Arc<RtStats>) -> io::Result<Link> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // Loopback connect against our own listening backlog: the handshake
    // completes kernel-side, so connect-then-accept on one thread is
    // deadlock-free.
    let out = TcpStream::connect(addr)?;
    let (inc, _) = listener.accept()?;
    out.set_nodelay(true)?;
    inc.set_nodelay(true)?;

    let (tx, rx) = channel();
    let (profiler, writer_stats) = (Arc::clone(&router.profiler), Arc::clone(&stats));
    let writer = std::thread::Builder::new()
        .name(format!("lc-link-w-{dest}"))
        .spawn(move || writer_loop(out, &rx, &profiler, &writer_stats))?;
    let reader = std::thread::Builder::new()
        .name(format!("lc-link-r-{dest}"))
        .spawn(move || reader_loop(inc, dest, &router, &stats))?;
    Ok(Link {
        tx,
        writer: Some(writer),
        reader: Some(reader),
    })
}

/// Most bytes one `write` carries: the writer stops draining its queue
/// into the buffer here, so a backlog goes out in bounded pieces and the
/// reader's buffer, sized the same, refills with one `read`.
const LINK_BATCH_BYTES: usize = 64 * 1024;

/// Drains the link's command queue onto the socket. Whatever is already
/// queued when the writer wakes is encoded, in queue order, into one
/// reused buffer that leaves in a single `write_all` — under load that is
/// one syscall (and, with `TCP_NODELAY`, as few segments as the bytes
/// need) for many frames; an idle link still sends each frame at once.
fn writer_loop(
    mut stream: impl Write,
    rx: &Receiver<LinkCmd>,
    profiler: &StageProfiler,
    stats: &RtStats,
) {
    let mut dict = EncodeDict::new(DictMode::Shared);
    let mut sampler = 0u64;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    while let Ok(first) = rx.recv() {
        buf.clear();
        let mut closed = false;
        for cmd in std::iter::once(first).chain(rx.try_iter()) {
            // Everything queued ahead of the close still goes out.
            let LinkCmd::Send { from, msg } = cmd else {
                closed = true;
                break;
            };
            let timer = profiler.tick(&mut sampler).then(Instant::now);
            // Dispatch refused over-cap frames already; a failed encode
            // leaves no partial frame behind.
            if wire::encode_msg_into(WireCodec::Binary, from, &msg, &mut dict, &mut buf).is_err() {
                stats.inc_encode_errors();
            } else if let Some(t0) = timer {
                profiler.record(PipelineStage::Encode, elapsed_ns(t0));
            }
            if buf.len() >= LINK_BATCH_BYTES {
                break;
            }
        }
        // A failed write means the reader side is gone; nothing
        // downstream can receive anyway, so exit is the only sane
        // behavior.
        if stream.write_all(&buf).is_err() || closed {
            break;
        }
    }
    // Dropping the stream sends FIN; the peer reader's EOF is the pill.
}

/// Reads the next frame's payload into `payload`. `false` ends the
/// stream: EOF (teardown), a dead peer, or a length beyond the frame cap
/// — after which nothing that follows can be trusted.
fn read_frame(stream: &mut impl Read, payload: &mut Vec<u8>) -> bool {
    let mut head = [0u8; FRAME_HEADER_LEN];
    if stream.read_exact(&mut head).is_err() {
        return false;
    }
    let len = u32::from_le_bytes(head) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return false;
    }
    payload.resize(len, 0);
    stream.read_exact(payload).is_ok()
}

/// Reads frames off the socket (through a buffer: a frame and every frame
/// batched behind it cost one `read` between them), decodes each with
/// every check [`wire::decode_payload`] makes and enters it into node
/// `dest`'s inboxes through the router. A frame that does not decode is
/// counted in `rt.decode_errors` and dropped; its length was sound, so
/// the next one starts clean. The end of the stream hands every shard of
/// `dest` the shutdown pill.
fn reader_loop(stream: impl Read, dest: usize, router: &Router, stats: &RtStats) {
    let mut stream = BufReader::with_capacity(LINK_BATCH_BYTES, stream);
    let profiler = &router.profiler;
    let mut dict = DecodeDict::new(DictMode::Shared);
    let mut sampler = 0u64;
    let mut payload: Vec<u8> = Vec::new();
    while read_frame(&mut stream, &mut payload) {
        let timer = profiler.tick(&mut sampler).then(Instant::now);
        let (from, msg) = match wire::decode_payload(&payload, &mut dict) {
            Ok(Some(decoded)) => decoded,
            // A dictionary or handshake frame: absorbed.
            Ok(None) => continue,
            Err(_) => {
                stats.inc_decode_errors();
                continue;
            }
        };
        if let Some(t0) = timer {
            profiler.record(PipelineStage::Decode, elapsed_ns(t0));
        }
        router.enter(&router.read_routes(), dest, from, msg, stats);
    }
    if let Some(Some(route)) = router.read_routes().get(dest) {
        route.shut_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Frame, RtEvent};
    use crate::wire::encode_msg;
    use layercake_event::{Bytes, ClassId, Envelope, EventData, EventSeq};

    /// An unsampled profiler and the stats it reports into.
    fn instruments() -> (StageProfiler, RtStats) {
        let stats = RtStats::new();
        (StageProfiler::new(stats.registry(), 0), stats)
    }

    /// Event `i` from node `i`, with an opaque payload of up to a few
    /// hundred bytes: the batch cap falls mid-queue several times.
    fn event_msg(i: u32) -> (ActorId, OverlayMsg) {
        let bytes: Vec<u8> = (0..(i * 37) % 400).map(|b| (b ^ i) as u8).collect();
        let env = Envelope::from_parts(
            ClassId(0),
            "LinkTest",
            EventSeq(u64::from(i)),
            EventData::new(),
            Bytes::from(bytes),
        );
        (ActorId(i as usize), OverlayMsg::Publish(env))
    }

    fn send(i: u32) -> LinkCmd {
        let (from, msg) = event_msg(i);
        LinkCmd::Send { from, msg }
    }

    /// The frame `wire::encode_msg` makes for event `i` on a shared
    /// dictionary.
    fn framed(i: u32) -> Vec<u8> {
        let (from, msg) = event_msg(i);
        encode_msg(from, &msg, &mut EncodeDict::new(DictMode::Shared)).unwrap()
    }

    /// The bytes the writer puts on the socket for `cmds`, then a close.
    fn written(cmds: impl IntoIterator<Item = LinkCmd>) -> Vec<u8> {
        let (tx, rx) = channel();
        for cmd in cmds {
            tx.send(cmd).unwrap();
        }
        tx.send(LinkCmd::Close).unwrap();
        let (profiler, stats) = instruments();
        let mut wire = Vec::new();
        writer_loop(&mut wire, &rx, &profiler, &stats);
        wire
    }

    /// One inbox's contents: frames as `(from, msg)`, the pill as `None`.
    type Inbox = Vec<Option<(ActorId, OverlayMsg)>>;

    /// Runs the reader over `wire` into a `shards`-shard node; returns each
    /// shard's inbox.
    fn read(wire: impl Read, shards: usize) -> (Vec<Inbox>, RtStats) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| channel()).unzip();
        let (profiler, stats) = instruments();
        let router = Router::with_node(0, txs, Arc::new(profiler));
        reader_loop(wire, 0, &router, &stats);
        let inboxes = rxs
            .iter()
            .map(|rx| {
                rx.try_iter()
                    .map(|ev| match ev {
                        RtEvent::Frame(Frame { from, msg, .. }) => Some((from, msg)),
                        RtEvent::Shutdown => None,
                    })
                    .collect()
            })
            .collect();
        (inboxes, stats)
    }

    #[test]
    fn link_bytes_are_wire_frames_and_eof_is_the_pill() {
        let wire = written((0..50).map(send));
        let frames: Vec<u8> = (0..50).flat_map(framed).collect();
        assert!(wire == frames, "the socket carries bare wire frames");

        // Class 0 routes every event to one shard; the pill follows the
        // last frame on every shard.
        let (inboxes, _) = read(&wire[..], 4);
        let owner = crate::runtime::shard_of(0, 4);
        for (s, inbox) in inboxes.iter().enumerate() {
            let mut want: Vec<_> = Vec::new();
            if s == owner {
                want.extend((0..50).map(|i| Some(event_msg(i))));
            }
            want.push(None);
            assert_eq!(*inbox, want, "shard {s}");
        }
    }

    #[test]
    fn a_queued_backlog_arrives_once_in_order_with_pills_in_place() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let out = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (inc, _) = listener.accept().unwrap();
        out.set_nodelay(true).unwrap();

        // The whole backlog is queued before the writer exists, and the
        // reader starts later still: the writer coalesces as much as the
        // cap allows and blocks on the socket until the reader drains it.
        let (tx, rx) = channel();
        for i in 0..1_000 {
            tx.send(send(i)).unwrap();
        }
        tx.send(LinkCmd::Close).unwrap();
        // Queued behind the close: must never reach the socket.
        tx.send(send(9_999)).unwrap();
        let writer = std::thread::spawn(move || {
            let (profiler, stats) = instruments();
            writer_loop(out, &rx, &profiler, &stats);
        });

        let (inboxes, _) = read(inc, 1);
        writer.join().unwrap();
        let mut want: Vec<_> = (0..1_000).map(|i| Some(event_msg(i))).collect();
        want.push(None);
        assert_eq!(inboxes[0].len(), want.len());
        assert!(inboxes[0] == want, "frames arrive as queued, the pill last");
    }

    #[test]
    fn the_writer_puts_a_ready_backlog_in_one_write() {
        /// Counts `write` calls; accepts everything.
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = channel();
        for i in 1..=20 {
            tx.send(send(i)).unwrap();
        }
        tx.send(LinkCmd::Close).unwrap();
        let mut sink = Counting(Vec::new(), 0);
        let (profiler, stats) = instruments();
        writer_loop(&mut sink, &rx, &profiler, &stats);
        assert_eq!(sink.1, 1, "twenty queued frames, one write");
        let mut bytes = &sink.0[..];
        let mut payload = Vec::new();
        let mut frames = 0;
        while read_frame(&mut bytes, &mut payload) {
            frames += 1;
        }
        assert_eq!(frames, 20);
    }

    #[test]
    fn corrupt_link_bytes_end_the_stream() {
        let wire = written([send(5)]);
        let mut payload = Vec::new();
        assert!(read_frame(&mut &wire[..], &mut payload));

        // A length beyond the frame cap: rejected before any allocation.
        let mut bad = wire.clone();
        bad[..FRAME_HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!read_frame(&mut &bad[..], &mut payload));
        // A frame cut short by a dead peer.
        let cut = &wire[..wire.len() - 1];
        assert!(!read_frame(&mut &cut[..], &mut payload));
        // Either way the node still gets its pill, and nothing else.
        let (inboxes, _) = read(&bad[..], 1);
        assert_eq!(inboxes[0], vec![None]);
    }

    /// A payload that passes framing but not the codec costs its frame
    /// and one `rt.decode_errors`, nothing more: the frames behind it on
    /// the link are decoded and delivered in order.
    #[test]
    fn a_mangled_payload_is_one_decode_error_and_the_link_goes_on() {
        let mut mangled = framed(2);
        // The payload's kind byte, after the frame's length: no message
        // kind has this value.
        mangled[FRAME_HEADER_LEN] = 0xEE;
        let wire = [framed(1), mangled, framed(3)].concat();

        let (inboxes, stats) = read(&wire[..], 1);
        assert_eq!(stats.decode_errors(), 1);
        let want = vec![Some(event_msg(1)), Some(event_msg(3)), None];
        assert_eq!(inboxes[0], want);
    }
}
