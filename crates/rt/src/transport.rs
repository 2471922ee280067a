//! Pluggable link transport for the runtime.
//!
//! The runtime's routing fabric is transport-agnostic: [`crate::Router`]
//! decides *where* a frame goes (which broker, which matcher shard,
//! broadcast or class-routed) and this module decides *how* it travels
//! there. Two backends implement the same contract:
//!
//! * [`TransportKind::Mpsc`] (the default) — the message itself is
//!   moved into the destination shard's in-process `std::sync::mpsc`
//!   channel. Zero extra threads, no bytes: an event crosses as an `Arc`
//!   bump of its envelope body.
//! * [`TransportKind::Tcp`] — every node (each broker, each subscriber)
//!   gets a real loopback TCP socket in front of its inbox channels. A
//!   per-link **writer thread** drains a command queue (senders never
//!   block on socket I/O; the queue keeps mpsc's FIFO order), encoding
//!   what it finds into one `write`. A per-link **reader thread** decodes
//!   each frame and forwards the message into the destination's *current*
//!   inbox sender via the router — looked up per message, so supervised
//!   shard restarts re-wire the link as they re-wire in-process senders.
//!   These threads sample the `Encode` and `Decode` pipeline stages.
//!
//! The shutdown poison pill rides the link too: poisoning through the
//! FIFO the data frames took keeps the teardown invariant that a joined
//! upstream stage's frames are enqueued downstream before the downstream
//! node drains. A link message carries the in-process `Frame`'s routing
//! metadata — target shard (or the broadcast sentinel), requeue tag,
//! enqueue stamp — then the message's [`crate::wire`] frame.
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

use layercake_event::{DecodeDict, DictMode, EncodeDict, MAX_FRAME_PAYLOAD};
use layercake_metrics::{PipelineStage, StageProfiler};

use crate::runtime::{elapsed_ns, Frame, FrameTag, Router, RtEvent};
use crate::stats::RtStats;
use crate::wire::{self, WireCodec};

/// Which link backend carries frames between node threads.
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

/// The broadcast shard sentinel in a link message's shard field.
pub(crate) const SHARD_BROADCAST: u32 = u32::MAX;

/// What a link writer thread is asked to put on the socket.
pub(crate) enum LinkCmd {
    /// A message or the shutdown pill for the destination's shard (or
    /// all shards), in FIFO order.
    Send { shard: u32, ev: RtEvent },
    /// Close the socket and exit the writer thread.
    Close,
}

/// Socket message discriminators.
const MSG_FRAME: u8 = 1;
const MSG_SHUTDOWN: u8 = 2;

/// Wire values for [`FrameTag`] on the link header.
const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;
const TAG_CTRL: u8 = 2;

/// One live TCP link: the command sender the router dispatches into,
/// plus the writer/reader threads joined at teardown.
pub(crate) struct Link {
    pub(crate) tx: Sender<LinkCmd>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
}

impl Link {
    /// Closes the socket (writer first, whose dropped stream EOFs the
    /// reader) and joins both threads. Called after every node thread
    /// has drained, so nothing useful can still be in flight.
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
            match cmd {
                LinkCmd::Send {
                    shard,
                    ev: RtEvent::Frame(frame),
                } => {
                    let (tag_byte, ctrl_seq) = match frame.tag {
                        FrameTag::Data => (TAG_DATA, 0),
                        FrameTag::Ack => (TAG_ACK, 0),
                        FrameTag::Ctrl(seq) => (TAG_CTRL, seq),
                    };
                    let head = buf.len();
                    buf.push(MSG_FRAME);
                    buf.extend_from_slice(&shard.to_le_bytes());
                    buf.push(tag_byte);
                    buf.extend_from_slice(&ctrl_seq.to_le_bytes());
                    buf.extend_from_slice(&frame.enqueued_ns.to_le_bytes());
                    // The frame's length header doubles as the link's.
                    let timer = profiler.tick(&mut sampler).then(Instant::now);
                    let (from, msg) = (frame.from, &frame.msg);
                    if wire::encode_msg_into(WireCodec::Binary, from, msg, &mut dict, &mut buf)
                        .is_err()
                    {
                        // Dispatch refused over-cap frames already.
                        buf.truncate(head);
                        stats.inc_encode_errors();
                    } else if let Some(t0) = timer {
                        profiler.record(PipelineStage::Encode, elapsed_ns(t0));
                    }
                }
                LinkCmd::Send {
                    shard,
                    ev: RtEvent::Shutdown,
                } => {
                    buf.push(MSG_SHUTDOWN);
                    buf.extend_from_slice(&shard.to_le_bytes());
                }
                // Everything queued ahead of the close still goes out.
                LinkCmd::Close => {
                    closed = true;
                    break;
                }
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
    // Dropping the stream sends FIN; the peer reader exits on EOF.
}

/// One message off a link, its payload (if any) left in the caller's
/// buffer.
#[derive(Debug, PartialEq, Eq)]
enum LinkMsg {
    Frame {
        shard: u32,
        tag: FrameTag,
        enqueued_ns: u64,
    },
    Shutdown {
        shard: u32,
    },
}

/// Reads the next link message, a frame's payload into `payload`. `None`
/// ends the stream: EOF (teardown), a dead peer, or bytes that are not
/// a link message — an unknown kind or tag, a length beyond the frame
/// cap — after which nothing that follows can be trusted.
fn read_link_msg(stream: &mut impl Read, payload: &mut Vec<u8>) -> Option<LinkMsg> {
    let mut kind = [0u8; 1];
    stream.read_exact(&mut kind).ok()?;
    match kind[0] {
        MSG_FRAME => {
            let mut head = [0u8; 25];
            stream.read_exact(&mut head).ok()?;
            let shard = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            let tag = match head[4] {
                TAG_DATA => FrameTag::Data,
                TAG_ACK => FrameTag::Ack,
                TAG_CTRL => {
                    let seq = u64::from_le_bytes(head[5..13].try_into().expect("8 bytes"));
                    FrameTag::Ctrl(seq)
                }
                _ => return None,
            };
            let enqueued_ns = u64::from_le_bytes(head[13..21].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(head[21..25].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return None;
            }
            payload.resize(len, 0);
            stream.read_exact(payload).ok()?;
            Some(LinkMsg::Frame {
                shard,
                tag,
                enqueued_ns,
            })
        }
        MSG_SHUTDOWN => {
            let mut raw = [0u8; 4];
            stream.read_exact(&mut raw).ok()?;
            Some(LinkMsg::Shutdown {
                shard: u32::from_le_bytes(raw),
            })
        }
        _ => None,
    }
}

/// Reads link messages off the socket (through a buffer: a frame's kind,
/// header and payload, and every frame batched behind it, cost one `read`
/// between them), decodes each frame with every check
/// [`wire::decode_payload`] makes and forwards it through the router. A
/// frame that does not decode is counted in `rt.decode_errors` and
/// dropped; its length was sound, so the next one starts clean.
fn reader_loop(stream: impl Read, dest: usize, router: &Router, stats: &RtStats) {
    let mut stream = BufReader::with_capacity(LINK_BATCH_BYTES, stream);
    let profiler = &router.profiler;
    let mut dict = DecodeDict::new(DictMode::Shared);
    let mut sampler = 0u64;
    let mut payload: Vec<u8> = Vec::new();
    while let Some(msg) = read_link_msg(&mut stream, &mut payload) {
        let (shard, ev) = match msg {
            LinkMsg::Shutdown { shard } => (shard, RtEvent::Shutdown),
            LinkMsg::Frame {
                shard,
                tag,
                enqueued_ns,
            } => {
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
                let frame = Frame {
                    from,
                    msg,
                    enqueued_ns,
                    tag,
                };
                (shard, RtEvent::Frame(frame))
            }
        };
        router.forward_link(dest, shard, ev, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_msg;
    use layercake_event::{Bytes, ClassId, Envelope, EventData, EventSeq, FRAME_HEADER_LEN};
    use layercake_overlay::OverlayMsg;
    use layercake_sim::ActorId;

    /// What the test expects the reader to see for one queued command.
    #[derive(Debug, PartialEq, Eq)]
    struct Seen {
        msg: LinkMsg,
        payload: Vec<u8>,
    }

    /// An unsampled profiler and the stats it reports into.
    fn instruments() -> (StageProfiler, RtStats) {
        let stats = RtStats::new();
        (StageProfiler::new(stats.registry(), 0), stats)
    }

    /// Event `i` from node `i`, with an opaque payload of up to a few
    /// hundred bytes.
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

    fn frame(i: u32) -> (LinkCmd, Seen) {
        let tag = match i % 3 {
            0 => FrameTag::Data,
            1 => FrameTag::Ack,
            _ => FrameTag::Ctrl(u64::from(i) << 20),
        };
        let shard = if i.is_multiple_of(7) {
            SHARD_BROADCAST
        } else {
            i % 4
        };
        let enqueued_ns = 1_000_000 + u64::from(i);
        // Sizes from a few bytes to a few hundred: the batch cap falls
        // mid-queue several times.
        let (from, msg) = event_msg(i);
        let framed = encode_msg(from, &msg, &mut EncodeDict::new(DictMode::Shared)).unwrap();
        let seen = Seen {
            msg: LinkMsg::Frame {
                shard,
                tag,
                enqueued_ns,
            },
            payload: framed[FRAME_HEADER_LEN..].to_vec(),
        };
        let frame = Frame {
            from,
            msg,
            enqueued_ns,
            tag,
        };
        let cmd = LinkCmd::Send {
            shard,
            ev: RtEvent::Frame(frame),
        };
        (cmd, seen)
    }

    fn shutdown(shard: u32) -> (LinkCmd, Seen) {
        let seen = Seen {
            msg: LinkMsg::Shutdown { shard },
            payload: Vec::new(),
        };
        let cmd = LinkCmd::Send {
            shard,
            ev: RtEvent::Shutdown,
        };
        (cmd, seen)
    }

    /// The bytes the writer puts on the socket for `cmds`.
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
        let mut expected = Vec::new();
        for i in 0..1_000 {
            if i == 500 {
                let (cmd, seen) = shutdown(2);
                tx.send(cmd).unwrap();
                expected.push(seen);
            }
            let (cmd, seen) = frame(i);
            tx.send(cmd).unwrap();
            expected.push(seen);
        }
        let (cmd, seen) = shutdown(SHARD_BROADCAST);
        tx.send(cmd).unwrap();
        expected.push(seen);
        tx.send(LinkCmd::Close).unwrap();
        // Queued behind the close: must never reach the socket.
        tx.send(frame(9_999).0).unwrap();
        let writer = std::thread::spawn(move || {
            let (profiler, stats) = instruments();
            writer_loop(out, &rx, &profiler, &stats);
        });

        let mut stream = BufReader::with_capacity(LINK_BATCH_BYTES, inc);
        let mut payload = Vec::new();
        let mut got = Vec::new();
        while let Some(msg) = read_link_msg(&mut stream, &mut payload) {
            let payload = match msg {
                LinkMsg::Frame { .. } => payload.clone(),
                LinkMsg::Shutdown { .. } => Vec::new(),
            };
            got.push(Seen { msg, payload });
        }
        writer.join().unwrap();
        assert_eq!(got.len(), expected.len());
        assert!(got == expected, "frames and pills arrive as queued");
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
            tx.send(frame(i).0).unwrap();
        }
        tx.send(LinkCmd::Close).unwrap();
        let mut sink = Counting(Vec::new(), 0);
        let (profiler, stats) = instruments();
        writer_loop(&mut sink, &rx, &profiler, &stats);
        assert_eq!(sink.1, 1, "twenty queued frames, one write");
        let mut bytes = &sink.0[..];
        let mut payload = Vec::new();
        let mut frames = 0;
        while read_link_msg(&mut bytes, &mut payload).is_some() {
            frames += 1;
        }
        assert_eq!(frames, 20);
    }

    #[test]
    fn corrupt_link_bytes_end_the_stream() {
        let wire = written([frame(5).0]);
        let mut payload = Vec::new();
        assert!(read_link_msg(&mut &wire[..], &mut payload).is_some());

        // An unknown message kind.
        let mut bad = wire.clone();
        bad[0] = 9;
        assert_eq!(read_link_msg(&mut &bad[..], &mut payload), None);
        // An unknown frame tag.
        let mut bad = wire.clone();
        bad[5] = 7;
        assert_eq!(read_link_msg(&mut &bad[..], &mut payload), None);
        // A length beyond the frame cap: rejected before any allocation.
        let mut bad = wire.clone();
        bad[22..26].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_link_msg(&mut &bad[..], &mut payload), None);
        // A frame cut short by a dead peer.
        let cut = &wire[..wire.len() - 1];
        assert_eq!(read_link_msg(&mut &cut[..], &mut payload), None);
    }

    /// A payload that passes framing but not the codec costs its frame
    /// and one `rt.decode_errors`, nothing more: the frames behind it on
    /// the link are decoded and delivered in order.
    #[test]
    fn a_mangled_payload_is_one_decode_error_and_the_link_goes_on() {
        let data = |i: u32| {
            let (from, msg) = event_msg(i);
            let frame = Frame {
                from,
                msg,
                enqueued_ns: 0,
                tag: FrameTag::Data,
            };
            written([LinkCmd::Send {
                shard: 0,
                ev: RtEvent::Frame(frame),
            }])
        };
        let mut mangled = data(2);
        // The payload's kind byte, after the link header and the frame's
        // length: no message kind has this value.
        mangled[22 + FRAME_HEADER_LEN] = 0xEE;
        let wire = [data(1), mangled, data(3)].concat();

        let (profiler, stats) = instruments();
        let (tx, rx) = channel();
        let router = Router::with_inbox(0, tx, Arc::new(profiler));
        reader_loop(&wire[..], 0, &router, &stats);
        assert_eq!(stats.decode_errors(), 1);
        let got: Vec<(ActorId, OverlayMsg)> = rx
            .try_iter()
            .map(|ev| match ev {
                RtEvent::Frame(f) => (f.from, f.msg),
                RtEvent::Shutdown => panic!("no pill was sent"),
            })
            .collect();
        assert_eq!(got, vec![event_msg(1), event_msg(3)]);
    }
}
