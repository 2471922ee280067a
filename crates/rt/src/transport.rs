//! Pluggable link transport for the runtime.
//!
//! The runtime's routing fabric is transport-agnostic: [`crate::Router`]
//! decides *where* a frame goes (which broker, which matcher shard,
//! broadcast or class-routed) and this module decides *how* the bytes
//! travel there. Two backends implement the same contract:
//!
//! * [`TransportKind::Mpsc`] (the default) — frames are handed straight
//!   to the destination shard's in-process `std::sync::mpsc` channel, as
//!   in every revision since PR 5. Zero extra threads, zero copies
//!   beyond the channel hand-off.
//! * [`TransportKind::Tcp`] — every node (each broker, each subscriber)
//!   gets a real loopback TCP socket in front of its inbox channels: a
//!   per-link **writer thread** owns the connected stream and drains a
//!   command queue (so senders never block on socket I/O and the queue
//!   preserves the mpsc backend's FIFO semantics; everything queued when
//!   it wakes leaves in one `write`), and a per-link **reader thread**
//!   deframes the socket through a buffer and forwards each frame into
//!   the destination's *current* inbox sender via the router — looked
//!   up per message, so supervised shard restarts re-wire the link
//!   automatically, exactly as they re-wire in-process senders.
//!
//! The shutdown poison pill also rides the link ([`LinkCmd::Shutdown`]):
//! poisoning through the same FIFO the data frames took preserves the
//! teardown invariant that a joined upstream stage's frames are already
//! enqueued downstream before the downstream node drains.
//!
//! A link message carries the routing metadata the in-process `Frame`
//! struct would have carried in its fields: target shard (or the
//! broadcast sentinel), requeue tag, and the profiler's enqueue stamp.
//! The frame payload itself is opaque to this layer — the codec
//! ([`crate::wire`]) already produced self-contained framed bytes.
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

use crate::runtime::{FrameTag, Router};
use crate::stats::RtStats;

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
    /// One framed message for the destination's shard (or all shards).
    Frame {
        shard: u32,
        tag: FrameTag,
        enqueued_ns: u64,
        bytes: Vec<u8>,
    },
    /// The shutdown poison pill for one shard (or all shards), ordered
    /// behind every frame already queued on this link.
    Shutdown { shard: u32 },
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
    let writer = std::thread::Builder::new()
        .name(format!("lc-link-w-{dest}"))
        .spawn(move || writer_loop(out, &rx))?;
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
/// queued when the writer wakes is assembled into one reused buffer, in
/// queue order, and leaves in a single `write_all` — under load that is
/// one syscall (and, with `TCP_NODELAY`, as few segments as the bytes
/// need) for many frames; an idle link still sends each frame at once.
fn writer_loop(mut stream: impl Write, rx: &Receiver<LinkCmd>) {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    while let Ok(first) = rx.recv() {
        buf.clear();
        let mut closed = false;
        for cmd in std::iter::once(first).chain(rx.try_iter()) {
            match cmd {
                LinkCmd::Frame {
                    shard,
                    tag,
                    enqueued_ns,
                    bytes,
                } => {
                    let (tag_byte, ctrl_seq) = match tag {
                        FrameTag::Data => (TAG_DATA, 0),
                        FrameTag::Ack => (TAG_ACK, 0),
                        FrameTag::Ctrl(seq) => (TAG_CTRL, seq),
                    };
                    buf.push(MSG_FRAME);
                    buf.extend_from_slice(&shard.to_le_bytes());
                    buf.push(tag_byte);
                    buf.extend_from_slice(&ctrl_seq.to_le_bytes());
                    buf.extend_from_slice(&enqueued_ns.to_le_bytes());
                    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    buf.extend_from_slice(&bytes);
                }
                LinkCmd::Shutdown { shard } => {
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

/// Reads the next link message, a frame's bytes into `payload`. `None`
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
            if len > layercake_event::MAX_FRAME_PAYLOAD + layercake_event::FRAME_HEADER_LEN {
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

/// Reads link messages off the socket and forwards each into the
/// destination's current inbox sender(s) through the router. The socket
/// is read through a buffer, so the three parts of a frame (kind,
/// header, payload) — and every frame the writer batched behind it —
/// cost one `read` between them.
fn reader_loop(stream: TcpStream, dest: usize, router: &Router, stats: &RtStats) {
    let mut stream = BufReader::with_capacity(LINK_BATCH_BYTES, stream);
    let mut payload: Vec<u8> = Vec::new();
    while let Some(msg) = read_link_msg(&mut stream, &mut payload) {
        match msg {
            LinkMsg::Frame {
                shard,
                tag,
                enqueued_ns,
            } => router.forward_link_frame(dest, shard, tag, enqueued_ns, &payload, stats),
            LinkMsg::Shutdown { shard } => router.forward_link_shutdown(dest, shard),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the test expects the reader to see for one queued command.
    #[derive(Debug, PartialEq, Eq)]
    struct Seen {
        msg: LinkMsg,
        payload: Vec<u8>,
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
        // Sizes from empty to a few hundred bytes: the batch cap falls
        // mid-queue several times.
        let bytes: Vec<u8> = (0..(i * 37) % 400).map(|b| (b ^ i) as u8).collect();
        let seen = Seen {
            msg: LinkMsg::Frame {
                shard,
                tag,
                enqueued_ns,
            },
            payload: bytes.clone(),
        };
        let cmd = LinkCmd::Frame {
            shard,
            tag,
            enqueued_ns,
            bytes,
        };
        (cmd, seen)
    }

    fn shutdown(shard: u32) -> (LinkCmd, Seen) {
        let seen = Seen {
            msg: LinkMsg::Shutdown { shard },
            payload: Vec::new(),
        };
        (LinkCmd::Shutdown { shard }, seen)
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
        let writer = std::thread::spawn(move || writer_loop(out, &rx));

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
        writer_loop(&mut sink, &rx);
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
        let mut wire = Vec::new();
        let (tx, rx) = channel();
        tx.send(frame(5).0).unwrap();
        tx.send(LinkCmd::Close).unwrap();
        writer_loop(&mut wire, &rx);
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
}
