//! The runtime's wire format: one length-prefixed frame per message.
//!
//! A frame's payload is a [`layercake_event::KIND_MSG`] byte, the sender
//! id plus one as a varint (so the external sender, `usize::MAX`, costs
//! one byte), then the [`BinCodec`] encoding of the overlay message.
//! Names and event shapes travel as interned ids through the connection's
//! [`EncodeDict`]/[`DecodeDict`]; in-process links run the dictionary in
//! [`DictMode::Shared`] (the global interner and shape table *are* the
//! dictionary), cross-process links negotiate a dense id space via
//! [`layercake_event::KIND_DICT`] frames emitted ahead of the first
//! message that references a new name or shape. Every socket opens with
//! a [`layercake_event::KIND_HELLO`] handshake that pins the format
//! version and the dictionary mode.
//!
//! Bytes exist only where a message crosses a socket. An in-process link
//! hands the [`OverlayMsg`] itself to the destination's inbox (for an
//! envelope, an `Arc` bump); a socket — a TCP link or a [`crate::remote`]
//! connection — is written by the link writer (`transport.rs`) and read
//! by [`read_link`]. The sender id rides inside the frame because
//! sockets, unlike the simulator's scheduler, do not carry provenance.
//! [`frame_len`] counts the frame a message takes without writing it, so
//! `rt.bytes_sent` and the frame cap mean the same on every transport.
//!
//! Encoding appends into a caller-supplied buffer ([`encode_msg_into`])
//! so per-connection writers reuse one allocation across messages;
//! nothing on the encode path panics — a frame over the cap surfaces as a
//! [`WireError`].

use std::io::{BufRead, BufReader, Read};
use std::time::Instant;

use layercake_event::{
    varint_len, write_varint, BinCodec, CodecError, DecodeDict, DictMode, EncodeDict, FrameDecoder,
    FrameError, WireReader, FRAME_HEADER_LEN, HELLO_MAGIC, KIND_DICT, KIND_HELLO, KIND_MSG,
    MAX_FRAME_PAYLOAD,
};
use layercake_metrics::{PipelineStage, StageProfiler};
use layercake_overlay::OverlayMsg;
use layercake_sim::ActorId;

use crate::runtime::elapsed_ns;

/// Most bytes one link `write` carries, and the size of a link reader's
/// buffer: a backlog goes out in bounded pieces and comes in with one
/// `read`.
pub(crate) const LINK_BATCH_BYTES: usize = 64 * 1024;

/// The payload encoding, of which there is one. The type survives only
/// because `benchmark/src/sut.rs` passes `WireCodec::default()` to
/// [`LinkDecoder::new`] and [`encode_msg_into`] and a change to this crate
/// may not edit the benchmark; the `benchmark` PR that stops passing it
/// deletes the type and both parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// The compact binary codec: varints, tag bytes, dictionary-interned
    /// attribute names.
    #[default]
    Binary,
}

/// Errors surfaced while encoding or decoding the byte stream.
#[derive(Debug)]
pub enum WireError {
    /// The framing layer rejected the stream (oversized or truncated).
    Frame(FrameError),
    /// A frame's payload was not a valid binary wire message.
    Codec(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "framing error: {e}"),
            WireError::Codec(e) => write!(f, "binary codec error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Patches the 4-byte length header at `header_at` to cover everything
/// appended after it, or reports the frame-cap violation (truncating the
/// buffer back so a failed encode leaves no partial frame behind).
fn close_frame(out: &mut Vec<u8>, header_at: usize) -> Result<(), WireError> {
    let len = out.len() - header_at - FRAME_HEADER_LEN;
    if len > MAX_FRAME_PAYLOAD {
        out.truncate(header_at);
        return Err(WireError::Frame(FrameError::Oversized {
            len,
            max: MAX_FRAME_PAYLOAD,
        }));
    }
    out[header_at..header_at + FRAME_HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Encodes one wire message as a length-prefixed frame appended to `out`,
/// preceded by a dictionary-update frame when the encode just assigned
/// wire ids the peer has not learned yet (negotiated dictionaries only;
/// a shared dictionary never pends updates).
///
/// The message is encoded in place behind a length placeholder, so the
/// steady state allocates nothing once `out` has grown to the working
/// frame size.
///
/// # Errors
///
/// [`WireError::Frame`] when the payload exceeds the 16 MiB frame cap
/// (`out` is restored, no partial frame is left behind).
pub fn encode_msg_into(
    _codec: WireCodec,
    from: ActorId,
    msg: &OverlayMsg,
    dict: &mut EncodeDict,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let header_at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    out.push(KIND_MSG);
    write_varint(out, from.0.wrapping_add(1) as u64);
    msg.encode_bin(out, dict);
    close_frame(out, header_at)?;
    if dict.has_pending() {
        // First use of some names or shapes on this connection:
        // announce their wire ids in a dictionary frame spliced
        // *before* the message that references them. Rare by
        // construction (once per name or shape per connection), so the
        // O(frame) splice never shows on the hot path.
        let mut update = vec![0u8; FRAME_HEADER_LEN];
        dict.write_update(&mut update);
        close_frame(&mut update, 0)?;
        out.splice(header_at..header_at, update);
    }
    Ok(())
}

/// Encodes one message into a fresh buffer — the convenience form of
/// [`encode_msg_into`] for cold paths and tests.
///
/// # Errors
///
/// As [`encode_msg_into`].
pub fn encode_msg(
    from: ActorId,
    msg: &OverlayMsg,
    dict: &mut EncodeDict,
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_msg_into(WireCodec::Binary, from, msg, dict, &mut out)?;
    Ok(out)
}

/// The length of the frame [`encode_msg`] writes for `msg` from `from` on a
/// [`DictMode::Shared`] link, header included: an event message is counted
/// without allocating, by [`layercake_event::Envelope::wire_size`]'s dry
/// run of the encoder; a control message (setup traffic) by encoding it.
#[must_use]
pub fn frame_len(from: ActorId, msg: &OverlayMsg) -> usize {
    let body = match msg {
        OverlayMsg::Publish(env) | OverlayMsg::Deliver(env) => 1 + env.wire_size(),
        OverlayMsg::Durable { prev, off, env } => {
            1 + varint_len(*off) + varint_len(off.wrapping_sub(*prev)) + env.wire_size()
        }
        control => {
            let mut out = Vec::new();
            control.encode_bin(&mut out, &mut EncodeDict::new(DictMode::Shared));
            out.len()
        }
    };
    FRAME_HEADER_LEN + 1 + varint_len(from.0.wrapping_add(1) as u64) + body
}

/// A framed connection handshake: magic bytes (which end in the format
/// version) plus the sender's dictionary mode, the first frame on every
/// socket.
#[must_use]
pub fn encode_hello(mode: DictMode) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 5);
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    out.push(KIND_HELLO);
    out.extend_from_slice(&HELLO_MAGIC);
    out.push(mode.wire_byte());
    close_frame(&mut out, 0).expect("hello frame is 5 bytes");
    out
}

/// Checks a handshake body (the bytes after [`KIND_HELLO`]) against the
/// receiving end: the magic, then the format version, then the peer's
/// dictionary mode, each failing with its own error.
fn check_hello(body: &[u8], mode: DictMode) -> Result<(), CodecError> {
    let mut r = WireReader::new(body);
    let magic_len = HELLO_MAGIC.len() - 1;
    if r.bytes(magic_len).ok() != Some(&HELLO_MAGIC[..magic_len]) {
        return Err(CodecError::Invalid("bad handshake magic"));
    }
    let version = r.u8()?;
    if version != HELLO_MAGIC[magic_len] {
        return Err(CodecError::Version(version));
    }
    let found = r.u8()?;
    if found != mode.wire_byte() {
        return Err(CodecError::ModeMismatch {
            expected: mode,
            found,
        });
    }
    r.expect_end()
}

/// Decodes one frame payload back into `(sender, message)`, or consumes
/// it as connection control (`Ok(None)`): dictionary updates mutate
/// `dict`, handshakes are validated and absorbed.
///
/// # Errors
///
/// [`WireError::Codec`] on malformed payloads. A handshake is rejected
/// as a codec error for a bad magic, with [`CodecError::Version`] for
/// another format version, and with [`CodecError::ModeMismatch`] for a
/// dictionary mode other than `dict`'s.
pub fn decode_payload(
    payload: &[u8],
    dict: &mut DecodeDict,
) -> Result<Option<(ActorId, OverlayMsg)>, WireError> {
    let (&kind, rest) = payload.split_first().ok_or(CodecError::Truncated)?;
    match kind {
        KIND_MSG => {
            let mut r = WireReader::new(rest);
            let raw = r.varint()?;
            let from = usize::try_from(raw)
                .map_err(|_| CodecError::Invalid("sender id exceeds usize"))?
                .wrapping_sub(1);
            let msg = OverlayMsg::decode_bin(&mut r, dict)?;
            r.expect_end()?;
            Ok(Some((ActorId(from), msg)))
        }
        KIND_DICT => {
            dict.apply_update(rest)?;
            Ok(None)
        }
        KIND_HELLO => {
            check_hello(rest, dict.mode())?;
            Ok(None)
        }
        t => Err(CodecError::Tag(t).into()),
    }
}

/// Reads a socket's byte stream, the one reader of every runtime socket:
/// the first frame must be a handshake ([`encode_hello`]) of `mode`; each
/// frame after it is decoded with every check [`decode_payload`] makes
/// and handed to `handle`, as an `Err` when it does not decode (its
/// length was sound, so the handler may count it and go on). `profiler`
/// samples the `Decode` stage.
///
/// # Errors
///
/// The first error `handle` returns; a missing or refused handshake; a
/// frame cut short ([`CodecError::Truncated`]) or over the cap
/// ([`FrameError::Oversized`]). An end at a frame boundary is `Ok`.
pub fn read_link<E: From<WireError>>(
    stream: impl Read,
    mode: DictMode,
    profiler: Option<&StageProfiler>,
    mut handle: impl FnMut(Result<(ActorId, OverlayMsg), WireError>) -> Result<(), E>,
) -> Result<(), E> {
    let mut stream = BufReader::with_capacity(LINK_BATCH_BYTES, stream);
    let mut payload = Vec::new();
    if !read_frame(&mut stream, &mut payload)? {
        return Ok(());
    }
    let opened = match payload.split_first() {
        Some((&KIND_HELLO, body)) => check_hello(body, mode),
        _ => Err(CodecError::Invalid("stream opens without a handshake")),
    };
    opened.map_err(WireError::from)?;
    let mut dict = DecodeDict::new(mode);
    let mut sampler = 0u64;
    while read_frame(&mut stream, &mut payload)? {
        let timer = profiler
            .filter(|p| p.tick(&mut sampler))
            .map(|p| (p, Instant::now()));
        let Some(decoded) = decode_payload(&payload, &mut dict).transpose() else {
            continue;
        };
        if let (Some((p, t0)), Ok(_)) = (timer, &decoded) {
            p.record(PipelineStage::Decode, elapsed_ns(t0));
        }
        handle(decoded)?;
    }
    Ok(())
}

/// Reads the next frame's payload into `payload`: `Ok(false)` at an end
/// of stream (or a read error) on a frame boundary. A length over the
/// frame cap is refused before anything is allocated for it.
pub(crate) fn read_frame(
    stream: &mut impl BufRead,
    payload: &mut Vec<u8>,
) -> Result<bool, WireError> {
    if !stream.fill_buf().is_ok_and(|buf| !buf.is_empty()) {
        return Ok(false);
    }
    let mut head = [0u8; FRAME_HEADER_LEN];
    stream
        .read_exact(&mut head)
        .map_err(|_| CodecError::Truncated)?;
    let len = u32::from_le_bytes(head) as usize;
    if len > MAX_FRAME_PAYLOAD {
        let max = MAX_FRAME_PAYLOAD;
        return Err(FrameError::Oversized { len, max }.into());
    }
    payload.resize(len, 0);
    stream
        .read_exact(payload)
        .map_err(|_| CodecError::Truncated)?;
    Ok(true)
}

/// Names `benchmark/src/sut.rs` imports from the crate root that the
/// runtime does not use, re-exported there from here. Nothing in the
/// runtime reads with [`LinkDecoder`]: every socket is read by
/// [`read_link`], and a restarted shard replays its control log with
/// [`decode_payload`]. It survives only because `sut.rs` times its `push`
/// and `next_msg` and a change to this crate may not edit the benchmark;
/// the `benchmark` PR that times [`decode_payload`] instead deletes it,
/// and with it the runtime's last use of [`FrameDecoder`].
pub mod retired {
    pub use super::LinkDecoder;
}

/// One direction of a link: an incremental frame decoder plus the
/// connection's decode dictionary, yielding `(sender, message)` pairs
/// from arbitrarily chunked bytes. Dictionary and handshake frames are
/// consumed internally, and nothing requires a handshake first. Kept
/// for the benchmark only: see [`retired`].
#[derive(Debug)]
pub struct LinkDecoder {
    dict: DecodeDict,
    frames: FrameDecoder,
}

impl LinkDecoder {
    /// A decoder for a link between threads of one process (shared
    /// dictionary).
    #[must_use]
    pub fn new(_codec: WireCodec) -> Self {
        Self {
            dict: DecodeDict::new(DictMode::Shared),
            frames: FrameDecoder::new(),
        }
    }

    /// A decoder for a cross-process link: attribute ids are learned
    /// from the peer's dictionary-update frames.
    #[must_use]
    pub fn negotiated() -> Self {
        Self {
            dict: DecodeDict::new(DictMode::Negotiated),
            frames: FrameDecoder::new(),
        }
    }

    /// Appends received bytes to the framing buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.frames.push(bytes);
    }

    /// Extracts the next decoded message, if a complete one is buffered.
    /// Control frames (dictionary updates, handshakes) are consumed
    /// without surfacing.
    ///
    /// # Errors
    ///
    /// Framing errors are terminal for the stream (the inner decoder
    /// poisons); payload errors poison nothing — framing boundaries are
    /// intact, so the caller may count and continue or drop the link.
    pub fn next_msg(&mut self) -> Result<Option<(ActorId, OverlayMsg)>, WireError> {
        while let Some(payload) = self.frames.next_frame()? {
            if let Some(decoded) = decode_payload(&payload, &mut self.dict)? {
                return Ok(Some(decoded));
            }
        }
        Ok(None)
    }

    /// Declares the stream finished; a buffered partial frame errors.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::finish`].
    pub fn finish(&self) -> Result<(), WireError> {
        Ok(self.frames.finish()?)
    }

    /// Drops buffered framing state after an error, keeping the learned
    /// dictionary (for a caller that pushes whole frames, so the next push
    /// starts clean; sockets drop the connection instead).
    pub fn reset_framing(&mut self) {
        self.frames = FrameDecoder::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::{event_data, ClassId, Envelope, EventSeq};

    fn deliver_msg() -> OverlayMsg {
        let meta = event_data! { "wire_rt_region" => 3i64, "wire_rt_symbol" => "Foo" };
        OverlayMsg::Deliver(Envelope::from_meta(
            ClassId(2),
            "WireRt",
            EventSeq(77),
            meta,
        ))
    }

    #[test]
    fn a_message_round_trips_with_its_sender() {
        let msg = OverlayMsg::AckUpto {
            class: ClassId(2),
            upto: 9,
        };
        let mut dict = EncodeDict::new(DictMode::Shared);
        let bytes = encode_msg(ActorId(usize::MAX), &msg, &mut dict).unwrap();
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&bytes);
        let (from, back) = dec.next_msg().unwrap().expect("one message");
        assert_eq!(from, ActorId(usize::MAX));
        assert_eq!(back, msg);
        assert!(dec.next_msg().unwrap().is_none());
        dec.finish().unwrap();
        // The external sender is the cheapest one to name: header, kind,
        // one sender byte, then the message's tag and two varints.
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + 5);
    }

    /// Tag 12 named the simulator's `Sequenced` link frame. The link
    /// layer's vocabulary is not part of the production protocol, so a
    /// peer still sending one is rejected at the tag, like any unknown
    /// variant.
    #[test]
    fn a_retired_link_layer_tag_is_a_codec_error() {
        let mut payload = vec![KIND_MSG];
        write_varint(&mut payload, 1);
        payload.extend_from_slice(&[12, 3]);
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&layercake_event::encode_frame(&payload).unwrap());
        assert!(matches!(
            dec.next_msg(),
            Err(WireError::Codec(CodecError::Tag(12)))
        ));
    }

    #[test]
    fn reused_buffer_accumulates_frames() {
        let mut dict = EncodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        encode_msg_into(
            WireCodec::Binary,
            ActorId(1),
            &OverlayMsg::Renew,
            &mut dict,
            &mut buf,
        )
        .unwrap();
        let first = buf.len();
        encode_msg_into(
            WireCodec::Binary,
            ActorId(2),
            &deliver_msg(),
            &mut dict,
            &mut buf,
        )
        .unwrap();
        assert!(buf.len() > first);
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&buf);
        assert_eq!(dec.next_msg().unwrap().unwrap().0, ActorId(1));
        assert_eq!(dec.next_msg().unwrap().unwrap().1, deliver_msg());
        dec.finish().unwrap();
    }

    #[test]
    fn negotiated_dict_update_precedes_the_message() {
        let mut dict = EncodeDict::new(DictMode::Negotiated);
        let bytes = encode_msg(ActorId(3), &deliver_msg(), &mut dict).unwrap();
        // A fresh negotiated decoder can only succeed if the dictionary
        // frame arrives before the message referencing it.
        let mut dec = LinkDecoder::negotiated();
        dec.push(&bytes);
        let (from, msg) = dec.next_msg().unwrap().expect("message after dict update");
        assert_eq!(from, ActorId(3));
        assert_eq!(msg, deliver_msg());
        // Second message re-uses the learned ids: no further dict frame.
        let again = encode_msg(ActorId(3), &deliver_msg(), &mut dict).unwrap();
        assert!(again.len() < bytes.len());
        dec.push(&again);
        assert_eq!(dec.next_msg().unwrap().unwrap().1, deliver_msg());
    }

    #[test]
    fn hello_frames_are_absorbed() {
        let mut dec = LinkDecoder::negotiated();
        dec.push(&encode_hello(DictMode::Negotiated));
        assert!(dec.next_msg().unwrap().is_none());
        let mut dict = EncodeDict::new(DictMode::Shared);
        dec.push(&encode_msg(ActorId(1), &OverlayMsg::Renew, &mut dict).unwrap());
        assert_eq!(dec.next_msg().unwrap().unwrap().1, OverlayMsg::Renew);
    }

    #[test]
    fn bad_hello_magic_is_rejected() {
        let mut out = vec![0u8; FRAME_HEADER_LEN];
        out.push(KIND_HELLO);
        out.extend_from_slice(b"XX\x01");
        close_frame(&mut out, 0).unwrap();
        let mut dec = LinkDecoder::negotiated();
        dec.push(&out);
        assert!(matches!(dec.next_msg(), Err(WireError::Codec(_))));
    }

    fn hello(body: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; FRAME_HEADER_LEN];
        out.push(KIND_HELLO);
        out.extend_from_slice(body);
        close_frame(&mut out, 0).unwrap();
        out
    }

    #[test]
    fn a_hello_of_another_version_or_mode_is_a_typed_error() {
        // A format-1 peer: same magic, version byte 1, negotiated mode.
        let mut dec = LinkDecoder::negotiated();
        dec.push(&hello(b"LC\x01\x01"));
        assert!(matches!(
            dec.next_msg(),
            Err(WireError::Codec(CodecError::Version(1)))
        ));
        // The right version from a peer running another dictionary mode.
        dec.push(&encode_hello(DictMode::Shared));
        assert!(matches!(
            dec.next_msg(),
            Err(WireError::Codec(CodecError::ModeMismatch {
                expected: DictMode::Negotiated,
                found: 0
            }))
        ));
        // A handshake cut short of its mode byte.
        dec.push(&hello(&HELLO_MAGIC));
        assert!(matches!(
            dec.next_msg(),
            Err(WireError::Codec(CodecError::Truncated))
        ));
        // None of it cost the link its state.
        dec.push(&encode_hello(DictMode::Negotiated));
        let mut dict = EncodeDict::new(DictMode::Negotiated);
        dec.push(&encode_msg(ActorId(1), &deliver_msg(), &mut dict).unwrap());
        assert_eq!(dec.next_msg().unwrap().unwrap().1, deliver_msg());
    }

    /// The bytes of the frames a `Stock { symbol, price }` event costs on
    /// an in-process link at sequence number 300 000, five seconds into a
    /// run: the publisher's `Publish` (external sender, trace freshly
    /// stamped) and a broker's `Deliver` (the hop 3 µs later). A field
    /// that widens fails here.
    #[test]
    fn stock_frames_keep_their_size() {
        use layercake_event::{typed_event, TraceContext, TraceId};
        typed_event! {
            pub struct Stock: "Stock" {
                symbol: String,
                price: f64,
            }
        }
        const SEQ: u64 = 300_000;
        const T: u64 = 5_000_000_000;
        let stock = Stock::new("SYM042".to_owned(), 10.25);
        let mut env = Envelope::encode(ClassId(0), EventSeq(SEQ), &stock).unwrap();
        env.set_trace(Some(TraceContext::new(TraceId(SEQ), T)));
        let mut dict = EncodeDict::new(DictMode::Shared);
        let external = ActorId(usize::MAX);
        let publish = encode_msg(external, &OverlayMsg::Publish(env.clone()), &mut dict).unwrap();
        // header 4 · kind 1 · sender 1 · tag 1 · shape 1 · seq 3 · flags 1
        // · symbol 7 · price 8 · published_at 5 · hop 1
        assert_eq!(publish.len(), 33);
        env.touch_trace(T + 3_000);
        let deliver = encode_msg(ActorId(1), &OverlayMsg::Deliver(env.clone()), &mut dict).unwrap();
        // … the same, with a 2-byte hop delta
        assert_eq!(deliver.len(), 34);
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&publish);
        dec.push(&deliver);
        assert_eq!(dec.next_msg().unwrap().unwrap().0, external);
        let (from, back) = dec.next_msg().unwrap().unwrap();
        assert_eq!((from, back), (ActorId(1), OverlayMsg::Deliver(env)));
    }

    /// Includes a well-framed message in the retired JSON wire format: a
    /// peer still speaking it is rejected at the kind byte, and the link
    /// goes on decoding the frames that follow.
    #[test]
    fn garbage_payload_is_a_codec_error_and_costs_the_link_nothing() {
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        for raw in [&b"\x63\x01"[..], br#"{"from":1,"msg":{"t":"Renew"}}"#] {
            dec.push(&layercake_event::encode_frame(raw).unwrap());
            assert!(matches!(
                dec.next_msg(),
                Err(WireError::Codec(CodecError::Tag(t))) if t == raw[0]
            ));
        }
        let mut dict = EncodeDict::new(DictMode::Shared);
        dec.push(&encode_msg(ActorId(1), &OverlayMsg::Renew, &mut dict).unwrap());
        assert_eq!(dec.next_msg().unwrap().unwrap().1, OverlayMsg::Renew);
        dec.finish().unwrap();
    }

    #[test]
    fn empty_payload_is_rejected_not_panicking() {
        let framed = layercake_event::encode_frame(b"").unwrap();
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&framed);
        assert!(matches!(
            dec.next_msg(),
            Err(WireError::Codec(CodecError::Truncated))
        ));
    }

    #[test]
    fn truncated_stream_is_a_frame_error_on_finish() {
        let mut dict = EncodeDict::new(DictMode::Shared);
        let bytes = encode_msg(ActorId(1), &OverlayMsg::Renew, &mut dict).unwrap();
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&bytes[..bytes.len() - 1]);
        assert!(dec.next_msg().unwrap().is_none());
        assert!(dec.finish().is_err());
    }

    #[test]
    fn trailing_bytes_after_a_message_error() {
        let mut dict = EncodeDict::new(DictMode::Shared);
        let mut payload = vec![KIND_MSG];
        write_varint(&mut payload, 1);
        OverlayMsg::Renew.encode_bin(&mut payload, &mut dict);
        payload.push(0xAB);
        let framed = layercake_event::encode_frame(&payload).unwrap();
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&framed);
        assert!(matches!(
            dec.next_msg(),
            Err(WireError::Codec(CodecError::Trailing))
        ));
    }
}
