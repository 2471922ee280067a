//! The runtime's wire format: one length-prefixed frame per message.
//!
//! A frame's payload is a [`layercake_event::KIND_MSG`] byte, the sender
//! id as a varint, then the [`BinCodec`] encoding of the overlay message.
//! Attribute names travel as interned ids through the connection's
//! [`EncodeDict`]/[`DecodeDict`]; in-process links run the dictionary in
//! [`DictMode::Shared`] (the global interner *is* the dictionary),
//! cross-process links negotiate a dense id space via
//! [`layercake_event::KIND_DICT`] frames emitted ahead of the first
//! message that references a new name.
//!
//! Every hop in the runtime pays the full cycle — serialize, frame,
//! deframe, deserialize — so the measured throughput includes the real
//! marshalling cost the deterministic simulator only models. The sender
//! id rides inside the frame because OS channels and sockets, unlike the
//! simulator's scheduler, do not carry provenance.
//!
//! Encoding appends into a caller-supplied buffer ([`encode_msg_into`])
//! so per-connection writers and the dispatch hot path reuse one
//! allocation across messages; nothing on the encode path panics — the
//! frame-cap check that used to `expect()` now surfaces as a
//! [`WireError`].

use std::cell::RefCell;

use layercake_event::{
    write_varint, BinCodec, CodecError, DecodeDict, DictMode, EncodeDict, FrameDecoder, FrameError,
    WireReader, FRAME_HEADER_LEN, HELLO_MAGIC, KIND_DICT, KIND_HELLO, KIND_MSG, MAX_FRAME_PAYLOAD,
};
use layercake_overlay::OverlayMsg;
use layercake_sim::ActorId;

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
    write_varint(out, from.0 as u64);
    msg.encode_bin(out, dict);
    close_frame(out, header_at)?;
    if dict.has_pending() {
        // First use of some attribute names on this connection:
        // announce their wire ids in a dictionary frame spliced
        // *before* the message that references them. Rare by
        // construction (once per name per connection), so the
        // O(frame) splice never shows on the hot path.
        let pending = dict.take_pending();
        let mut update = Vec::with_capacity(FRAME_HEADER_LEN + 8 * pending.len());
        update.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        layercake_event::encode_dict_update(&pending, &mut update);
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

/// A framed connection handshake: magic bytes plus the sender's
/// dictionary mode, sent once at connection open by cross-process peers.
#[must_use]
pub fn encode_hello(mode: DictMode) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 5);
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    out.push(KIND_HELLO);
    out.extend_from_slice(&HELLO_MAGIC);
    out.push(match mode {
        DictMode::Shared => 0,
        DictMode::Negotiated => 1,
        DictMode::Inline => 2,
    });
    close_frame(&mut out, 0).expect("hello frame is 5 bytes");
    out
}

thread_local! {
    /// Per-thread reusable encode state for the in-process dispatch hot
    /// path: dispatch is called from every node thread, and in-process
    /// links always run the shared dictionary, so one `(dict, buffer)`
    /// pair per thread serves every destination without locking.
    static DISPATCH_BUF: RefCell<(EncodeDict, Vec<u8>)> =
        RefCell::new((EncodeDict::new(DictMode::Shared), Vec::with_capacity(256)));
}

/// Encodes one message for the router's dispatch path, reusing a
/// thread-local buffer for the encode itself; the returned `Vec` is
/// sized exactly to the frame (channel ownership needs an owned buffer,
/// but the working buffer's growth is amortized away).
///
/// # Errors
///
/// As [`encode_msg_into`].
pub(crate) fn encode_for_dispatch(from: ActorId, msg: &OverlayMsg) -> Result<Vec<u8>, WireError> {
    DISPATCH_BUF.with(|cell| {
        let (dict, buf) = &mut *cell.borrow_mut();
        buf.clear();
        encode_msg_into(WireCodec::Binary, from, msg, dict, buf)?;
        Ok(buf.as_slice().to_vec())
    })
}

/// Decodes one frame payload back into `(sender, message)`, or consumes
/// it as connection control (`Ok(None)`): dictionary updates mutate
/// `dict`, handshakes are validated and absorbed.
///
/// # Errors
///
/// [`WireError::Codec`] on malformed payloads; a bad handshake magic is
/// rejected as a codec error.
pub fn decode_payload(
    payload: &[u8],
    dict: &mut DecodeDict,
) -> Result<Option<(ActorId, OverlayMsg)>, WireError> {
    let (&kind, rest) = payload.split_first().ok_or(CodecError::Truncated)?;
    match kind {
        KIND_MSG => {
            let mut r = WireReader::new(rest);
            let raw = r.varint()?;
            let from = ActorId(
                usize::try_from(raw).map_err(|_| CodecError::Invalid("sender id exceeds usize"))?,
            );
            let msg = OverlayMsg::decode_bin(&mut r, dict)?;
            r.expect_end()?;
            Ok(Some((from, msg)))
        }
        KIND_DICT => {
            dict.apply_update(rest)?;
            Ok(None)
        }
        KIND_HELLO => {
            if rest.len() < HELLO_MAGIC.len() || rest[..HELLO_MAGIC.len()] != HELLO_MAGIC {
                return Err(CodecError::Invalid("bad handshake magic").into());
            }
            Ok(None)
        }
        t => Err(CodecError::Tag(t).into()),
    }
}

/// One direction of a link: an incremental frame decoder plus the
/// connection's decode dictionary, yielding `(sender, message)` pairs
/// from arbitrarily chunked bytes. Dictionary and handshake frames are
/// consumed internally.
#[derive(Debug)]
pub struct LinkDecoder {
    dict: DecodeDict,
    frames: FrameDecoder,
}

impl LinkDecoder {
    /// A decoder for an in-process link (shared dictionary).
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
    /// dictionary (in-process channels deliver whole frames, so the next
    /// channel message starts clean; sockets drop the connection
    /// instead).
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
        let msg = OverlayMsg::CreditGrant { consumed_total: 9 };
        let mut dict = EncodeDict::new(DictMode::Shared);
        let bytes = encode_msg(ActorId(usize::MAX), &msg, &mut dict).unwrap();
        let mut dec = LinkDecoder::new(WireCodec::Binary);
        dec.push(&bytes);
        let (from, back) = dec.next_msg().unwrap().expect("one message");
        assert_eq!(from, ActorId(usize::MAX));
        assert_eq!(back, msg);
        assert!(dec.next_msg().unwrap().is_none());
        dec.finish().unwrap();
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

    #[test]
    fn dispatch_buffer_reuse_matches_fresh_encode() {
        let msg = deliver_msg();
        let via_tls = encode_for_dispatch(ActorId(7), &msg).unwrap();
        let mut dict = EncodeDict::new(DictMode::Shared);
        let fresh = encode_msg(ActorId(7), &msg, &mut dict).unwrap();
        assert_eq!(via_tls, fresh);
        // And again, exercising the cleared-buffer path.
        assert_eq!(encode_for_dispatch(ActorId(7), &msg).unwrap(), fresh);
    }
}
