//! The binary wire codec: varint primitives, bounds-checked reading, the
//! per-connection dictionary of names and shapes, and the envelope format.
//!
//! Every hop encodes and decodes the envelopes it forwards, so the format
//! spends bytes only on what the receiver cannot know already:
//!
//! * **varints** — LEB128 for unsigned integers, zigzag for signed, so
//!   sequence numbers, offsets and ids cost 1–3 bytes;
//! * **the dictionary** — attribute and class names travel as small
//!   integer ids, and so do *shapes*: a shape is a class plus the ordered
//!   `(attribute, kind)` list of its meta-data, which the paper's classes
//!   declare once, at advertisement (Sections 3.4 and 4.1). Inside one
//!   process the global [`AttrId`] interner and shape table *are* the
//!   dictionary ([`DictMode::Shared`]). Across a socket each connection
//!   numbers its own names and shapes, and announces each in a
//!   dictionary-update frame ahead of the first message that uses it
//!   ([`DictMode::Negotiated`]). A stored record spells both out in place
//!   ([`DictMode::Inline`]);
//! * **positional values** — an envelope is a shape reference, then its
//!   values untagged and in shape order. The decoder reads each by the
//!   kind the shape declares and rejects one that is not a value of that
//!   kind ([`CodecError::Value`]), so a decoded event always has its
//!   shape;
//! * **bounds-checked decoding** — [`WireReader`] never reads past its
//!   slice, and every length and count is checked against the bytes
//!   actually present *before* anything is allocated for it. Garbage and
//!   truncated input is a [`CodecError`], never a panic or an OOM.
//!
//! An envelope (format 2, [`HELLO_MAGIC`]) is laid out as
//!
//! ```text
//! shape · seq · flags · values… · [payload] · [trace]
//! flags   = 1 payload present | 2 trace present | 4 trace id == seq
//! payload = varint length · bytes (a typed event has none: its
//!           meta-data is the whole event)
//! trace   = published_at · zigzag(last_hop_at − published_at) · [id]
//! ```
//!
//! Types encode themselves via [`BinCodec`]; the overlay message enum and
//! the filter language implement it in their own crates on top of these
//! primitives.

use std::borrow::Cow;

use bytes::Bytes;

use crate::class::ClassId;
use crate::data::EventData;
use crate::envelope::{Envelope, EventSeq};
use crate::intern::AttrId;
use crate::shape::{Shape, ShapeId};
use crate::stage::{Advertisement, StageMap};
use crate::trace_ctx::{TraceContext, TraceId};
use crate::value::{AttrValue, ValueKind};

/// Frame payload discriminator: an application message follows.
pub const KIND_MSG: u8 = 0;
/// Frame payload discriminator: a dictionary update (new name and shape
/// mappings the peer must learn before decoding subsequent messages).
pub const KIND_DICT: u8 = 1;
/// Frame payload discriminator: a connection handshake.
pub const KIND_HELLO: u8 = 2;

/// Magic bytes opening a handshake frame: "LC" and the format version, 2
/// since envelopes carry positional values behind a shape reference. A
/// peer announcing another version is refused with
/// [`CodecError::Version`].
pub const HELLO_MAGIC: [u8; 3] = [b'L', b'C', 2];

/// Why a binary decode failed. All failures are total — no partial
/// values escape — and none panic, whatever the input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits.
    Overflow,
    /// An unknown enum tag or flags byte.
    Tag(u8),
    /// A declared length exceeds the bytes actually present.
    Length,
    /// A dictionary reference to an id this connection never learned.
    DictMiss(u64),
    /// A structurally invalid value (bad UTF-8 in a name, a rejected
    /// invariant).
    Invalid(&'static str),
    /// The bytes of a value are not a value of the kind its shape or tag
    /// declares: invalid UTF-8, a bool byte other than 0 or 1, a NaN
    /// float.
    Value(ValueKind),
    /// A handshake announcing a format version other than
    /// [`HELLO_MAGIC`]'s.
    Version(u8),
    /// A handshake announcing a dictionary mode (its wire byte) other than
    /// the one the receiving decoder runs.
    ModeMismatch {
        /// The receiving decoder's mode.
        expected: DictMode,
        /// The mode byte the peer sent.
        found: u8,
    },
    /// Trailing bytes after a complete value.
    Trailing,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::Overflow => write!(f, "varint overflows 64 bits"),
            CodecError::Tag(t) => write!(f, "unknown tag byte {t}"),
            CodecError::Length => write!(f, "declared length exceeds input"),
            CodecError::DictMiss(id) => write!(f, "unknown dictionary id {id}"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::Value(kind) => write!(f, "bytes are not a valid {kind} value"),
            CodecError::Version(v) => write!(
                f,
                "peer speaks wire format version {v}, this build speaks {}",
                HELLO_MAGIC[2]
            ),
            CodecError::ModeMismatch { expected, found } => write!(
                f,
                "peer announced dictionary mode byte {found}, this end runs {expected:?}"
            ),
            CodecError::Trailing => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1 byte for values < 128).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The number of bytes [`write_varint`] spends on `v`.
#[must_use]
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Appends `v` zigzag-mapped then LEB128-encoded, so small magnitudes of
/// either sign stay small on the wire.
pub fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_varint(out, zigzag(v));
}

/// Where an encoding goes: a buffer, or a [`Counter`] of the bytes it
/// would take. The envelope body is written once, generically, so that
/// [`Envelope::wire_size`] is the encoder run dry, not a second account
/// of the format.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn put_u8(&mut self, b: u8);
    fn put_varint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }
    fn put_varint(&mut self, v: u64) {
        write_varint(self, v);
    }
}

/// A sink that only counts.
struct Counter(usize);

impl Sink for Counter {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn put_varint(&mut self, v: u64) {
        self.0 += varint_len(v);
    }
}

/// A bounds-checked cursor over a byte slice. Every read either returns
/// a complete value or a [`CodecError`]; the cursor never advances past
/// the end and never allocates more than the bytes it can see.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload for decoding.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`CodecError::Trailing`] unless the input is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Trailing`] when unconsumed bytes remain.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on short input and
    /// [`CodecError::Overflow`] when the encoding exceeds 64 bits.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            // The tenth byte may only carry the final single bit.
            if shift == 63 && bits > 1 {
                return Err(CodecError::Overflow);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Overflow)
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Propagates the failures of [`WireReader::varint`].
    pub fn zigzag(&mut self) -> Result<i64, CodecError> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads exactly `len` bytes, without copying.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Length`] when fewer than `len` remain.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() {
            return Err(CodecError::Length);
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a varint length followed by that many bytes.
    ///
    /// # Errors
    ///
    /// Fails as [`WireReader::varint`] / [`WireReader::bytes`] do; the
    /// length is validated against the remaining input before any use,
    /// so a hostile length cannot trigger allocation.
    pub fn len_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| CodecError::Length)?;
        self.bytes(len)
    }

    /// Reads a varint length followed by that many UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// Fails as [`WireReader::len_bytes`] does, plus
    /// [`CodecError::Invalid`] on malformed UTF-8.
    pub fn string(&mut self) -> Result<&'a str, CodecError> {
        utf8(self.len_bytes()?)
    }

    /// Reads an 8-byte little-endian f64.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on short input.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.bytes(8).map_err(|_| CodecError::Truncated)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a varint element count for a collection whose elements each
    /// occupy at least one byte, rejecting counts the input cannot hold.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Length`] when the count exceeds the
    /// remaining bytes (so a hostile count cannot pre-allocate memory).
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Length)?;
        if n > self.remaining() {
            return Err(CodecError::Length);
        }
        Ok(n)
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, CodecError> {
    std::str::from_utf8(bytes).map_err(|_| CodecError::Invalid("utf-8"))
}

/// Appends a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// Value kinds by their two-bit wire code: the tag byte of a tagged value
/// (a filter constant), and the low two bits of a shape's attribute entry.
const KINDS: [ValueKind; 4] = [
    ValueKind::Int,
    ValueKind::Float,
    ValueKind::Str,
    ValueKind::Bool,
];

fn kind_code(kind: ValueKind) -> u8 {
    match kind {
        ValueKind::Int => 0,
        ValueKind::Float => 1,
        ValueKind::Str => 2,
        ValueKind::Bool => 3,
    }
}

/// A shape's attribute entry: the attribute reference's leading varint
/// (a wire id, or an inline name's length) with the kind in its low two
/// bits, so that a kind costs no byte of its own.
fn attr_entry(reference: u64, kind: ValueKind) -> u64 {
    (reference << 2) | u64::from(kind_code(kind))
}

fn split_attr_entry(entry: u64) -> (u64, ValueKind) {
    (entry >> 2, KINDS[(entry & 3) as usize])
}

/// Appends one value without a tag: the reader knows its kind.
fn write_value<S: Sink>(out: &mut S, value: &AttrValue) {
    match value {
        AttrValue::Int(v) => out.put_varint(zigzag(*v)),
        AttrValue::Float(v) => out.put(&v.to_bits().to_le_bytes()),
        AttrValue::Str(s) => {
            out.put_varint(s.len() as u64);
            out.put(s.as_bytes());
        }
        AttrValue::Bool(b) => out.put_u8(u8::from(*b)),
    }
}

/// Reads one untagged value of the declared kind.
fn read_value(r: &mut WireReader<'_>, kind: ValueKind) -> Result<AttrValue, CodecError> {
    Ok(match kind {
        ValueKind::Int => AttrValue::Int(r.zigzag()?),
        ValueKind::Float => {
            // `AttrValue::float` rejects NaN; the wire does too.
            let f = r.f64()?;
            if f.is_nan() {
                return Err(CodecError::Value(kind));
            }
            AttrValue::Float(f)
        }
        ValueKind::Str => {
            let s = std::str::from_utf8(r.len_bytes()?).map_err(|_| CodecError::Value(kind))?;
            AttrValue::Str(s.to_owned())
        }
        ValueKind::Bool => match r.u8()? {
            0 => AttrValue::Bool(false),
            1 => AttrValue::Bool(true),
            _ => return Err(CodecError::Value(kind)),
        },
    })
}

// ---------------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------------

/// How names and shapes map to wire integers on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictMode {
    /// Both endpoints share one process, hence one [`AttrId`] interner
    /// and one shape table: the interned id *is* the wire id and no
    /// negotiation ever happens. This is what the in-process transport
    /// uses.
    Shared,
    /// The endpoints are separate processes: the sender assigns dense
    /// wire ids on first use and announces each mapping in a
    /// [`KIND_DICT`] frame *before* the message that relies on it.
    Negotiated,
    /// No connection at all: every reference spells its name or shape
    /// out in place, so a value decodes with nothing but its own bytes.
    /// This is the mode of stored records (the write-ahead log), which
    /// outlive the process whose interner numbered them and are read back
    /// from arbitrary positions.
    Inline,
}

impl DictMode {
    /// The byte a handshake announces this mode with.
    #[must_use]
    pub fn wire_byte(self) -> u8 {
        match self {
            DictMode::Shared => 0,
            DictMode::Negotiated => 1,
            DictMode::Inline => 2,
        }
    }
}

/// Looks up a per-connection wire id, assigning the next one on first use.
/// `table[i]` is the wire id of local index `i` plus one (0 = unassigned),
/// so lookup on the encode hot path is an array load, not a hash.
/// Returns the wire id and whether it was just assigned.
fn assign(table: &mut Vec<u64>, next: &mut u64, idx: usize) -> (u64, bool) {
    if idx >= table.len() {
        table.resize(idx + 1, 0);
    }
    if table[idx] != 0 {
        return (table[idx] - 1, false);
    }
    let wire = *next;
    *next += 1;
    table[idx] = wire + 1;
    (wire, true)
}

/// The sender's half of the dictionary: maps interned [`AttrId`]s and
/// shapes to wire ids, and keeps the mappings the peer has not been told
/// yet.
#[derive(Debug)]
pub struct EncodeDict {
    mode: DictMode,
    /// Negotiated mode: wire ids of names, by [`AttrId`] (see [`assign`]).
    names: Vec<u64>,
    next_name: u64,
    /// Negotiated mode: wire ids of shapes, by shape id.
    shapes: Vec<u64>,
    next_shape: u64,
    /// Entries not announced yet, already in update form.
    pending_names: Vec<u8>,
    pending_name_count: u64,
    pending_shapes: Vec<u8>,
    pending_shape_count: u64,
}

impl EncodeDict {
    /// A dictionary for the given mode, empty of assignments.
    #[must_use]
    pub fn new(mode: DictMode) -> Self {
        Self {
            mode,
            names: Vec::new(),
            next_name: 0,
            shapes: Vec::new(),
            next_shape: 0,
            pending_names: Vec::new(),
            pending_name_count: 0,
            pending_shapes: Vec::new(),
            pending_shape_count: 0,
        }
    }

    /// The mode this dictionary was built for.
    #[must_use]
    pub fn mode(&self) -> DictMode {
        self.mode
    }

    /// A name's wire id on this negotiated connection, queueing its
    /// announcement on first use.
    fn name_wire(&mut self, id: AttrId) -> u64 {
        let (wire, new) = assign(&mut self.names, &mut self.next_name, id.0 as usize);
        if new {
            write_varint(&mut self.pending_names, wire);
            write_str(&mut self.pending_names, id.name());
            self.pending_name_count += 1;
        }
        wire
    }

    /// A shape's wire id on this negotiated connection, queueing its
    /// announcement — and its names' — on first use.
    fn shape_wire(&mut self, id: ShapeId) -> u64 {
        let (wire, new) = assign(&mut self.shapes, &mut self.next_shape, id.0 as usize);
        if new {
            let shape = id.shape();
            let mut entry = Vec::new();
            write_varint(&mut entry, wire);
            write_varint(&mut entry, u64::from(shape.class.0));
            write_varint(&mut entry, self.name_wire(AttrId::intern(shape.class_name)));
            write_varint(&mut entry, shape.attrs.len() as u64);
            for &(attr, kind) in shape.attrs.iter() {
                write_varint(&mut entry, attr_entry(self.name_wire(attr), kind));
            }
            self.pending_shapes.extend_from_slice(&entry);
            self.pending_shape_count += 1;
        }
        wire
    }

    /// Encodes one attribute reference, assigning a wire id on first use
    /// in [`DictMode::Negotiated`] mode.
    pub fn write_attr(&mut self, out: &mut Vec<u8>, id: AttrId) {
        match self.mode {
            DictMode::Shared => write_varint(out, u64::from(id.0)),
            DictMode::Inline => write_str(out, id.name()),
            DictMode::Negotiated => {
                let wire = self.name_wire(id);
                write_varint(out, wire);
            }
        }
    }

    /// Encodes the shape reference that opens an envelope.
    fn write_shape(&mut self, out: &mut Vec<u8>, env: &Envelope) {
        match self.mode {
            DictMode::Shared => write_varint(out, u64::from(env.shape_id().0)),
            DictMode::Negotiated => {
                let wire = self.shape_wire(env.shape_id());
                write_varint(out, wire);
            }
            // Spelled out from the envelope itself: a stored record
            // interns nothing on the way out.
            DictMode::Inline => {
                write_varint(out, u64::from(env.class().0));
                write_str(out, env.class_name());
                write_varint(out, env.meta().len() as u64);
                for (id, value) in env.meta().iter_ids() {
                    let name = id.name();
                    write_varint(out, attr_entry(name.len() as u64, value.kind()));
                    out.extend_from_slice(name.as_bytes());
                }
            }
        }
    }

    /// Whether any mappings await announcement.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending_name_count + self.pending_shape_count > 0
    }

    /// Appends a [`KIND_DICT`] payload announcing every mapping assigned
    /// since the last call — names first, then the shapes that use them —
    /// and returns how many it announced (and appends nothing at 0). The
    /// transport must deliver it before the message whose encoding
    /// minted them.
    pub fn write_update(&mut self, out: &mut Vec<u8>) -> usize {
        let announced = self.pending_name_count + self.pending_shape_count;
        if announced == 0 {
            return 0;
        }
        out.push(KIND_DICT);
        write_varint(out, self.pending_name_count);
        out.append(&mut self.pending_names);
        write_varint(out, self.pending_shape_count);
        out.append(&mut self.pending_shapes);
        self.pending_name_count = 0;
        self.pending_shape_count = 0;
        announced as usize
    }
}

/// The receiver's half of the dictionary: maps wire ids back to interned
/// [`AttrId`]s and shapes.
#[derive(Debug)]
pub struct DecodeDict {
    mode: DictMode,
    /// Negotiated mode: `names[wire_id]` is the locally interned id.
    names: Vec<AttrId>,
    /// Negotiated mode: `shapes[wire_id]` is the locally interned shape.
    shapes: Vec<ShapeId>,
}

impl DecodeDict {
    /// A dictionary for the given mode, empty of learned mappings.
    #[must_use]
    pub fn new(mode: DictMode) -> Self {
        Self {
            mode,
            names: Vec::new(),
            shapes: Vec::new(),
        }
    }

    /// The mode this dictionary was built for.
    #[must_use]
    pub fn mode(&self) -> DictMode {
        self.mode
    }

    fn learned<T: Copy>(table: &[T], wire: u64) -> Result<T, CodecError> {
        usize::try_from(wire)
            .ok()
            .and_then(|i| table.get(i))
            .copied()
            .ok_or(CodecError::DictMiss(wire))
    }

    /// Decodes one attribute reference.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::DictMiss`] for a wire id this connection
    /// was never taught ([`DictMode::Negotiated`]) or that exceeds the
    /// process interner ([`DictMode::Shared`] — possible only when a
    /// foreign or corrupt payload is fed to an in-process decoder), and
    /// the failures of [`WireReader::string`] in [`DictMode::Inline`].
    pub fn read_attr(&self, r: &mut WireReader<'_>) -> Result<AttrId, CodecError> {
        match self.mode {
            DictMode::Shared => {
                let wire = r.varint()?;
                if wire < AttrId::universe_size() as u64 {
                    Ok(AttrId(wire as u32))
                } else {
                    Err(CodecError::DictMiss(wire))
                }
            }
            DictMode::Negotiated => Self::learned(&self.names, r.varint()?),
            DictMode::Inline => Ok(AttrId::intern(r.string()?)),
        }
    }

    /// Decodes the shape reference that opens an envelope: the interned
    /// shape it names, or in [`DictMode::Inline`] the shape spelled out
    /// in place (checked, not interned).
    fn read_shape(
        &self,
        r: &mut WireReader<'_>,
    ) -> Result<(Option<ShapeId>, Cow<'static, Shape>), CodecError> {
        match self.mode {
            DictMode::Shared => {
                let wire = r.varint()?;
                let (id, shape) = ShapeId::resolve(wire).ok_or(CodecError::DictMiss(wire))?;
                Ok((Some(id), Cow::Borrowed(shape)))
            }
            DictMode::Negotiated => {
                let id = Self::learned(&self.shapes, r.varint()?)?;
                Ok((Some(id), Cow::Borrowed(id.shape())))
            }
            DictMode::Inline => {
                let class = ClassId::decode_bin(r, self)?;
                let class_name = AttrId::intern(r.string()?).name();
                let n = r.count()?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let (len, kind) = split_attr_entry(r.varint()?);
                    let len = usize::try_from(len).map_err(|_| CodecError::Length)?;
                    attrs.push((AttrId::intern(utf8(r.bytes(len)?)?), kind));
                }
                let shape = Shape {
                    class,
                    class_name,
                    attrs: attrs.into(),
                };
                shape.check()?;
                Ok((None, Cow::Owned(shape)))
            }
        }
    }

    /// Applies a dictionary-update payload (the bytes *after* the
    /// [`KIND_DICT`] byte): names, each interned and recorded under its
    /// wire id, then shapes, each built from names learned so far and
    /// interned.
    ///
    /// # Errors
    ///
    /// Rejects malformed entries, non-contiguous wire ids, references to
    /// names never announced and shapes naming an attribute twice. A
    /// failed update keeps the entries before the failing one and leaves
    /// previously learned mappings intact.
    pub fn apply_update(&mut self, payload: &[u8]) -> Result<(), CodecError> {
        // The sender assigns ids densely in order; anything else is a
        // protocol violation, not a mapping to silently accept.
        fn next_id(r: &mut WireReader<'_>, expected: usize) -> Result<(), CodecError> {
            if r.varint()? == expected as u64 {
                Ok(())
            } else {
                Err(CodecError::Invalid("non-contiguous dictionary id"))
            }
        }
        let mut r = WireReader::new(payload);
        for _ in 0..r.count()? {
            next_id(&mut r, self.names.len())?;
            self.names.push(AttrId::intern(r.string()?));
        }
        for _ in 0..r.count()? {
            next_id(&mut r, self.shapes.len())?;
            let class = ClassId::decode_bin(&mut r, self)?;
            let class_name = Self::learned(&self.names, r.varint()?)?.name();
            let n = r.count()?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let (wire, kind) = split_attr_entry(r.varint()?);
                attrs.push((Self::learned(&self.names, wire)?, kind));
            }
            self.shapes.push(ShapeId::intern(Shape {
                class,
                class_name,
                attrs: attrs.into(),
            })?);
        }
        r.expect_end()
    }
}

// ---------------------------------------------------------------------------
// The codec trait
// ---------------------------------------------------------------------------

/// Compact binary encoding of one wire type.
///
/// Implementations append to a caller-owned buffer (so per-connection
/// writers reuse one allocation across messages) and decode from a
/// [`WireReader`] without ever panicking on hostile bytes.
pub trait BinCodec: Sized {
    /// Appends this value's binary encoding to `out`.
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first malformed byte;
    /// the reader position is unspecified after a failure.
    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError>;
}

// ---------------------------------------------------------------------------
// Implementations for the event model
// ---------------------------------------------------------------------------

/// A value whose kind the reader cannot know — a filter constant — travels
/// tagged: its kind's code, then the value.
impl BinCodec for AttrValue {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        out.push(kind_code(self.kind()));
        write_value(out, self);
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let kind = *KINDS.get(usize::from(tag)).ok_or(CodecError::Tag(tag))?;
        read_value(r, kind)
    }
}

impl BinCodec for ClassId {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        write_varint(out, u64::from(self.0));
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        let raw = r.varint()?;
        u32::try_from(raw)
            .map(ClassId)
            .map_err(|_| CodecError::Invalid("class id exceeds u32"))
    }
}

impl BinCodec for StageMap {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        write_varint(out, self.stages() as u64);
        for stage in 0..self.stages() {
            let attrs = self.attrs_at(stage);
            write_varint(out, attrs.len() as u64);
            for a in attrs {
                write_varint(out, *a as u64);
            }
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        let stages = r.count()?;
        let mut sets = Vec::with_capacity(stages);
        for _ in 0..stages {
            let n = r.count()?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = r.varint()?;
                attrs.push(usize::try_from(a).map_err(|_| CodecError::Length)?);
            }
            sets.push(attrs);
        }
        StageMap::new(sets).map_err(|_| CodecError::Invalid("stage map invariants"))
    }
}

impl BinCodec for Advertisement {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        self.class.encode_bin(out, dict);
        self.stage_map.encode_bin(out, dict);
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let class = ClassId::decode_bin(r, dict)?;
        let stage_map = StageMap::decode_bin(r, dict)?;
        Ok(Advertisement::new(class, stage_map))
    }
}

/// Envelope flags bits.
const HAS_PAYLOAD: u8 = 1;
const HAS_TRACE: u8 = 2;
const TRACE_ID_IS_SEQ: u8 = 4;

/// Everything of an envelope after its shape reference, into any sink.
fn write_envelope_body<S: Sink>(env: &Envelope, out: &mut S) {
    let seq = env.seq().0;
    let payload = env.payload();
    let trace = env.trace();
    let mut flags = 0;
    if !payload.is_empty() {
        flags |= HAS_PAYLOAD;
    }
    if let Some(tc) = trace {
        flags |= HAS_TRACE;
        if tc.id.0 == seq {
            flags |= TRACE_ID_IS_SEQ;
        }
    }
    out.put_varint(seq);
    out.put_u8(flags);
    for (_, value) in env.meta().iter_ids() {
        write_value(out, value);
    }
    if !payload.is_empty() {
        out.put_varint(payload.len() as u64);
        out.put(payload);
    }
    if let Some(tc) = trace {
        out.put_varint(tc.published_at);
        out.put_varint(zigzag(tc.last_hop_at.wrapping_sub(tc.published_at) as i64));
        if tc.id.0 != seq {
            out.put_varint(tc.id.0);
        }
    }
}

/// The length of an envelope's [`DictMode::Shared`] encoding.
pub(crate) fn shared_len(env: &Envelope) -> usize {
    let mut count = Counter(varint_len(u64::from(env.shape_id().0)));
    write_envelope_body(env, &mut count);
    count.0
}

impl BinCodec for Envelope {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        dict.write_shape(out, self);
        write_envelope_body(self, out);
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let (shape_id, shape) = dict.read_shape(r)?;
        let seq = r.varint()?;
        let flags = r.u8()?;
        if flags & !(HAS_PAYLOAD | HAS_TRACE | TRACE_ID_IS_SEQ) != 0 {
            return Err(CodecError::Tag(flags));
        }
        let mut meta = EventData::with_capacity(shape.attrs.len());
        for &(id, kind) in shape.attrs.iter() {
            meta.push_new(id, read_value(r, kind)?);
        }
        let payload = if flags & HAS_PAYLOAD != 0 {
            let bytes = r.len_bytes()?;
            (!bytes.is_empty()).then(|| Bytes::from(bytes))
        } else {
            None
        };
        let trace = if flags & HAS_TRACE != 0 {
            let published_at = r.varint()?;
            let hop = r.zigzag()?;
            let id = if flags & TRACE_ID_IS_SEQ != 0 {
                seq
            } else {
                r.varint()?
            };
            Some(TraceContext {
                id: TraceId(id),
                published_at,
                last_hop_at: published_at.wrapping_add(hop as u64),
            })
        } else {
            None
        };
        let mut env = Envelope::new(
            shape.class,
            shape.class_name,
            EventSeq(seq),
            meta,
            payload,
            shape_id,
        );
        env.set_trace(trace);
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_varint(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        assert_eq!(buf.len(), varint_len(v));
        let mut r = WireReader::new(&buf);
        let back = r.varint().unwrap();
        assert!(r.is_empty());
        back
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(round_varint(v), v);
        }
    }

    #[test]
    fn varint_sizes_are_minimal() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn zigzag_round_trips_signs() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_zigzag(&mut buf, v);
            let mut r = WireReader::new(&buf);
            assert_eq!(r.zigzag().unwrap(), v);
        }
        // Small magnitudes of either sign stay one byte.
        let mut buf = Vec::new();
        write_zigzag(&mut buf, -5);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_is_an_error_not_a_panic() {
        // A continuation bit with nothing after it.
        let mut r = WireReader::new(&[0x80]);
        assert_eq!(r.varint(), Err(CodecError::Truncated));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let bytes = [0xffu8; 11];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint(), Err(CodecError::Overflow));
        // Ten bytes whose top byte carries more than the final bit.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x02;
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint(), Err(CodecError::Overflow));
    }

    #[test]
    fn hostile_length_cannot_allocate() {
        // Declares a 2^60-byte string with 3 bytes of input.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 60);
        buf.extend_from_slice(b"abc");
        let mut r = WireReader::new(&buf);
        assert_eq!(r.len_bytes(), Err(CodecError::Length));
    }

    #[test]
    fn hostile_count_cannot_allocate() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.count(), Err(CodecError::Length));
    }

    #[test]
    fn strings_reject_bad_utf8() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xff, 0xfe]);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.string(), Err(CodecError::Invalid("utf-8")));
    }

    #[test]
    fn shared_dict_round_trips_interned_ids() {
        let id = AttrId::intern("codec_shared_attr");
        let mut enc = EncodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        enc.write_attr(&mut buf, id);
        assert!(!enc.has_pending(), "shared mode never announces");
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert_eq!(dec.read_attr(&mut r).unwrap(), id);
    }

    #[test]
    fn shared_dict_rejects_uninterned_ids() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::from(u32::MAX));
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            dec.read_attr(&mut r),
            Err(CodecError::DictMiss(_))
        ));
        // Nor does an envelope naming a shape this process never interned
        // decode.
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            Envelope::decode_bin(&mut r, &dec),
            Err(CodecError::DictMiss(_))
        ));
    }

    #[test]
    fn inline_dict_spells_names_out_and_needs_no_state() {
        let mut meta = EventData::new();
        meta.insert("codec_inline_attr", 7_i64);
        let env = Envelope::from_meta(ClassId(2), "CodecInline", EventSeq(5), meta);
        let mut enc = EncodeDict::new(DictMode::Inline);
        let mut buf = Vec::new();
        env.encode_bin(&mut buf, &mut enc);
        assert!(!enc.has_pending(), "inline mode never announces");
        let spelled = |name: &[u8]| buf.windows(name.len()).any(|w| w == name);
        assert!(spelled(b"codec_inline_attr") && spelled(b"CodecInline"));
        // A decoder that has seen nothing before reads it back.
        let dec = DecodeDict::new(DictMode::Inline);
        let mut r = WireReader::new(&buf);
        assert_eq!(Envelope::decode_bin(&mut r, &dec).unwrap(), env);
        r.expect_end().unwrap();
    }

    /// Applies everything `enc` has pending to `dec`, as the wire layer's
    /// spliced dictionary frame would.
    fn announce(enc: &mut EncodeDict, dec: &mut DecodeDict) -> usize {
        let mut update = Vec::new();
        let n = enc.write_update(&mut update);
        if n > 0 {
            assert_eq!(update[0], KIND_DICT);
            dec.apply_update(&update[1..]).unwrap();
        }
        n
    }

    #[test]
    fn negotiated_dict_announces_once_then_reuses() {
        let a = AttrId::intern("codec_neg_a");
        let b = AttrId::intern("codec_neg_b");
        let mut enc = EncodeDict::new(DictMode::Negotiated);
        let mut buf = Vec::new();
        enc.write_attr(&mut buf, a);
        enc.write_attr(&mut buf, b);
        enc.write_attr(&mut buf, a);

        // The peer learns the mappings, then decodes the references.
        let mut dec = DecodeDict::new(DictMode::Negotiated);
        assert_eq!(announce(&mut enc, &mut dec), 2, "each name announced once");
        assert!(!enc.has_pending());
        let mut r = WireReader::new(&buf);
        assert_eq!(dec.read_attr(&mut r).unwrap(), a);
        assert_eq!(dec.read_attr(&mut r).unwrap(), b);
        assert_eq!(dec.read_attr(&mut r).unwrap(), a);

        // An envelope announces its shape and the names the shape uses,
        // once; the next envelope of the shape announces nothing.
        let meta = crate::event_data! { "codec_neg_a" => 1_i64, "codec_neg_c" => "x" };
        let env = Envelope::from_meta(ClassId(6), "CodecNeg", EventSeq(1), meta.clone());
        buf.clear();
        env.encode_bin(&mut buf, &mut enc);
        assert_eq!(
            announce(&mut enc, &mut dec),
            3,
            "codec_neg_c, the class name and the shape"
        );
        assert_eq!(
            Envelope::decode_bin(&mut WireReader::new(&buf), &dec).unwrap(),
            env
        );
        let next = Envelope::from_meta(ClassId(6), "CodecNeg", EventSeq(2), meta);
        buf.clear();
        next.encode_bin(&mut buf, &mut enc);
        assert!(!enc.has_pending());
        assert_eq!(
            Envelope::decode_bin(&mut WireReader::new(&buf), &dec).unwrap(),
            next
        );
    }

    #[test]
    fn negotiated_decode_without_update_is_a_dict_miss() {
        let mut enc = EncodeDict::new(DictMode::Negotiated);
        let mut buf = Vec::new();
        enc.write_attr(&mut buf, AttrId::intern("codec_neg_miss"));
        let dec = DecodeDict::new(DictMode::Negotiated);
        let mut r = WireReader::new(&buf);
        assert_eq!(dec.read_attr(&mut r), Err(CodecError::DictMiss(0)));
    }

    #[test]
    fn dict_update_rejects_gaps_and_garbage() {
        let mut dec = DecodeDict::new(DictMode::Negotiated);
        // Entry with wire id 5 into an empty dictionary: a gap.
        let mut payload = Vec::new();
        write_varint(&mut payload, 1);
        write_varint(&mut payload, 5);
        write_str(&mut payload, "x");
        write_varint(&mut payload, 0);
        assert!(dec.apply_update(&payload).is_err());
        // Truncated update: the count promises more entries than the
        // bytes present can hold.
        assert_eq!(dec.apply_update(&[0x02, 0x00]), Err(CodecError::Length));
        // An entry cut off mid-name.
        let mut cut = Vec::new();
        write_varint(&mut cut, 1);
        write_varint(&mut cut, 0);
        write_varint(&mut cut, 30);
        cut.extend_from_slice(b"short");
        assert_eq!(dec.apply_update(&cut), Err(CodecError::Length));
        // A shape naming a name never announced, and a hostile shape
        // count.
        for shapes in [&[1u8, 0, 3, 7, 0][..], &[0xff, 0xff, 0xff, 0xff, 0x0f]] {
            let mut bad = vec![0u8];
            bad.extend_from_slice(shapes);
            assert!(dec.apply_update(&bad).is_err(), "{shapes:?}");
        }
        // Failures leave the dictionary usable: a good update still lands.
        let mut ok = Vec::new();
        write_varint(&mut ok, 1);
        write_varint(&mut ok, 0);
        write_str(&mut ok, "codec_update_ok");
        // …and a shape over it, `(codec_update_ok: str)` of class 4, whose
        // name is the announced one too.
        write_varint(&mut ok, 1);
        for v in [0, 4, 0, 1, attr_entry(0, ValueKind::Str)] {
            write_varint(&mut ok, v);
        }
        dec.apply_update(&ok).unwrap();
        let mut refbuf = Vec::new();
        write_varint(&mut refbuf, 0);
        let mut r = WireReader::new(&refbuf);
        assert_eq!(
            dec.read_attr(&mut r).unwrap(),
            AttrId::intern("codec_update_ok")
        );
        // A shape naming one attribute twice is refused when learned.
        let mut dup = vec![0u8, 1];
        for v in [1, 4, 0, 2, attr_entry(0, ValueKind::Str)] {
            write_varint(&mut dup, v);
        }
        write_varint(&mut dup, attr_entry(0, ValueKind::Int));
        assert!(matches!(
            dec.apply_update(&dup),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let mut r = WireReader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(CodecError::Trailing));
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Ok(()));
    }

    fn round<T: BinCodec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut enc = EncodeDict::new(DictMode::Shared);
        let dec = DecodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        v.encode_bin(&mut buf, &mut enc);
        let mut r = WireReader::new(&buf);
        let back = T::decode_bin(&mut r, &dec).unwrap();
        assert_eq!(&back, v);
        r.expect_end().unwrap();
    }

    #[test]
    fn attr_values_round_trip() {
        round(&AttrValue::Int(-123_456));
        round(&AttrValue::Int(i64::MIN));
        round(&AttrValue::Float(3.25));
        round(&AttrValue::Float(f64::NEG_INFINITY));
        round(&AttrValue::Str("hello × wire".to_owned()));
        round(&AttrValue::Str(String::new()));
        round(&AttrValue::Bool(true));
        round(&AttrValue::Bool(false));
    }

    #[test]
    fn nan_floats_are_rejected_on_decode() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert_eq!(
            AttrValue::decode_bin(&mut r, &dec),
            Err(CodecError::Value(ValueKind::Float))
        );
    }

    #[test]
    fn values_are_checked_against_their_declared_kind() {
        let meta = crate::event_data! {
            "codec_kind_s" => "ok", "codec_kind_b" => true, "codec_kind_f" => 1.5,
        };
        let env = Envelope::from_meta(ClassId(8), "CodecKinds", EventSeq(3), meta);
        let mut buf = Vec::new();
        env.encode_bin(&mut buf, &mut EncodeDict::new(DictMode::Shared));
        // …· flags, then the values, untagged: "ok" (3 bytes), the bool,
        // the float — the last 12 bytes.
        let at = buf.len() - 12;
        let dec = DecodeDict::new(DictMode::Shared);
        let corrupt = |from: usize, bytes: &[u8]| {
            let mut bad = buf.clone();
            bad[from..from + bytes.len()].copy_from_slice(bytes);
            Envelope::decode_bin(&mut WireReader::new(&bad), &dec).unwrap_err()
        };
        assert_eq!(corrupt(at + 1, &[0xff]), CodecError::Value(ValueKind::Str));
        assert_eq!(corrupt(at + 3, &[2]), CodecError::Value(ValueKind::Bool));
        assert_eq!(
            corrupt(at + 4, &f64::NAN.to_bits().to_le_bytes()),
            CodecError::Value(ValueKind::Float)
        );
        assert_eq!(
            corrupt(at - 1, &[8]),
            CodecError::Tag(8),
            "unknown flag bit"
        );
    }

    #[test]
    fn event_data_round_trips() {
        // Meta-data travels inside an envelope, by its shape.
        let mut d = EventData::new();
        d.insert("codec_symbol", "Foo");
        d.insert("codec_price", 9.5_f64);
        d.insert("codec_volume", 32_300_i64);
        d.insert("codec_open", false);
        for meta in [d, EventData::new()] {
            let env = Envelope::from_meta(ClassId(4), "CodecData", EventSeq(0), meta);
            round(&env);
        }
    }

    #[test]
    fn stage_maps_and_advertisements_round_trip() {
        let sm = StageMap::from_prefixes(&[3, 2, 1]).unwrap();
        round(&sm);
        round(&Advertisement::new(ClassId(7), sm));
        // A wire stage map violating the subset invariant is rejected.
        let mut buf = Vec::new();
        for v in [2u64, 1, 0, 1, 1] {
            write_varint(&mut buf, v);
        }
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert!(StageMap::decode_bin(&mut r, &dec).is_err());
    }

    #[test]
    fn envelopes_round_trip_with_payload_and_trace() {
        let mut meta = EventData::new();
        meta.insert("codec_env_attr", 42_i64);
        let mut env = Envelope::from_parts(
            ClassId(3),
            "Stock",
            EventSeq(41),
            meta,
            Bytes::from(vec![1u8, 2, 3, 4]),
        );
        round(&env);
        env.set_trace(Some(TraceContext::new(TraceId(77), 123_456)));
        round(&env);
        // A trace whose id is the sequence number costs no id bytes…
        let mut own = env.clone();
        own.set_trace(Some(TraceContext::new(TraceId(41), 123_456)));
        round(&own);
        assert_eq!(own.wire_size() + varint_len(77), env.wire_size());
        // …and a hop stamped before publication (clock skew) still
        // round-trips.
        own.set_trace(Some(TraceContext {
            id: TraceId(41),
            published_at: 123_456,
            last_hop_at: 100,
        }));
        round(&own);
    }

    #[test]
    fn wire_size_is_the_shared_encoding_length() {
        let meta = crate::event_data! { "codec_size_s" => "αβγ", "codec_size_i" => -1_i64 };
        let mut env = Envelope::from_parts(
            ClassId(9),
            "CodecSize",
            EventSeq(300_000),
            meta,
            Bytes::from(vec![9u8; 3]),
        );
        for trace in [None, Some(TraceContext::new(TraceId(5), 5_000_000_000))] {
            env.set_trace(trace);
            let mut buf = Vec::new();
            env.encode_bin(&mut buf, &mut EncodeDict::new(DictMode::Shared));
            assert_eq!(env.wire_size(), buf.len());
        }
    }

    #[test]
    fn envelope_decode_rejects_truncation_at_every_prefix() {
        let mut meta = EventData::new();
        meta.insert("codec_trunc_attr", "v");
        let env = Envelope::from_parts(
            ClassId(1),
            "Trunc",
            EventSeq(9),
            meta,
            Bytes::from(vec![7u8; 16]),
        );
        for mode in [DictMode::Shared, DictMode::Inline] {
            let mut enc = EncodeDict::new(mode);
            let dec = DecodeDict::new(mode);
            let mut buf = Vec::new();
            env.encode_bin(&mut buf, &mut enc);
            for cut in 0..buf.len() {
                let mut r = WireReader::new(&buf[..cut]);
                assert!(
                    Envelope::decode_bin(&mut r, &dec).is_err(),
                    "{mode:?}: prefix of {cut} bytes decoded"
                );
            }
        }
    }
}
