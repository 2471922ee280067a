//! A seeded mutation fuzzer over the inputs that cross a trust boundary:
//! valid frames — a publish, a delivery, a durable delivery, a handshake
//! and a dictionary update announcing names and a shape — mutated a few
//! bytes at a time, then fed to `LinkDecoder` in shared and negotiated
//! mode; and valid write-ahead-log records, mutated under a valid CRC and
//! opened by `DurableLog`. Std-only: a splitmix64 stream drives the
//! mutations, so every failure names the seed that reproduces it.
//!
//! For every case: nothing panics, no single allocation exceeds the frame
//! cap (a hostile count or length must be refused before it is trusted
//! into an allocation — a counting global allocator watches the decode),
//! and the stream is still usable: the next valid frame decodes to its
//! message, and the next record appended to the log replays.
//!
//! Tier-1 runs a few thousand cases. The ignored test runs a hundred times
//! as many: `cargo test --release -p layercake-rt --test wire_fuzz --
//! --ignored`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use layercake_event::{
    encode_frame, encode_record, scan_records, typed_event, ClassId, CodecError, DictMode,
    EncodeDict, Envelope, EventSeq, TraceContext, TraceId, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use layercake_filter::DestId;
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig, LogStorage, MemStorage};
use layercake_overlay::OverlayMsg;
use layercake_rt::wire::{encode_hello, encode_msg, LinkDecoder, WireError};
use layercake_rt::WireCodec;
use layercake_sim::ActorId;

// ---------------------------------------------------------------------------
// The allocation watch
// ---------------------------------------------------------------------------

thread_local! {
    static WATCHING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request a watched thread
/// makes.
struct Watch;

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = WATCHING.try_with(|on| {
        if on.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Watch = Watch;

/// Runs `f` on hostile input: a panic becomes a failure naming the case,
/// and so does any single allocation above the frame cap.
fn guarded<T>(case: &str, f: impl FnOnce() -> T) -> T {
    LARGEST.with(|l| l.set(0));
    WATCHING.with(|on| on.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    WATCHING.with(|on| on.set(false));
    let largest = LARGEST.with(Cell::get);
    let out = out.unwrap_or_else(|_| panic!("decoding panicked on {case}"));
    assert!(
        largest <= MAX_FRAME_PAYLOAD,
        "a {largest}-byte allocation decoding {case}"
    );
    out
}

// ---------------------------------------------------------------------------
// The mutator
// ---------------------------------------------------------------------------

/// splitmix64: a seeded stream, one per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Byte values that sit on the codec's boundaries: flag bits, kind codes,
/// the varint continuation bit.
const EDGES: [u8; 9] = [0, 1, 2, 3, 4, 8, 0x7f, 0x80, 0xff];

/// Varints that declare absurd counts and lengths.
const HOSTILE: [&[u8]; 3] = [
    &[0xff, 0xff, 0xff, 0xff, 0x0f],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    &[0x80, 0x80, 0x80, 0x80, 0x01],
];

/// One to three random edits of `bytes`.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(7) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 if at < bytes.len() => bytes[at] = EDGES[rng.below(EDGES.len())],
            2 => {
                let n = 1 + rng.below(4);
                let fill: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                bytes.splice(at..at, fill);
            }
            3 => {
                let end = (at + 1 + rng.below(4)).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => bytes.truncate(at),
            5 => {
                let varint = HOSTILE[rng.below(HOSTILE.len())];
                let end = (at + rng.below(2) * varint.len()).min(bytes.len());
                bytes.splice(at..end, varint.iter().copied());
            }
            _ => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// Valid inputs
// ---------------------------------------------------------------------------

typed_event! {
    pub struct Quote: "FuzzQuote" {
        symbol: String,
        price: f64,
        volume: i64,
        open: bool,
    }
}

fn quote(seq: u64) -> Envelope {
    let q = Quote::new(
        format!("SYM{seq:03}"),
        10.25 + seq as f64,
        -(seq as i64),
        true,
    );
    let mut env = Envelope::encode(ClassId(0), EventSeq(seq), &q).unwrap();
    env.set_trace(Some(TraceContext::new(TraceId(seq), 5_000_000_000 + seq)));
    env
}

fn messages() -> Vec<(ActorId, OverlayMsg)> {
    vec![
        (ActorId(usize::MAX), OverlayMsg::Publish(quote(300_000))),
        (ActorId(1), OverlayMsg::Deliver(quote(300_001))),
        (
            ActorId(1),
            OverlayMsg::Durable {
                prev: 6,
                off: 9,
                env: quote(300_002),
            },
        ),
    ]
}

/// The payloads of a run of frames.
fn payloads(mut framed: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while !framed.is_empty() {
        let len = u32::from_le_bytes(framed[..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
        out.push(framed[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec());
        framed = &framed[FRAME_HEADER_LEN + len..];
    }
    out
}

/// A connection's worth of valid frames: `prefix` (handshake and
/// dictionary update included, in negotiated mode) carrying `messages()`,
/// the payloads a case may start from, and one more message, `next`,
/// whose frame needs nothing the prefix did not announce.
struct Connection {
    prefix: Vec<u8>,
    seeds: Vec<Vec<u8>>,
    next: Vec<u8>,
    next_msg: (ActorId, OverlayMsg),
}

fn connection(mode: DictMode) -> Connection {
    let mut dict = EncodeDict::new(mode);
    let mut prefix = Vec::new();
    if mode == DictMode::Negotiated {
        prefix.extend_from_slice(&encode_hello(mode));
    }
    for (from, msg) in messages() {
        prefix.extend_from_slice(&encode_msg(from, &msg, &mut dict).unwrap());
    }
    let next_msg = (ActorId(2), OverlayMsg::Deliver(quote(300_003)));
    let next = encode_msg(next_msg.0, &next_msg.1, &mut dict).unwrap();
    assert_eq!(payloads(&next).len(), 1, "the next frame announces nothing");
    Connection {
        seeds: payloads(&prefix),
        prefix,
        next,
        next_msg,
    }
}

fn decoder(mode: DictMode) -> LinkDecoder {
    match mode {
        DictMode::Negotiated => LinkDecoder::negotiated(),
        _ => LinkDecoder::new(WireCodec::default()),
    }
}

/// Drains what `dec` can decode, errors included.
fn drain(dec: &mut LinkDecoder) {
    while let Ok(Some(_)) = dec.next_msg() {}
}

// ---------------------------------------------------------------------------
// The runs
// ---------------------------------------------------------------------------

fn fuzz_link(mode: DictMode, cases: u64) {
    let conn = connection(mode);
    let expected = Some(conn.next_msg.clone());
    for case in 0..cases {
        let mut rng = Rng(case ^ 0x5EED_0000);
        let mut dec = decoder(mode);
        dec.push(&conn.prefix);
        drain(&mut dec);
        // Most cases keep the frame boundary and corrupt the payload; the
        // rest corrupt the framed bytes, header included, after which the
        // runtime's decode-error path drops the framing state.
        let seed = &conn.seeds[rng.below(conn.seeds.len())];
        let whole_frame = rng.below(4) == 0;
        let mut bytes = if whole_frame {
            encode_frame(seed).unwrap()
        } else {
            seed.clone()
        };
        mutate(&mut rng, &mut bytes);
        let what = format!("{mode:?} case {case}: {}", hex(&bytes));
        guarded(&what, || {
            if whole_frame {
                dec.push(&bytes);
            } else {
                dec.push(&encode_frame(&bytes).unwrap());
            }
            drain(&mut dec);
        });
        if whole_frame {
            dec.reset_framing();
        }
        dec.push(&conn.next);
        let next = dec
            .next_msg()
            .unwrap_or_else(|e| panic!("{what}: then {e}"));
        assert_eq!(next, expected, "{what}");
    }
}

/// Valid record payloads of the current format, as a log writes them.
fn log_records() -> Vec<Vec<u8>> {
    let dir = std::env::temp_dir().join(format!("layercake-wire-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut log = DurableLog::open(
        Box::new(FileStorage::open(&dir).unwrap()),
        LogConfig::default(),
    );
    log.register_consumer(DestId(1), ClassId(0));
    for (_, msg) in messages() {
        let (OverlayMsg::Publish(env) | OverlayMsg::Deliver(env) | OverlayMsg::Durable { env, .. }) =
            msg
        else {
            unreachable!()
        };
        log.append(&env);
    }
    log.flush();
    let segment = std::fs::read(dir.join("seg-0000000000000000.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    scan_records(&segment).records
}

fn fuzz_log(cases: u64) {
    let records = log_records();
    assert_eq!(records.len(), 3);
    let class = ClassId(0);
    for case in 0..cases {
        let mut rng = Rng(case ^ 0x10C5_0000);
        let mut payload = records[rng.below(records.len())].clone();
        mutate(&mut rng, &mut payload);
        let what = format!("log case {case}: {}", hex(&payload));
        // The valid records, then the mutated one under a valid CRC: only
        // the record decoder stands between it and the log's index.
        let mut segment: Vec<u8> = records
            .iter()
            .flat_map(|r| encode_record(r).unwrap())
            .collect();
        segment.extend_from_slice(&encode_record(&payload).unwrap());
        let mut storage = MemStorage::new();
        storage.append(0, &segment);
        storage.sync(0);
        let mut log = guarded(&what, || {
            let mut log = DurableLog::open(Box::new(storage), LogConfig::default());
            log.register_consumer(DestId(1), class);
            let _ = log.replay_after(class, 0);
            log
        });
        let tail = log.tail_off(class);
        assert!(tail >= 3, "{what}: the valid records survive");
        let env = quote(400_000);
        assert_eq!(log.append(&env), tail + 1, "{what}");
        assert_eq!(
            log.replay_after(class, tail),
            vec![(tail + 1, env)],
            "{what}"
        );
    }
}

#[test]
fn mutated_frames_and_records_are_refused_cleanly() {
    fuzz_link(DictMode::Shared, 2_000);
    fuzz_link(DictMode::Negotiated, 2_000);
    fuzz_log(500);
}

#[test]
#[ignore = "long run, for CI: a hundred times tier-1's cases"]
fn mutated_frames_and_records_are_refused_cleanly_at_length() {
    fuzz_link(DictMode::Shared, 200_000);
    fuzz_link(DictMode::Negotiated, 200_000);
    fuzz_log(50_000);
}

/// The hostile declarations, by hand: a dictionary update promising four
/// billion shapes, a shape of four billion attributes, a name and an
/// inline class name of 2^60 bytes. Each is refused without allocating
/// for it, and the connection goes on.
#[test]
fn hostile_counts_and_lengths_are_refused_before_allocating() {
    let conn = connection(DictMode::Negotiated);
    let huge = HOSTILE[0];
    // Each opens with the update's kind byte. The prefix announced five
    // names (the class name, then the four fields) and one shape.
    let updates: [Vec<u8>; 3] = [
        // no names, 2^32 - 1 shapes
        [&[1u8, 0][..], huge].concat(),
        // no names, one shape (wire id 1) of class 0 named by name 0,
        // with 2^32 - 1 attributes
        [&[1u8, 0, 1, 1, 0, 0][..], huge].concat(),
        // one name (wire id 5), 2^64 - 1 bytes long
        [&[1u8, 1, 5][..], HOSTILE[1], b"x"].concat(),
    ];
    for (i, update) in updates.iter().enumerate() {
        let mut dec = decoder(DictMode::Negotiated);
        dec.push(&conn.prefix);
        drain(&mut dec);
        guarded(&format!("hostile update {i}"), || {
            dec.push(&encode_frame(update).unwrap());
            let refused = dec.next_msg();
            assert!(
                matches!(refused, Err(WireError::Codec(CodecError::Length))),
                "hostile update {i}: {refused:?}"
            );
        });
        dec.push(&conn.next);
        assert_eq!(dec.next_msg().unwrap(), Some(conn.next_msg.clone()));
    }
    // A log record whose inline class name claims 2^60 bytes.
    let record = [&[2u8, 1, 0][..], HOSTILE[1], b"Stock"].concat();
    let mut storage = MemStorage::new();
    storage.append(0, &encode_record(&record).unwrap());
    storage.sync(0);
    let log = guarded("hostile record", || {
        DurableLog::open(Box::new(storage), LogConfig::default())
    });
    assert_eq!(log.tail_off(ClassId(0)), 0);
    assert_eq!(log.stats().torn_truncations, 1);
}
