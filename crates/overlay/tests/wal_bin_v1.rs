//! A log directory written in the first binary record format — every
//! value behind a kind tag, names spelled per attribute, as the
//! checked-in fixture holds it — opens intact, replays every record
//! exactly, and keeps growing in the current format.
//!
//! `fixtures/wal_bin_v1/` is the byte-for-byte output of the last commit
//! that wrote format-1 records: twelve events (`seq` 100..112, every
//! third of class 1 `Bond`, the rest of class 0 `Stock`), each with a
//! string, a float, an int and a bool attribute, a 5-byte payload except
//! every fifth, and a trace on every fourth; consumer 7 on class 0
//! acknowledged up to 3, consumer 9 on class 1 at 0.

use std::path::{Path, PathBuf};

use layercake_event::{Bytes, ClassId, Envelope, EventData, EventSeq, TraceContext, TraceId};
use layercake_filter::DestId;
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig};

const SEGMENT: &str = "seg-0000000000000000.log";

/// Recovery may rewrite what it opens, so each test works on a copy.
fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_bin_v1");
    let dir = std::env::temp_dir().join(format!("layercake-wal-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for name in [SEGMENT, "offsets.meta"] {
        std::fs::copy(src.join(name), dir.join(name)).unwrap();
    }
    dir
}

fn open(dir: &Path) -> DurableLog {
    DurableLog::open(
        Box::new(FileStorage::open(dir).unwrap()),
        LogConfig::default(),
    )
}

/// Event `i` of the fixture, as it was written.
fn written(i: u64) -> Envelope {
    let (class, name) = if i % 3 == 2 {
        (ClassId(1), "Bond")
    } else {
        (ClassId(0), "Stock")
    };
    let mut meta = EventData::new();
    meta.insert("symbol", format!("SYM{}", i % 4));
    meta.insert("price", 10.5 + i as f64);
    meta.insert("volume", (i * 100) as i64 - 300);
    meta.insert("open", i.is_multiple_of(2));
    let payload = if i % 5 == 4 {
        Bytes::new()
    } else {
        Bytes::from(vec![i as u8; 5])
    };
    let mut env = Envelope::from_parts(class, name, EventSeq(100 + i), meta, payload);
    if i % 4 == 1 {
        env.set_trace(Some(TraceContext {
            id: TraceId(i),
            published_at: 1_000 + i,
            last_hop_at: 1_000 + 2 * i,
        }));
    }
    env
}

#[test]
fn a_format_1_log_opens_untruncated_and_replays_every_record_exactly() {
    let dir = fixture_copy("replay");
    let segment = dir.join(SEGMENT);
    let before = std::fs::read(&segment).unwrap();
    let mut log = open(&dir);
    assert_eq!(
        log.stats().torn_truncations,
        0,
        "format 1 is not a torn tail"
    );
    assert_eq!(std::fs::read(&segment).unwrap(), before);
    assert_eq!(log.tail_off(ClassId(0)), 8);
    assert_eq!(log.tail_off(ClassId(1)), 4);
    assert_eq!(log.acked_upto(DestId(7), ClassId(0)), 3);
    assert_eq!(log.acked_upto(DestId(9), ClassId(1)), 0);

    for (class, events) in [
        (0, [0, 1, 3, 4, 6, 7, 9, 10].as_slice()),
        (1, &[2, 5, 8, 11]),
    ] {
        let replayed = log.replay_after(ClassId(class), 0);
        let want: Vec<(u64, Envelope)> = (1..).zip(events.iter().map(|&i| written(i))).collect();
        assert_eq!(replayed, want, "class {class}");
        // Payloads and traces, which equality sees, and float bits, which
        // it does not.
        for ((_, got), (_, want)) in replayed.iter().zip(&want) {
            assert_eq!(got.trace(), want.trace());
            assert_eq!(format!("{:?}", got.meta()), format!("{:?}", want.meta()));
        }
    }
    assert_eq!(log.replay_window(ClassId(0), 3, 2).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn new_records_follow_the_format_1_ones_in_the_same_segment() {
    let dir = fixture_copy("append");
    let old_len = std::fs::read(dir.join(SEGMENT)).unwrap().len();
    let next = {
        let mut log = open(&dir);
        let mut meta = EventData::new();
        meta.insert("symbol", "SYM9");
        let env = Envelope::from_meta(ClassId(0), "Stock", EventSeq(500), meta);
        assert_eq!(log.append(&env), 9);
        log.flush();
        env
    };
    // The appended record is in the current format: its payload opens
    // with version byte 2, right after the 8-byte record header.
    let grown = std::fs::read(dir.join(SEGMENT)).unwrap();
    assert_eq!(grown[old_len + 8], 2);
    let mut log = open(&dir);
    assert_eq!(log.stats().torn_truncations, 0);
    assert_eq!(log.segment_count(), 1);
    assert_eq!(
        log.replay_after(ClassId(0), 7),
        vec![(8, written(10)), (9, next)],
        "the last format-1 record, then the new one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
