//! A log directory written before the binary record payload — JSON
//! records, as the checked-in fixture holds them — opens intact, replays
//! every record, and keeps growing in the current format.
//!
//! `fixtures/wal_json/` is the byte-for-byte output of the last commit
//! that wrote JSON: twelve events (`seq` 100..112, every third of class
//! 1, the rest of class 0), consumer 7 on class 0 acknowledged up to 3,
//! consumer 9 on class 1 at 0.

use std::path::{Path, PathBuf};

use layercake_event::{ClassId, Envelope, EventData, EventSeq};
use layercake_filter::DestId;
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig};

/// Recovery may rewrite what it opens, so each test works on a copy.
fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_json");
    let dir =
        std::env::temp_dir().join(format!("layercake-wal-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["seg-0000000000000000.log", "offsets.meta"] {
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

#[test]
fn a_json_era_log_opens_untruncated_and_replays_every_record() {
    let dir = fixture_copy("replay");
    let segment = dir.join("seg-0000000000000000.log");
    let before = std::fs::read(&segment).unwrap();
    let mut log = open(&dir);
    assert_eq!(log.stats().torn_truncations, 0, "JSON is not a torn tail");
    assert_eq!(std::fs::read(&segment).unwrap(), before);
    assert_eq!(log.tail_off(ClassId(0)), 8);
    assert_eq!(log.tail_off(ClassId(1)), 4);
    assert_eq!(log.acked_upto(DestId(7), ClassId(0)), 3);
    assert_eq!(log.acked_upto(DestId(9), ClassId(1)), 0);

    let stocks = log.replay_after(ClassId(0), 0);
    let bonds = log.replay_after(ClassId(1), 0);
    let offs = |recs: &[(u64, Envelope)]| recs.iter().map(|(off, _)| *off).collect::<Vec<_>>();
    assert_eq!(offs(&stocks), (1..=8).collect::<Vec<_>>());
    assert_eq!(offs(&bonds), (1..=4).collect::<Vec<_>>());
    let mut seqs: Vec<u64> = stocks
        .iter()
        .chain(&bonds)
        .map(|(_, e)| e.seq().0)
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (100..112).collect::<Vec<_>>());

    // One record in full: attributes of every kind, payload and trace.
    let (_, env) = &stocks[1];
    assert_eq!(env.class_name(), "Stock");
    assert_eq!(env.seq(), EventSeq(101));
    let mut meta = EventData::new();
    meta.insert("symbol", "SYM1");
    meta.insert("price", 11.5_f64);
    meta.insert("volume", 100_i64);
    meta.insert("open", false);
    assert_eq!(env.meta(), &meta);
    assert_eq!(env.payload().as_ref(), &[1u8; 5]);
    assert_eq!(env.trace().map(|t| t.published_at), Some(1_001));
    assert_eq!(log.replay_window(ClassId(0), 3, 2).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn new_records_follow_the_json_ones_in_the_same_segment() {
    let dir = fixture_copy("append");
    {
        let mut log = open(&dir);
        let mut meta = EventData::new();
        meta.insert("symbol", "SYM9");
        let env = Envelope::from_meta(ClassId(0), "Stock", EventSeq(500), meta);
        assert_eq!(log.append(&env), 9);
        log.flush();
    }
    let mut log = open(&dir);
    assert_eq!(log.stats().torn_truncations, 0);
    assert_eq!(log.segment_count(), 1);
    let tail = log.replay_after(ClassId(0), 7);
    let seqs: Vec<u64> = tail.iter().map(|(_, e)| e.seq().0).collect();
    assert_eq!(
        seqs,
        vec![110, 500],
        "the last JSON record, then the new one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
