//! CRC32-framed record codec for append-only logs.
//!
//! Extends the length-prefixed framing of [`crate::frame`] with an
//! integrity word so records can live on disk, where torn writes and
//! trailing garbage are normal rather than exceptional. Each record is
//!
//! ```text
//! +----------------+----------------+====================+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes)|
//! +----------------+----------------+====================+
//! ```
//!
//! with `crc` the IEEE CRC-32 of the payload. Unlike the live wire
//! protocol — where a framing error is terminal for the connection — a
//! log scan expects a damaged tail: [`scan_records`] returns every
//! record of the longest valid prefix plus the byte length of that
//! prefix, so recovery can truncate the file to the last intact record
//! and keep going.

use crate::frame::{FrameError, MAX_FRAME_PAYLOAD};

/// Size of a record header: payload length then CRC-32, both `u32` LE.
pub const RECORD_HEADER_LEN: usize = 8;

/// Computes the IEEE CRC-32 (the ubiquitous reflected 0xEDB88320
/// polynomial, as used by gzip and PNG) of `bytes`.
///
/// Implemented by hand with a lazily built 256-entry table — the
/// workspace vendors no checksum crate, and the log path is not hot
/// enough to need a sliced-by-eight variant.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Encodes one payload as a CRC-framed record.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`] — the same cap the live framing enforces, so a
/// loggable record is always shippable.
pub fn encode_record(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    encode_record_into(&mut out, |buf| buf.extend_from_slice(payload))?;
    Ok(out)
}

/// Appends one CRC-framed record to `out`, letting `write_payload` build
/// the payload in place — an appender that reuses one buffer encodes a
/// record without allocating.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when the payload written exceeds
/// [`MAX_FRAME_PAYLOAD`]; `out` is then restored to its previous length.
pub fn encode_record_into(
    out: &mut Vec<u8>,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; RECORD_HEADER_LEN]);
    write_payload(out);
    let len = out.len() - start - RECORD_HEADER_LEN;
    if len > MAX_FRAME_PAYLOAD {
        out.truncate(start);
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let crc = crc32(&out[start + RECORD_HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + RECORD_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Reads the record that starts at the beginning of `bytes`: its payload
/// (borrowed) when the header fits, the declared length is within the cap
/// and the region, and the CRC matches; `None` on any sign of damage. The
/// record occupies `RECORD_HEADER_LEN + payload.len()` bytes.
#[must_use]
pub fn read_record(bytes: &[u8]) -> Option<&[u8]> {
    let header = bytes.get(..RECORD_HEADER_LEN)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let want = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_PAYLOAD {
        return None;
    }
    let payload = bytes.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len)?;
    (crc32(payload) == want).then_some(payload)
}

/// The result of scanning a byte region for CRC-framed records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordScan {
    /// Payloads of every record in the longest valid prefix, in order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of that valid prefix — the offset recovery truncates
    /// to when `clean` is false.
    pub valid_len: usize,
    /// True when the region ends exactly at a record boundary with no
    /// trailing bytes; false means a torn write or trailing garbage was
    /// cut off at `valid_len`.
    pub clean: bool,
}

/// Scans `bytes` for consecutive CRC-framed records, stopping at the
/// first sign of damage: a length beyond the cap, a header or payload
/// that runs past the end of the region, or a CRC mismatch.
///
/// Never panics and never errors — damage is an expected end state for
/// an append-only log, reported through [`RecordScan::clean`].
#[must_use]
pub fn scan_records(bytes: &[u8]) -> RecordScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(payload) = read_record(&bytes[at..]) {
        records.push(payload.to_vec());
        at += RECORD_HEADER_LEN + payload.len();
    }
    RecordScan {
        records,
        valid_len: at,
        clean: at == bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values for the IEEE polynomial ("check" values from
        // the CRC catalogue).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn records_round_trip() {
        let mut region = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; i as usize * 3]).collect();
        for p in &payloads {
            region.extend_from_slice(&encode_record(p).unwrap());
        }
        let scan = scan_records(&region);
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.valid_len, region.len());
        assert!(scan.clean);
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_valid_record() {
        let mut region = encode_record(b"whole").unwrap();
        let keep = region.len();
        let torn = encode_record(b"torn-by-a-crash").unwrap();
        region.extend_from_slice(&torn[..torn.len() - 3]);
        let scan = scan_records(&region);
        assert_eq!(scan.records, vec![b"whole".to_vec()]);
        assert_eq!(scan.valid_len, keep);
        assert!(!scan.clean);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let mut region = encode_record(b"first").unwrap();
        let keep = region.len();
        let mut second = encode_record(b"second").unwrap();
        *second.last_mut().unwrap() ^= 0x40; // flip a payload bit
        region.extend_from_slice(&second);
        region.extend_from_slice(&encode_record(b"third").unwrap());
        let scan = scan_records(&region);
        // The scan must not skip damage to reach the valid third record:
        // lengths after a corrupt record cannot be trusted.
        assert_eq!(scan.records, vec![b"first".to_vec()]);
        assert_eq!(scan.valid_len, keep);
        assert!(!scan.clean);
    }

    #[test]
    fn garbage_length_stops_the_scan() {
        let mut region = encode_record(b"ok").unwrap();
        let keep = region.len();
        region.extend_from_slice(&u32::MAX.to_le_bytes());
        region.extend_from_slice(&[0u8; 12]);
        let scan = scan_records(&region);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert!(!scan.clean);
    }

    #[test]
    fn empty_region_is_clean() {
        let scan = scan_records(&[]);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.clean);
    }
}
