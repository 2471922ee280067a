//! Durable segmented event log (the broker's write-ahead log).
//!
//! Layering:
//!
//! * [`LogStorage`] abstracts the byte store — [`MemStorage`] gives the
//!   simulator a deterministic in-memory model with an explicit
//!   synced/unsynced split (a crash loses the unsynced tail, exactly
//!   like a page cache), [`FileStorage`] backs the wall-clock runtime
//!   with real files and real `fsync`: it writes in the caller's turn and
//!   queues every fsync, offset-table replace and segment delete for one
//!   `lc-wal-sync` thread per process, which group-commits them in order
//!   (`sync.rs`, telemetry through [`SyncTelemetry`]).
//! * [`DurableLog`] frames events into CRC-checked records (reusing the
//!   wire codec's length-prefix discipline, plus a CRC-32 over the
//!   payload), rotates segments, batches fsyncs, tracks per-`(consumer,
//!   class)` acknowledged offsets, replays the unacknowledged suffix to
//!   resuming durable subscribers — by record position, reading only
//!   what it returns — and compacts segments every consumer has moved
//!   past.
//!
//! On open, a log recovers from torn writes by truncating each segment
//! to its longest prefix of CRC-valid records — damage at the tail is an
//! expected crash artifact, not an error.

mod log;
mod storage;
mod sync;

pub use self::log::{DurableLog, LogConfig};
pub use storage::{FileStorage, LogStorage, MemStorage};
pub use sync::{drain, SyncTelemetry};
