//! # dcg-trace — recorded activity traces
//!
//! Simulate once, replay forever: an activity trace stores the full
//! per-cycle [`dcg_sim::CycleActivity`] stream of one simulation — every
//! usage count and advance-knowledge signal — so passive gating
//! policies, power accounting and statistics replay bit-identically
//! without re-running the pipeline. The trace store in `dcg-core` keeps
//! one such trace per `(config, workload, seed, run length)` tuple.
//!
//! The format is a header carrying the producing run's identity, then
//! checksummed columnar blocks of up to [`dcg_sim::BLOCK_CYCLES`] cycles,
//! then a trailer with totals and a checksum over the block subheaders
//! (DESIGN.md §9 and §13 describe the layout). Open verifies the
//! trailer; each block's payload is verified when the decoder first
//! enters it. [`TraceData`] serves the bytes zero-copy from an `mmap(2)`
//! view where available.
//!
//! ```
//! use dcg_sim::CycleActivity;
//! use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter};
//!
//! # fn main() -> Result<(), dcg_trace::TraceError> {
//! let header = ActivityHeader::new("gzip", 0xfeed, 1, 0, 3, 4)?;
//! let mut writer = ActivityTraceWriter::new(Vec::new(), &header)?;
//! let cycle = CycleActivity {
//!     committed: 1,
//!     latch_occupancy: vec![0; 4],
//!     ..CycleActivity::default()
//! };
//! for _ in 0..3 {
//!     writer.write_cycle(&cycle)?;
//! }
//! let bytes = writer.finish()?;
//!
//! let mut reader = ActivityTraceReader::new(&bytes[..])?;
//! assert_eq!(reader.verified_totals(), Some((3, 3)));
//! let mut replayed = CycleActivity::default();
//! assert!(reader.read_cycle(&mut replayed)?);
//! assert_eq!((replayed.cycle, replayed.committed), (1, 1));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod activity;
mod error;
mod mmap;
mod varint;

pub use activity::{
    payload_checksum, ActivityHeader, ActivityTraceReader, ActivityTraceWriter,
    ACTIVITY_BLOCK_HEADER_LEN, ACTIVITY_MAGIC, ACTIVITY_SCHEMA, ACTIVITY_TRAILER_LEN,
    ACTIVITY_TRAILER_MAGIC, ACTIVITY_VERSION, MAX_GRANTS, MAX_GROUPS,
};
pub use error::TraceError;
pub use mmap::TraceData;
