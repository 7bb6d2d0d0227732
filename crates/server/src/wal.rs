//! The server's write-ahead log of job transitions (`JOBS.dcgwal`).
//!
//! A [`dcg_core::durable::Log`] under magic `DCGJWL01` — the same
//! framing, torn-tail truncation and `sync_data`-per-append discipline
//! as the trace store journal (DESIGN.md §14). Every transition is
//! appended before it takes effect, so a `kill -9` at any byte loses at
//! most the record being written, never the log's integrity. The record
//! kinds are SUBMIT, START, DONE and FAIL.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dcg_core::durable::{self, put_bytes, put_str, put_u32, put_u64, Cursor, Log};

use crate::jobs::JobSpec;
use crate::protocol::MAX_FRAME_LEN;

/// File name of the job WAL inside the server state directory.
pub const JOBS_WAL_FILE: &str = "JOBS.dcgwal";

/// Magic header of the job WAL.
pub const JOBS_WAL_MAGIC: &[u8; 8] = b"DCGJWL01";

const REC_SUBMIT: u8 = 1;
const REC_START: u8 = 2;
const REC_DONE: u8 = 3;
const REC_FAIL: u8 = 4;

/// One journaled job transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A job was accepted into the queue.
    Submit {
        /// The job id.
        id: u64,
        /// The full spec, so restart can re-run the job.
        spec: JobSpec,
    },
    /// An execution attempt started.
    Start {
        /// The job id.
        id: u64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The job committed its result document (the result file rename
    /// happened strictly before this record).
    Done {
        /// The job id.
        id: u64,
    },
    /// An attempt failed.
    Fail {
        /// The job id.
        id: u64,
        /// The attempt that failed.
        attempt: u32,
        /// True when the failure is final (terminal error or attempt
        /// budget exhausted → quarantine); false schedules a retry.
        terminal: bool,
        /// Failure detail.
        message: String,
    },
}

impl WalRecord {
    /// The record kind and body.
    fn encode(&self) -> (u8, Vec<u8>) {
        let mut b = Vec::new();
        let kind = match self {
            WalRecord::Submit { id, spec } => {
                put_u64(&mut b, *id);
                put_bytes(&mut b, &spec.encode());
                REC_SUBMIT
            }
            WalRecord::Start { id, attempt } => {
                put_u64(&mut b, *id);
                put_u32(&mut b, *attempt);
                REC_START
            }
            WalRecord::Done { id } => {
                put_u64(&mut b, *id);
                REC_DONE
            }
            WalRecord::Fail {
                id,
                attempt,
                terminal,
                message,
            } => {
                put_u64(&mut b, *id);
                put_u32(&mut b, *attempt);
                b.push(u8::from(*terminal));
                put_str(&mut b, message);
                REC_FAIL
            }
        };
        (kind, b)
    }

    fn decode(kind: u8, body: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor::new(body);
        let rec = match kind {
            REC_SUBMIT => WalRecord::Submit {
                id: c.u64()?,
                spec: JobSpec::decode(c.bytes(MAX_FRAME_LEN as usize)?)?,
            },
            REC_START => WalRecord::Start {
                id: c.u64()?,
                attempt: c.u32()?,
            },
            REC_DONE => WalRecord::Done { id: c.u64()? },
            REC_FAIL => WalRecord::Fail {
                id: c.u64()?,
                attempt: c.u32()?,
                terminal: c.u8()? != 0,
                message: c.str()?,
            },
            _ => return None,
        };
        c.done().then_some(rec)
    }
}

/// Decode a WAL byte image, stopping at the first torn, corrupt or
/// undecodable record. Returns the records plus the byte length of the
/// valid prefix (magic included; 0 for a foreign file).
#[must_use]
pub fn decode_wal(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    durable::decode(bytes, JOBS_WAL_MAGIC, WalRecord::decode)
}

/// The open, append-only job WAL.
#[derive(Debug)]
pub struct JobWal {
    log: Mutex<Log>,
    path: PathBuf,
}

impl JobWal {
    /// Open (or create) the WAL in `state_dir`, replaying survivors.
    ///
    /// A torn tail is discarded *and truncated off the file*, so the
    /// next append continues a clean log. A file with an unrecognized
    /// magic is reset to an empty log.
    ///
    /// # Errors
    ///
    /// Only on unrecoverable I/O (the state directory itself being
    /// unusable).
    pub fn open(state_dir: &Path) -> io::Result<(JobWal, Vec<WalRecord>)> {
        let path = state_dir.join(JOBS_WAL_FILE);
        let (log, records) = Log::open(&path, JOBS_WAL_MAGIC, WalRecord::decode)?;
        let wal = JobWal {
            log: Mutex::new(log),
            path,
        };
        Ok((wal, records))
    }

    /// Durably append one record (`write` + `sync_data` before return).
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the caller must treat the transition as
    /// not having happened.
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        let (kind, body) = record.encode();
        self.log.lock().expect("job WAL lock").append(kind, &body)
    }

    /// Path of the WAL file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("server-wal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        let spec = JobSpec::Simulate {
            bench: "gzip".into(),
            seed: 42,
            quick: true,
        };
        vec![
            WalRecord::Submit {
                id: spec.id(),
                spec,
            },
            WalRecord::Start { id: 11, attempt: 1 },
            WalRecord::Fail {
                id: 11,
                attempt: 1,
                terminal: false,
                message: "deadline exceeded".into(),
            },
            WalRecord::Start { id: 11, attempt: 2 },
            WalRecord::Done { id: 11 },
        ]
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = scratch("roundtrip");
        let (wal, recovered) = JobWal::open(&dir).unwrap();
        assert!(recovered.is_empty());
        let records = sample_records();
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        let (_, recovered) = JobWal::open(&dir).unwrap();
        assert_eq!(recovered, records);
    }

    #[test]
    fn record_encoding_is_pinned() {
        // A journal written by any earlier build must replay unchanged.
        const PINNED: &str = "4443474a574c3031\
            011e0000008877665544332211120000000104000000677a69702a000000000000\
            00011cc06e6b45eb1ae5\
            020c000000887766554433221101000000f806c83c5480de2d\
            04190000008877665544332211010000000008000000646561646c696e65d9badc09ab5a24dd\
            030800000088776655443322117add442d0d76f88f";
        let id = 0x1122_3344_5566_7788;
        let records = [
            WalRecord::Submit {
                id,
                spec: JobSpec::Simulate {
                    bench: "gzip".into(),
                    seed: 42,
                    quick: true,
                },
            },
            WalRecord::Start { id, attempt: 1 },
            WalRecord::Fail {
                id,
                attempt: 1,
                terminal: false,
                message: "deadline".into(),
            },
            WalRecord::Done { id },
        ];
        let dir = scratch("pinned");
        let (wal, _) = JobWal::open(&dir).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        let bytes = std::fs::read(wal.path()).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED);
        assert_eq!(decode_wal(&bytes), (records.to_vec(), bytes.len()));
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = scratch("torn");
        let (wal, _) = JobWal::open(&dir).unwrap();
        let records = sample_records();
        for r in &records {
            wal.append(r).unwrap();
        }
        let path = wal.path().to_path_buf();
        drop(wal);

        // Tear off the last 3 bytes of the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (wal, recovered) = JobWal::open(&dir).unwrap();
        assert_eq!(recovered, records[..records.len() - 1]);
        // The torn bytes were truncated away: a fresh append extends a
        // clean log.
        wal.append(&WalRecord::Done { id: 99 }).unwrap();
        drop(wal);
        let (_, recovered) = JobWal::open(&dir).unwrap();
        assert_eq!(recovered.len(), records.len());
        assert_eq!(*recovered.last().unwrap(), WalRecord::Done { id: 99 });
    }

    #[test]
    fn foreign_magic_resets_to_an_empty_log() {
        let dir = scratch("foreign");
        std::fs::write(dir.join(JOBS_WAL_FILE), b"NOTAWALFILE").unwrap();
        let (wal, recovered) = JobWal::open(&dir).unwrap();
        assert!(recovered.is_empty());
        wal.append(&WalRecord::Done { id: 1 }).unwrap();
        drop(wal);
        let (_, recovered) = JobWal::open(&dir).unwrap();
        assert_eq!(recovered, vec![WalRecord::Done { id: 1 }]);
    }
}
