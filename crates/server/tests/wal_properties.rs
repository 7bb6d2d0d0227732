//! Property suite for the durable logs: a log truncated at **every byte
//! boundary** (the `kill -9` state space) always recovers a clean prefix
//! of what was appended, recovery is idempotent, and a recovered log
//! accepts further appends. Random single-bit corruption gets the same
//! guarantee: the decoded records are always an exact prefix of what was
//! written.
//!
//! Two logs are under test: the job WAL, and the bare
//! [`dcg_core::durable::Log`] (arbitrary kinds and bodies) that the job
//! WAL and the trace store journal are both built on.

use std::fmt::Debug;
use std::path::{Path, PathBuf};

use dcg_core::durable::{self, Log};
use dcg_server::{decode_wal, JobSpec, JobWal, WalRecord, JOBS_WAL_FILE, JOBS_WAL_MAGIC};
use dcg_testkit::prop;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("wal-props-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One log format under test: how to write records through it, decode a
/// byte image purely, and open (recover) the file on disk.
trait LogUnderTest {
    type Rec: Clone + PartialEq + Debug;
    const MAGIC: &'static [u8; 8];
    /// A record to append after recovery.
    fn probe() -> Self::Rec;
    fn path(dir: &Path) -> PathBuf;
    fn decode(bytes: &[u8]) -> (Vec<Self::Rec>, usize);
    /// Open the log in `dir`, append `records`, return what open
    /// recovered first.
    fn open_append(dir: &Path, records: &[Self::Rec]) -> Vec<Self::Rec>;
}

struct JobLog;

impl LogUnderTest for JobLog {
    type Rec = WalRecord;
    const MAGIC: &'static [u8; 8] = JOBS_WAL_MAGIC;

    fn probe() -> WalRecord {
        WalRecord::Done { id: 0xfeed }
    }

    fn path(dir: &Path) -> PathBuf {
        dir.join(JOBS_WAL_FILE)
    }

    fn decode(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
        decode_wal(bytes)
    }

    fn open_append(dir: &Path, records: &[WalRecord]) -> Vec<WalRecord> {
        let (wal, recovered) = JobWal::open(dir).unwrap();
        for r in records {
            wal.append(r).unwrap();
        }
        recovered
    }
}

struct RawLog;

type Raw = (u8, Vec<u8>);

fn accept_all(kind: u8, body: &[u8]) -> Option<Raw> {
    Some((kind, body.to_vec()))
}

impl LogUnderTest for RawLog {
    type Rec = Raw;
    const MAGIC: &'static [u8; 8] = b"PROPLOG1";

    fn probe() -> Raw {
        (0xfe, b"probe".to_vec())
    }

    fn path(dir: &Path) -> PathBuf {
        dir.join("raw.log")
    }

    fn decode(bytes: &[u8]) -> (Vec<Raw>, usize) {
        durable::decode(bytes, Self::MAGIC, accept_all)
    }

    fn open_append(dir: &Path, records: &[Raw]) -> Vec<Raw> {
        let (mut log, recovered) = Log::open(&Self::path(dir), Self::MAGIC, accept_all).unwrap();
        for (kind, body) in records {
            log.append(*kind, body).unwrap();
        }
        recovered
    }
}

/// A record sequence for one of the logs.
#[derive(Debug, Clone)]
enum Input {
    Jobs(Vec<WalRecord>),
    Raw(Vec<Raw>),
}

/// Generator of plausible job-record sequences (0..12 records mixing all
/// four kinds, with ids drawn from a small pool so sequences contain
/// realistic per-job progressions), or of arbitrary raw records.
fn inputs() -> prop::Gen<Input> {
    let record = prop::tuple((
        prop::range(0u64..4),
        prop::range(0u64..4),
        prop::any_u64(),
        prop::range(0u64..2),
    ))
    .map(|(kind, id_pick, seed, flag)| {
        let id = 0xab1e0 + id_pick; // small id pool
        match kind {
            0 => WalRecord::Submit {
                id,
                spec: JobSpec::Simulate {
                    bench: "gzip".into(),
                    seed,
                    quick: flag == 1,
                },
            },
            1 => WalRecord::Start {
                id,
                attempt: (seed % 5) as u32 + 1,
            },
            2 => WalRecord::Done { id },
            _ => WalRecord::Fail {
                id,
                attempt: (seed % 5) as u32 + 1,
                terminal: flag == 1,
                message: format!("failure {seed:#x}"),
            },
        }
    });
    let raw = prop::tuple((
        prop::range(0u64..256),
        prop::vec(prop::range(0u64..256), 0usize..40),
    ))
    .map(|(kind, body)| (kind as u8, body.iter().map(|&b| b as u8).collect()));
    prop::Gen::one_of(vec![
        prop::vec(record, 0usize..12).map(Input::Jobs),
        prop::vec(raw, 0usize..12).map(Input::Raw),
    ])
}

/// Write `records` through a fresh log and return the file's bytes.
fn log_bytes<L: LogUnderTest>(dir: &Path, records: &[L::Rec]) -> Vec<u8> {
    assert!(L::open_append(dir, records).is_empty());
    std::fs::read(L::path(dir)).unwrap()
}

fn truncations_recover_a_clean_prefix<L: LogUnderTest>(records: &[L::Rec]) {
    let dir = scratch("trunc");
    let bytes = log_bytes::<L>(&dir, records);
    let path = L::path(&dir);

    // The pure decoder visits literally every boundary (cheap, in
    // memory); the full open/append path — which syncs to disk —
    // samples a stride of boundaries plus the endpoints.
    let stride = (bytes.len() / 16).max(1);
    for cut in 0..=bytes.len() {
        let (decoded, valid_len) = L::decode(&bytes[..cut]);
        assert!(valid_len <= cut);
        assert_eq!(
            decoded,
            records[..decoded.len()],
            "decoded records must be an exact prefix (cut at {cut})"
        );

        if cut % stride != 0 && cut != bytes.len() {
            continue;
        }
        // Full open path: recovery is idempotent and the log stays
        // appendable.
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let first = L::open_append(&dir, &[]);
        assert_eq!(first, decoded, "open agrees with the pure decoder");
        let second = L::open_append(&dir, &[L::probe()]);
        assert_eq!(second, first, "recovery is idempotent");
        let third = L::open_append(&dir, &[]);
        assert_eq!(third.len(), first.len() + 1);
        assert_eq!(*third.last().unwrap(), L::probe());
    }
}

fn bit_flip_yields_a_prefix<L: LogUnderTest>(records: &[L::Rec], pick: u64) {
    let dir = scratch("flip");
    let mut bytes = log_bytes::<L>(&dir, records);
    if bytes.len() <= L::MAGIC.len() {
        return; // nothing past the magic to corrupt
    }
    let pos = L::MAGIC.len() + (pick % (bytes.len() - L::MAGIC.len()) as u64) as usize;
    bytes[pos] ^= 1 << (pick % 8);
    let (decoded, _) = L::decode(&bytes);
    // A flipped record (or anything after it) is discarded; records
    // before the damage survive exactly.
    assert_eq!(decoded, records[..decoded.len()]);
}

#[test]
fn truncation_at_every_byte_boundary_recovers_a_clean_prefix() {
    prop::check(
        "wal_truncate_every_boundary",
        inputs(),
        |input| match input {
            Input::Jobs(records) => truncations_recover_a_clean_prefix::<JobLog>(&records),
            Input::Raw(records) => truncations_recover_a_clean_prefix::<RawLog>(&records),
        },
    );
}

#[test]
fn single_bit_corruption_still_yields_a_prefix() {
    let gen = prop::tuple((inputs(), prop::any_u64()));
    prop::check("wal_bitflip_prefix", gen, |(input, pick)| match input {
        Input::Jobs(records) => bit_flip_yields_a_prefix::<JobLog>(&records, pick),
        Input::Raw(records) => bit_flip_yields_a_prefix::<RawLog>(&records, pick),
    });
}
