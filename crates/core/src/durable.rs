//! The one durability layer under the trace store and the job server:
//! the framed append [`Log`] (the store journal and the job WAL differ
//! only in magic and record kinds), [`atomic_write`], the
//! [`crash_point`] hook, [`fnv1a`] and the fixed-width little-endian
//! field codec ([`put_u32`] … [`Cursor`]). DESIGN.md §17 describes the
//! log format and each piece's contract.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bound on one log record body. Store and job records are far below it;
/// a corrupt length field can never drive a larger allocation.
pub const MAX_RECORD: u32 = 1 << 20;

/// Longest string field [`Cursor::str`] accepts (names, file names,
/// error messages).
pub const MAX_STR: usize = 4096;

/// Record framing overhead: kind + len ahead of the body, check after.
const FRAME_HEAD: usize = 5;
const FRAME_CHECK: usize = 8;

/// FNV-1a over `bytes`: job ids, protocol frame and log record checks,
/// and trace-cache file keys.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Field codec
// ---------------------------------------------------------------------------

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length prefix and the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a `u32` length prefix and the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Bounds-checked little-endian reader over untrusted bytes: every read
/// past the end (or past a length bound) is `None`, never a panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Read a length-prefixed byte field of at most `bound` bytes.
    pub fn bytes(&mut self, bound: usize) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > bound {
            return None;
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string of at most [`MAX_STR`] bytes.
    pub fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes(MAX_STR)?.to_vec()).ok()
    }

    /// `true` once every byte has been read.
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Framed append log
// ---------------------------------------------------------------------------

/// Decode a log image: the records `decode(kind, body)` accepts, up to
/// the first torn, corrupt or undecodable one, plus the byte length of
/// that valid prefix (magic included). A foreign magic yields
/// `(vec![], 0)`. Pure — read-only callers decode with this.
pub fn decode<T>(
    bytes: &[u8],
    magic: &[u8; 8],
    mut decode: impl FnMut(u8, &[u8]) -> Option<T>,
) -> (Vec<T>, usize) {
    let mut records = Vec::new();
    if !bytes.starts_with(magic) {
        return (records, 0);
    }
    let mut pos = magic.len();
    while let Some(head) = bytes.get(pos..pos + FRAME_HEAD) {
        let len = u32::from_le_bytes(head[1..].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            break;
        }
        let total = FRAME_HEAD + len as usize + FRAME_CHECK;
        let Some(rec) = bytes.get(pos..pos + total) else {
            break;
        };
        let (framed, check) = rec.split_at(total - FRAME_CHECK);
        if u64::from_le_bytes(check.try_into().expect("8 bytes")) != fnv1a(framed) {
            break;
        }
        let Some(record) = decode(head[0], &framed[FRAME_HEAD..]) else {
            break;
        };
        records.push(record);
        pos += total;
    }
    (records, pos)
}

/// An open framed append log (format: DESIGN.md §17).
#[derive(Debug)]
pub struct Log {
    file: File,
    magic: [u8; 8],
}

impl Log {
    /// Open (or create) the log at `path`, returning the records that
    /// survive [`decode`]. A torn or undecodable tail is truncated off the
    /// file; an empty file or a foreign magic is reset to an empty log.
    ///
    /// # Errors
    ///
    /// Any I/O failure opening, reading, truncating or syncing the file.
    pub fn open<T>(
        path: &Path,
        magic: &[u8; 8],
        decode_record: impl FnMut(u8, &[u8]) -> Option<T>,
    ) -> io::Result<(Log, Vec<T>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = decode(&bytes, magic, decode_record);
        let mut log = Log {
            file,
            magic: *magic,
        };
        if valid_len == 0 {
            log.reset()?;
        } else {
            if valid_len < bytes.len() {
                log.file.set_len(valid_len as u64)?;
                log.file.sync_data()?;
            }
            log.file.seek(SeekFrom::Start(valid_len as u64))?;
        }
        Ok((log, records))
    }

    /// Durably append one record (`write` + `sync_data` before return).
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the caller must treat the record as not
    /// written. A body over [`MAX_RECORD`] is `InvalidInput`.
    pub fn append(&mut self, kind: u8, body: &[u8]) -> io::Result<()> {
        if body.len() > MAX_RECORD as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "log record too large",
            ));
        }
        let mut rec = Vec::with_capacity(FRAME_HEAD + body.len() + FRAME_CHECK);
        rec.push(kind);
        put_bytes(&mut rec, body);
        let check = fnv1a(&rec);
        put_u64(&mut rec, check);
        self.file.write_all(&rec)?;
        self.file.sync_data()
    }

    /// Restart the log empty: truncate to the magic and `sync_all`.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&self.magic)?;
        self.file.sync_all()
    }
}

// ---------------------------------------------------------------------------
// Atomic write
// ---------------------------------------------------------------------------

/// Suffix of every temp file [`atomic_write`] stages.
const TEMP_SUFFIX: &str = ".tmp";

/// A fresh temp path beside `path`: `<name>.<pid>.<n>.tmp`. The pid
/// separates processes and the counter separates writers in one
/// process.
#[must_use]
pub fn temp_path(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".{}.{}{TEMP_SUFFIX}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// `true` for a file name [`temp_path`] could have produced: a leftover
/// of a writer that died before its rename.
#[must_use]
pub fn is_temp(name: &str) -> bool {
    name.ends_with(TEMP_SUFFIX)
}

/// Replace `path` with `bytes` atomically: write a [`temp_path`] file,
/// `sync_all` it, call `before_rename` with the temp path, then rename it
/// over `path`. Readers see the old file or the new one, never a torn
/// one; on failure the temp file is removed.
///
/// # Errors
///
/// The I/O error of the write, sync or rename.
pub fn atomic_write(
    path: &Path,
    bytes: &[u8],
    before_rename: impl FnOnce(&Path),
) -> io::Result<()> {
    let tmp = temp_path(path);
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()
    });
    let result = written.and_then(|()| {
        before_rename(&tmp);
        fs::rename(&tmp, path)
    });
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// Crash hook
// ---------------------------------------------------------------------------

/// Abort the process when the environment variable `env` reads
/// `point:N` and this is the Nth time `point` is reached in this process.
/// Test and CI only: the variables are never set in normal use.
pub fn crash_point(env: &str, point: &str) {
    // Hits of the targeted point, per variable: a plan names one point,
    // so counting only targeted hits gives that point's ordinal.
    static HITS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
    let Ok(plan) = std::env::var(env) else {
        return;
    };
    let Some(n) = plan
        .split_once(':')
        .filter(|(target, _)| *target == point)
        .and_then(|(_, n)| n.parse::<u64>().ok())
    else {
        return;
    };
    let hit = {
        let mut hits = HITS.lock().unwrap_or_else(|e| e.into_inner());
        let count = hits.entry(env.to_string()).or_insert(0);
        *count += 1;
        *count
    };
    if hit == n {
        eprintln!("{env}: aborting at {point} number {n}");
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .join("target")
            .join("tmp")
            .join(format!("durable-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const MAGIC: &[u8; 8] = b"TESTLOG1";

    fn any(kind: u8, body: &[u8]) -> Option<(u8, Vec<u8>)> {
        Some((kind, body.to_vec()))
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn undecodable_body_ends_the_replay_and_is_truncated() {
        let path = scratch("undecodable").join("log");
        let (mut log, _) = Log::open(&path, MAGIC, any).unwrap();
        log.append(1, b"keep").unwrap();
        log.append(9, b"owner rejects kind 9").unwrap();
        log.append(1, b"after").unwrap();
        drop(log);
        let only_ones = |kind: u8, body: &[u8]| (kind == 1).then(|| body.to_vec());
        let (mut log, got) = Log::open(&path, MAGIC, only_ones).unwrap();
        assert_eq!(got, vec![b"keep".to_vec()]);
        log.append(1, b"next").unwrap();
        drop(log);
        let (_, got) = Log::open(&path, MAGIC, only_ones).unwrap();
        assert_eq!(got, vec![b"keep".to_vec(), b"next".to_vec()]);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = scratch("atomic");
        let path = dir.join("doc.json");
        atomic_write(&path, b"one", |_| {}).unwrap();
        let mut staged = None;
        atomic_write(&path, b"two", |tmp| {
            assert_eq!(fs::read(tmp).unwrap(), b"two", "synced before the hook");
            staged = Some(tmp.to_path_buf());
        })
        .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        let staged = staged.unwrap();
        assert!(is_temp(&staged.file_name().unwrap().to_string_lossy()));
        assert!(!staged.exists());

        // A failed rename (target is a non-empty directory) removes the
        // temp file.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("inner")).unwrap();
        assert!(atomic_write(&blocked, b"x", |_| {}).is_err());
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !is_temp(n)),
            "leftover temp: {names:?}"
        );
    }
}
