//! The wire protocol between `dcg-server` and its clients.
//!
//! Every message — request or reply — travels as one **frame**:
//!
//! ```text
//! magic  [u8; 4]   b"DCGF"
//! len    u32 LE    payload length, <= MAX_FRAME_LEN
//! payload [len]    tag byte + fixed-width LE fields (see Request/Reply)
//! check  u64 LE    FNV-1a over the payload bytes (dcg_core::durable::fnv1a)
//! ```
//!
//! The framing layer is deliberately paranoid: a bad magic, an oversized
//! length, a short read or a checksum mismatch each surface as a distinct
//! [`ProtocolError`] variant — never a panic, never an unbounded
//! allocation, never a hang past the socket's read timeout. The payload
//! codecs are total functions over arbitrary bytes for the same reason
//! (the property suite feeds them garbage).

use std::fmt;
use std::io::{self, Read, Write};

use dcg_core::durable::{fnv1a, put_bytes, put_str, put_u32, put_u64, Cursor};

use crate::jobs::JobSpec;

/// Frame magic — first four bytes of every message in either direction.
pub const FRAME_MAGIC: [u8; 4] = *b"DCGF";

/// Upper bound on a frame payload. Large enough for any result document
/// the job bodies produce (suite metrics are ~100 KiB), small enough
/// that a corrupt length field cannot drive an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// A structured framing/decoding failure. Every malformed input maps to
/// exactly one of these; none of them panic or allocate past the frame
/// bound.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket read/write failed (including timeouts).
    Io(io::Error),
    /// The frame did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The stream ended before the declared frame was complete.
    Truncated {
        /// Bytes the frame header promised.
        wanted: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The payload checksum did not match.
    Checksum {
        /// Checksum carried by the frame.
        expected: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
    /// The payload was well-framed but not a valid message.
    Malformed(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN} bound")
            }
            ProtocolError::Truncated { wanted, got } => {
                write!(f, "truncated frame: wanted {wanted} bytes, got {got}")
            }
            ProtocolError::Checksum { expected, actual } => write!(
                f,
                "frame checksum mismatch: expected {expected:#018x}, got {actual:#018x}"
            ),
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Write one frame carrying `payload`.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when the payload exceeds the frame
/// bound, or the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtocolError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized(len));
    }
    let mut frame = Vec::with_capacity(16 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, returning its verified payload.
///
/// # Errors
///
/// Any [`ProtocolError`] variant; a short stream surfaces as
/// [`ProtocolError::Truncated`] rather than a raw `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; 8];
    read_exact_or_truncated(r, &mut header, 8)?;
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized(len));
    }
    let body_len = len as usize + 8;
    let mut body = vec![0u8; body_len];
    read_exact_or_truncated(r, &mut body, body_len)?;
    let payload = &body[..len as usize];
    let expected = u64::from_le_bytes(body[len as usize..].try_into().expect("8-byte tail"));
    let actual = fnv1a(payload);
    if expected != actual {
        return Err(ProtocolError::Checksum { expected, actual });
    }
    Ok(payload.to_vec())
}

/// `read_exact` that reports how far it got instead of a bare EOF.
fn read_exact_or_truncated(
    r: &mut impl Read,
    buf: &mut [u8],
    wanted: usize,
) -> Result<(), ProtocolError> {
    let mut got = 0;
    while got < wanted {
        match r.read(&mut buf[got..wanted]) {
            Ok(0) => return Err(ProtocolError::Truncated { wanted, got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(())
}

/// A byte field of at most [`MAX_FRAME_LEN`] bytes (specs, result and
/// health documents); string fields are bounded by
/// [`dcg_core::durable::MAX_STR`].
fn frame_bytes(c: &mut Cursor<'_>) -> Option<Vec<u8>> {
    c.bytes(MAX_FRAME_LEN as usize).map(<[u8]>::to_vec)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const REQ_PING: u8 = 1;
const REQ_SUBMIT: u8 = 2;
const REQ_STATUS: u8 = 3;
const REQ_RESULT: u8 = 4;
const REQ_HEALTH: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job; the reply carries the job id and whether it deduped
    /// against an already-known job.
    Submit(JobSpec),
    /// Query the state of a job by id.
    Status(u64),
    /// Fetch the result document of a completed job by id.
    Result(u64),
    /// Fetch the server health document (queue depth, counters, trace
    /// cache health).
    Health,
    /// Stop accepting work, finish running jobs, exit.
    Shutdown,
}

impl Request {
    /// Canonical payload bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Submit(spec) => {
                out.push(REQ_SUBMIT);
                put_bytes(&mut out, &spec.encode());
            }
            Request::Status(id) => {
                out.push(REQ_STATUS);
                put_u64(&mut out, *id);
            }
            Request::Result(id) => {
                out.push(REQ_RESULT);
                put_u64(&mut out, *id);
            }
            Request::Health => out.push(REQ_HEALTH),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
        out
    }

    /// Decode a payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] naming the first field that failed.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8().ok_or(ProtocolError::Malformed("empty request"))? {
            REQ_PING => Request::Ping,
            REQ_SUBMIT => {
                let spec =
                    frame_bytes(&mut c).ok_or(ProtocolError::Malformed("submit spec bytes"))?;
                Request::Submit(
                    JobSpec::decode(&spec).ok_or(ProtocolError::Malformed("submit job spec"))?,
                )
            }
            REQ_STATUS => {
                Request::Status(c.u64().ok_or(ProtocolError::Malformed("status job id"))?)
            }
            REQ_RESULT => {
                Request::Result(c.u64().ok_or(ProtocolError::Malformed("result job id"))?)
            }
            REQ_HEALTH => Request::Health,
            REQ_SHUTDOWN => Request::Shutdown,
            _ => return Err(ProtocolError::Malformed("unknown request tag")),
        };
        if !c.done() {
            return Err(ProtocolError::Malformed("trailing request bytes"));
        }
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

const REP_PONG: u8 = 1;
const REP_SUBMITTED: u8 = 2;
const REP_BUSY: u8 = 3;
const REP_STATUS: u8 = 4;
const REP_RESULT: u8 = 5;
const REP_NOT_READY: u8 = 6;
const REP_HEALTH: u8 = 7;
const REP_ERR: u8 = 8;
const REP_SHUTTING_DOWN: u8 = 9;

/// Error codes carried by [`Reply::Err`].
pub mod err_code {
    /// The request referenced a job the server has never seen.
    pub const UNKNOWN_JOB: u32 = 1;
    /// The job reached a terminal failure (quarantined or rejected).
    pub const JOB_FAILED: u32 = 2;
    /// The request could not be decoded.
    pub const BAD_REQUEST: u32 = 3;
    /// The server could not journal or persist durably.
    pub const STORAGE: u32 = 4;
}

/// Human label for an [`err_code`] value.
#[must_use]
pub fn err_str(code: u32) -> &'static str {
    match code {
        err_code::UNKNOWN_JOB => "unknown job",
        err_code::JOB_FAILED => "job failed",
        err_code::BAD_REQUEST => "bad request",
        err_code::STORAGE => "storage failure",
        _ => "unknown error code",
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The job was accepted (or already known).
    Submitted {
        /// The job id (digest of the canonical spec encoding).
        id: u64,
        /// True when the spec deduplicated against an existing job.
        deduped: bool,
    },
    /// The bounded queue is full; the job was **not** accepted. Retry
    /// after the hinted delay.
    Busy {
        /// Suggested client back-off before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// Current state of a job.
    Status {
        /// The job id.
        id: u64,
        /// State label (`queued`, `running`, `backoff`, `done`,
        /// `failed`, `quarantined`).
        state: String,
        /// Execution attempts so far.
        attempts: u32,
    },
    /// The result document of a completed job.
    Result {
        /// The job id.
        id: u64,
        /// The JSON document, exactly as persisted on disk.
        json: Vec<u8>,
    },
    /// The job exists but has not completed yet.
    NotReady {
        /// The job id.
        id: u64,
        /// Current state label.
        state: String,
    },
    /// Server health document (JSON).
    Health(String),
    /// A structured failure.
    Err {
        /// One of [`err_code`].
        code: u32,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledges [`Request::Shutdown`].
    ShuttingDown,
}

impl Reply {
    /// Canonical payload bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Reply::Pong => out.push(REP_PONG),
            Reply::Submitted { id, deduped } => {
                out.push(REP_SUBMITTED);
                put_u64(&mut out, *id);
                out.push(u8::from(*deduped));
            }
            Reply::Busy { retry_after_ms } => {
                out.push(REP_BUSY);
                put_u64(&mut out, *retry_after_ms);
            }
            Reply::Status {
                id,
                state,
                attempts,
            } => {
                out.push(REP_STATUS);
                put_u64(&mut out, *id);
                put_str(&mut out, state);
                put_u32(&mut out, *attempts);
            }
            Reply::Result { id, json } => {
                out.push(REP_RESULT);
                put_u64(&mut out, *id);
                put_bytes(&mut out, json);
            }
            Reply::NotReady { id, state } => {
                out.push(REP_NOT_READY);
                put_u64(&mut out, *id);
                put_str(&mut out, state);
            }
            Reply::Health(json) => {
                out.push(REP_HEALTH);
                put_bytes(&mut out, json.as_bytes());
            }
            Reply::Err { code, message } => {
                out.push(REP_ERR);
                put_u32(&mut out, *code);
                put_str(&mut out, message);
            }
            Reply::ShuttingDown => out.push(REP_SHUTTING_DOWN),
        }
        out
    }

    /// Decode a payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] naming the first field that failed.
    pub fn decode(payload: &[u8]) -> Result<Reply, ProtocolError> {
        let mut c = Cursor::new(payload);
        let rep = match c.u8().ok_or(ProtocolError::Malformed("empty reply"))? {
            REP_PONG => Reply::Pong,
            REP_SUBMITTED => Reply::Submitted {
                id: c.u64().ok_or(ProtocolError::Malformed("submitted id"))?,
                deduped: c.u8().ok_or(ProtocolError::Malformed("submitted flag"))? != 0,
            },
            REP_BUSY => Reply::Busy {
                retry_after_ms: c.u64().ok_or(ProtocolError::Malformed("busy hint"))?,
            },
            REP_STATUS => Reply::Status {
                id: c.u64().ok_or(ProtocolError::Malformed("status id"))?,
                state: c.str().ok_or(ProtocolError::Malformed("status state"))?,
                attempts: c.u32().ok_or(ProtocolError::Malformed("status attempts"))?,
            },
            REP_RESULT => Reply::Result {
                id: c.u64().ok_or(ProtocolError::Malformed("result id"))?,
                json: frame_bytes(&mut c).ok_or(ProtocolError::Malformed("result body"))?,
            },
            REP_NOT_READY => Reply::NotReady {
                id: c.u64().ok_or(ProtocolError::Malformed("not-ready id"))?,
                state: c.str().ok_or(ProtocolError::Malformed("not-ready state"))?,
            },
            REP_HEALTH => Reply::Health(
                frame_bytes(&mut c)
                    .and_then(|b| String::from_utf8(b).ok())
                    .ok_or(ProtocolError::Malformed("health body"))?,
            ),
            REP_ERR => Reply::Err {
                code: c.u32().ok_or(ProtocolError::Malformed("error code"))?,
                message: c.str().ok_or(ProtocolError::Malformed("error message"))?,
            },
            REP_SHUTTING_DOWN => Reply::ShuttingDown,
            _ => return Err(ProtocolError::Malformed("unknown reply tag")),
        };
        if !c.done() {
            return Err(ProtocolError::Malformed("trailing reply bytes"));
        }
        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let payload = Request::Status(0xdead_beef).encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();

        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, payload);
        // Pinned: clients and servers of any build must agree on frames.
        assert_eq!(
            buf,
            [
                0x44, 0x43, 0x47, 0x46, 0x09, 0x00, 0x00, 0x00, 0x03, 0xef, 0xbe, 0xad, 0xde, 0x00,
                0x00, 0x00, 0x00, 0xb4, 0x94, 0xf4, 0xf4, 0x8e, 0xcf, 0x24, 0x16
            ]
        );

        // Flip one payload byte: checksum mismatch, not a panic.
        let mut bad = buf.clone();
        bad[10] ^= 0x40;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(ProtocolError::Checksum { .. })
        ));

        // Truncate: structured truncation error.
        let short = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut &short[..]),
            Err(ProtocolError::Truncated { .. })
        ));

        // Bad magic.
        let mut nomagic = buf.clone();
        nomagic[0] = b'X';
        assert!(matches!(
            read_frame(&mut nomagic.as_slice()),
            Err(ProtocolError::BadMagic(_))
        ));

        // Oversized length never allocates: the header alone rejects it.
        let mut huge = Vec::new();
        huge.extend_from_slice(&FRAME_MAGIC);
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ProtocolError::Oversized(_))
        ));
    }

    #[test]
    fn requests_and_replies_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Submit(JobSpec::Simulate {
                bench: "gzip".into(),
                seed: 42,
                quick: true,
            }),
            Request::Status(7),
            Request::Result(9),
            Request::Health,
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
        let reps = [
            Reply::Pong,
            Reply::Submitted {
                id: 3,
                deduped: true,
            },
            Reply::Busy { retry_after_ms: 50 },
            Reply::Status {
                id: 3,
                state: "running".into(),
                attempts: 2,
            },
            Reply::Result {
                id: 3,
                json: b"{}".to_vec(),
            },
            Reply::NotReady {
                id: 3,
                state: "queued".into(),
            },
            Reply::Health("{}".into()),
            Reply::Err {
                code: err_code::UNKNOWN_JOB,
                message: "no such job".into(),
            },
            Reply::ShuttingDown,
        ];
        for r in reps {
            assert_eq!(Reply::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut p = Request::Ping.encode();
        p.push(0);
        assert!(matches!(
            Request::decode(&p),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
