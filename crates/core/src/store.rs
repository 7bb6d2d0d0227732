//! The tiered, crash-safe backing store behind [`crate::TraceCache`].
//!
//! The first-generation cache was a flat directory of `.dcgact` files
//! addressed by a 64-bit FNV filename key. That shape had real
//! correctness holes: two tuples colliding on the key overwrote each
//! other's file and thrashed forever, a writer dying between temp-file
//! creation and rename leaked `.tmp` files, and every lookup had to read
//! and re-validate a full file header before knowing whether the entry
//! even matched. This module replaces it with a small storage engine in
//! the LSM style (manifest + write-ahead journal + recovery sweep +
//! bounded compaction):
//!
//! * a versioned, checksummed **manifest** (`MANIFEST.dcgstore`, written
//!   via temp-file + rename) indexes entries by their **full identity**
//!   — `(config digest, name, seed, warm-up/measure lengths, activity
//!   schema, activity version)` — plus per-entry metadata: on-disk file
//!   name, byte length, whole-payload checksum and a last-access
//!   generation;
//! * an append-only **journal** (`JOURNAL.dcgstore`) records every store
//!   and eviction *before* it takes effect, so an interrupted mutation is
//!   rolled forward (temp file renamed into place) or discarded (temp
//!   file deleted) on the next open, never half-trusted;
//! * an **open-time recovery sweep** reconciles the directory against
//!   manifest + journal: untracked valid entries are adopted, corrupt
//!   files and dangling manifest rows are dropped, and stale `.tmp`
//!   files are reaped exactly once;
//! * a **bounded-capacity eviction policy** (`DCG_TRACE_CACHE_BUDGET`
//!   bytes, oldest generation first) and a **compaction pass** —
//!   runnable on a background thread — that drops entries recorded under
//!   an activity schema/version the current binary no longer speaks.
//!
//! Lookups go through the in-memory manifest index, so a hit knows the
//! entry matches before touching the file, and the whole-payload
//! checksum (the activity format's own 4-lane memory-speed checksum,
//! [`dcg_trace::payload_checksum`]) rejects silently corrupted or
//! swapped files with a clean miss instead of a half-replay.
//!
//! Crash-consistency test hook: `DCG_STORE_CRASH=before-journal:N` or
//! `before-rename:N` aborts the process at the named point of the `N`-th
//! store in this process, letting CI kill a sweep mid-store and prove
//! the reopen recovers (DESIGN.md §14). The journal framing, the atomic
//! writes and the hook itself live in [`crate::durable`].

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dcg_trace::{payload_checksum, ActivityTraceReader, ACTIVITY_SCHEMA, ACTIVITY_VERSION};

use crate::durable::{self, put_str, put_u32, put_u64, Cursor, Log};

/// Manifest file name inside the store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.dcgstore";
/// Journal (write-ahead log) file name inside the store directory.
pub const JOURNAL_FILE: &str = "JOURNAL.dcgstore";
/// Manifest magic. Bumped to `02` with format version 2 (the
/// `verified` generation column); version-1 stores fail the magic check
/// and self-heal through the directory scan, which re-verifies and
/// re-checkpoints every entry under the new format.
pub const MANIFEST_MAGIC: [u8; 8] = *b"DCGMAN02";
/// Journal magic of the [`durable::Log`] framing. A `DCGWAL02` journal
/// (separate version word, payload-checksummed records) reads as foreign
/// and is reset; the directory scan adopts the entries it renamed.
pub const JOURNAL_MAGIC: [u8; 8] = *b"DCGWAL03";
/// Manifest format version.
pub const STORE_FORMAT_VERSION: u32 = 2;
/// Environment variable for the crash-consistency test hook.
pub const STORE_CRASH_ENV: &str = "DCG_STORE_CRASH";

/// Mutations between automatic manifest checkpoints. The journal holds
/// at most this many records (plus evictions) before being folded into
/// a fresh manifest, so recovery replay stays short.
const CHECKPOINT_EVERY: u32 = 16;

/// Journal record kinds.
const REC_STORE: u8 = 1;
const REC_EVICT: u8 = 2;

/// The full identity a cache entry is indexed by — every field that can
/// change what a recorded activity stream replays to. The old flat
/// layout folded all of this into one 64-bit FNV filename key; the
/// manifest keeps the fields themselves, so two tuples that collide on
/// the key remain distinct entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntryIdentity {
    /// [`dcg_sim::SimConfig::digest`] of the producing configuration.
    pub config_digest: u64,
    /// Workload seed.
    pub seed: u64,
    /// Warm-up instructions of the producing run.
    pub warmup_insts: u64,
    /// Measured instructions of the producing run.
    pub measure_insts: u64,
    /// Activity schema fingerprint the entry was recorded under.
    pub schema: u32,
    /// Activity format version the entry was recorded under.
    pub version: u32,
    /// Workload name.
    pub name: String,
}

impl EntryIdentity {
    /// Identity for a tuple recorded under the *current* activity
    /// schema/version (the only kind this binary can produce).
    pub fn current(
        config_digest: u64,
        name: &str,
        seed: u64,
        warmup_insts: u64,
        measure_insts: u64,
    ) -> EntryIdentity {
        EntryIdentity {
            config_digest,
            seed,
            warmup_insts,
            measure_insts,
            schema: ACTIVITY_SCHEMA,
            version: ACTIVITY_VERSION,
            name: name.to_string(),
        }
    }

    /// `true` when the entry was recorded under the schema/version this
    /// binary speaks — compaction drops everything else.
    fn is_live_schema(&self) -> bool {
        self.schema == ACTIVITY_SCHEMA && self.version == ACTIVITY_VERSION
    }
}

/// Per-entry metadata carried by the manifest and journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// Full identity of the tuple this entry caches.
    pub identity: EntryIdentity,
    /// On-disk file name within the store directory.
    pub file: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Whole-payload checksum ([`dcg_trace::payload_checksum`]).
    pub checksum: u64,
    /// Last-access generation (monotonic; oldest evicts first).
    pub generation: u64,
    /// Generation at which the payload was last verified against
    /// `checksum` (0 = never). Entries are born verified — insert and
    /// adoption both compute the checksum from the bytes in hand — and
    /// the manifest persists the stamp, so later opens trust it and
    /// fetches skip the whole-payload scan; a row that arrives
    /// unverified (0) is checksummed on first fetch and the stamp
    /// journals through the normal checkpoint machinery.
    pub verified: u64,
}

/// A failure in the store's own metadata I/O (manifest checkpoint,
/// journal append). Entry-payload failures never surface here — they
/// degrade to counted cache misses.
#[derive(Debug)]
pub struct StoreError {
    /// What the store was doing.
    pub what: &'static str,
    /// The underlying I/O failure.
    pub source: io::Error,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace store {}: {}", self.what, self.source)
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// What one open-time recovery sweep (or compaction pass) did —
/// surfaced through [`crate::CacheHealth`] and the store fault
/// campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Untracked valid entries adopted from the directory scan.
    pub adopted: u64,
    /// Interrupted stores completed from their journal record (temp file
    /// renamed into place).
    pub rolled_forward: u64,
    /// Stale temp files deleted.
    pub reaped_tmp: u64,
    /// Corrupt entry files (or dangling manifest rows) dropped.
    pub dropped_corrupt: u64,
    /// Entries dropped because their recorded activity schema/version is
    /// no longer live.
    pub dropped_stale_schema: u64,
    /// Entries evicted to fit the byte budget.
    pub evicted_over_budget: u64,
}

/// Summary of a full-store verification pass ([`TraceStore::verify_all`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreScan {
    /// Entries whose payload checksum matched the manifest.
    pub valid: u64,
    /// Entries that failed verification (and were evicted).
    pub invalid: u64,
    /// Total payload bytes of the valid entries.
    pub bytes: u64,
}

/// Per-instance health counters (atomics: the store is shared across
/// the suite's worker threads), read through [`crate::TraceCache::health`].
#[derive(Debug, Default)]
pub struct HealthCounters {
    /// Failed stores (directory creation, write, journal, or rename).
    pub store_failures: AtomicU64,
    /// Invalid entries that could not be deleted.
    pub evict_failures: AtomicU64,
    /// Replay drives that failed mid-run on a validated entry.
    pub replay_failures: AtomicU64,
    /// Distinct identities that collided on the 64-bit filename key and
    /// were stored under a disambiguated name.
    pub key_collisions: AtomicU64,
    /// Stores/evictions skipped because the store directory is not
    /// writable (read-only degradation: lookups still served).
    pub readonly_skips: AtomicU64,
}

fn encode_meta(out: &mut Vec<u8>, m: &EntryMeta) {
    put_u64(out, m.identity.config_digest);
    put_u64(out, m.identity.seed);
    put_u64(out, m.identity.warmup_insts);
    put_u64(out, m.identity.measure_insts);
    put_u32(out, m.identity.schema);
    put_u32(out, m.identity.version);
    put_str(out, &m.identity.name);
    put_str(out, &m.file);
    put_u64(out, m.bytes);
    put_u64(out, m.checksum);
    put_u64(out, m.generation);
    put_u64(out, m.verified);
}

fn decode_meta(c: &mut Cursor<'_>) -> Option<EntryMeta> {
    Some(EntryMeta {
        identity: EntryIdentity {
            config_digest: c.u64()?,
            seed: c.u64()?,
            warmup_insts: c.u64()?,
            measure_insts: c.u64()?,
            schema: c.u32()?,
            version: c.u32()?,
            name: c.str()?,
        },
        file: c.str()?,
        bytes: c.u64()?,
        checksum: c.u64()?,
        generation: c.u64()?,
        verified: c.u64()?,
    })
}

/// One decoded journal operation.
#[derive(Debug)]
enum JournalOp {
    /// Intent to store `meta` (payload staged in temp file `tmp`).
    Store { meta: EntryMeta, tmp: String },
    /// Intent to delete entry file `file`.
    Evict { file: String },
}

fn encode_op(op: &JournalOp) -> (u8, Vec<u8>) {
    let mut body = Vec::with_capacity(128);
    match op {
        JournalOp::Store { meta, tmp } => {
            encode_meta(&mut body, meta);
            put_str(&mut body, tmp);
            (REC_STORE, body)
        }
        JournalOp::Evict { file } => {
            put_str(&mut body, file);
            (REC_EVICT, body)
        }
    }
}

fn decode_op(kind: u8, body: &[u8]) -> Option<JournalOp> {
    let mut c = Cursor::new(body);
    match kind {
        REC_STORE => Some(JournalOp::Store {
            meta: decode_meta(&mut c)?,
            tmp: c.str()?,
        }),
        REC_EVICT => Some(JournalOp::Evict { file: c.str()? }),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Mutable store state behind the instance mutex. `None` until the
/// first operation triggers the open-time recovery sweep.
#[derive(Debug)]
struct State {
    /// Full-identity index — the in-memory manifest.
    index: HashMap<EntryIdentity, EntryMeta>,
    /// Monotonic last-access generation allocator.
    generation: u64,
    /// The open journal (lazily opened).
    journal: Option<Log>,
    /// Mutations since the last checkpoint.
    ops_since_checkpoint: u32,
    /// Anything (including generation bumps) changed since the last
    /// checkpoint — drives the best-effort checkpoint on drop.
    dirty: bool,
    /// The directory is not writable (detected at open, or forced):
    /// lookups are served from the manifest/journal/directory as found,
    /// every mutation degrades to a counted no-op
    /// ([`HealthCounters::readonly_skips`]), and nothing on disk is
    /// touched — the shape a CI artifact replay needs.
    readonly: bool,
    /// What the open-time sweep did (kept for tests/campaigns).
    recovery: RecoveryStats,
}

impl State {
    fn total_bytes(&self) -> u64 {
        self.index.values().map(|m| m.bytes).sum()
    }
}

/// The crash-safe trace store. Shared (via `Arc` inside
/// [`crate::TraceCache`]) across the suite's worker threads; all
/// metadata operations serialize on one mutex, payload reads happen
/// outside it.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    /// Byte budget; `None` = unbounded.
    budget: Option<u64>,
    /// Open in read-only mode unconditionally (otherwise a write probe
    /// at open time decides).
    force_readonly: bool,
    /// Per-instance health counters.
    pub health: HealthCounters,
    state: Mutex<Option<State>>,
}

impl TraceStore {
    /// A store rooted at `dir`, opened lazily on first use.
    pub fn new(dir: PathBuf, budget: Option<u64>) -> TraceStore {
        TraceStore {
            dir,
            budget,
            force_readonly: false,
            health: HealthCounters::default(),
            state: Mutex::new(None),
        }
    }

    /// A store that never writes to `dir`: lookups are served, every
    /// store/eviction degrades to a counted no-op
    /// ([`HealthCounters::readonly_skips`]). The same degradation is
    /// auto-detected when a normal open finds an unwritable directory
    /// (e.g. a CI artifact replayed from a read-only mount); this
    /// constructor forces it for callers that *know* the directory must
    /// not change.
    pub fn new_read_only(dir: PathBuf) -> TraceStore {
        TraceStore {
            dir,
            budget: None,
            force_readonly: true,
            health: HealthCounters::default(),
            state: Mutex::new(None),
        }
    }

    /// `true` when the store degraded to read-only mode (forces the
    /// lazy open).
    pub fn is_read_only(&self) -> bool {
        let mut guard = self.opened();
        guard.as_mut().expect("opened").readonly
    }

    /// `true` when writing into `dir` works: probed by creating (and
    /// removing) a uniquely-named temp file. Any creation failure on an
    /// *existing* directory — permissions, `EROFS`, quota — means
    /// mutations cannot land, which is exactly what read-only mode
    /// degrades around.
    fn probe_writable(dir: &Path) -> bool {
        let probe = durable::temp_path(&dir.join(".probe"));
        match OpenOptions::new().write(true).create_new(true).open(&probe) {
            Ok(f) => {
                drop(f);
                let _ = fs::remove_file(&probe);
                true
            }
            Err(_) => false,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Lock the state, running the open-time recovery sweep on first
    /// touch.
    fn opened(&self) -> MutexGuard<'_, Option<State>> {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some(self.open_sweep());
        }
        guard
    }

    /// Force the lazy open (and its recovery sweep) now; returns what
    /// the sweep did.
    pub fn ensure_open(&self) -> RecoveryStats {
        self.opened().as_ref().expect("opened").recovery
    }

    // -- open-time recovery -------------------------------------------------

    /// Build the in-memory state: load the manifest, roll the journal
    /// forward, reconcile against the directory, drop stale schemas,
    /// enforce the budget, checkpoint.
    fn open_sweep(&self) -> State {
        let mut st = State {
            index: HashMap::new(),
            generation: 0,
            journal: None,
            ops_since_checkpoint: 0,
            dirty: false,
            readonly: self.force_readonly,
            recovery: RecoveryStats::default(),
        };
        if !self.dir.is_dir() {
            // A missing directory is created by the first insert, so it
            // only counts as read-only when explicitly forced.
            return st;
        }
        if !st.readonly && !Self::probe_writable(&self.dir) {
            st.readonly = true;
            crate::cache::note_readonly(&self.dir);
        }

        // 1. Manifest: the checkpointed index. A torn or corrupt
        //    manifest is *not* fatal — the directory scan below rebuilds
        //    the index from the entries themselves.
        if let Ok(bytes) = fs::read(self.dir.join(MANIFEST_FILE)) {
            if let Some((gen, entries)) = decode_manifest(&bytes) {
                st.generation = gen;
                for m in entries {
                    st.generation = st.generation.max(m.generation);
                    st.index.insert(m.identity.clone(), m);
                }
            }
        }

        // 2. Journal: mutations since the checkpoint, rolled forward or
        //    discarded. Temp files named by surviving store records are
        //    accounted for so the sweep below does not double-handle
        //    them.
        //    A writable open also truncates a torn or foreign journal.
        let mut handled_tmp: Vec<String> = Vec::new();
        let journal_path = self.dir.join(JOURNAL_FILE);
        let opened = (!st.readonly)
            .then(|| Log::open(&journal_path, &JOURNAL_MAGIC, decode_op).ok())
            .flatten();
        let ops = match opened {
            Some((log, ops)) => {
                st.journal = Some(log);
                ops
            }
            None => {
                let bytes = fs::read(&journal_path).unwrap_or_default();
                durable::decode(&bytes, &JOURNAL_MAGIC, decode_op).0
            }
        };
        for op in ops {
            match op {
                JournalOp::Store { meta, tmp } => {
                    handled_tmp.push(tmp.clone());
                    let final_path = self.dir.join(&meta.file);
                    let tmp_path = self.dir.join(&tmp);
                    if file_matches(&final_path, meta.bytes, meta.checksum) {
                        // The rename completed before the crash (or there
                        // was no crash): trust the journal row.
                        st.generation = st.generation.max(meta.generation);
                        st.index.insert(meta.identity.clone(), meta);
                    } else if !st.readonly && file_matches(&tmp_path, meta.bytes, meta.checksum) {
                        // Died between journal append and rename: roll
                        // the store forward. (Read-only mode cannot
                        // rename; the intent is simply not indexed —
                        // the writable owner of the directory rolls it
                        // forward on its next open.)
                        if fs::rename(&tmp_path, &final_path).is_ok() {
                            st.recovery.rolled_forward += 1;
                            st.generation = st.generation.max(meta.generation);
                            st.index.insert(meta.identity.clone(), meta);
                        } else {
                            let _ = fs::remove_file(&tmp_path);
                            st.recovery.dropped_corrupt += 1;
                        }
                    } else {
                        // Neither side of the rename holds the promised
                        // payload: discard the intent entirely (from
                        // the index only, when read-only).
                        if !st.readonly {
                            if tmp_path.exists() {
                                let _ = fs::remove_file(&tmp_path);
                            }
                            if final_path.exists() {
                                let _ = fs::remove_file(&final_path);
                            }
                        }
                        st.index.remove(&meta.identity);
                        st.recovery.dropped_corrupt += 1;
                    }
                }
                JournalOp::Evict { file } => {
                    st.index.retain(|_, m| m.file != file);
                    let p = self.dir.join(&file);
                    if !st.readonly && p.exists() {
                        let _ = fs::remove_file(&p);
                    }
                }
            }
        }

        // 3. Directory reconciliation: adopt untracked valid entries,
        //    delete corrupt ones, reap stale temp files, drop dangling
        //    manifest rows.
        let tracked: std::collections::HashSet<String> =
            st.index.values().map(|m| m.file.clone()).collect();
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name == MANIFEST_FILE || name == JOURNAL_FILE {
                    continue;
                }
                if durable::is_temp(&name) {
                    if !st.readonly && !handled_tmp.contains(&name) {
                        let _ = fs::remove_file(entry.path());
                        st.recovery.reaped_tmp += 1;
                    }
                    continue;
                }
                if !name.ends_with(".dcgact") || tracked.contains(&name) {
                    continue;
                }
                match adopt_entry(&entry.path()) {
                    Some((identity, bytes, checksum)) => {
                        st.generation += 1;
                        st.recovery.adopted += 1;
                        st.index.insert(
                            identity.clone(),
                            EntryMeta {
                                identity,
                                file: name,
                                bytes,
                                checksum,
                                generation: st.generation,
                                // Adoption reads the whole file to derive
                                // the checksum, so the row starts verified.
                                verified: st.generation,
                            },
                        );
                    }
                    None => {
                        if !st.readonly {
                            let _ = fs::remove_file(entry.path());
                            st.recovery.dropped_corrupt += 1;
                        }
                    }
                }
            }
        }
        let dangling: Vec<EntryIdentity> = st
            .index
            .iter()
            .filter(|(_, m)| !self.dir.join(&m.file).is_file())
            .map(|(id, _)| id.clone())
            .collect();
        for id in dangling {
            st.index.remove(&id);
            st.recovery.dropped_corrupt += 1;
        }

        // 4. Compaction duties that are always safe at open: drop
        //    entries from a schema this binary no longer speaks, and
        //    enforce the byte budget oldest-first. Read-only mode owns
        //    no disk space, so it compacts nothing (stale-schema rows
        //    are harmless there — current-schema lookups never match
        //    them).
        if !st.readonly {
            st.recovery.dropped_stale_schema += self.drop_stale_schema(&mut st);
            st.recovery.evicted_over_budget += self.evict_to_budget(&mut st);
        }

        crate::cache::note_recovery(&st.recovery);

        // 5. Checkpoint the reconciled state so the next open starts
        //    from a clean manifest and an empty journal.
        let _ = self.checkpoint_locked(&mut st);
        st
    }

    /// Delete entries whose recorded schema/version is not live.
    /// Returns how many were dropped.
    fn drop_stale_schema(&self, st: &mut State) -> u64 {
        let stale: Vec<EntryIdentity> = st
            .index
            .keys()
            .filter(|id| !id.is_live_schema())
            .cloned()
            .collect();
        let n = stale.len() as u64;
        for id in stale {
            if let Some(m) = st.index.remove(&id) {
                let _ = fs::remove_file(self.dir.join(&m.file));
                st.dirty = true;
            }
        }
        n
    }

    /// Evict oldest-generation entries until the byte budget holds.
    /// Returns how many were evicted.
    fn evict_to_budget(&self, st: &mut State) -> u64 {
        if st.readonly {
            return 0;
        }
        let Some(budget) = self.budget else { return 0 };
        let mut evicted = 0;
        while st.total_bytes() > budget && !st.index.is_empty() {
            let oldest = st
                .index
                .values()
                .min_by_key(|m| m.generation)
                .expect("non-empty index")
                .identity
                .clone();
            self.evict_locked(st, &oldest);
            evicted += 1;
        }
        evicted
    }

    // -- checkpoint ---------------------------------------------------------

    /// Rewrite the manifest (temp file + rename) and truncate the
    /// journal. Soft-fails into the store-failure counter via the
    /// caller; returns the error for callers that care.
    fn checkpoint_locked(&self, st: &mut State) -> Result<(), StoreError> {
        if st.readonly {
            // Nothing this instance did can be persisted; clearing the
            // flags keeps drop-time checkpoints quiet.
            st.dirty = false;
            st.ops_since_checkpoint = 0;
            return Ok(());
        }
        if !self.dir.is_dir() {
            // Nothing was ever stored; there is nothing to persist and
            // creating the directory as a side effect of *reading*
            // would be a surprise.
            st.dirty = false;
            st.ops_since_checkpoint = 0;
            return Ok(());
        }
        let mut rows: Vec<&EntryMeta> = st.index.values().collect();
        rows.sort_by(|a, b| a.file.cmp(&b.file));
        let mut out = Vec::with_capacity(64 + rows.len() * 96);
        out.extend_from_slice(&MANIFEST_MAGIC);
        put_u32(&mut out, STORE_FORMAT_VERSION);
        put_u64(&mut out, st.generation);
        put_u32(&mut out, rows.len() as u32);
        for m in rows {
            encode_meta(&mut out, m);
        }
        let ck = payload_checksum(&out);
        put_u64(&mut out, ck);

        durable::atomic_write(&self.dir.join(MANIFEST_FILE), &out, |_| {}).map_err(|e| {
            StoreError {
                what: "manifest checkpoint",
                source: e,
            }
        })?;
        // Manifest is durable: restart the journal.
        if let Err(e) = self.journal(st).and_then(Log::reset) {
            st.journal = None;
            return Err(StoreError {
                what: "journal restart",
                source: e,
            });
        }
        st.ops_since_checkpoint = 0;
        st.dirty = false;
        Ok(())
    }

    /// Public checkpoint: fold the journal into a fresh manifest now.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        self.checkpoint_locked(st)
    }

    /// The open journal, opened (and its torn tail truncated) on first
    /// use after the directory exists.
    fn journal<'a>(&self, st: &'a mut State) -> io::Result<&'a mut Log> {
        if st.journal.is_none() {
            let (log, _) = Log::open(&self.dir.join(JOURNAL_FILE), &JOURNAL_MAGIC, decode_op)?;
            st.journal = Some(log);
        }
        Ok(st.journal.as_mut().expect("journal opened above"))
    }

    /// Append one journal record. Soft-fails (counted by the caller): a
    /// lost journal record only costs recovery the roll-forward
    /// shortcut — the directory scan still adopts the entry.
    fn journal_append(&self, st: &mut State, op: &JournalOp) -> Result<(), StoreError> {
        let (kind, body) = encode_op(op);
        self.journal(st)
            .and_then(|log| log.append(kind, &body))
            .map_err(|e| StoreError {
                what: "journal append",
                source: e,
            })
    }

    // -- mutations ----------------------------------------------------------

    /// Store `bytes` for `identity` under filename key `key`
    /// (disambiguated if a different identity already owns the key's
    /// file name). Failures never abort the caller's run; they are
    /// counted into [`HealthCounters::store_failures`].
    pub fn insert(&self, identity: &EntryIdentity, key: u64, bytes: &[u8]) {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        if st.readonly {
            // Read-only degradation: the run keeps its results, the
            // store keeps its bytes, and the skip is counted instead of
            // failing the run.
            self.health.readonly_skips.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Err(what) = self.insert_locked(st, identity, key, bytes) {
            self.health.store_failures.fetch_add(1, Ordering::Relaxed);
            crate::cache::note_store_failure(&self.dir, what);
        }
    }

    fn insert_locked(
        &self,
        st: &mut State,
        identity: &EntryIdentity,
        key: u64,
        bytes: &[u8],
    ) -> Result<(), &'static str> {
        if fs::create_dir_all(&self.dir).is_err() {
            return Err("cannot create store directory");
        }
        let file = self.file_for(st, identity, key);
        let mut journaled = None;
        let written = durable::atomic_write(&self.dir.join(&file), bytes, |tmp| {
            durable::crash_point(STORE_CRASH_ENV, "before-journal");
            st.generation += 1;
            let meta = EntryMeta {
                identity: identity.clone(),
                file: file.clone(),
                bytes: bytes.len() as u64,
                checksum: payload_checksum(bytes),
                generation: st.generation,
                // Born verified: the checksum was computed from the bytes
                // being written, and the roll-forward path re-proves the
                // file against it before trusting this row after a crash.
                verified: st.generation,
            };
            // Journal the intent first: after this record is durable, a
            // crash on either side of the rename is recoverable.
            let tmp = tmp.file_name().unwrap_or_default().to_string_lossy();
            let op = JournalOp::Store {
                meta: meta.clone(),
                tmp: tmp.into_owned(),
            };
            if let Err(e) = self.journal_append(st, &op) {
                // A store without a journal row still recovers through the
                // directory scan; degrade, but count it.
                crate::cache::note_store_failure(&self.dir, e.what);
                self.health.store_failures.fetch_add(1, Ordering::Relaxed);
            }
            durable::crash_point(STORE_CRASH_ENV, "before-rename");
            journaled = Some(meta);
        });
        let meta = match (written, journaled) {
            (Ok(()), Some(meta)) => meta,
            (_, Some(_)) => return Err("cannot rename temp file into place"),
            (_, None) => return Err("cannot write temp file"),
        };
        st.index.insert(identity.clone(), meta);
        st.dirty = true;
        st.ops_since_checkpoint += 1;
        self.evict_to_budget(st);
        if st.ops_since_checkpoint >= CHECKPOINT_EVERY {
            if let Err(e) = self.checkpoint_locked(st) {
                crate::cache::note_store_failure(&self.dir, e.what);
                self.health.store_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The on-disk file name for `identity`, reusing an existing
    /// entry's name on re-store and disambiguating (and counting) key
    /// collisions between distinct identities.
    fn file_for(&self, st: &mut State, identity: &EntryIdentity, key: u64) -> String {
        if let Some(m) = st.index.get(identity) {
            return m.file.clone();
        }
        let base = format!("{}-{key:016x}.dcgact", identity.name);
        let taken = |st: &State, f: &str| st.index.values().any(|m| m.file == f);
        if !taken(st, &base) {
            return base;
        }
        // A different identity owns the key's file name: a 64-bit key
        // collision. The manifest keeps both under distinct names — the
        // flat layout would have let them overwrite each other forever.
        self.health.key_collisions.fetch_add(1, Ordering::Relaxed);
        let mut n = 1u32;
        loop {
            let cand = format!("{}-{key:016x}-{n}.dcgact", identity.name);
            if !taken(st, &cand) {
                return cand;
            }
            n += 1;
        }
    }

    /// Remove one entry: journal the eviction, delete the file, drop
    /// the index row.
    fn evict_locked(&self, st: &mut State, identity: &EntryIdentity) {
        let Some(meta) = st.index.remove(identity) else {
            return;
        };
        if st.readonly {
            // Drop the row from the in-memory index (so a failed entry
            // is not retried forever) but leave the disk alone.
            self.health.readonly_skips.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Err(e) = self.journal_append(
            st,
            &JournalOp::Evict {
                file: meta.file.clone(),
            },
        ) {
            crate::cache::note_store_failure(&self.dir, e.what);
            self.health.store_failures.fetch_add(1, Ordering::Relaxed);
        }
        let path = self.dir.join(&meta.file);
        if path.exists() {
            if let Err(e) = fs::remove_file(&path) {
                self.health.evict_failures.fetch_add(1, Ordering::Relaxed);
                crate::cache::note_evict_failure(&path, &e);
            }
        }
        st.dirty = true;
        st.ops_since_checkpoint += 1;
    }

    /// Public eviction of one identity (used when a validated entry
    /// fails mid-replay).
    pub fn evict(&self, identity: &EntryIdentity) {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        self.evict_locked(st, identity);
    }

    // -- lookups ------------------------------------------------------------

    /// Fetch the payload for `identity` as an owned buffer. Same fast
    /// path as [`fetch_data`](TraceStore::fetch_data) (which file-backed
    /// readers should prefer — it maps instead of copying); kept for
    /// callers that need a `Vec`.
    pub fn fetch(&self, identity: &EntryIdentity) -> Option<Vec<u8>> {
        self.fetch_data(identity).map(|d| d.to_vec())
    }

    /// Fetch the payload for `identity` through the manifest index,
    /// zero-copy (`mmap(2)` where available): a hit length-checks the
    /// file and bumps the entry's last-access generation. The
    /// whole-payload checksum is only recomputed for rows that were
    /// never verified (`verified == 0` in the manifest — see
    /// [`EntryMeta::verified`]); a successful first-fetch verification
    /// stamps the row, and the stamp persists through the journal/
    /// checkpoint machinery so later opens trust it. Verified rows skip
    /// the scan entirely — in-place corruption is still caught, by the
    /// trace's own trailer and per-block checksums as the payload is
    /// decoded (which replay pays exactly once anyway). Any mismatch
    /// evicts the entry and misses cleanly.
    pub fn fetch_data(&self, identity: &EntryIdentity) -> Option<dcg_trace::TraceData> {
        let meta = {
            let mut guard = self.opened();
            let st = guard.as_mut().expect("opened");
            let gen = st.generation + 1;
            let m = st.index.get_mut(identity)?;
            st.generation = gen;
            m.generation = gen;
            st.dirty = true;
            m.clone()
        };
        let path = self.dir.join(&meta.file);
        let data = match dcg_trace::TraceData::open(&path) {
            Ok(d) => d,
            Err(_) => {
                self.evict(identity);
                return None;
            }
        };
        if data.len() as u64 != meta.bytes {
            self.evict(identity);
            return None;
        }
        if meta.verified == 0 {
            if payload_checksum(&data) != meta.checksum {
                self.evict(identity);
                return None;
            }
            let mut guard = self.opened();
            let st = guard.as_mut().expect("opened");
            let gen = st.generation;
            if let Some(m) = st.index.get_mut(identity) {
                m.verified = gen;
                st.dirty = true;
            }
        }
        Some(data)
    }

    /// The path the entry for `identity` occupies (or would occupy).
    /// The fault campaign uses this to corrupt stored entries in place.
    pub fn entry_path(&self, identity: &EntryIdentity, key: u64) -> PathBuf {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        match st.index.get(identity) {
            Some(m) => self.dir.join(&m.file),
            None => self
                .dir
                .join(format!("{}-{key:016x}.dcgact", identity.name)),
        }
    }

    /// Resolve every tracked identity through the fast lookup path —
    /// manifest row, zero-copy open, length check — exactly what a warm
    /// fetch of a verified entry pays. The bench harness times this as
    /// the per-entry lookup cost; for the deep payload-checksum sweep
    /// use [`verify_all`](TraceStore::verify_all).
    pub fn lookup_all(&self) -> StoreScan {
        let identities: Vec<EntryIdentity> = {
            let mut guard = self.opened();
            let st = guard.as_mut().expect("opened");
            st.index.keys().cloned().collect()
        };
        let mut scan = StoreScan::default();
        for id in identities {
            match self.fetch_data(&id) {
                Some(data) => {
                    scan.valid += 1;
                    scan.bytes += data.len() as u64;
                }
                None => scan.invalid += 1,
            }
        }
        scan
    }

    /// Deep integrity scan: verify every tracked entry's whole-payload
    /// checksum against its manifest row, evicting failures and
    /// re-stamping survivors' `verified` generation. This intentionally
    /// ignores the verified fast path — the fault campaign's recovery
    /// sweep depends on it catching in-place corruption without
    /// decoding.
    pub fn verify_all(&self) -> StoreScan {
        let metas: Vec<EntryMeta> = {
            let mut guard = self.opened();
            let st = guard.as_mut().expect("opened");
            st.index.values().cloned().collect()
        };
        let mut scan = StoreScan::default();
        for meta in metas {
            let ok = file_matches(&self.dir.join(&meta.file), meta.bytes, meta.checksum);
            if ok {
                scan.valid += 1;
                scan.bytes += meta.bytes;
                let mut guard = self.opened();
                let st = guard.as_mut().expect("opened");
                let gen = st.generation;
                if let Some(m) = st.index.get_mut(&meta.identity) {
                    m.verified = gen.max(m.verified);
                    st.dirty = true;
                }
            } else {
                self.evict(&meta.identity);
                scan.invalid += 1;
            }
        }
        scan
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        let mut guard = self.opened();
        guard.as_mut().expect("opened").index.len()
    }

    /// `true` when no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compaction pass: drop stale-schema entries, enforce the byte
    /// budget, checkpoint. Cheap enough to run on a background thread
    /// ([`crate::TraceCache::spawn_compaction`]); deleting only
    /// dead-schema or over-budget entries keeps it invisible to
    /// concurrent live-schema lookups.
    pub fn compact_now(&self) -> RecoveryStats {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        if st.readonly {
            return RecoveryStats::default();
        }
        let mut stats = RecoveryStats {
            dropped_stale_schema: self.drop_stale_schema(st),
            ..RecoveryStats::default()
        };
        stats.evicted_over_budget = self.evict_to_budget(st);
        if st.dirty {
            if let Err(e) = self.checkpoint_locked(st) {
                crate::cache::note_store_failure(&self.dir, e.what);
                self.health.store_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.recovery.dropped_stale_schema += stats.dropped_stale_schema;
        st.recovery.evicted_over_budget += stats.evicted_over_budget;
        stats
    }
}

impl Drop for TraceStore {
    fn drop(&mut self) {
        // Best-effort durability for short-lived processes: fold any
        // journal tail and generation bumps into the manifest. Failure
        // is fine — the journal and directory scan recover everything
        // the checkpoint would have persisted.
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(st) = guard.as_mut() {
            if st.dirty {
                let _ = self.checkpoint_locked(st);
            }
        }
    }
}

/// `true` when `path` holds exactly `bytes` bytes with checksum `ck`.
fn file_matches(path: &Path, bytes: u64, ck: u64) -> bool {
    match fs::read(path) {
        Ok(b) => b.len() as u64 == bytes && payload_checksum(&b) == ck,
        Err(_) => false,
    }
}

/// Validate an untracked `.dcgact` file for adoption: parse the
/// activity header, verify the trace's own totals, and derive the full
/// identity from the header (adopted entries are by construction
/// current-schema — the reader rejects anything else).
fn adopt_entry(path: &Path) -> Option<(EntryIdentity, u64, u64)> {
    let bytes = fs::read(path).ok()?;
    let reader = ActivityTraceReader::new(&bytes[..]).ok()?;
    let (_cycles, committed) = reader.verified_totals()?;
    let h = reader.header();
    if committed < h.warmup_insts + h.measure_insts {
        return None;
    }
    let identity = EntryIdentity::current(
        h.config_digest,
        &h.name,
        h.seed,
        h.warmup_insts,
        h.measure_insts,
    );
    Some((identity, bytes.len() as u64, payload_checksum(&bytes)))
}

/// Decode a manifest; `None` on any structural or checksum failure.
fn decode_manifest(bytes: &[u8]) -> Option<(u64, Vec<EntryMeta>)> {
    if bytes.len() < 8 + 4 + 8 + 4 + 8 || bytes[..8] != MANIFEST_MAGIC {
        return None;
    }
    let body = &bytes[..bytes.len() - 8];
    let ck = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().ok()?);
    if payload_checksum(body) != ck {
        return None;
    }
    let mut c = Cursor::new(body);
    let _ = c.take(8);
    if c.u32()? != STORE_FORMAT_VERSION {
        return None;
    }
    let generation = c.u64()?;
    let count = c.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        entries.push(decode_meta(&mut c)?);
    }
    if !c.done() {
        return None; // trailing garbage under a valid checksum: reject
    }
    Some((generation, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target")
            .join("tmp")
            .join(format!("trace-store-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ident(name: &str, seed: u64) -> EntryIdentity {
        EntryIdentity::current(0xABCD, name, seed, 10, 20)
    }

    /// Opaque non-trace payloads exercise the metadata machinery alone;
    /// checksums do not care what the bytes mean.
    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i as u8)).collect()
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let dir = scratch("manifest-roundtrip");
        let store = TraceStore::new(dir.clone(), None);
        store.insert(&ident("a", 1), 0x11, &payload(1, 100));
        store.insert(&ident("b", 2), 0x22, &payload(2, 200));
        store.checkpoint().expect("checkpoint");
        drop(store);

        let bytes = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let (_gen, entries) = decode_manifest(&bytes).expect("valid manifest");
        assert_eq!(entries.len(), 2);

        for at in [9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                decode_manifest(&bad).is_none(),
                "bit flip at {at} must invalidate the manifest"
            );
        }
        assert!(decode_manifest(&bytes[..bytes.len() - 3]).is_none());
    }

    /// Write a syntactically valid manifest by hand (the store only
    /// emits born-verified rows, so tests craft `verified == 0` here).
    fn write_manifest(dir: &Path, generation: u64, metas: &[EntryMeta]) {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        put_u32(&mut out, STORE_FORMAT_VERSION);
        put_u64(&mut out, generation);
        put_u32(&mut out, metas.len() as u32);
        for m in metas {
            encode_meta(&mut out, m);
        }
        let ck = payload_checksum(&out);
        put_u64(&mut out, ck);
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join(MANIFEST_FILE), out).unwrap();
    }

    #[test]
    fn verified_rows_skip_the_payload_scan_but_length_check() {
        let dir = scratch("fetch-fast");
        let store = TraceStore::new(dir.clone(), None);
        let id = ident("gz", 7);
        store.insert(&id, 0x77, &payload(7, 500));
        assert_eq!(store.fetch(&id).expect("hit"), payload(7, 500));

        // Same-length in-place corruption passes the fast fetch — rows
        // the store itself wrote are trusted; the decode-time block
        // checksums own that detection. The deep scan still catches and
        // evicts it.
        let path = store.entry_path(&id, 0x77);
        let mut b = fs::read(&path).unwrap();
        b[250] ^= 0x10;
        fs::write(&path, &b).unwrap();
        assert!(store.fetch(&id).is_some(), "fast path trusts verified rows");
        let scan = store.verify_all();
        assert_eq!((scan.valid, scan.invalid), (0, 1), "deep scan catches it");
        assert!(!path.exists(), "the corrupt entry is evicted");
        assert!(store.fetch(&id).is_none(), "and stays evicted");

        // A length change fails even the fast fetch.
        let id2 = ident("gz", 8);
        store.insert(&id2, 0x78, &payload(8, 500));
        let path2 = store.entry_path(&id2, 0x78);
        let b2 = fs::read(&path2).unwrap();
        fs::write(&path2, &b2[..b2.len() - 1]).unwrap();
        assert!(store.fetch(&id2).is_none(), "short file misses cleanly");
        assert!(!path2.exists(), "and is evicted");
    }

    #[test]
    fn unverified_rows_checksum_on_first_fetch_and_stamp_persists() {
        let dir = scratch("fetch-first-verify");
        let body = payload(5, 300);
        let file = "gz-0000000000000005.dcgact".to_string();
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(&file), &body).unwrap();
        let meta = EntryMeta {
            identity: ident("gz", 5),
            file,
            bytes: body.len() as u64,
            checksum: payload_checksum(&body),
            generation: 1,
            verified: 0,
        };
        write_manifest(&dir, 1, std::slice::from_ref(&meta));

        let store = TraceStore::new(dir.clone(), None);
        assert_eq!(store.fetch(&meta.identity).expect("hit"), body);
        store.checkpoint().expect("checkpoint");
        drop(store);
        let (_gen, rows) =
            decode_manifest(&fs::read(dir.join(MANIFEST_FILE)).unwrap()).expect("manifest decodes");
        assert_eq!(rows.len(), 1);
        assert_ne!(rows[0].verified, 0, "first fetch stamps the row verified");

        // The corrupt flavor: an unverified row whose payload does not
        // match its checksum misses and evicts on first fetch.
        let dir2 = scratch("fetch-first-verify-corrupt");
        let mut bad = body.clone();
        bad[7] ^= 0x20;
        fs::create_dir_all(&dir2).unwrap();
        fs::write(dir2.join(&meta.file), &bad).unwrap();
        write_manifest(&dir2, 1, std::slice::from_ref(&meta));
        let store2 = TraceStore::new(dir2.clone(), None);
        assert!(
            store2.fetch(&meta.identity).is_none(),
            "first fetch verifies"
        );
        assert!(!dir2.join(&meta.file).exists(), "and evicts the mismatch");
    }

    #[test]
    fn old_format_store_self_heals_through_directory_scan() {
        // A version-1 manifest (old magic) must not brick the store:
        // decode fails, the directory scan re-adopts the entries, and
        // the checkpoint rewrites everything under the new format.
        let dir = scratch("format-upgrade");
        fs::create_dir_all(&dir).unwrap();
        let mut old = Vec::new();
        old.extend_from_slice(b"DCGMAN01");
        put_u32(&mut old, 1);
        put_u64(&mut old, 3);
        put_u32(&mut old, 0);
        let ck = payload_checksum(&old);
        put_u64(&mut old, ck);
        fs::write(dir.join(MANIFEST_FILE), old).unwrap();
        let store = TraceStore::new(dir.clone(), None);
        assert_eq!(store.len(), 0);
        drop(store);
        let bytes = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        assert!(decode_manifest(&bytes).is_some(), "rewritten as format 2");
    }

    #[test]
    fn key_collision_keeps_both_identities() {
        let dir = scratch("key-collision");
        let store = TraceStore::new(dir, None);
        // Two distinct identities forced onto the same 64-bit filename
        // key: the store must disambiguate, count the collision, and
        // serve both — the flat layout overwrote one with the other and
        // thrashed forever.
        let a = ident("gzip", 1);
        let b = ident("gzip", 2);
        let key = 0xDEAD_BEEF_u64;
        store.insert(&a, key, &payload(1, 300));
        store.insert(&b, key, &payload(2, 300));
        assert_eq!(store.health.key_collisions.load(Ordering::Relaxed), 1);
        assert_eq!(store.fetch(&a).expect("a stays warm"), payload(1, 300));
        assert_eq!(store.fetch(&b).expect("b stays warm"), payload(2, 300));
        assert_ne!(
            store.entry_path(&a, key),
            store.entry_path(&b, key),
            "colliding identities occupy distinct files"
        );
        // Re-storing either identity reuses its file and is not another
        // collision.
        store.insert(&a, key, &payload(3, 300));
        assert_eq!(store.health.key_collisions.load(Ordering::Relaxed), 1);
        assert_eq!(store.fetch(&a).expect("a refreshed"), payload(3, 300));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn budget_evicts_oldest_generation_first() {
        let dir = scratch("budget");
        let store = TraceStore::new(dir, Some(1_000));
        let (a, b, c) = (ident("a", 1), ident("b", 2), ident("c", 3));
        store.insert(&a, 1, &payload(1, 400));
        store.insert(&b, 2, &payload(2, 400));
        // Touch `a` so `b` becomes the oldest generation.
        assert!(store.fetch(&a).is_some());
        store.insert(&c, 3, &payload(3, 400));
        assert!(store.fetch(&b).is_none(), "oldest-generation entry evicts");
        assert!(store.fetch(&a).is_some(), "recently used entry survives");
        assert!(store.fetch(&c).is_some(), "newest entry survives");
    }

    #[test]
    fn orphan_tmp_files_are_reaped_exactly_once() {
        let dir = scratch("orphan-tmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("gz-00ff.dcgact.123.0.tmp"), b"dead writer").unwrap();
        fs::write(dir.join("junk.tmp"), b"also dead").unwrap();

        let store = TraceStore::new(dir.clone(), None);
        let stats = store.ensure_open();
        assert_eq!(stats.reaped_tmp, 2, "both orphans reaped");
        assert!(!dir.join("gz-00ff.dcgact.123.0.tmp").exists());
        assert!(!dir.join("junk.tmp").exists());
        drop(store);

        let store2 = TraceStore::new(dir, None);
        assert_eq!(
            store2.ensure_open().reaped_tmp,
            0,
            "reaping happens exactly once"
        );
    }

    #[test]
    fn torn_manifest_recovers_from_directory_scan() {
        let dir = scratch("torn-manifest");
        // Opaque payloads cannot be adopted by the directory scan (they
        // do not parse as activity traces), so this test uses the
        // journal-surviving path: manifest destroyed, journal intact.
        let store = TraceStore::new(dir.clone(), None);
        let id = ident("gz", 5);
        store.insert(&id, 0x5, &payload(5, 256));
        store.checkpoint().expect("checkpoint");
        // Re-store after the checkpoint so the journal holds the row;
        // leak the store so its drop-time checkpoint cannot fold the
        // journal into the manifest before the test tears it.
        store.insert(&id, 0x5, &payload(6, 256));
        std::mem::forget(store);

        let manifest = dir.join(MANIFEST_FILE);
        let bytes = fs::read(&manifest).unwrap();
        fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();

        let store2 = TraceStore::new(dir, None);
        assert_eq!(
            store2
                .fetch(&id)
                .expect("journal row survives a torn manifest"),
            payload(6, 256)
        );
    }

    #[test]
    fn crash_between_journal_and_rename_rolls_forward() {
        let dir = scratch("roll-forward");
        // Simulate the torn state by hand: temp file written, journal
        // row appended, rename never happened.
        fs::create_dir_all(&dir).unwrap();
        let body = payload(9, 128);
        let meta = EntryMeta {
            identity: ident("gz", 9),
            file: "gz-0000000000000009.dcgact".into(),
            bytes: body.len() as u64,
            checksum: payload_checksum(&body),
            generation: 1,
            verified: 1,
        };
        let tmp = "gz-0000000000000009.dcgact.42.0.tmp".to_string();
        fs::write(dir.join(&tmp), &body).unwrap();
        let (mut log, _) = Log::open(&dir.join(JOURNAL_FILE), &JOURNAL_MAGIC, decode_op).unwrap();
        let (kind, record) = encode_op(&JournalOp::Store {
            meta: meta.clone(),
            tmp: tmp.clone(),
        });
        log.append(kind, &record).unwrap();

        let store = TraceStore::new(dir.clone(), None);
        let stats = store.ensure_open();
        assert_eq!(stats.rolled_forward, 1, "the store completes the rename");
        assert_eq!(stats.reaped_tmp, 0, "the journaled tmp is not an orphan");
        assert_eq!(store.fetch(&meta.identity).expect("rolled forward"), body);
        assert!(!dir.join(&tmp).exists());
    }

    /// Byte-for-byte snapshot of every file in a directory — proves
    /// read-only mode touched nothing.
    fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        files
    }

    #[test]
    fn read_only_store_serves_lookups_and_counts_skips() {
        let dir = scratch("readonly");
        // Seed the directory with a writable store, fold everything
        // into the manifest, and leave an orphan tmp file the read-only
        // open must *not* reap.
        let writer = TraceStore::new(dir.clone(), None);
        let (a, b) = (ident("a", 1), ident("b", 2));
        writer.insert(&a, 0xA, &payload(1, 300));
        writer.insert(&b, 0xB, &payload(2, 300));
        drop(writer);
        fs::write(dir.join("orphan.tmp"), b"dead writer").unwrap();
        let before = dir_snapshot(&dir);

        let store = TraceStore::new_read_only(dir.clone());
        assert!(store.is_read_only());
        assert_eq!(store.ensure_open().reaped_tmp, 0, "no reaping");
        assert_eq!(store.fetch(&a).expect("lookup served"), payload(1, 300));
        assert_eq!(store.fetch(&b).expect("lookup served"), payload(2, 300));

        // Stores and evictions degrade to counted skips, not failures.
        store.insert(&ident("c", 3), 0xC, &payload(3, 300));
        store.evict(&b);
        assert_eq!(store.health.readonly_skips.load(Ordering::Relaxed), 2);
        assert_eq!(store.health.store_failures.load(Ordering::Relaxed), 0);
        assert_eq!(store.health.evict_failures.load(Ordering::Relaxed), 0);
        assert!(store.fetch(&ident("c", 3)).is_none(), "nothing was stored");
        assert!(
            store.fetch(&b).is_none(),
            "the evicted row leaves the in-memory index"
        );
        store.checkpoint().expect("checkpoint no-ops cleanly");
        assert_eq!(store.compact_now(), RecoveryStats::default());
        drop(store);

        assert_eq!(dir_snapshot(&dir), before, "no byte on disk changed");

        // The file b's eviction skipped is still served by a fresh open.
        let again = TraceStore::new_read_only(dir);
        assert_eq!(again.fetch(&b).expect("disk row intact"), payload(2, 300));
    }

    #[test]
    fn unwritable_directory_auto_degrades_to_read_only() {
        let dir = scratch("readonly-auto");
        let writer = TraceStore::new(dir.clone(), None);
        let id = ident("a", 1);
        writer.insert(&id, 0xA, &payload(1, 200));
        drop(writer);

        let mut perms = fs::metadata(&dir).unwrap().permissions();
        perms.set_readonly(true);
        fs::set_permissions(&dir, perms.clone()).unwrap();
        // Root ignores permission bits; only assert degradation when
        // the bit actually bites.
        let bit_bites = File::create(dir.join("probe-as-caller")).is_err();

        let store = TraceStore::new(dir.clone(), None);
        if bit_bites {
            assert!(store.is_read_only(), "unwritable directory must degrade");
            store.insert(&ident("b", 2), 0xB, &payload(2, 200));
            assert_eq!(store.health.readonly_skips.load(Ordering::Relaxed), 1);
            assert_eq!(store.health.store_failures.load(Ordering::Relaxed), 0);
        } else {
            assert!(!store.is_read_only(), "writable directory stays writable");
            let _ = fs::remove_file(dir.join("probe-as-caller"));
        }
        assert_eq!(store.fetch(&id).expect("lookups served"), payload(1, 200));
        drop(store);

        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            perms.set_mode(0o755);
        }
        #[cfg(not(unix))]
        perms.set_readonly(false);
        fs::set_permissions(&dir, perms).unwrap();
    }

    #[test]
    fn dangling_manifest_rows_are_dropped() {
        let dir = scratch("dangling");
        let store = TraceStore::new(dir.clone(), None);
        let id = ident("gz", 3);
        store.insert(&id, 3, &payload(3, 64));
        store.checkpoint().expect("checkpoint");
        drop(store);
        fs::remove_file(dir.join("gz-0000000000000003.dcgact")).unwrap();

        let store2 = TraceStore::new(dir, None);
        let stats = store2.ensure_open();
        assert_eq!(stats.dropped_corrupt, 1, "the dangling row is dropped");
        assert!(store2.fetch(&id).is_none());
    }
}
