//! Content-addressed cache of recorded activity traces.
//!
//! Passive-policy experiments dominated by repeated simulations of the
//! same `(configuration, workload, seed, run length)` tuple — parameter
//! sweeps, figure regeneration, calibration probes — need the timing
//! simulation only **once**: the first run records its activity stream,
//! and later runs replay it at a fraction of the cost.
//!
//! The cache is a source decorator: [`TraceCache::source`] hands out one
//! [`CachedSource`] per tuple — a replay on a hit, a live simulation that
//! records on a miss, a plain live run when caching is off — which the
//! caller drives like any other [`crate::ActivitySource`] (usually
//! through [`crate::run_passive_with_sinks`]). [`CachedSource::finish`]
//! then stores the recording or evicts a replay that failed mid-drive,
//! and [`TraceCache::run_fail_open`] wraps the whole round trip with the
//! one live retry.
//!
//! [`TraceCache`] is the workload-facing facade; the persistence layer
//! underneath is [`crate::TraceStore`] — a manifest + write-ahead-journal
//! storage engine (DESIGN.md §14) that indexes entries by their **full**
//! `(config digest, name, seed, run length, schema)` identity, verifies
//! a whole-payload checksum on every hit, recovers from interrupted
//! stores on open, and enforces an optional byte budget
//! ([`TRACE_CACHE_BUDGET_ENV`]) by evicting oldest-generation entries
//! first.
//!
//! The 64-bit FNV content key still names entry *files* (it keeps file
//! names short and stable), but it is no longer the identity: two tuples
//! colliding on the key are stored under disambiguated names and both
//! stay warm. Stale entries are caught by the manifest identity match;
//! truncated or corrupt ones by the manifest's payload checksum
//! (verified at memory speed, no decode) — and both are evicted, falling
//! back to a live simulation. A cache hit can never change results, only
//! skip work.

use std::env::VarError;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Once};

use dcg_sim::{
    ActivityBlock, CycleActivity, LatchGroups, Processor, ResourceConstraints, SimConfig, SimStats,
};
use dcg_trace::{
    ActivityHeader, ActivityTraceReader, ActivityTraceWriter, TraceError, ACTIVITY_SCHEMA,
    ACTIVITY_VERSION,
};
use dcg_workloads::{BenchmarkProfile, InstStream, SyntheticWorkload};

use crate::durable::{fnv1a, put_u32, put_u64};
use crate::error::DcgError;
use crate::policy::GatingPolicy;
use crate::runner::{run_passive_with_sinks, PassiveRun, RunLength};
use crate::source::{ActivitySource, ReplaySource};
use crate::store::{EntryIdentity, RecoveryStats, StoreScan, TraceStore};

/// Environment variable controlling [`TraceCache::from_env`]: unset for
/// the default location, a path to relocate the cache, or `0`/`off`/
/// `none` to disable caching.
pub const TRACE_CACHE_ENV: &str = "DCG_TRACE_CACHE";

/// Environment variable bounding the store's on-disk size in bytes
/// (`k`/`m`/`g` suffixes accepted, e.g. `512m`). Unset or `0` means
/// unbounded. When the budget is exceeded, oldest-generation entries are
/// evicted first.
pub const TRACE_CACHE_BUDGET_ENV: &str = "DCG_TRACE_CACHE_BUDGET";

/// Gate for the once-per-process store-failure warning.
static STORE_WARNING: Once = Once::new();
/// Gate for the once-per-process read-only degradation note.
static READONLY_NOTE: Once = Once::new();
/// Gate for the once-per-process evict-failure warning.
static EVICT_WARNING: Once = Once::new();
/// Gate for the once-per-process recovery-dropped-entries warning.
static RECOVERY_WARNING: Once = Once::new();
/// Gate for the once-per-process relocated-default diagnostic.
static RELOCATED_NOTE: Once = Once::new();

/// Snapshot of trace-cache I/O health.
///
/// Caching is an optimization, never a correctness dependency, so I/O
/// failures do not abort runs — but they must not be *silent* either: a
/// read-only or full `results/traces/` directory would otherwise quietly
/// re-simulate everything. The first failure of each kind warns on
/// stderr; all failures are counted, per cache instance
/// ([`TraceCache::health`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheHealth {
    /// Cache stores that failed (directory creation, write, journal
    /// append, or rename).
    pub store_failures: u64,
    /// Invalid cache entries that could not be deleted.
    pub evict_failures: u64,
    /// Replay drives that failed mid-run on a validated entry (the entry
    /// is evicted; [`TraceCache::run_fail_open`] re-simulates live).
    pub replay_failures: u64,
    /// Distinct tuples that collided on the 64-bit filename key and were
    /// stored under disambiguated names (both stay warm).
    pub key_collisions: u64,
    /// Stores/evictions skipped because the store directory is not
    /// writable (read-only degradation: lookups still served — e.g. a
    /// CI artifact replayed from a read-only mount).
    pub readonly_skips: u64,
}

pub(crate) fn note_store_failure(path: &Path, what: &str) {
    STORE_WARNING.call_once(|| {
        eprintln!(
            "warning: trace cache store failed ({what}: {}); caching is \
             disabled in effect and every run will re-simulate \
             (further store failures are counted, not repeated here)",
            path.display()
        );
    });
}

pub(crate) fn note_evict_failure(path: &Path, err: &std::io::Error) {
    EVICT_WARNING.call_once(|| {
        eprintln!(
            "warning: could not delete invalid trace-cache entry {}: {err}; \
             the entry will be re-validated (and re-rejected) on every run \
             (further evict failures are counted, not repeated here)",
            path.display()
        );
    });
}

/// Called once per store open that auto-detects an unwritable directory
/// and degrades to read-only mode.
pub(crate) fn note_readonly(path: &Path) {
    READONLY_NOTE.call_once(|| {
        eprintln!(
            "note: trace store {} is not writable; degrading to a \
             read-only store (lookups served; stores and evictions are \
             counted skips)",
            path.display()
        );
    });
}

/// Called by the store after every open-time recovery sweep. Recovery
/// itself is normal operation (and silent); dropped *corrupt* entries
/// are a disk-health signal worth one warning per process.
pub(crate) fn note_recovery(stats: &RecoveryStats) {
    if stats.dropped_corrupt > 0 {
        RECOVERY_WARNING.call_once(|| {
            eprintln!(
                "warning: trace-store recovery dropped {} corrupt or \
                 dangling cache entr{}; the affected tuples will \
                 re-simulate live (further recovery drops are counted, \
                 not repeated here)",
                stats.dropped_corrupt,
                if stats.dropped_corrupt == 1 {
                    "y"
                } else {
                    "ies"
                }
            );
        });
    }
}

/// The default cache location. A checkout builds and runs from the
/// workspace, so the compile-time `CARGO_MANIFEST_DIR` root is honored
/// **only when it still exists**; a relocated or installed binary falls
/// back to `results/traces/` under the current working directory, with a
/// named diagnostic (`trace-cache-default-relocated`) so the surprise
/// location is traceable.
fn default_cache_dir() -> PathBuf {
    // crates/core/ -> workspace root.
    if let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) {
        if root.is_dir() {
            return root.join("results").join("traces");
        }
    }
    RELOCATED_NOTE.call_once(|| {
        eprintln!(
            "note: trace-cache-default-relocated: the build-time workspace \
             root no longer exists; defaulting the trace cache to \
             ./results/traces relative to the current directory (set \
             {TRACE_CACHE_ENV} to choose a location)"
        );
    });
    PathBuf::from("results").join("traces")
}

/// Parse a [`TRACE_CACHE_BUDGET_ENV`] value: a byte count with an
/// optional `k`/`m`/`g` (binary) suffix. `0` disables the bound.
/// `None` means unparseable.
fn parse_budget(v: &str) -> Option<Option<u64>> {
    let v = v.trim();
    if v.is_empty() {
        return Some(None);
    }
    let (digits, mult) = match v.as_bytes().last()? {
        b'k' | b'K' => (&v[..v.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&v[..v.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v, 1),
    };
    let n: u64 = digits.trim().parse().ok()?;
    let bytes = n.checked_mul(mult)?;
    Some(if bytes == 0 { None } else { Some(bytes) })
}

/// The byte budget from [`TRACE_CACHE_BUDGET_ENV`]; malformed values are
/// diagnosed and treated as unbounded (caching stays on — a bad bound
/// must not silently discard the cache).
fn budget_from_env() -> Option<u64> {
    match std::env::var(TRACE_CACHE_BUDGET_ENV) {
        Ok(v) => match parse_budget(&v) {
            Some(b) => b,
            None => {
                eprintln!(
                    "warning: {TRACE_CACHE_BUDGET_ENV}={v:?} is not a byte \
                     count (digits with optional k/m/g suffix); the trace \
                     cache runs unbounded"
                );
                None
            }
        },
        Err(_) => None,
    }
}

/// A store of recorded activity traces, addressed by content identity.
///
/// Cheap to clone (the underlying [`crate::TraceStore`] is shared) and
/// safe to share across threads — the experiment suite drives one cache
/// from all of its workers.
#[derive(Debug, Clone)]
pub struct TraceCache {
    store: Arc<TraceStore>,
}

impl TraceCache {
    /// A cache rooted at `dir` (created lazily on first store; the
    /// recovery sweep runs on first use).
    pub fn new(dir: PathBuf) -> TraceCache {
        TraceCache {
            store: Arc::new(TraceStore::new(dir, None)),
        }
    }

    /// This cache with an on-disk byte budget (`None` = unbounded);
    /// oldest-generation entries evict first once the budget is
    /// exceeded.
    #[must_use]
    pub fn with_budget(self, budget: Option<u64>) -> TraceCache {
        TraceCache {
            store: Arc::new(TraceStore::new(self.store.dir().to_path_buf(), budget)),
        }
    }

    /// The cache honoring [`TRACE_CACHE_ENV`] (location) and
    /// [`TRACE_CACHE_BUDGET_ENV`] (size bound); defaults to
    /// `results/traces/` at the workspace root when it exists, else
    /// under the current directory. Returns `None` when caching is
    /// disabled — explicitly (`0`/`off`/`none`/empty) or because the
    /// variable is malformed, which is diagnosed on stderr rather than
    /// silently running uncached.
    pub fn from_env() -> Option<TraceCache> {
        Self::from_env_value(std::env::var(TRACE_CACHE_ENV))
            .map(|c| c.with_budget(budget_from_env()))
    }

    /// [`TraceCache::from_env`] with the variable lookup factored out so
    /// tests can exercise every branch without mutating process state.
    fn from_env_value(value: Result<String, VarError>) -> Option<TraceCache> {
        match value {
            Ok(v) if matches!(v.as_str(), "0" | "off" | "none" | "") => None,
            Ok(v) => Some(TraceCache::new(PathBuf::from(v))),
            Err(VarError::NotPresent) => Some(TraceCache::new(default_cache_dir())),
            Err(VarError::NotUnicode(raw)) => {
                eprintln!(
                    "warning: {TRACE_CACHE_ENV} is set but not valid \
                     unicode ({raw:?}); trace caching is disabled for this \
                     run — unset it or set a valid path"
                );
                None
            }
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The underlying storage engine (recovery stats, verification,
    /// compaction).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// This instance's health counters (race-free attribution even when
    /// other caches are active in the process).
    pub fn health(&self) -> CacheHealth {
        let h = &self.store.health;
        CacheHealth {
            store_failures: h.store_failures.load(Ordering::Relaxed),
            evict_failures: h.evict_failures.load(Ordering::Relaxed),
            replay_failures: h.replay_failures.load(Ordering::Relaxed),
            key_collisions: h.key_collisions.load(Ordering::Relaxed),
            readonly_skips: h.readonly_skips.load(Ordering::Relaxed),
        }
    }

    /// Force the lazy open (and its recovery sweep) now; returns what
    /// the sweep did.
    pub fn ensure_open(&self) -> RecoveryStats {
        self.store.ensure_open()
    }

    /// Fold the journal into a fresh manifest checkpoint now.
    ///
    /// # Errors
    ///
    /// Fails if the manifest rewrite or journal restart fails; entries
    /// themselves are unaffected (the next open recovers them from the
    /// previous manifest, the journal, or the directory scan).
    pub fn checkpoint(&self) -> Result<(), DcgError> {
        self.store.checkpoint().map_err(DcgError::from)
    }

    /// Deep scan: verify every tracked entry's payload checksum,
    /// evicting failures (see [`TraceStore::verify_all`]).
    ///
    /// [`TraceStore::verify_all`]: crate::store::TraceStore::verify_all
    pub fn verify_all(&self) -> StoreScan {
        self.store.verify_all()
    }

    /// Fast scan: resolve every tracked entry through the warm lookup
    /// path — no payload checksum (see [`TraceStore::lookup_all`]).
    ///
    /// [`TraceStore::lookup_all`]: crate::store::TraceStore::lookup_all
    pub fn lookup_all(&self) -> StoreScan {
        self.store.lookup_all()
    }

    /// Content key for one `(config, workload, seed, length)` tuple.
    ///
    /// The key names entry *files*; identity is the full tuple (the
    /// store disambiguates key collisions between distinct tuples).
    pub fn key(config: &SimConfig, name: &str, seed: u64, length: RunLength) -> u64 {
        let mut bytes = Vec::with_capacity(name.len() + 49);
        put_u64(&mut bytes, config.digest());
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0); // name terminator
        put_u64(&mut bytes, seed);
        put_u64(&mut bytes, length.warmup_insts);
        put_u64(&mut bytes, length.measure_insts);
        put_u32(&mut bytes, ACTIVITY_SCHEMA);
        put_u32(&mut bytes, ACTIVITY_VERSION);
        fnv1a(&bytes)
    }

    /// The store identity for one tuple.
    fn identity(config: &SimConfig, name: &str, seed: u64, length: RunLength) -> EntryIdentity {
        EntryIdentity::current(
            config.digest(),
            name,
            seed,
            length.warmup_insts,
            length.measure_insts,
        )
    }

    /// The on-disk path the entry for one `(config, workload, seed,
    /// length)` tuple occupies — whether or not it exists yet. The
    /// fault-injection campaign uses this to corrupt stored entries at
    /// seeded offsets and verify the validation layer rejects them.
    pub fn entry_path_for(
        &self,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
    ) -> PathBuf {
        self.store.entry_path(
            &Self::identity(config, name, seed, length),
            Self::key(config, name, seed, length),
        )
    }

    /// Open a validated replay source for the tuple, or `None` on a cache
    /// miss. The manifest index answers the identity match before any
    /// file I/O; the hit is opened zero-copy (`mmap(2)` where available,
    /// no whole-payload scan for verified rows — see
    /// [`TraceStore::fetch_data`]) and the header identity fields are
    /// re-checked as defense in depth. Invalid entries are evicted.
    ///
    /// [`TraceStore::fetch_data`]: crate::store::TraceStore::fetch_data
    pub fn replay_source(
        &self,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
    ) -> Option<ReplaySource> {
        let identity = Self::identity(config, name, seed, length);
        let data = self.store.fetch_data(&identity)?;
        match Self::validate_entry(config, name, seed, length, data) {
            Ok(reader) => Some(ReplaySource::new(reader)),
            Err(()) => {
                self.store.evict(&identity);
                None
            }
        }
    }

    fn validate_entry(
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        data: dcg_trace::TraceData,
    ) -> Result<ActivityTraceReader, ()> {
        let reader = ActivityTraceReader::from_data(data).map_err(|_| ())?;
        let h = reader.header();
        let groups = LatchGroups::new(&config.depth).len() as u32;
        let identity_ok = h.config_digest == config.digest()
            && h.seed == seed
            && h.name == name
            && h.warmup_insts == length.warmup_insts
            && h.measure_insts == length.measure_insts
            && h.groups == groups;
        if !identity_ok {
            return Err(());
        }
        let (_cycles, committed) = reader.verified_totals().ok_or(())?;
        if committed < length.warmup_insts + length.measure_insts {
            return Err(());
        }
        Ok(reader)
    }

    /// The activity source for one `(config, workload, seed, length)`
    /// tuple: a replay of the recorded trace on a hit, a live simulation
    /// of `make_stream()` that records every cycle on a miss, and a plain
    /// live simulation when `cache` is `None`. `make_stream` runs only
    /// when the source is live (building a stream may be expensive —
    /// e.g. a kernel program's emulator).
    ///
    /// Drive the source, then settle it with [`CachedSource::finish`].
    /// Callers must keep `(name, seed)` → stream bijective: the cache
    /// cannot tell two different streams apart if they share a name and
    /// seed. Kernel names are distinct from every SPEC profile name, so
    /// the two workload families never collide.
    pub fn source<'c, S: InstStream>(
        cache: Option<&'c TraceCache>,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        make_stream: impl FnOnce() -> S,
    ) -> CachedSource<'c, S> {
        let Some(cache) = cache else {
            return CachedSource {
                feed: Feed::Live(Box::new(Processor::new(config.clone(), make_stream()))),
            };
        };
        let slot = Slot {
            cache,
            identity: Self::identity(config, name, seed, length),
            key: Self::key(config, name, seed, length),
        };
        if let Some(replay) = cache.replay_source(config, name, seed, length) {
            return CachedSource {
                feed: Feed::Replay(slot, Box::new(replay)),
            };
        }
        let cpu = Processor::new(config.clone(), make_stream());
        let header = ActivityHeader::new(
            name,
            config.digest(),
            seed,
            length.warmup_insts,
            length.measure_insts,
            cpu.latch_groups().len(),
        )
        .expect("activity header for a valid workload name");
        let writer = ActivityTraceWriter::new(Vec::new(), &header).expect("in-memory header write");
        CachedSource {
            feed: Feed::Record(
                slot,
                Box::new(Recording {
                    cpu,
                    writer,
                    error: None,
                }),
            ),
        }
    }

    /// Drive `pass` over the tuple's [`TraceCache::source`] and settle
    /// it, failing open: when a cached replay fails mid-drive, the entry
    /// is evicted and counted ([`CachedSource::finish`]), one warning
    /// names the tuple, and `pass` runs again over a plain live
    /// simulation. Correct results either way, just without the replay
    /// speedup.
    ///
    /// `pass` must build its policies and sinks afresh on every call: the
    /// failed drive already fed the first set part of a stream.
    ///
    /// # Panics
    ///
    /// Panics if `pass` fails on the live retry (a live simulation source
    /// cannot fail, so only `pass`'s own error can surface there).
    pub fn run_fail_open<S: InstStream, R>(
        cache: Option<&TraceCache>,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        make_stream: impl Fn() -> S,
        mut pass: impl FnMut(&mut CachedSource<'_, S>) -> Result<R, DcgError>,
    ) -> R {
        let mut source = Self::source(cache, config, name, seed, length, &make_stream);
        let result = pass(&mut source);
        source.finish(result).unwrap_or_else(|e| {
            eprintln!(
                "warning: {name}: cached replay failed ({e}); the entry is evicted \
                 and the run re-simulates live"
            );
            pass(&mut Self::source(
                None,
                config,
                name,
                seed,
                length,
                make_stream,
            ))
            .expect("a live simulation source cannot fail")
        })
    }

    /// [`crate::run_passive`] with transparent caching: replay the
    /// recorded activity on a hit; simulate live and record on a miss.
    /// Results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Fails only if a *validated* cache entry still fails mid-replay
    /// (I/O fault after validation). The entry is evicted and counted in
    /// [`CacheHealth::replay_failures`]; the caller must retry with
    /// **fresh** policies — the failed drive already fed them part of a
    /// stream, so reusing them would corrupt results
    /// ([`TraceCache::run_fail_open`] does exactly that).
    ///
    /// # Panics
    ///
    /// As [`crate::run_passive`].
    pub fn run_passive_cached(
        &self,
        config: &SimConfig,
        profile: BenchmarkProfile,
        seed: u64,
        length: RunLength,
        policies: &mut [&mut dyn GatingPolicy],
    ) -> Result<PassiveRun, DcgError> {
        let mut source = Self::source(Some(self), config, profile.name, seed, length, || {
            SyntheticWorkload::new(profile, seed)
        });
        let run = run_passive_with_sinks(config, &mut source, length, policies, &mut []);
        source.finish(run)
    }

    /// IPC-only cached run — the cheapest query the store can answer
    /// ([`CachedSource::measured_ipc`] on the tuple's source).
    ///
    /// # Errors
    ///
    /// As [`TraceCache::run_passive_cached`].
    pub fn run_ipc_cached_stream<S, F>(
        &self,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        make_stream: F,
    ) -> Result<f64, DcgError>
    where
        S: InstStream,
        F: FnOnce() -> S,
    {
        let mut source = Self::source(Some(self), config, name, seed, length, make_stream);
        let ipc = source.measured_ipc(config, length);
        source.finish(ipc)
    }
}

/// The cache entry a [`CachedSource`] replays or records.
#[derive(Debug)]
struct Slot<'c> {
    cache: &'c TraceCache,
    identity: EntryIdentity,
    key: u64,
}

/// A live simulation that appends every cycle it produces to an
/// in-memory activity trace.
#[derive(Debug)]
struct Recording<S: InstStream> {
    cpu: Processor<S>,
    writer: ActivityTraceWriter<Vec<u8>>,
    /// The first write error; a failing recorder must not abort the
    /// simulation it rides on, so the trace is dropped at the end.
    error: Option<TraceError>,
}

#[derive(Debug)]
enum Feed<'c, S: InstStream> {
    Replay(Slot<'c>, Box<ReplaySource>),
    Record(Slot<'c>, Box<Recording<S>>),
    Live(Box<Processor<S>>),
}

/// One tuple's activity source, as handed out by
/// [`TraceCache::source`]: a replay (block route), a recording live
/// simulation, or a plain live simulation.
///
/// Only the plain live source honors resource constraints: a replay is
/// immutable history, and a recording must not capture a stream an
/// active policy shaped, because the cache key does not name the policy.
#[derive(Debug)]
pub struct CachedSource<'c, S: InstStream> {
    feed: Feed<'c, S>,
}

impl<S: InstStream> CachedSource<'_, S> {
    /// The measured window's IPC. A replay answers from its verified
    /// block index ([`ReplaySource::measured_window`]: subheader totals
    /// plus the two boundary blocks, no interior decode); a live source,
    /// or an index that cannot answer, drives a stats-only pass. Both
    /// reduce to the same two integer totals divided in the same order,
    /// so the IPC is bit-identical on every path.
    ///
    /// # Errors
    ///
    /// A corrupt index or boundary block, or a replay failure.
    pub fn measured_ipc(&mut self, config: &SimConfig, length: RunLength) -> Result<f64, DcgError> {
        if let Feed::Replay(_, replay) = &self.feed {
            if let Some((cycles, committed)) = replay.measured_window(length)? {
                let stats = SimStats {
                    cycles,
                    committed,
                    ..SimStats::default()
                };
                return Ok(stats.ipc());
            }
        }
        let run = run_passive_with_sinks(config, self, length, &mut [], &mut [])?;
        Ok(run.stats.ipc())
    }

    /// Settle a drive over this source and return its `result`
    /// unchanged. This is the one place the cache learns how a run went:
    /// a recording whose drive succeeded is stored; a replay whose drive
    /// failed is evicted and counted in [`CacheHealth::replay_failures`].
    ///
    /// # Errors
    ///
    /// Returns `result`'s error, if any.
    pub fn finish<R>(self, result: Result<R, DcgError>) -> Result<R, DcgError> {
        match (self.feed, &result) {
            (Feed::Record(slot, rec), Ok(_)) if rec.error.is_none() => {
                if let Ok(bytes) = rec.writer.finish() {
                    slot.cache.store.insert(&slot.identity, slot.key, &bytes);
                }
            }
            (Feed::Replay(slot, _), Err(_)) => {
                let store = &slot.cache.store;
                store.health.replay_failures.fetch_add(1, Ordering::Relaxed);
                store.evict(&slot.identity);
            }
            _ => {}
        }
        result
    }
}

impl<S: InstStream> ActivitySource for CachedSource<'_, S> {
    fn next_cycle(&mut self) -> Result<&CycleActivity, DcgError> {
        match &mut self.feed {
            Feed::Replay(_, replay) => replay.next_cycle(),
            Feed::Record(_, rec) => {
                let act = rec.cpu.step();
                if rec.error.is_none() {
                    rec.error = rec.writer.write_cycle(act).err();
                }
                Ok(act)
            }
            Feed::Live(cpu) => Ok(cpu.step()),
        }
    }

    fn committed(&self) -> u64 {
        match &self.feed {
            Feed::Replay(_, replay) => replay.committed(),
            Feed::Record(_, rec) => rec.cpu.committed(),
            Feed::Live(cpu) => cpu.committed(),
        }
    }

    fn cycle(&self) -> u64 {
        match &self.feed {
            Feed::Replay(_, replay) => replay.cycle(),
            Feed::Record(_, rec) => rec.cpu.cycle(),
            Feed::Live(cpu) => cpu.cycle(),
        }
    }

    fn supports_constraints(&self) -> bool {
        matches!(self.feed, Feed::Live(_))
    }

    fn apply_constraints(&mut self, constraints: ResourceConstraints) {
        match &mut self.feed {
            Feed::Live(cpu) => cpu.set_constraints(constraints),
            _ => panic!("only a plain live source honors resource constraints"),
        }
    }

    fn supports_blocks(&self) -> bool {
        matches!(self.feed, Feed::Replay(..))
    }

    fn next_block(&mut self) -> Result<&ActivityBlock, DcgError> {
        match &mut self.feed {
            Feed::Replay(_, replay) => replay.next_block(),
            _ => panic!("a live activity source does not produce blocks"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dcg, NoGating};
    use dcg_power::Component;
    use dcg_workloads::Spec2000;
    use std::fs;

    fn scratch(tag: &str) -> TraceCache {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target")
            .join("tmp")
            .join(format!("trace-cache-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        TraceCache::new(dir)
    }

    fn short() -> RunLength {
        RunLength {
            warmup_insts: 500,
            measure_insts: 2_000,
        }
    }

    fn report_bits(run: &PassiveRun) -> Vec<(u64, u64, Vec<u64>)> {
        run.outcomes
            .iter()
            .map(|o| {
                (
                    o.report.cycles(),
                    o.report.committed(),
                    Component::ALL
                        .iter()
                        .map(|c| o.report.component_pj(*c).to_bits())
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn miss_records_then_hit_replays_identically() {
        let cache = scratch("roundtrip");
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();

        let mut base = NoGating::new(&cfg, &groups);
        let mut dcg = Dcg::new(&cfg, &groups);
        let cold = cache
            .run_passive_cached(&cfg, profile, 9, short(), &mut [&mut base, &mut dcg])
            .expect("cold run");
        assert!(
            cache
                .replay_source(&cfg, profile.name, 9, short())
                .is_some(),
            "first run must populate the cache"
        );

        let mut base2 = NoGating::new(&cfg, &groups);
        let mut dcg2 = Dcg::new(&cfg, &groups);
        let warm = cache
            .run_passive_cached(&cfg, profile, 9, short(), &mut [&mut base2, &mut dcg2])
            .expect("warm run");
        assert_eq!(report_bits(&cold), report_bits(&warm));
        assert_eq!(cold.stats.cycles, warm.stats.cycles);
        assert_eq!(cold.stats.mispredicts, warm.stats.mispredicts);
        assert_eq!(
            cold.outcomes[1].audit, warm.outcomes[1].audit,
            "audit must replay bit-identically"
        );
    }

    #[test]
    fn ipc_index_path_matches_full_fold_bit_for_bit() {
        // The subheader-index IPC (miss → live record, hit → index walk)
        // must equal the full blockwise fold's ipc() exactly — same
        // integer totals, same division.
        let cache = scratch("ipc-index");
        let cfg = SimConfig::baseline_8wide();
        let profile = Spec2000::by_name("gzip").unwrap();
        let stream = || SyntheticWorkload::new(profile, 11);

        let cold = cache
            .run_ipc_cached_stream(&cfg, profile.name, 11, short(), stream)
            .expect("cold ipc");
        let mut source = TraceCache::source(Some(&cache), &cfg, profile.name, 11, short(), stream);
        assert!(source.supports_blocks(), "the cold run recorded the tuple");
        let folded = run_passive_with_sinks(&cfg, &mut source, short(), &mut [], &mut [])
            .expect("warm fold")
            .stats;
        let warm = cache
            .run_ipc_cached_stream(&cfg, profile.name, 11, short(), stream)
            .expect("warm ipc");
        assert!(cold > 0.0, "a real run has nonzero IPC");
        assert_eq!(cold.to_bits(), folded.ipc().to_bits());
        assert_eq!(cold.to_bits(), warm.to_bits());

        // And the index agrees with the drive loop's own totals.
        let replay = cache
            .replay_source(&cfg, profile.name, 11, short())
            .expect("hit");
        let (cycles, committed) = replay
            .measured_window(short())
            .expect("clean entry")
            .expect("verified entry answers from its index");
        assert_eq!((cycles, committed), (folded.cycles, folded.committed));
    }

    #[test]
    fn replay_failing_mid_drive_is_evicted_counted_and_retried_live() {
        use crate::MetricsSink;
        use dcg_trace::ACTIVITY_BLOCK_HEADER_LEN;

        let cache = scratch("fail-open");
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();
        let stream = || SyntheticWorkload::new(profile, 13);
        let pass = |source: &mut CachedSource<'_, SyntheticWorkload>| {
            let mut base = NoGating::new(&cfg, &groups);
            let mut dcg = Dcg::new(&cfg, &groups);
            let mut probe = Dcg::new(&cfg, &groups);
            let mut metrics = MetricsSink::new(&mut probe, &cfg, &groups);
            let run = run_passive_with_sinks(
                &cfg,
                source,
                short(),
                &mut [&mut base, &mut dcg],
                &mut [&mut metrics],
            )?;
            Ok((report_bits(&run), format!("{:?}", metrics.into_report())))
        };
        let live = pass(&mut TraceCache::source(
            None,
            &cfg,
            profile.name,
            13,
            short(),
            stream,
        ))
        .expect("live run");

        // Record the entry, then fetch it once so its manifest row is
        // stamped verified: later fetches skip the payload checksum.
        TraceCache::run_fail_open(Some(&cache), &cfg, profile.name, 13, short(), stream, pass);
        assert!(cache
            .replay_source(&cfg, profile.name, 13, short())
            .is_some());

        // Flip one payload byte of the second block in place: same
        // length, and the trailer (which covers only the subheaders)
        // still verifies, so the replay opens and fails mid-drive on
        // that block's checksum.
        let path = cache.entry_path_for(&cfg, profile.name, 13, short());
        let mut bytes = fs::read(&path).unwrap();
        let mut header = Vec::new();
        ActivityHeader::new(profile.name, cfg.digest(), 13, 500, 2_000, groups.len())
            .unwrap()
            .write_to(&mut header)
            .unwrap();
        let first = header.len();
        let blen = u32::from_le_bytes(bytes[first..first + 4].try_into().unwrap()) as usize;
        let second_payload = first + 2 * ACTIVITY_BLOCK_HEADER_LEN + blen;
        bytes[second_payload + 1] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(
            ActivityTraceReader::new(&bytes[..]).is_ok(),
            "the trailer still verifies"
        );

        let before = cache.health().replay_failures;
        let retried =
            TraceCache::run_fail_open(Some(&cache), &cfg, profile.name, 13, short(), stream, pass);
        assert_eq!(
            retried, live,
            "the live retry is bit-identical to a live run"
        );
        assert_eq!(cache.health().replay_failures, before + 1);
        assert!(!path.exists(), "the failed entry is evicted");
        assert!(cache
            .replay_source(&cfg, profile.name, 13, short())
            .is_none());
    }

    #[test]
    fn key_separates_config_seed_and_length() {
        let cfg = SimConfig::baseline_8wide();
        // Pinned: the key names entry files, so a change here would
        // strand every existing store's entries.
        assert_eq!(
            TraceCache::key(&cfg, "gzip", 1, short()),
            0x3db1_0f60_ca68_a946
        );
        let deep = SimConfig::deep_pipeline_20();
        let k = TraceCache::key(&cfg, "gzip", 1, short());
        assert_ne!(k, TraceCache::key(&deep, "gzip", 1, short()));
        assert_ne!(k, TraceCache::key(&cfg, "mcf", 1, short()));
        assert_ne!(k, TraceCache::key(&cfg, "gzip", 2, short()));
        assert_ne!(k, TraceCache::key(&cfg, "gzip", 1, RunLength::quick()));
    }

    #[test]
    fn unwritable_cache_dir_counts_store_failures_and_still_runs() {
        // Root a cache *under a regular file* so `create_dir_all` fails
        // even when the tests run as root (permission bits would not).
        let scratch_dir = scratch("unwritable").dir().to_path_buf();
        fs::create_dir_all(&scratch_dir).unwrap();
        let blocker = scratch_dir.join("blocker");
        fs::write(&blocker, b"not a directory").unwrap();
        let cache = TraceCache::new(blocker.join("cache"));

        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();
        assert_eq!(cache.health(), CacheHealth::default());

        let mut base = NoGating::new(&cfg, &groups);
        let run = cache
            .run_passive_cached(&cfg, profile, 3, short(), &mut [&mut base])
            .expect("uncached run");
        assert!(run.stats.cycles > 0, "the run itself must still succeed");
        assert!(
            cache.health().store_failures > 0,
            "a failed store must be counted on this cache, not swallowed"
        );
        assert!(
            cache
                .replay_source(&cfg, profile.name, 3, short())
                .is_none(),
            "nothing can have been cached"
        );
    }

    #[test]
    fn from_env_value_covers_disable_path_and_malformed() {
        assert!(
            TraceCache::from_env_value(Err(VarError::NotPresent)).is_some(),
            "unset variable selects the default location"
        );
        for tok in ["0", "off", "none", ""] {
            assert!(
                TraceCache::from_env_value(Ok(tok.to_string())).is_none(),
                "{tok:?} disables caching"
            );
        }
        let custom = TraceCache::from_env_value(Ok("/tmp/custom-traces".to_string())).unwrap();
        assert_eq!(custom.dir(), Path::new("/tmp/custom-traces"));
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let raw = std::ffi::OsString::from_vec(vec![0x2f, 0x74, 0x6d, 0x70, 0x80]);
            assert!(
                TraceCache::from_env_value(Err(VarError::NotUnicode(raw))).is_none(),
                "a malformed value disables caching (with a diagnostic)"
            );
        }
    }

    #[test]
    fn budget_parsing_accepts_suffixes_and_rejects_garbage() {
        assert_eq!(parse_budget("1024"), Some(Some(1024)));
        assert_eq!(parse_budget("4k"), Some(Some(4 << 10)));
        assert_eq!(parse_budget("512M"), Some(Some(512 << 20)));
        assert_eq!(parse_budget("2g"), Some(Some(2 << 30)));
        assert_eq!(parse_budget("0"), Some(None), "0 means unbounded");
        assert_eq!(parse_budget(""), Some(None));
        assert_eq!(parse_budget("lots"), None);
        assert_eq!(parse_budget("-5"), None);
        assert_eq!(parse_budget("1t"), None, "unknown suffix is rejected");
        let bounded = scratch("budget-knob").with_budget(Some(4096));
        assert_eq!(bounded.store().budget(), Some(4096));
    }

    #[test]
    fn corrupt_entry_falls_back_to_live() {
        let cache = scratch("corrupt");
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();

        let mut base = NoGating::new(&cfg, &groups);
        let clean = cache
            .run_passive_cached(&cfg, profile, 5, short(), &mut [&mut base])
            .expect("clean run");

        // Truncate the entry: the checksum verification must reject and
        // evict it, and the next cached run must still produce the same
        // result.
        let path = cache.entry_path_for(&cfg, profile.name, 5, short());
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        assert!(cache
            .replay_source(&cfg, profile.name, 5, short())
            .is_none());
        assert!(!path.exists(), "invalid entries are deleted");

        let mut base2 = NoGating::new(&cfg, &groups);
        let relive = cache
            .run_passive_cached(&cfg, profile, 5, short(), &mut [&mut base2])
            .expect("fallback run");
        assert_eq!(report_bits(&clean), report_bits(&relive));
    }

    #[test]
    fn previous_journal_format_reads_as_foreign_and_entries_are_adopted() {
        use crate::store::{JOURNAL_FILE, JOURNAL_MAGIC, MANIFEST_FILE};
        let cache = scratch("old-journal");
        let dir = cache.dir().to_path_buf();
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();
        for seed in [1, 2] {
            let mut base = NoGating::new(&cfg, &groups);
            cache
                .run_passive_cached(&cfg, profile, seed, short(), &mut [&mut base])
                .expect("cold run");
        }
        // Leak the cache so no checkpoint writes a manifest: the journal
        // alone indexes both renamed entries.
        std::mem::forget(cache);
        assert!(!dir.join(MANIFEST_FILE).exists());

        // The same records under the previous format's magic and
        // version word.
        let journal = dir.join(JOURNAL_FILE);
        let mut old = b"DCGWAL02".to_vec();
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&fs::read(&journal).unwrap()[JOURNAL_MAGIC.len()..]);
        fs::write(&journal, old).unwrap();

        let reopened = TraceCache::new(dir);
        assert_eq!(
            reopened.ensure_open().adopted,
            2,
            "the directory scan adopts every renamed entry"
        );
        assert_eq!(
            fs::read(&journal).unwrap(),
            JOURNAL_MAGIC,
            "journal restarted"
        );
        for seed in [1, 2] {
            assert!(reopened
                .replay_source(&cfg, profile.name, seed, short())
                .is_some());
        }
    }

    #[test]
    fn warm_entries_survive_a_reopen() {
        let cache = scratch("survive-reopen");
        let dir = cache.dir().to_path_buf();
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();

        let mut base = NoGating::new(&cfg, &groups);
        let cold = cache
            .run_passive_cached(&cfg, profile, 11, short(), &mut [&mut base])
            .expect("cold run");
        cache.checkpoint().expect("checkpoint");
        drop(cache);

        // A brand-new cache instance (fresh process, in effect) must
        // serve the same tuple warm through the manifest, bit-identical.
        let cache2 = TraceCache::new(dir);
        assert!(
            cache2
                .replay_source(&cfg, profile.name, 11, short())
                .is_some(),
            "the manifest-indexed entry survives a reopen"
        );
        let mut base2 = NoGating::new(&cfg, &groups);
        let warm = cache2
            .run_passive_cached(&cfg, profile, 11, short(), &mut [&mut base2])
            .expect("warm run after reopen");
        assert_eq!(report_bits(&cold), report_bits(&warm));
        let scan = cache2.verify_all();
        assert_eq!(scan.invalid, 0);
        assert!(scan.valid >= 1);
    }
}
