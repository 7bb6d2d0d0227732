//! `server_mixed`: an in-process `ExperimentServer` on a Unix socket
//! with 2 workers, driven by 2 closed-loop clients on one connection
//! each. Each client submits a job and waits for its result before
//! sending the next. The mix of quick-length jobs is mostly warm
//! replays of traces set-up pre-recorded, and uses the trace store with
//! writes beside reads: cold replays of new seeds (simulate, encode,
//! insert, fsync), `simulate` jobs that never touch the store, and
//! resubmits of completed specs.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcg_core::{run_sharded_with, EntryIdentity, RunLength, TraceCache};
use dcg_experiments::ExperimentConfig;
use dcg_server::{
    read_frame, run_job, write_frame, DcgClient, ExperimentServer, JobSpec, JobWal, Reply, Request,
    ServerConfig, WalRecord,
};
use dcg_sim::{ActivityBlock, CycleActivity, LatchGroups, Processor, SimConfig};
use dcg_trace::{ActivityTraceReader, ActivityTraceWriter};
use dcg_workloads::{Spec2000, SyntheticWorkload};

use crate::notify::CreateWatch;
use crate::out::{Check, Outcome, Phase};
use crate::tracer::{ns_since, Acc, Tracer};
use crate::{dir_mb, Args, Rng, WORKERS};

/// Jobs in each client's list. Both lists run once per round; a round
/// takes about 2 s on a 2-core machine, so a run holds several rounds
/// and reports the median round.
const JOBS_PER_CLIENT: usize = 64;
/// Poll interval while a client waits for its result.
const POLL: Duration = Duration::from_millis(2);
/// Job bodies re-executed per class by the traced run's body probe.
const BODY_PROBES: usize = 12;
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    WarmReplay,
    ColdReplay,
    Simulate,
    Resubmit,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::WarmReplay => "warm_replay",
            Class::ColdReplay => "cold_replay",
            Class::Simulate => "simulate",
            Class::Resubmit => "resubmit",
        }
    }
}

/// Committed instructions of one quick-length job body.
fn job_insts() -> u64 {
    let l = RunLength::quick();
    l.warmup_insts + l.measure_insts
}

struct Running {
    socket: PathBuf,
    serve: JoinHandle<()>,
}

impl Running {
    fn start(state: &Path) -> Result<Running, String> {
        let mut cfg = ServerConfig::new(state.to_path_buf());
        cfg.workers = WORKERS;
        let server = ExperimentServer::open(cfg).map_err(|e| format!("server open: {e}"))?;
        let socket = state.join("s.sock");
        let listener =
            UnixListener::bind(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let serve = std::thread::spawn(move || server.serve(listener));
        Ok(Running { socket, serve })
    }

    fn stop(self) -> Result<(), String> {
        DcgClient::new(&self.socket)
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))?;
        self.serve
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// Jobs of each kind per 100 in every client's list. Warm replays are
/// the majority because the server was built for a service where most
/// queries are warm-store replays (DESIGN.md section 16). The split of
/// the rest is this benchmark's own choice: cold replays and `simulate`
/// jobs make 30% together, so the 90th percentile of the round trips
/// falls inside their slower mode rather than on its edge, and resubmits
/// keep dedup in the mix.
const SHARES: [(Class, usize); 4] = [
    (Class::WarmReplay, 55),
    (Class::ColdReplay, 15),
    (Class::Simulate, 15),
    (Class::Resubmit, 15),
];

/// Each client's job list. The number of jobs of each kind is fixed by
/// [`SHARES`], and each kind cycles through the 18 benchmarks, so every
/// seed runs the same work; the seed draws the workload seeds, the
/// order and which spec a resubmit repeats.
fn job_lists(seed: u64) -> Vec<Vec<(Class, JobSpec)>> {
    let benches = Spec2000::all();
    let per_client = JOBS_PER_CLIENT;
    let mut next_bench: BTreeMap<Class, usize> = BTreeMap::new();
    (0..WORKERS)
        .map(|who| {
            let mut rng = Rng::new(seed ^ (0xc1e7_0000 + who as u64));
            let mut classes = Vec::with_capacity(per_client);
            let mut left = per_client;
            for (class, share) in SHARES {
                let n = if class == Class::Resubmit {
                    left
                } else {
                    (per_client * share + 50) / 100
                };
                classes.extend(std::iter::repeat(class).take(n.min(left)));
                left -= n.min(left);
            }
            for i in (1..classes.len()).rev() {
                classes.swap(i, rng.below(i as u64 + 1) as usize);
            }
            // A resubmit needs an earlier job to repeat.
            if let Some(first) = classes.iter().position(|c| *c != Class::Resubmit) {
                classes.swap(0, first);
            }
            let mut jobs: Vec<(Class, JobSpec)> = Vec::with_capacity(per_client);
            for class in classes {
                let seed = rng.next_u64() >> 16;
                let k = next_bench.entry(class).or_insert(0);
                let bench = benches[*k % benches.len()].name.to_string();
                let job = match class {
                    Class::WarmReplay | Class::ColdReplay => JobSpec::Replay {
                        bench,
                        seed,
                        quick: true,
                    },
                    Class::Simulate => JobSpec::Simulate {
                        bench,
                        seed,
                        quick: true,
                    },
                    Class::Resubmit => {
                        let earlier: Vec<&JobSpec> = jobs
                            .iter()
                            .filter(|(c, _)| *c != Class::Resubmit)
                            .map(|(_, s)| s)
                            .collect();
                        earlier[rng.below(earlier.len() as u64) as usize].clone()
                    }
                };
                if class != Class::Resubmit {
                    *k += 1;
                }
                jobs.push((class, job));
            }
            jobs
        })
        .collect()
}

/// The warm-replay specs of the job lists, which set-up pre-records.
fn warm_specs(lists: &[Vec<(Class, JobSpec)>]) -> Vec<JobSpec> {
    lists
        .iter()
        .flatten()
        .filter(|(c, _)| *c == Class::WarmReplay)
        .map(|(_, s)| s.clone())
        .collect()
}

/// Open a server on a fresh state directory and pre-record the traces
/// of the pool into its store, on one store handle shared by
/// [`WORKERS`] threads (separate handles on one store can lose entries).
fn set_up(state: &Path, pool: &[JobSpec]) -> Result<Running, String> {
    let _ = std::fs::remove_dir_all(state);
    std::fs::create_dir_all(state).map_err(|e| format!("create {}: {e}", state.display()))?;
    let running = Running::start(state)?;
    let cache = TraceCache::new(state.join("traces"));
    let sim = SimConfig::baseline_8wide();
    let recorded = run_sharded_with(WORKERS, pool.len(), |i| {
        let JobSpec::Replay { bench, seed, .. } = &pool[i] else {
            return Err("the pool holds replay specs only".to_string());
        };
        let profile = Spec2000::by_name(bench).ok_or("pool names a known benchmark")?;
        cache
            .run_passive_cached(&sim, profile, *seed, RunLength::quick(), &mut [])
            .map(drop)
            .map_err(|e| format!("pre-record {}: {e}", pool[i].label()))
    });
    recorded.into_iter().collect::<Result<(), String>>()?;
    Ok(running)
}

/// The trace entries of a store, by file name, with a digest of their
/// bytes.
fn store_entries(traces: &Path) -> BTreeMap<String, u64> {
    let mut entries = BTreeMap::new();
    if let Ok(rd) = std::fs::read_dir(traces) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.ends_with(".dcgact") {
                let mut h = DefaultHasher::new();
                std::fs::read(e.path()).unwrap_or_default().hash(&mut h);
                entries.insert(name, h.finish());
            }
        }
    }
    entries
}

struct Op {
    class: Class,
    spec: JobSpec,
    ms: f64,
    result: Result<Vec<u8>, String>,
}

/// One client connection, held open for the whole run: the server
/// answers any number of frames on a connection. `DcgClient` connects
/// afresh for every request, and each connect waits for the server's
/// 20 ms accept poll, which locks closed-loop round trips to multiples
/// of 20 ms; the percentiles then jump between those steps.
struct Conn(UnixStream);

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        UnixStream::connect(socket)
            .map(Conn)
            .map_err(|e| format!("connect {}: {e}", socket.display()))
    }

    fn request(&mut self, req: &Request) -> Result<Reply, String> {
        write_frame(&mut self.0, &req.encode()).map_err(|e| e.to_string())?;
        let payload = read_frame(&mut self.0).map_err(|e| e.to_string())?;
        Reply::decode(&payload).map_err(|e| e.to_string())
    }
}

/// Submit and wait, counting a `Busy` answer as a refused operation.
fn round_trip(
    conn: &mut Conn,
    spec: &JobSpec,
    tr: Option<(&Tracer, u64, u64)>,
) -> Result<Vec<u8>, String> {
    let mut span = |name: &'static str, req: &Request| match tr {
        Some((t, parent, task)) => t.span(name, parent, task, |_| conn.request(req)),
        None => conn.request(req),
    };
    let id = match span("client.submit", &Request::Submit(spec.clone()))? {
        Reply::Submitted { id, .. } => id,
        Reply::Busy { .. } => return Err("refused: Busy".into()),
        other => return Err(format!("submit: {other:?}")),
    };
    loop {
        match span("client.result", &Request::Result(id))? {
            Reply::Result { json, .. } => return Ok(json),
            Reply::NotReady { .. } => std::thread::sleep(POLL),
            other => return Err(format!("result: {other:?}")),
        }
    }
}

/// One closed-loop client working through its job list.
fn client_loop(
    socket: &Path,
    who: usize,
    jobs: &[(Class, JobSpec)],
    tr: Option<&Tracer>,
) -> Result<Vec<Op>, String> {
    let mut conn = Conn::open(socket)?;
    let mut ops = Vec::with_capacity(jobs.len());
    for (i, (class, spec)) in jobs.iter().enumerate() {
        let task = (who as u64 + 1) * 1_000_000 + i as u64;
        let t = Instant::now();
        let result = match tr {
            Some(t) => t.span("job.round_trip", 0, task, |id| {
                round_trip(&mut conn, spec, Some((t, id, task)))
            }),
            None => round_trip(&mut conn, spec, None),
        };
        ops.push(Op {
            class: *class,
            spec: spec.clone(),
            ms: t.elapsed().as_secs_f64() * 1e3,
            result,
        });
    }
    Ok(ops)
}

/// Both clients through their lists; returns their operations and the
/// interval from start to the last completion.
fn closed_loop(
    socket: &Path,
    lists: &[Vec<(Class, JobSpec)>],
    tr: Option<&Tracer>,
) -> Result<(Vec<Op>, f64), String> {
    let start = Instant::now();
    let ops = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(who, jobs)| s.spawn(move || client_loop(socket, who, jobs, tr)))
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    Ok((ops, start.elapsed().as_secs_f64()))
}

/// One round: a fresh server on a copy of the set-up store, both
/// clients through their lists.
struct Round {
    ops: Vec<Op>,
    interval: f64,
    /// Store opens seen by the watch on the store directory.
    opens: Result<u64, String>,
    /// Entries the store should hold after the round (the pool plus
    /// every completed cold replay) minus those `lookup_all` finds.
    lost: f64,
}

/// Copy the set-up store into a fresh state directory, start a server
/// on it and run the closed loop. The copy and the server's start and
/// stop lie outside the timed interval. The state directory is left for
/// the caller to remove.
fn round(
    state: &Path,
    template: &Path,
    lists: &[Vec<(Class, JobSpec)>],
    pool: &[JobSpec],
    tr: Option<&Tracer>,
) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(state);
    let traces = state.join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("create {}: {e}", traces.display()))?;
    let rd =
        std::fs::read_dir(template).map_err(|e| format!("read {}: {e}", template.display()))?;
    for e in rd.flatten() {
        if !e.file_name().to_string_lossy().starts_with(".probe.") {
            std::fs::copy(e.path(), traces.join(e.file_name()))
                .map_err(|err| format!("copy {}: {err}", e.path().display()))?;
        }
    }
    let running = Running::start(state)?;
    let watch = CreateWatch::new(&traces)?;
    let (ops, interval) = closed_loop(&running.socket, lists, tr)?;
    let opens = watch.count_created(".probe.");
    drop(watch);
    running.stop()?;
    let mut expected: BTreeSet<String> = pool.iter().map(JobSpec::label).collect();
    for op in &ops {
        if op.class == Class::ColdReplay && op.result.is_ok() {
            expected.insert(op.spec.label());
        }
    }
    let found = TraceCache::new(traces).lookup_all().valid;
    Ok(Round {
        ops,
        interval,
        opens,
        lost: expected.len() as f64 - found as f64,
    })
}

/// Job bodies that ran (resubmits run none).
fn bodies(ops: &[Op]) -> usize {
    ops.iter()
        .filter(|o| o.class != Class::Resubmit && o.result.is_ok())
        .count()
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lists = job_lists(args.seed);
    let pool = warm_specs(&lists);

    // Set-up, three times: server open plus pre-recording.
    let mut kept: Option<PathBuf> = None;
    let mut first_entries = None;
    for k in 0..3 {
        let state = args.work.join(format!("setup{k}"));
        let t = Instant::now();
        let running = set_up(&state, &pool)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        running.stop()?;
        let entries = store_entries(&state.join("traces"));
        if let Some(prev) = kept.replace(state) {
            let _ = std::fs::remove_dir_all(prev);
        }
        match &first_entries {
            None => first_entries = Some(entries),
            Some(first) => out.checks.push(if *first == entries {
                Check::ok("set-ups pre-record identical trace entries")
            } else {
                Check::fail(
                    "set-ups pre-record identical trace entries",
                    "trace entries differ".into(),
                )
            }),
        }
    }
    let setup_state = kept.expect("three set-ups ran");
    let template = setup_state.join("traces");
    let scan = TraceCache::new(template.clone()).lookup_all();
    let what = "store holds one valid entry per pre-recorded spec";
    out.checks
        .push(if scan.valid == pool.len() as u64 && scan.invalid == 0 {
            Check::ok(what)
        } else {
            Check::fail(
                what,
                format!(
                    "{} valid, {} invalid of {}",
                    scan.valid,
                    scan.invalid,
                    pool.len()
                ),
            )
        });
    out.count("store.mb", dir_mb(&template));

    // Rounds until their timed intervals fill `--seconds`: at least one,
    // and another only while the expected overshoot stays under half a
    // round.
    let mut ops = Vec::new();
    let (mut timed, mut opens, mut lost) = (0.0, Ok(0), 0.0);
    loop {
        let state = args.work.join("round");
        let r = round(&state, &template, &lists, &pool, None)?;
        let _ = std::fs::remove_dir_all(&state);
        out.untraced.iter_s.push(r.interval);
        out.untraced
            .iter_insts
            .push(bodies(&r.ops) as u64 * job_insts());
        opens = match (opens, r.opens) {
            (Ok(a), Ok(b)) => Ok(a + b),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        lost += r.lost;
        ops.extend(r.ops);
        timed += r.interval;
        let rounds = out.untraced.iter_s.len() as f64;
        if timed + timed / rounds / 2.0 >= args.seconds {
            break;
        }
    }
    out.peak_rss_mb = crate::peak_rss_mb();
    let rounds = out.untraced.iter_s.len();
    out.count("server.rounds", rounds as f64);
    out.count("store.entries_lost", lost);
    match opens {
        Ok(n) => out.count("store.opens_per_job", n as f64 / bodies(&ops).max(1) as f64),
        Err(e) => eprintln!("store.opens_per_job not measured: {e}"),
    }

    let refs = references(&lists, &args.work)?;
    let failed = check_results(&ops, &refs, &mut out);
    out.attempted = ops.len() as u64;
    out.failed = failed;
    let resubmits = ops.iter().filter(|o| o.class == Class::Resubmit).count();
    out.count(
        "server.dedup_ratio",
        resubmits as f64 / ops.len().max(1) as f64,
    );
    out.untraced.latency_ms = ops.iter().map(|o| o.ms).collect();
    for class in [
        Class::WarmReplay,
        Class::ColdReplay,
        Class::Simulate,
        Class::Resubmit,
    ] {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.ms)
            .collect();
        out.samples
            .push((format!("round_trip_ms.{}", class.label()), v));
    }

    if let Some(tr) = tracer {
        traced(tr, args, &lists, &pool, &template, &refs, &mut out)?;
    }
    let _ = std::fs::remove_dir_all(&setup_state);
    Ok(out)
}

/// A reference result from `run_job` for every spec of the job lists,
/// keyed by its encoding. Each is computed on a state directory of its
/// own, so no two threads share a store, and warm replays are checked
/// against a live simulation.
fn references(
    lists: &[Vec<(Class, JobSpec)>],
    work: &Path,
) -> Result<BTreeMap<Vec<u8>, String>, String> {
    let ref_state = work.join("refs");
    let _ = std::fs::remove_dir_all(&ref_state);
    let mut specs: Vec<&JobSpec> = Vec::new();
    let mut seen = BTreeSet::new();
    for (_, spec) in lists.iter().flatten() {
        if seen.insert(spec.encode()) {
            specs.push(spec);
        }
    }
    let computed = run_sharded_with(WORKERS, specs.len(), |i| {
        run_job(specs[i], &ref_state.join(i.to_string()))
            .map_err(|e| format!("reference {}: {}", specs[i].label(), e.message))
    });
    let _ = std::fs::remove_dir_all(&ref_state);
    specs
        .iter()
        .zip(computed)
        .map(|(spec, r)| Ok((spec.encode(), r?)))
        .collect()
}

/// Compare every result with its `run_job` reference. Returns the
/// number of failed operations.
fn check_results(ops: &[Op], refs: &BTreeMap<Vec<u8>, String>, out: &mut Outcome) -> u64 {
    let mut failed = 0;
    let mut wrong = 0;
    let mut errors = BTreeMap::new();
    for op in ops {
        match &op.result {
            Err(e) => {
                failed += 1;
                *errors.entry(e.clone()).or_insert(0) += 1;
            }
            Ok(bytes) => {
                if refs[&op.spec.encode()].as_bytes() != bytes.as_slice() {
                    failed += 1;
                    wrong += 1;
                }
            }
        }
    }
    out.checks.push(if wrong == 0 {
        Check::ok("every job result byte-identical to its run_job reference")
    } else {
        Check::fail(
            "every job result byte-identical to its run_job reference",
            format!("{wrong} result(s) differ"),
        )
    });
    if !errors.is_empty() {
        out.checks
            .push(Check::fail("every job completes", format!("{errors:?}")));
    }
    failed
}

/// The traced run: one more round with a span per round trip, then
/// probes that call each server layer's public functions on the round's
/// own jobs.
fn traced(
    tr: &Tracer,
    args: &Args,
    lists: &[Vec<(Class, JobSpec)>],
    pool: &[JobSpec],
    template: &Path,
    refs: &BTreeMap<Vec<u8>, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let state = args.work.join("srv-traced");
    let Round { ops, interval, .. } = round(&state, template, lists, pool, Some(tr))?;
    out.traced = Some(Phase {
        iter_s: vec![interval],
        iter_insts: vec![bodies(&ops) as u64 * job_insts()],
        latency_ms: ops.iter().map(|o| o.ms).collect(),
    });
    let mut scratch = Outcome::default();
    let failed = check_results(&ops, refs, &mut scratch);
    out.checks.push(if failed == 0 {
        Check::ok("traced job results equal the untraced references")
    } else {
        Check::fail(
            "traced job results equal the untraced references",
            format!("{failed} operation(s) failed"),
        )
    });
    // Protocol framing, WAL append and submit on each job's own spec and
    // result.
    let wal_dir = args.work.join("wal-probe");
    let submit_dir = args.work.join("submit-probe");
    for d in [&wal_dir, &submit_dir] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let (wal, _) = JobWal::open(&wal_dir).map_err(|e| format!("wal open: {e}"))?;
    let mut probe_cfg = ServerConfig::new(submit_dir.clone());
    probe_cfg.queue_capacity = usize::MAX;
    let probe_server =
        ExperimentServer::open(probe_cfg).map_err(|e| format!("probe server open: {e}"))?;
    for (i, op) in ops.iter().enumerate() {
        let Ok(json) = &op.result else { continue };
        let task = i as u64 + 1;
        tr.span("server.frame", 0, task, |_| {
            frame_round_trip(&op.spec, json)
        })?;
        let id = op.spec.id();
        tr.span("server.wal_append", 0, task, |_| {
            wal.append(&WalRecord::Submit {
                id,
                spec: op.spec.clone(),
            })
        })
        .map_err(|e| format!("wal append: {e}"))?;
        if op.class != Class::Resubmit {
            tr.span("server.submit", 0, task, |_| {
                probe_server.submit(op.spec.clone())
            });
        }
    }
    drop(probe_server);

    // Job bodies by class, outside the server: warm replays against the
    // traced server's store, cold replays against a fresh one.
    let cold_dir = args.work.join("cold-probe");
    let _ = std::fs::remove_dir_all(&cold_dir);
    let mut per_class: BTreeMap<Class, usize> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let (name, dir): (&'static str, &Path) = match op.class {
            Class::WarmReplay => ("server.body.warm_replay", &state),
            Class::ColdReplay => ("server.body.cold_replay", &cold_dir),
            Class::Simulate => ("server.body.simulate", &cold_dir),
            Class::Resubmit => continue,
        };
        let n = per_class.entry(op.class).or_insert(0);
        if *n >= BODY_PROBES {
            continue;
        }
        *n += 1;
        tr.span(name, 0, i as u64 + 1, |_| run_job(&op.spec, dir))
            .map_err(|e| format!("body probe: {}", e.message))?;
    }

    // Store calls on the traced server's store: open, fetch, insert into
    // a scratch store, and the trace codec on the fetched entries.
    let traces = state.join("traces");
    let cfg = ExperimentConfig::quick();
    let insert_store = TraceCache::new(args.work.join("insert-probe"));
    for (i, spec) in pool.iter().take(BODY_PROBES).enumerate() {
        let task = i as u64 + 1;
        let cache = tr.span("store.open", 0, task, |_| {
            let c = TraceCache::new(traces.clone());
            c.ensure_open();
            c
        });
        let JobSpec::Replay { bench, seed, .. } = spec else {
            continue;
        };
        let l = cfg.length;
        let ident = EntryIdentity::current(
            cfg.sim.digest(),
            bench,
            *seed,
            l.warmup_insts,
            l.measure_insts,
        );
        let data = tr.span("store.fetch", 0, task, |_| cache.store().fetch_data(&ident));
        tr.count("store.fetch.attempts", task, 1.0);
        tr.count(
            "store.fetch.hits",
            task,
            f64::from(u8::from(data.is_some())),
        );
        let Some(data) = data else { continue };
        let key = TraceCache::key(&cfg.sim, bench, *seed, l);
        tr.span("store.insert", 0, task, |_| {
            insert_store.store().insert(&ident, key, &data)
        });
        let profile = Spec2000::by_name(bench).ok_or("pool names a known benchmark")?;
        tr.span("sim.new", 0, task, |_| {
            drop(Processor::new(
                cfg.sim.clone(),
                SyntheticWorkload::new(profile, *seed),
            ))
        });
        trace_codec(tr, task, &cfg.sim, &data)?;
    }
    drop(insert_store);
    for d in [
        &wal_dir,
        &submit_dir,
        &cold_dir,
        &state,
        &args.work.join("insert-probe"),
    ] {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(())
}

/// The submit request and the result reply through encode, framing and
/// decode.
fn frame_round_trip(spec: &JobSpec, json: &[u8]) -> Result<(), String> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &Request::Submit(spec.clone()).encode()).map_err(|e| e.to_string())?;
    let req = Request::decode(&read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let reply = Reply::Result {
        id: spec.id(),
        json: json.to_vec(),
    };
    buf.clear();
    write_frame(&mut buf, &reply.encode()).map_err(|e| e.to_string())?;
    let back = Reply::decode(&read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    if req != Request::Submit(spec.clone()) || back != reply {
        return Err("frame round trip changed a message".into());
    }
    Ok(())
}

/// Decode every block of a stored entry, then encode its cycles again
/// with the public writer; the re-encoding must match the entry.
fn trace_codec(tr: &Tracer, task: u64, sim: &SimConfig, data: &[u8]) -> Result<(), String> {
    let mut reader =
        ActivityTraceReader::from_data(data.to_vec().into()).map_err(|e| e.to_string())?;
    let groups = LatchGroups::new(&sim.depth).len();
    let mut block = ActivityBlock::new(groups);
    let mut blocks = Vec::new();
    let t = Instant::now();
    while reader.read_block(&mut block).map_err(|e| e.to_string())? {
        blocks.push(block.clone());
    }
    let cycles: u64 = blocks.iter().map(|b| b.len() as u64).sum();
    tr.agg(
        "trace.decode",
        0,
        task,
        Acc {
            ns: ns_since(t),
            n: cycles,
        },
    );
    tr.count("trace.decode.cycles", task, cycles as f64);
    tr.count("trace.decode.bytes", task, data.len() as f64);

    let mut act = CycleActivity::default();
    let mut writer =
        ActivityTraceWriter::new(Vec::new(), reader.header()).map_err(|e| e.to_string())?;
    let mut enc = Acc::default();
    for b in &blocks {
        for i in 0..b.len() {
            b.extract(i, &mut act);
            let t = Instant::now();
            writer.write_cycle(&act).map_err(|e| e.to_string())?;
            enc.ns += ns_since(t);
        }
    }
    let t = Instant::now();
    let bytes = writer.finish().map_err(|e| e.to_string())?;
    enc.ns += ns_since(t);
    enc.n = cycles;
    tr.agg("trace.encode", 0, task, enc);
    tr.count("trace.cycles", task, cycles as f64);
    tr.count("trace.bytes", task, bytes.len() as f64);
    if bytes != data {
        return Err("re-encoding a stored trace changed its bytes".into());
    }
    Ok(())
}
