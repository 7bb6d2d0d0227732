//! `warm_replay`: the 18 passive passes (baseline + DCG + metrics sink)
//! recorded into a fresh trace store during set-up, then replayed from
//! it with full block decode and rendered as the suite metrics JSON.

use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::time::Instant;

use dcg_core::{run_sharded_with, EntryIdentity, ReplaySource, TraceCache};
use dcg_experiments::{suite_metrics_json, BenchmarkRun, ExperimentConfig, Suite};
use dcg_sim::LatchGroups;
use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter};
use dcg_workloads::BenchmarkProfile;

use crate::live::{suite_insts, traced_live_passive, traced_passive};
use crate::out::{Check, Outcome, Phase};
use crate::tracer::{ns_since, RecorderProbe, TimedSource, Tracer};
use crate::{dir_mb, same_bytes, timed_loop, Args, WORKERS};

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut cfg = ExperimentConfig::standard();
    cfg.seed = args.seed;
    let n = cfg.benchmarks.len() as u64;
    let mut out = Outcome::default();

    // Set-up: record every passive pass into a fresh store, three times;
    // the last store serves the timed phase.
    let mut reference: Option<String> = None;
    let mut store = None;
    for k in 0..3 {
        let dir = args.work.join(format!("store{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("DCG_TRACE_CACHE", &dir);
        let t = Instant::now();
        let suite = Suite::run(&cfg, false);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if !suite.failures.is_empty() {
            return Err("the recording suite lost benchmarks".into());
        }
        let doc = format!("{}\n", suite_metrics_json(&suite));
        match &reference {
            None => reference = Some(doc),
            Some(r) => out.checks.push(same_bytes(
                "set-up recordings render the same metrics document",
                doc.as_bytes(),
                r.as_bytes(),
            )),
        }
        if let Some(prev) = store.replace(dir) {
            let _ = std::fs::remove_dir_all(prev);
        }
    }
    let reference = reference.expect("three set-ups ran");
    let store = store.expect("three set-ups ran");
    let scan = TraceCache::new(store.clone()).lookup_all();
    out.checks.push(if scan.valid == n && scan.invalid == 0 {
        Check::ok("store holds one valid entry per benchmark")
    } else {
        Check::fail(
            "store holds one valid entry per benchmark",
            format!("{} valid, {} invalid", scan.valid, scan.invalid),
        )
    });
    out.count("store.mb", dir_mb(&store));

    // A store miss re-simulates and re-records the entry and renders the
    // same document, so the store is compared with its state before each
    // iteration: an iteration that wrote to it was not a replay.
    let mut recorded = store_files(&store);
    let per_iter = suite_insts(&cfg, false);
    let mut latency = Vec::new();
    let (mut attempted, mut failed, mut mismatched, mut rewritten) = (0, 0, 0, 0);
    let times = timed_loop(args.seconds, || {
        let suite = Suite::run(&cfg, false);
        let doc = format!("{}\n", suite_metrics_json(&suite));
        attempted += n;
        latency.extend(suite.runs.iter().map(|r| r.elapsed_ns as f64 / 1e6));
        let now = store_files(&store);
        let replayed = now == recorded;
        recorded = now;
        if doc == reference && replayed {
            failed += suite.failures.len() as u64;
        } else {
            failed += n;
        }
        mismatched += u64::from(doc != reference);
        rewritten += u64::from(!replayed);
        Ok(())
    })?;
    out.peak_rss_mb = crate::peak_rss_mb();
    out.untraced = Phase {
        iter_insts: vec![per_iter; times.len()],
        iter_s: times,
        latency_ms: latency,
    };
    out.attempted = attempted;
    out.failed = failed;
    let what = "replayed metrics document byte-identical to the set-up recording's";
    out.checks.push(if mismatched == 0 {
        Check::ok(what)
    } else {
        Check::fail(what, format!("{mismatched} iteration(s) differ"))
    });
    let what = "every iteration replayed from the store without writing to it";
    out.checks.push(if rewritten == 0 {
        Check::ok(what)
    } else {
        Check::fail(what, format!("{rewritten} iteration(s) changed the store"))
    });

    if let Some(tr) = tracer {
        traced_setup(tr, &cfg, &args.work, &store, &reference, &mut out)?;
        let mut docs_ok = true;
        let times = timed_loop(args.seconds, || {
            let doc = traced_replay(tr, &cfg, &store)?;
            docs_ok &= doc == reference;
            Ok(())
        })?;
        out.checks.push(if docs_ok {
            Check::ok("traced replay renders the untraced metrics document")
        } else {
            Check::fail(
                "traced replay renders the untraced metrics document",
                "documents differ".into(),
            )
        });
        tr.span("store.lookup_all", 0, 0, |_| {
            TraceCache::new(store.clone()).lookup_all()
        });
        out.traced = Some(Phase {
            iter_insts: vec![per_iter; times.len()],
            iter_s: times,
            latency_ms: Vec::new(),
        });
    }
    Ok(out)
}

/// Each trace entry of a store directory with its length, inode and
/// modification time. Recording an entry again writes a new file and
/// renames it into place, which changes the inode even when the bytes
/// are the same. The manifest and journal are left out: every open of
/// the store rewrites them.
fn store_files(dir: &Path) -> BTreeMap<String, (u64, u64, i64, i64)> {
    let mut files = BTreeMap::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let (true, Ok(m)) = (name.ends_with(".dcgact"), e.metadata()) {
                files.insert(name, (m.len(), m.ino(), m.mtime(), m.mtime_nsec()));
            }
        }
    }
    files
}

/// The store identity and file key of one benchmark's recording.
fn identity(cfg: &ExperimentConfig, profile: BenchmarkProfile) -> (EntryIdentity, u64) {
    let l = cfg.length;
    (
        EntryIdentity::current(
            cfg.sim.digest(),
            profile.name,
            cfg.seed,
            l.warmup_insts,
            l.measure_insts,
        ),
        TraceCache::key(&cfg.sim, profile.name, cfg.seed, l),
    )
}

/// Set-up as a chain of public calls: simulate with the public trace
/// writer riding the pass, then insert into a fresh store. Checks that
/// the entries match the untraced set-up's byte for byte.
fn traced_setup(
    tr: &Tracer,
    cfg: &ExperimentConfig,
    work: &Path,
    untraced_store: &Path,
    reference: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = work.join("store-traced");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = tr.span("store.open", 0, 0, |_| {
        let c = TraceCache::new(dir.clone());
        c.ensure_open();
        c
    });
    let groups = LatchGroups::new(&cfg.sim.depth).len();
    let runs = tr.span("suite.pool", 0, 0, |pool_id| {
        run_sharded_with(WORKERS, cfg.benchmarks.len(), |i| {
            let task = i as u64 + 1;
            let profile = cfg.benchmarks[i];
            tr.span("setup.task", pool_id, task, |id| {
                let started = Instant::now();
                let l = cfg.length;
                let header = ActivityHeader::new(
                    profile.name,
                    cfg.sim.digest(),
                    cfg.seed,
                    l.warmup_insts,
                    l.measure_insts,
                    groups,
                )
                .expect("activity header for a Spec2000 name");
                let writer =
                    ActivityTraceWriter::new(Vec::new(), &header).expect("in-memory header write");
                let mut rec = RecorderProbe::new(writer);
                let (mut run, metrics) =
                    traced_live_passive(tr, id, task, cfg, profile, Some(&mut rec));
                let bytes = tr.span("trace.encode", id, task, |_| rec.finish());
                tr.count("trace.cycles", task, rec.acc.n as f64);
                let inserted = bytes.map(|b| {
                    tr.count("trace.bytes", task, b.len() as f64);
                    let (ident, key) = identity(cfg, profile);
                    tr.span("store.insert", id, task, |_| {
                        cache.store().insert(&ident, key, &b)
                    });
                });
                let dcg = run.outcomes.remove(1);
                let baseline = run.outcomes.remove(0);
                (
                    inserted.is_some(),
                    BenchmarkRun {
                        profile,
                        elapsed_ns: ns_since(started),
                        baseline: baseline.report,
                        dcg,
                        plb_orig: None,
                        plb_ext: None,
                        stats: run.stats,
                        metrics,
                    },
                )
            })
        })
    });
    let encoded = runs.iter().all(|(ok, _)| *ok);
    let suite = Suite {
        runs: runs.into_iter().map(|(_, r)| r).collect(),
        failures: Vec::new(),
        wall_ns: 0,
    };
    let doc = tr.span("experiments.render", 0, 0, |_| {
        format!("{}\n", suite_metrics_json(&suite))
    });
    out.checks.push(same_bytes(
        "traced recording renders the untraced metrics document",
        doc.as_bytes(),
        reference.as_bytes(),
    ));
    let untraced = TraceCache::new(untraced_store.to_path_buf());
    let mut same = encoded;
    for p in &cfg.benchmarks {
        let read = |c: &TraceCache| {
            std::fs::read(c.entry_path_for(&cfg.sim, p.name, cfg.seed, cfg.length)).ok()
        };
        same &= read(&cache).is_some() && read(&cache) == read(&untraced);
    }
    out.checks.push(if same {
        Check::ok("traced recording writes the untraced trace entries byte for byte")
    } else {
        Check::fail(
            "traced recording writes the untraced trace entries byte for byte",
            "entries differ".into(),
        )
    });
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// One replay iteration as a chain of public calls: open the store,
/// fetch each entry, open a reader on it, drive the replay with block
/// decode, render the metrics document.
fn traced_replay(tr: &Tracer, cfg: &ExperimentConfig, store: &Path) -> Result<String, String> {
    let cache = tr.span("store.open", 0, 0, |_| {
        let c = TraceCache::new(store.to_path_buf());
        c.ensure_open();
        c
    });
    let runs = tr.span("suite.pool", 0, 0, |pool_id| {
        tr.count("suite.workers", 0, WORKERS as f64);
        run_sharded_with(WORKERS, cfg.benchmarks.len(), |i| {
            let task = i as u64 + 1;
            let profile = cfg.benchmarks[i];
            tr.span("suite.task", pool_id, task, |id| {
                replay_benchmark(tr, id, task, cfg, &cache, profile)
            })
        })
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let health = cache.health();
    if health.store_failures + health.replay_failures + health.evict_failures > 0 {
        return Err(format!("trace store reported failures: {health:?}"));
    }
    let suite = Suite {
        runs,
        failures: Vec::new(),
        wall_ns: 0,
    };
    Ok(tr.span("experiments.render", 0, 0, |_| {
        format!("{}\n", suite_metrics_json(&suite))
    }))
}

fn replay_benchmark(
    tr: &Tracer,
    parent: u64,
    task: u64,
    cfg: &ExperimentConfig,
    cache: &TraceCache,
    profile: BenchmarkProfile,
) -> Result<BenchmarkRun, String> {
    let started = Instant::now();
    let (ident, _) = identity(cfg, profile);
    let data = tr.span("store.fetch", parent, task, |_| {
        cache.store().fetch_data(&ident)
    });
    tr.count(
        "store.fetch.hits",
        task,
        f64::from(u8::from(data.is_some())),
    );
    tr.count("store.fetch.attempts", task, 1.0);
    let data = data.ok_or_else(|| format!("{}: store miss on a recorded entry", profile.name))?;
    let bytes = data.len();
    let reader = tr.span("trace.open", parent, task, |_| {
        let r = ActivityTraceReader::from_data(data).ok()?;
        let h = r.header();
        let ok =
            h.name == profile.name && h.seed == cfg.seed && h.config_digest == cfg.sim.digest();
        (ok && r.verified_totals().is_some()).then_some(r)
    });
    let reader =
        reader.ok_or_else(|| format!("{}: stored entry failed validation", profile.name))?;
    let mut replay = ReplaySource::new(reader);
    let (run, metrics) = tr.span("core.drive", parent, task, |drive| {
        let mut src = TimedSource::new(&mut replay);
        let out = traced_passive(tr, drive, task, cfg, &mut src, None);
        tr.agg("trace.decode", drive, task, src.acc);
        tr.count("trace.decode.cycles", task, src.acc.n as f64);
        tr.count("trace.decode.bytes", task, bytes as f64);
        tr.count("core.drive.cycles", task, src.acc.n as f64);
        out
    });
    let mut run = run.map_err(|e| format!("{}: replay failed: {e}", profile.name))?;
    let dcg = run.outcomes.remove(1);
    let baseline = run.outcomes.remove(0);
    Ok(BenchmarkRun {
        profile,
        elapsed_ns: ns_since(started),
        baseline: baseline.report,
        dcg,
        plb_orig: None,
        plb_ext: None,
        stats: run.stats,
        metrics,
    })
}
