//! `live_suite`: the 18 Spec2000 profiles at standard length, trace
//! cache off, each run as baseline + DCG plus PLB-orig and PLB-ext — the
//! suite behind `repro fig10 fig11`.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use dcg_core::{
    run_active_source, run_passive_with_sinks, run_sharded_with, ActivitySink, ActivitySource, Dcg,
    DcgError, GatingPolicy, MetricsReport, MetricsSink, NoGating, PassiveRun, Plb, PlbVariant,
    PolicyOutcome,
};
use dcg_experiments::{fig10, fig11, BenchmarkRun, ExperimentConfig, FigureTable, Suite};
use dcg_sim::{BranchPredictor, CacheHierarchy, LatchGroups, Processor};
use dcg_workloads::{BenchmarkProfile, InstStream, SyntheticWorkload};

use crate::out::{Check, Outcome, Phase};
use crate::tracer::{
    ns_since, Acc, FoldProbe, RecorderProbe, TimedPolicy, TimedSink, TimedSource, TimedStream,
    Tracer,
};
use crate::{same_bytes, timed_loop, Args, WORKERS};

/// The seed the committed `results/figure-10.csv` and `figure-11.csv`
/// were produced with (`ExperimentConfig::standard().seed`).
const DEFAULT_SEED: u64 = 42;

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    std::env::set_var("DCG_TRACE_CACHE", "off");
    let mut cfg = ExperimentConfig::standard();
    cfg.seed = args.seed;
    let mut out = Outcome::default();

    // Set-up: load the reference tables and let lazy set-up finish (code
    // pages, allocator) with a quick-length suite at the default seed, so
    // every seed sets up the same work. It is short, so seven repetitions
    // steady its median.
    let mut reference = None;
    for _ in 0..7 {
        let t = Instant::now();
        reference = committed_tables(args.seed)?;
        let quick = ExperimentConfig::quick();
        let s = Suite::run(&quick, true);
        if !s.failures.is_empty() {
            return Err("quick warm-up suite lost benchmarks".into());
        }
        std::hint::black_box(fig10(&s));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }

    let per_iter = suite_insts(&cfg, true);
    let n = cfg.benchmarks.len() as u64;
    let mut first: Option<[Vec<u8>; 2]> = None;
    let mut mismatched_iters = 0;
    let mut latency = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let times = timed_loop(args.seconds, || {
        let suite = Suite::run(&cfg, true);
        let tables = render(&suite, &args.work)?;
        attempted += n;
        latency.extend(suite.runs.iter().map(|r| r.elapsed_ns as f64 / 1e6));
        let want = reference.as_ref().or(first.as_ref()).unwrap_or(&tables);
        let bad = bad_benchmarks(&suite, &tables, want);
        failed += bad.min(n);
        mismatched_iters += u64::from(bad > 0);
        if first.is_none() {
            first = Some(tables);
        }
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
    let what = if reference.is_some() {
        "tables byte-identical to the committed results/figure-1{0,1}.csv"
    } else {
        "tables identical from iteration to iteration"
    };
    out.checks.push(if mismatched_iters == 0 {
        Check::ok(what)
    } else {
        Check::fail(what, format!("{mismatched_iters} iteration(s) differ"))
    });

    if let Some(tr) = tracer {
        let first = first.expect("at least one iteration ran");
        let mut traced_tables = None;
        let times = timed_loop(args.seconds, || {
            let tables = traced_iteration(tr, &cfg, &args.work)?;
            traced_tables.get_or_insert(tables);
            Ok(())
        })?;
        let traced_tables = traced_tables.expect("at least one traced iteration ran");
        out.checks.push(same_bytes(
            "traced figure-10 equals untraced",
            &traced_tables[0],
            &first[0],
        ));
        out.checks.push(same_bytes(
            "traced figure-11 equals untraced",
            &traced_tables[1],
            &first[1],
        ));
        out.traced = Some(Phase {
            iter_insts: vec![per_iter; times.len()],
            iter_s: times,
            latency_ms: Vec::new(),
        });
        for (i, p) in cfg.benchmarks.iter().enumerate() {
            probe_cache_and_bpred(tr, &cfg, *p, i as u64 + 1);
        }
    }
    Ok(out)
}

/// Committed simulated instructions one suite iteration processes
/// (warm-up included): one passive pass per benchmark, plus the two PLB
/// runs when `with_plb`.
pub fn suite_insts(cfg: &ExperimentConfig, with_plb: bool) -> u64 {
    let sims = if with_plb { 3 } else { 1 };
    cfg.benchmarks.len() as u64 * sims * (cfg.length.warmup_insts + cfg.length.measure_insts)
}

/// The committed tables, when `seed` is the one they were produced with.
fn committed_tables(seed: u64) -> Result<Option<[Vec<u8>; 2]>, String> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    let read = |p: &str| std::fs::read(p).map_err(|e| format!("cannot read {p}: {e}"));
    Ok(Some([
        read("results/figure-10.csv")?,
        read("results/figure-11.csv")?,
    ]))
}

/// Figures 10 and 11 as `repro fig10 fig11` writes them.
fn render(suite: &Suite, work: &Path) -> Result<[Vec<u8>; 2], String> {
    let csv = |t: FigureTable| -> Result<Vec<u8>, String> {
        let t = FigureTable::average(&[t]);
        let path = work.join(format!("{}.csv", t.id));
        t.write_csv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    Ok([csv(fig10(suite))?, csv(fig11(suite))?])
}

/// Benchmarks whose run failed or whose row differs from `want` in
/// either table.
fn bad_benchmarks(suite: &Suite, got: &[Vec<u8>; 2], want: &[Vec<u8>; 2]) -> u64 {
    let mut bad: BTreeSet<String> = suite.failures.iter().map(|f| f.name.clone()).collect();
    for (g, w) in got.iter().zip(want) {
        let g = String::from_utf8_lossy(g);
        let w = String::from_utf8_lossy(w);
        let rows = |s: &str| -> Vec<String> { s.lines().map(str::to_string).collect() };
        let (g, w) = (rows(&g), rows(&w));
        for i in 0..g.len().max(w.len()) {
            if g.get(i) != w.get(i) {
                let line = g.get(i).or(w.get(i)).expect("one side has the row");
                bad.insert(line.split(',').next().unwrap_or_default().to_string());
            }
        }
    }
    bad.len() as u64
}

/// One suite iteration as a chain of public calls, with spans.
fn traced_iteration(
    tr: &Tracer,
    cfg: &ExperimentConfig,
    work: &Path,
) -> Result<[Vec<u8>; 2], String> {
    let runs = tr.span("suite.pool", 0, 0, |pool_id| {
        tr.count("suite.workers", 0, WORKERS as f64);
        run_sharded_with(WORKERS, cfg.benchmarks.len(), |i| {
            let task = i as u64 + 1;
            tr.span("suite.task", pool_id, task, |id| {
                traced_benchmark(tr, id, task, cfg, cfg.benchmarks[i], true)
            })
        })
    });
    let suite = Suite {
        runs,
        failures: Vec::new(),
        wall_ns: 0,
    };
    tr.span("experiments.render", 0, 0, |_| render(&suite, work))
}

/// `Suite::run_one` for one benchmark, trace cache off, through timed
/// wrappers.
fn traced_benchmark(
    tr: &Tracer,
    parent: u64,
    task: u64,
    cfg: &ExperimentConfig,
    profile: BenchmarkProfile,
    with_plb: bool,
) -> BenchmarkRun {
    let started = Instant::now();
    let (mut run, metrics) = traced_live_passive(tr, parent, task, cfg, profile, None);
    let dcg = run.outcomes.remove(1);
    let baseline = run.outcomes.remove(0);
    let (plb_orig, plb_ext) = if with_plb {
        (
            Some(traced_active(
                tr,
                parent,
                task,
                cfg,
                profile,
                PlbVariant::Orig,
            )),
            Some(traced_active(
                tr,
                parent,
                task,
                cfg,
                profile,
                PlbVariant::Ext,
            )),
        )
    } else {
        (None, None)
    };
    BenchmarkRun {
        profile,
        elapsed_ns: ns_since(started),
        baseline: baseline.report,
        dcg,
        plb_orig,
        plb_ext,
        stats: run.stats,
        metrics,
    }
}

/// The passive pass of a live simulation: `Processor::new`, then
/// `run_passive_with_sinks` over the timed pipeline. With a recorder,
/// this is the recording run of a trace-cache miss.
pub fn traced_live_passive(
    tr: &Tracer,
    parent: u64,
    task: u64,
    cfg: &ExperimentConfig,
    profile: BenchmarkProfile,
    recorder: Option<&mut RecorderProbe>,
) -> (PassiveRun, MetricsReport) {
    let mut cpu = tr.span("sim.new", parent, task, |_| {
        Processor::new(
            cfg.sim.clone(),
            TimedStream::new(SyntheticWorkload::new(profile, cfg.seed)),
        )
    });
    let out = tr.span("core.drive", parent, task, |drive| {
        let mut src = TimedSource::new(&mut cpu);
        let out = traced_passive(tr, drive, task, cfg, &mut src, recorder);
        let step = tr.agg("sim.step", drive, task, src.acc);
        tr.count("sim.cycles", task, src.acc.n as f64);
        tr.count("core.drive.cycles", task, src.acc.n as f64);
        tr.count("sim.commits", task, src.committed() as f64);
        (out, step)
    });
    let ((run, metrics), step) = out;
    tr.agg("workloads.gen", step, task, cpu.stream().acc);
    (run.expect("a live simulation source cannot fail"), metrics)
}

/// `run_passive_with_sinks` with the baseline and DCG policies, the
/// metrics sink and the energy-fold probe, each timed; aggregates go
/// under `drive`.
pub fn traced_passive(
    tr: &Tracer,
    drive: u64,
    task: u64,
    cfg: &ExperimentConfig,
    src: &mut dyn ActivitySource,
    mut recorder: Option<&mut RecorderProbe>,
) -> (Result<PassiveRun, DcgError>, MetricsReport) {
    let groups = LatchGroups::new(&cfg.sim.depth);
    let mut baseline = TimedPolicy::new(NoGating::new(&cfg.sim, &groups));
    let mut dcg = TimedPolicy::new(Dcg::new(&cfg.sim, &groups));
    let mut probe = Dcg::new(&cfg.sim, &groups);
    let mut metrics = TimedSink::new(MetricsSink::new(&mut probe, &cfg.sim, &groups));
    let mut fold = FoldProbe::new(&cfg.sim, &groups);
    let run = {
        let policies: &mut [&mut dyn GatingPolicy] = &mut [&mut baseline, &mut dcg];
        let mut extra: Vec<&mut dyn ActivitySink> = vec![&mut metrics, &mut fold];
        if let Some(r) = recorder.as_deref_mut() {
            extra.push(r);
        }
        run_passive_with_sinks(&cfg.sim, src, cfg.length, policies, &mut extra)
    };
    if let Some(r) = &recorder {
        tr.agg("trace.encode", drive, task, r.acc);
    }
    tr.agg("core.nogating.gate", drive, task, baseline.acc);
    tr.agg("core.dcg.gate", drive, task, dcg.acc);
    tr.agg("core.metrics_sink", drive, task, metrics.acc);
    let fold_total = tr.agg("probe.fold", drive, task, fold.total);
    tr.agg("power.fold", fold_total, task, fold.fold);
    (run, metrics.inner.into_report())
}

/// One PLB run (`run_active`) through timed wrappers.
fn traced_active(
    tr: &Tracer,
    parent: u64,
    task: u64,
    cfg: &ExperimentConfig,
    profile: BenchmarkProfile,
    variant: PlbVariant,
) -> PolicyOutcome {
    tr.span("core.run_active", parent, task, |id| {
        let groups = LatchGroups::new(&cfg.sim.depth);
        let mut plb = TimedPolicy::new(Plb::new(variant, &cfg.sim, &groups));
        let mut cpu = tr.span("sim.new", id, task, |_| {
            Processor::new(
                cfg.sim.clone(),
                TimedStream::new(SyntheticWorkload::new(profile, cfg.seed)),
            )
        });
        let mut src = TimedSource::new(&mut cpu);
        let out = run_active_source(&cfg.sim, &mut src, cfg.length, &mut plb)
            .expect("a live simulation source cannot fail");
        let step = tr.agg("sim.step", id, task, src.acc);
        tr.count("sim.cycles", task, src.acc.n as f64);
        tr.count("sim.commits", task, src.committed() as f64);
        tr.agg("core.plb.gate", id, task, plb.acc);
        tr.agg("workloads.gen", step, task, cpu.stream().acc);
        out
    })
}

/// Drive a fresh D-cache hierarchy and branch predictor over the
/// benchmark's own reference and branch streams (one passive pass's
/// worth of instructions), timing the loops.
fn probe_cache_and_bpred(
    tr: &Tracer,
    cfg: &ExperimentConfig,
    profile: BenchmarkProfile,
    task: u64,
) {
    let mut wl = SyntheticWorkload::new(profile, cfg.seed);
    let n = cfg.length.warmup_insts + cfg.length.measure_insts;
    let mut addrs = Vec::new();
    let mut branches = Vec::new();
    for _ in 0..n {
        let inst = wl.next_inst();
        if let Some(m) = inst.mem {
            addrs.push(m.addr);
        }
        if let Some(b) = inst.branch {
            branches.push((inst.pc, b));
        }
    }
    let mut dcache = CacheHierarchy::new(cfg.sim.dcache, cfg.sim.l2, cfg.sim.mem_latency);
    if cfg.sim.dcache_next_line_prefetch {
        dcache = dcache.with_next_line_prefetch();
    }
    let t = Instant::now();
    let mut hits = 0u64;
    for (i, a) in addrs.iter().enumerate() {
        hits += u64::from(!dcache.access(*a, i as u64).l1_miss);
    }
    tr.agg(
        "sim.cache",
        0,
        task,
        Acc {
            ns: ns_since(t),
            n: addrs.len() as u64,
        },
    );
    tr.count("sim.cache.l1d_hits", task, hits as f64);

    let mut bp = BranchPredictor::new(&cfg.sim.bpred);
    let t = Instant::now();
    let mut correct = 0u64;
    for (pc, b) in &branches {
        correct += u64::from(!bp.predict_and_update(*pc, *b).1);
    }
    tr.agg(
        "sim.bpred",
        0,
        task,
        Acc {
            ns: ns_since(t),
            n: branches.len() as u64,
        },
    );
    tr.count("sim.bpred.hits", task, correct as f64);
}
