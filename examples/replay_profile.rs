//! Scratch probe: warm-replay cost breakdown (decode vs stats vs energy).

use dcg_core::{run_passive_with_sinks, NoGating, ReplaySource, RunLength, TraceCache};
use dcg_sim::{LatchGroups, SimConfig};
use dcg_trace::ActivityTraceReader;
use dcg_workloads::{Spec2000, SyntheticWorkload};
use std::time::Instant;

fn main() {
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let profile = Spec2000::by_name("gzip").unwrap();
    let length = RunLength::standard();
    let dir = std::path::PathBuf::from("target/tmp/replay-profile");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TraceCache::new(dir.clone());

    // Cold run to populate.
    let mut base = NoGating::new(&cfg, &groups);
    let run = cache
        .run_passive_cached(&cfg, profile, 1, length, &mut [&mut base])
        .unwrap();
    eprintln!("trace cycles: {}", run.stats.cycles);
    let entry = cache.entry_path_for(&cfg, profile.name, 1, length);
    let bytes = std::fs::read(&entry).unwrap();
    eprintln!("trace bytes: {}", bytes.len());

    let time = |label: &str, iters: u32, mut f: Box<dyn FnMut()>| {
        f(); // warm
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos() as u64 / u64::from(iters);
        eprintln!("{label}: {:.3} ms", ns as f64 / 1e6);
    };

    // (a) current warm path: NoGating policy + stats.
    {
        let cfg = cfg.clone();
        let groups = groups.clone();
        let cache = cache.clone();
        time(
            "warm full (NoGating+stats)",
            5,
            Box::new(move || {
                let mut p = NoGating::new(&cfg, &groups);
                let r = cache
                    .run_passive_cached(&cfg, profile, 1, length, &mut [&mut p])
                    .unwrap();
                std::hint::black_box(r.stats.cycles);
            }),
        );
    }

    // (b) stats only (blockwise fold, no policies).
    {
        let cfg = cfg.clone();
        let cache = cache.clone();
        time(
            "warm stats-only (blocks)",
            5,
            Box::new(move || {
                let mut src =
                    TraceCache::source(Some(&cache), &cfg, profile.name, 1, length, || {
                        SyntheticWorkload::new(profile, 1)
                    });
                let run = run_passive_with_sinks(&cfg, &mut src, length, &mut [], &mut []);
                std::hint::black_box(src.finish(run).unwrap().stats.cycles);
            }),
        );
    }

    // (c) decode only: open (checksum) + scan.
    {
        let bytes = bytes.clone();
        time(
            "open+scan (checksum + decode)",
            5,
            Box::new(move || {
                let mut r = ActivityTraceReader::new(&bytes[..]).unwrap();
                std::hint::black_box(r.scan().unwrap());
            }),
        );
    }

    // (d) open only (header + whole-file checksum).
    {
        let bytes = bytes.clone();
        time(
            "open only (checksum)",
            20,
            Box::new(move || {
                let r = ActivityTraceReader::new(&bytes[..]).unwrap();
                std::hint::black_box(r.verified_totals());
            }),
        );
    }

    // (e) file read only.
    {
        time(
            "fs::read only",
            20,
            Box::new(move || {
                std::hint::black_box(std::fs::read(&entry).unwrap().len());
            }),
        );
    }

    // (f) replay source next_cycle loop (decode via ReplaySource, no sinks).
    {
        let bytes = bytes.clone();
        time(
            "next_cycle loop (no sinks)",
            5,
            Box::new(move || {
                let mut src = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).unwrap());
                use dcg_core::ActivitySource;
                while src.committed() < 350_000 {
                    src.next_cycle().unwrap();
                }
                std::hint::black_box(src.cycle());
            }),
        );
    }

    // (g) block decode loop (SoA path, no sinks).
    {
        let bytes = bytes.clone();
        time(
            "next_block loop (no sinks)",
            5,
            Box::new(move || {
                let mut src = ReplaySource::new(ActivityTraceReader::new(&bytes[..]).unwrap());
                use dcg_core::ActivitySource;
                while src.committed() < 350_000 {
                    src.next_block().unwrap();
                }
                std::hint::black_box(src.cycle());
            }),
        );
    }
}
