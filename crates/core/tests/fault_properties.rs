//! Property tests for the fault-injection surface (DESIGN.md §11):
//! corrupted and truncated activity traces must surface *named* errors —
//! never a panic, never silently different results — the fault plan must
//! replay bit-identically from its seed, and the safety checker's screen
//! must leave every gate covering its cycle's activity.
//!
//! Runs at `DCG_PROPTEST_CASES=256` in CI's extended property step.

use std::path::PathBuf;

use dcg_core::{
    run_passive_with_sinks, Dcg, FaultPlan, FaultPoint, GatingSafetyChecker, PolicyOutcome,
    ReplaySource, RunLength, TraceCache,
};
use dcg_isa::FuClass;
use dcg_power::{Component, GateState};
use dcg_sim::{ActivityBlock, CycleActivity, LatchGroups, SimConfig};
use dcg_testkit::prop;
use dcg_trace::ActivityTraceReader;
use dcg_workloads::Spec2000;

const SEED: u64 = 7;

fn short() -> RunLength {
    RunLength {
        warmup_insts: 100,
        measure_insts: 400,
    }
}

/// Record one cache entry for gzip at [`short`] length and return the
/// cache plus the entry's path and bytes.
fn recorded_entry(tag: &str) -> (TraceCache, SimConfig, PathBuf, Vec<u8>) {
    let cfg = SimConfig::baseline_8wide();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("fault-properties")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TraceCache::new(dir);
    let groups = LatchGroups::new(&cfg.depth);
    let mut dcg = Dcg::new(&cfg, &groups);
    let profile = Spec2000::by_name("gzip").unwrap();
    cache
        .run_passive_cached(&cfg, profile, SEED, short(), &mut [&mut dcg])
        .expect("a cold cached run simulates live and cannot fail");
    let path = cache.entry_path_for(&cfg, "gzip", SEED, short());
    let bytes = std::fs::read(&path).expect("the cold run stored an entry");
    (cache, cfg, path, bytes)
}

/// Every number a [`PolicyOutcome`] accumulates, by bit pattern.
fn outcome_bits(o: &PolicyOutcome) -> Vec<u64> {
    let mut v = vec![o.report.cycles(), o.report.committed()];
    v.extend(
        Component::ALL
            .iter()
            .map(|c| o.report.component_pj(*c).to_bits()),
    );
    v
}

/// Replay `bytes` through a fresh DCG policy, if they decode at all.
fn replay_bits(cfg: &SimConfig, bytes: &[u8]) -> Option<Vec<u64>> {
    let reader = ActivityTraceReader::new(bytes).ok()?;
    let groups = LatchGroups::new(&cfg.depth);
    let mut dcg = Dcg::new(cfg, &groups);
    let mut source = ReplaySource::new(reader);
    let mut run =
        run_passive_with_sinks(cfg, &mut source, short(), &mut [&mut dcg], &mut []).ok()?;
    Some(outcome_bits(&run.outcomes.remove(0)))
}

/// Decoding any truncated prefix of a recorded activity trace either
/// fails with a named [`TraceError`](dcg_trace::TraceError) or stops at
/// a clean end-of-trace — it never panics, and a truncated trace never
/// reports verified totals.
#[test]
fn truncated_trace_decode_never_panics() {
    let (_cache, _cfg, _path, bytes) = recorded_entry("truncate");
    let len = bytes.len() as u64;
    prop::check("truncated_trace_decode", 0u64..len, |cut| {
        let prefix = &bytes[..cut as usize];
        match ActivityTraceReader::new(prefix) {
            Err(_) => {} // named error at construction
            Ok(mut reader) => {
                assert!(
                    reader.verified_totals().is_none(),
                    "a truncated trace must never verify its totals"
                );
                let mut block = ActivityBlock::new(reader.header().groups as usize);
                // Drain until a clean EOF (Ok(false)) or a named error.
                while let Ok(true) = reader.read_block(&mut block) {}
            }
        }
    });
}

/// Flip any single bit in the tail of a stored cache entry (records and
/// trailer): the cache either rejects the entry (`replay_source` → `None`
/// after validation, or a named error mid-replay) or the replay is
/// bit-identical to the intact entry — corruption never silently changes
/// results.
#[test]
fn corrupted_cache_entry_is_rejected_or_bit_identical() {
    let (cache, cfg, path, clean) = recorded_entry("corrupt");
    let clean_bits = replay_bits(&cfg, &clean).expect("the intact entry replays");
    // Stay clear of the header: its length is not part of this crate's
    // contract. The last 4 KiB cover plenty of records plus the whole
    // 40-byte trailer (magic, totals, record length, checksum).
    let tail = (clean.len() as u64).min(4_096);
    prop::check(
        "corrupted_cache_entry",
        prop::tuple((1u64..=tail, 0u32..8)),
        |(back, bit)| {
            let at = clean.len() - back as usize;
            let mut corrupt = clean.clone();
            corrupt[at] ^= 1 << bit;
            std::fs::write(&path, &corrupt).expect("rewrite the entry");

            let outcome = match cache.replay_source(&cfg, "gzip", SEED, short()) {
                None => None, // validation rejected (and evicted) the entry
                Some(mut source) => {
                    let groups = LatchGroups::new(&cfg.depth);
                    let mut dcg = Dcg::new(&cfg, &groups);
                    run_passive_with_sinks(&cfg, &mut source, short(), &mut [&mut dcg], &mut [])
                        .ok()
                        .map(|mut run| outcome_bits(&run.outcomes.remove(0)))
                }
            };
            // Validation may have deleted the entry; always restore it.
            std::fs::write(&path, &clean).expect("restore the entry");

            if let Some(bits) = outcome {
                assert_eq!(
                    bits, clean_bits,
                    "a corrupt entry that passes validation (byte {at}, bit {bit}) \
                     must replay bit-identically"
                );
            }
        },
    );
}

/// A [`FaultPlan`] is a pure function of its seed: two expansions agree
/// fault for fault, ids count up from zero, every point is covered once
/// per round of [`FaultPoint::COUNT`], and sub-seeds derive from the
/// campaign seed alone.
#[test]
fn fault_plan_replays_bit_identically_and_covers_every_point() {
    prop::check(
        "fault_plan_determinism",
        prop::tuple((0u64..1 << 48, FaultPoint::COUNT as u32..64)),
        |(seed, n)| {
            let a = FaultPlan::generate(seed, n);
            let b = FaultPlan::generate(seed, n);
            assert_eq!(a.faults.len(), n as usize);
            for (x, y) in a.faults.iter().zip(&b.faults) {
                assert_eq!((x.id, x.point, x.seed), (y.id, y.point, y.seed));
            }
            for (i, f) in a.faults.iter().enumerate() {
                assert_eq!(f.id as usize, i, "ids count up from zero");
                assert_eq!(
                    f.point,
                    FaultPoint::ALL[i % FaultPoint::COUNT],
                    "points round-robin over ALL"
                );
            }
        },
    );
}

/// After [`GatingSafetyChecker::screen`], the gate covers the cycle's
/// activity for every hazard class — whatever the policy claimed — and a
/// gate that already covers it passes through a fresh checker untouched.
#[test]
fn screen_always_repairs_the_gate_to_cover_activity() {
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let ungated = GateState::ungated(&cfg, &groups);
    let glen = groups.len();
    prop::check(
        "screen_repairs_gate",
        prop::tuple((
            prop::vec(0u64..1 << 32, 7usize..=7),
            prop::vec(0u64..64, glen..=glen),
            prop::vec(0u64..64, glen..=glen),
        )),
        |(draws, slot_draws, occ_draws)| {
            // An arbitrary (possibly unsafe) gate, clamped to real hardware.
            let mut gate = ungated.clone();
            for (i, d) in draws.iter().take(FuClass::COUNT).enumerate() {
                gate.fu_powered[i] &= *d as u32;
            }
            gate.dcache_ports_powered &= draws[5] as u32;
            gate.result_buses_powered = draws[6] as u32 % (ungated.result_buses_powered + 1);
            for (slot, d) in gate.latch_slots.iter_mut().zip(&slot_draws) {
                *slot = if *d == 0 { None } else { Some(*d as u32 - 1) };
            }
            // Arbitrary activity within the machine's real resources.
            let mut act = CycleActivity {
                cycle: 100,
                latch_occupancy: occ_draws.iter().map(|o| *o as u32).collect(),
                ..CycleActivity::default()
            };
            for (i, d) in draws.iter().take(FuClass::COUNT).enumerate() {
                act.fu_active[i] = (*d >> 32) as u32 & ungated.fu_powered[i];
            }
            act.dcache_port_mask = (draws[5] >> 32) as u32 & ungated.dcache_ports_powered;
            act.result_bus_used = (draws[6] >> 32) as u32 % (ungated.result_buses_powered + 1);

            // A covering gate passes through untouched.
            let mut covering = ungated.clone();
            let mut chk = GatingSafetyChecker::new(&cfg, &groups);
            assert_eq!(chk.screen(&mut covering, &act), 0);
            assert_eq!(covering, ungated, "a safe cycle must not alter the gate");

            // Any gate comes out covering the activity.
            let mut chk = GatingSafetyChecker::new(&cfg, &groups);
            let detected = chk.screen(&mut gate, &act);
            for c in FuClass::ALL {
                assert_eq!(
                    act.fu_active[c.index()] & !gate.fu_powered[c.index()],
                    0,
                    "{c:?} must be powered wherever used"
                );
            }
            assert_eq!(act.dcache_port_mask & !gate.dcache_ports_powered, 0);
            assert!(act.result_bus_used <= gate.result_buses_powered);
            for (slot, occ) in gate.latch_slots.iter().zip(&act.latch_occupancy) {
                if let Some(n) = slot {
                    assert!(occ <= n, "latch slots must cover occupancy");
                }
            }
            let report = chk.into_report();
            assert_eq!(u64::from(detected), report.total_detected());
        },
    );
}
