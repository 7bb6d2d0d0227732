//! Behaviour fingerprint of the pipeline: every field of every cycle's
//! [`CycleActivity`] folded into one FNV-1a digest per run.
//!
//! The goldens check what the power model and the figures make of the
//! activity stream; this checks the stream itself, so a change to the
//! simulator's internals (issue select, LSQ lookup, MSHR bookkeeping)
//! that moves any grant, any latch slot or any cycle's counters fails
//! here by name, even where the figures would round it away. The pinned
//! digests were taken from the simulator before its issue stage and LSQ
//! became event-driven; a deliberate timing change must re-pin them and
//! say why.

use dcg_isa::FuClass;
use dcg_sim::{
    CycleActivity, FuSelectPolicy, Processor, ResourceConstraints, SimConfig, StoreTiming,
};
use dcg_workloads::{Spec2000, SyntheticWorkload};

const COMMITS: u64 = 30_000;
const BENCHES: [&str; 4] = ["gzip", "mcf", "swim", "art"];
const SEED: u64 = 42;

/// FNV-1a over the little-endian bytes of every folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for v in vs {
            self.word(v);
            n += 1;
        }
        self.word(n); // length-delimit variable fields
    }
}

fn fold(h: &mut Fnv, a: &CycleActivity) {
    // Exhaustive destructuring (no `..`): a new field fails to compile
    // here until it is part of the fingerprint.
    let CycleActivity {
        cycle,
        fetched,
        renamed,
        dispatched,
        issued,
        issued_fp,
        issued_loads,
        issued_stores,
        committed,
        fu_active,
        dcache_port_mask,
        dcache_load_accesses,
        dcache_store_accesses,
        dcache_misses,
        l2_accesses,
        icache_access,
        icache_miss,
        bpred_lookups,
        bpred_mispredicts,
        regfile_reads,
        regfile_writes,
        result_bus_used,
        latch_occupancy,
        grants,
        decode_ready_next,
        iq_occupancy,
        rob_occupancy,
        lsq_occupancy,
        store_ports_next,
        result_bus_in_2,
    } = a;
    h.word(*cycle);
    for v in [
        fetched,
        renamed,
        dispatched,
        issued,
        issued_fp,
        issued_loads,
        issued_stores,
        committed,
    ] {
        h.word(u64::from(*v));
    }
    h.words(fu_active.iter().map(|&m| u64::from(m)));
    for v in [
        dcache_port_mask,
        dcache_load_accesses,
        dcache_store_accesses,
        dcache_misses,
        l2_accesses,
    ] {
        h.word(u64::from(*v));
    }
    h.word(u64::from(*icache_access));
    h.word(u64::from(*icache_miss));
    for v in [
        bpred_lookups,
        bpred_mispredicts,
        regfile_reads,
        regfile_writes,
        result_bus_used,
    ] {
        h.word(u64::from(*v));
    }
    h.words(latch_occupancy.iter().map(|&v| u64::from(v)));
    h.words(grants.iter().flat_map(|g| {
        [
            g.class.index() as u64,
            g.instance as u64,
            u64::from(g.exec_start),
            u64::from(g.active_len),
        ]
    }));
    for v in [
        decode_ready_next,
        iq_occupancy,
        rob_occupancy,
        lsq_occupancy,
        store_ports_next,
        result_bus_in_2,
    ] {
        h.word(u64::from(*v));
    }
}

/// Run `bench` for [`COMMITS`] commits, calling `each_cycle` with the
/// processor and the cycle number before every step, and return the
/// digest of the whole activity stream.
fn fingerprint_with(
    cfg: SimConfig,
    policy: FuSelectPolicy,
    bench: &str,
    mut each_cycle: impl FnMut(&mut Processor<SyntheticWorkload>, u64),
) -> u64 {
    let stream = SyntheticWorkload::new(Spec2000::by_name(bench).expect("known"), SEED);
    let mut cpu = Processor::with_policy(cfg, stream, policy);
    let mut h = Fnv::new();
    while cpu.committed() < COMMITS {
        let cycle = cpu.cycle();
        each_cycle(&mut cpu, cycle);
        fold(&mut h, cpu.step());
    }
    h.word(cpu.cycle());
    h.0
}

fn fingerprint(cfg: SimConfig, policy: FuSelectPolicy, bench: &str) -> u64 {
    fingerprint_with(cfg, policy, bench, |_, _| {})
}

fn check(config: &str, pinned: [u64; 4], run: impl Fn(&str) -> u64) {
    let actual: Vec<u64> = BENCHES.iter().map(|b| run(b)).collect();
    let listing: Vec<String> = actual.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(
        actual,
        pinned,
        "{config}: activity fingerprints moved for {BENCHES:?}; now [{}]",
        listing.join(", ")
    );
}

#[test]
fn baseline_8wide() {
    check("baseline_8wide", PINNED_BASELINE, |b| {
        fingerprint(SimConfig::baseline_8wide(), FuSelectPolicy::default(), b)
    });
}

#[test]
fn deep_pipeline_20() {
    check("deep_pipeline_20", PINNED_DEEP, |b| {
        fingerprint(SimConfig::deep_pipeline_20(), FuSelectPolicy::default(), b)
    });
}

#[test]
fn dcache_next_line_prefetch() {
    check("dcache_next_line_prefetch", PINNED_PREFETCH, |b| {
        let cfg = SimConfig {
            dcache_next_line_prefetch: true,
            ..SimConfig::baseline_8wide()
        };
        fingerprint(cfg, FuSelectPolicy::default(), b)
    });
}

#[test]
fn store_timing_delay_one_cycle() {
    check("StoreTiming::DelayOneCycle", PINNED_STORE_DELAY, |b| {
        let cfg = SimConfig {
            store_timing: StoreTiming::DelayOneCycle,
            ..SimConfig::baseline_8wide()
        };
        fingerprint(cfg, FuSelectPolicy::default(), b)
    });
}

#[test]
fn fu_select_round_robin() {
    check("FuSelectPolicy::RoundRobin", PINNED_ROUND_ROBIN, |b| {
        fingerprint(SimConfig::baseline_8wide(), FuSelectPolicy::RoundRobin, b)
    });
}

#[test]
fn constraints_toggled_every_few_thousand_cycles() {
    // The PLB path: issue width, fetch width and unit enables change
    // while instructions are in flight.
    let cfg = SimConfig::baseline_8wide();
    let full = ResourceConstraints::unrestricted(&cfg);
    let modes = [
        full,
        full.with_issue_width(4)
            .with_fetch_width(4)
            .with_enabled(FuClass::IntAlu, 3)
            .with_enabled(FuClass::IntMulDiv, 1)
            .with_enabled(FuClass::FpAlu, 2)
            .with_enabled(FuClass::FpMulDiv, 1),
        full.with_issue_width(6)
            .with_enabled(FuClass::IntAlu, 4)
            .with_enabled(FuClass::MemPort, 1),
        full.with_issue_width(2)
            .with_fetch_width(2)
            .with_enabled(FuClass::IntAlu, 1)
            .with_enabled(FuClass::FpAlu, 1),
    ];
    check("set_constraints toggled", PINNED_CONSTRAINED, |b| {
        fingerprint_with(cfg.clone(), FuSelectPolicy::default(), b, |cpu, cycle| {
            if cycle % 2_500 == 0 {
                cpu.set_constraints(modes[(cycle / 2_500) as usize % modes.len()]);
            }
        })
    });
}

// gzip, mcf, swim, art.
const PINNED_BASELINE: [u64; 4] = [
    0x33f4_05e9_5037_f47a,
    0x1a57_7fbe_e1f8_5628,
    0x6b2f_db8d_7282_8fd9,
    0xe427_6030_6297_e775,
];
const PINNED_DEEP: [u64; 4] = [
    0x87ac_ca06_e003_6c93,
    0x22be_c9f4_34d6_ee38,
    0x8d1c_8712_a681_a9a5,
    0xdf57_ab75_d710_126a,
];
const PINNED_PREFETCH: [u64; 4] = [
    0xe5b7_36d2_a56d_ac3c,
    0xac5b_3041_2d16_3720,
    0xe841_b0a7_db03_e27e,
    0x7766_c995_274d_fdac,
];
const PINNED_STORE_DELAY: [u64; 4] = [
    0xc174_e282_39bf_0469,
    0x4619_cb19_dd8f_247b,
    0x62f0_714f_a26a_6ed6,
    0xc8e7_aa11_df5b_5d74,
];
const PINNED_ROUND_ROBIN: [u64; 4] = [
    0x07bc_fa68_2964_5a8f,
    0xb11b_1807_9f66_836b,
    0xe2ea_c4fd_724c_7ed9,
    0x3f59_960f_2fe1_1cec,
];
const PINNED_CONSTRAINED: [u64; 4] = [
    0x4c8d_ca8f_8762_bd8a,
    0xa288_d457_a6ca_e7eb,
    0x0217_157b_3ce2_98fd,
    0x088c_b27a_6fcd_7724,
];
