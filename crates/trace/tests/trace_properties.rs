//! Property tests: the activity-trace encoding is exact for arbitrary
//! per-cycle records and fails *cleanly* (never panics) on corrupted or
//! truncated input.

use dcg_isa::FuClass;
use dcg_sim::{CycleActivity, FuGrant};
use dcg_testkit::prop::{self, Gen};
use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter, ACTIVITY_TRAILER_LEN};

/// Latch-group count used by all activity-frame property tests.
const ACT_GROUPS: usize = 6;

fn act_header() -> ActivityHeader {
    ActivityHeader::new("prop", 0xfeed_f00d, 17, 100, 900, ACT_GROUPS).expect("valid header")
}

/// An arbitrary (not necessarily physically plausible) per-cycle activity
/// record — the frame format must round-trip any field values exactly.
fn arb_activity() -> Gen<CycleActivity> {
    prop::tuple((
        prop::vec(prop::any_u64(), 35..=35usize),
        prop::vec(prop::any_u64(), 0..=4usize),
        prop::any_bool(),
        prop::any_bool(),
    ))
    .map(|(words, grant_words, icache_access, icache_miss)| {
        let w = |i: usize| (words[i] & 0xffff_ffff) as u32;
        let mut a = CycleActivity {
            fetched: w(0),
            renamed: w(1),
            dispatched: w(2),
            issued: w(3),
            issued_fp: w(4),
            issued_loads: w(5),
            issued_stores: w(6),
            committed: w(7),
            fu_active: [w(8), w(9), w(10), w(11), w(12)],
            dcache_port_mask: w(13),
            dcache_load_accesses: w(14),
            dcache_store_accesses: w(15),
            dcache_misses: w(16),
            l2_accesses: w(17),
            icache_access,
            icache_miss,
            bpred_lookups: w(18),
            bpred_mispredicts: w(19),
            regfile_reads: w(20),
            regfile_writes: w(21),
            result_bus_used: w(22),
            decode_ready_next: w(23),
            iq_occupancy: w(24),
            rob_occupancy: w(25),
            lsq_occupancy: w(26),
            store_ports_next: w(27),
            result_bus_in_2: w(28),
            latch_occupancy: (0..ACT_GROUPS).map(|g| w(29 + g)).collect(),
            ..CycleActivity::default()
        };
        a.grants = grant_words
            .iter()
            .map(|gw| FuGrant {
                class: FuClass::from_index((*gw as usize) % FuClass::COUNT).expect("in range"),
                instance: ((gw >> 8) & 0xff) as usize,
                exec_start: ((gw >> 16) & 0xffff) as u32,
                active_len: ((gw >> 32) & 0xffff) as u32,
            })
            .collect();
        a
    })
}

fn encode_activities(cycles: &[CycleActivity]) -> Vec<u8> {
    let mut w = ActivityTraceWriter::new(Vec::new(), &act_header()).expect("header");
    for a in cycles {
        w.write_cycle(a).expect("write");
    }
    w.finish().expect("finish")
}

#[test]
fn activity_roundtrip_any_records() {
    prop::check(
        "activity_roundtrip_any_records",
        prop::vec(arb_activity(), 0..=20usize),
        |mut cycles| {
            let buf = encode_activities(&cycles);
            let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
            let committed: u64 = cycles.iter().map(|a| u64::from(a.committed)).sum();
            assert_eq!(
                r.verified_totals(),
                Some((cycles.len() as u64, committed)),
                "trailer totals match what was written"
            );
            let mut back = CycleActivity::default();
            for (i, expect) in cycles.iter_mut().enumerate() {
                // Cycle numbers are implicit in the frame; the reader
                // reconstructs them by counting.
                expect.cycle = i as u64 + 1;
                assert!(r.read_cycle(&mut back).expect("read"));
                assert_eq!(&back, expect, "record {i}");
            }
            assert!(!r.read_cycle(&mut back).expect("clean eof"));
        },
    );
}

#[test]
fn activity_arbitrary_byte_tails_never_panic() {
    // A valid activity header followed by arbitrary bytes must decode to
    // clean records and then fail cleanly — never panic.
    prop::check(
        "activity_arbitrary_byte_tails_never_panic",
        prop::vec(0u8..=255, 0..256usize),
        |garbage| {
            let mut buf = Vec::new();
            act_header().write_to(&mut buf).expect("header");
            buf.extend(garbage);
            let mut r = match ActivityTraceReader::new(&buf[..]) {
                Ok(r) => r,
                Err(_) => return, // garbage can fake a trailer with a bad checksum
            };
            let mut act = CycleActivity::default();
            while let Ok(true) = r.read_cycle(&mut act) {}
        },
    );
}

#[test]
fn activity_truncated_streams_error_cleanly() {
    // Any proper prefix of a finished activity trace must yield a clean
    // Err or a clean early EOF — never a panic, never a torn record.
    prop::check(
        "activity_truncated_streams_error_cleanly",
        prop::tuple((prop::vec(arb_activity(), 1..=8usize), prop::any_u64())),
        |(cycles, cut_choice)| {
            let header_len = {
                let mut hdr = Vec::new();
                act_header().write_to(&mut hdr).expect("header");
                hdr.len()
            };
            let buf = encode_activities(&cycles);
            assert!(buf.len() > header_len + ACTIVITY_TRAILER_LEN);
            // Cut strictly inside the stream (header boundary excluded,
            // full length excluded).
            let cut = header_len + (cut_choice as usize) % (buf.len() - header_len);
            let mut r = match ActivityTraceReader::new(&buf[..cut]) {
                Ok(r) => r,
                Err(_) => return, // cut inside the trailer can fail the checksum
            };
            assert_eq!(r.verified_totals(), None, "a cut file is never verified");
            let mut act = CycleActivity::default();
            let mut decoded = 0usize;
            loop {
                match r.read_cycle(&mut act) {
                    Ok(true) => decoded += 1,
                    // A cut on a record boundary reads as clean early EOF.
                    Ok(false) => break,
                    Err(e) => {
                        let _ = format!("{e}"); // displayable, not a panic
                        break;
                    }
                }
            }
            assert!(decoded <= cycles.len());
        },
    );
}
